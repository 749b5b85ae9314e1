#!/usr/bin/env python3
"""Replay benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (CMake project perfbench/, built into .bench_build/ at
the repository root) and runs edm_perfbench on one workload.  --trace 0
reports the end-to-end metrics of untraced runs; --trace 1 reports the
per-layer metrics of a separate traced run.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Build output
and diagnostics go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
# A run must end within 180 s; leave room for start-up and the result line.
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then brings edm_perfbench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: simulator sources not found under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "edm_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "edm_perfbench"


def manifest_metrics(section):
    with open(MANIFEST) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wanted = manifest_metrics("per_layer" if args.trace else "end_to_end")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--mode=traced", f"--spans-out={spans}"]
    else:
        cmd += ["--mode=plain"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: edm_perfbench exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = {}
    for name, unit in wanted:
        got = report["metrics"].get(name)
        if got is None:
            if report["correct"]:
                raise SystemExit(f"run.py: edm_perfbench did not report {name}")
            continue  # a failed run may stop before measuring
        if got["unit"] != unit:
            raise SystemExit(f"run.py: {name} in {got['unit']}, expected {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}

    for failure in report["failures"]:
        log("FAILED", failure)
    prov = report["provenance"]
    diagnostics = "".join(f"{name}={got['value']:.6g} "
                          for name, got in report["diagnostics"].items())
    print(f"{report['workload']} {report['mode']} seed={report['seed']} "
          f"scale={report['scale']} inputs={report['inputs']} "
          f"cells={report['cells']} {diagnostics}"
          f"fingerprint={report['fingerprint']} "
          f"telemetry={report['telemetry_digest'] or '-'} | "
          f"{prov['compiler']} {prov['build_type']} [{prov['cxx_flags'].strip()}] "
          f"{prov['cpu_model']} nproc={prov['nproc']} "
          f"commit={prov['commit'] or '-'}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
