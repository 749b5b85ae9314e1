#!/usr/bin/env bash
# Full pre-merge check: documentation consistency (tools/check_docs.sh),
# then build + test the normal config (plus a build and test run of the
# replay benchmark in perfbench/, a perf_scale smoke that validates the
# edm-bench-result/1 JSON shape, the streaming-replay RSS ceiling and the
# materialised replay's single copy of the trace, and
# an open-loop smoke asserting per-tenant p99 separation under overload
# and the workload JSON shape), then the asan-ubsan config plus fault,
# open-loop, determinism and parallelism smokes (ext_failslow/
# ext_openloop --quick under the sanitizers, asserting detector quality
# and the edm-run-result/4 health JSON shape; a monitor-mode run twice
# with report, trace and time-series compared byte for byte; and
# --flash-geometry=flat byte-identity plus ext_parallelism --quick
# queue-depth scaling), then the concurrency-sensitive tests (telemetry,
# thread pool, sweep runner, logging) under ThreadSanitizer
# (CMakePresets.json).  Any failure aborts.
#
#   tools/check.sh [--fast]   # --fast skips the sanitizer configs
#   tools/check.sh --smoke <name> [build_dir]
#
# --smoke runs one smoke stage against an existing build (default: build)
# and nothing else; <name> is perfbench, scale, openloop, fault,
# determinism or parallelism.  CI calls the smokes this way, so each is
# defined once.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

# The replay benchmark (perfbench/, BENCHMARK.json) is a CMake project of
# its own that compiles ../src, so a src/ change can break it while the
# root build stays green.  Build it and run its tests, which include the
# check that a benchmark cell replays exactly like sim::run_experiment.
perfbench_smoke() {
  echo "== perfbench build + test =="
  cmake -S perfbench -B .bench_build >/dev/null
  cmake --build .bench_build -j "$jobs" >/dev/null
  ctest --test-dir .bench_build --output-on-failure
}

# Smoke the memory-scaling bench: a --quick run (one streaming cell at
# scale 2, own subprocess) must succeed, emit schema-valid JSON with the
# perf_scale cell fields, and stay under a generous RSS ceiling.  The
# ceiling (256 MiB) sits ~6x above the measured streaming footprint at
# this cell and well below the ~540 MiB a materialized run would need --
# it trips if streaming replay ever silently falls back to materialising
# the trace, while staying deaf to allocator noise.
scale_smoke() {
  local build_dir="${1:-build}"
  echo "== scale smoke (perf_scale --quick, $build_dir) =="
  local out
  out=$(mktemp)
  "$build_dir/bench/perf_scale" --quick --out="$out" >/dev/null
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "edm-bench-result/1", d.get("schema")
assert d.get("bench") == "perf_scale", d.get("bench")
assert "provenance" in d, "missing provenance"
assert d["cells"], "no cells"
cell_keys = {"scale", "mode", "trace", "policy", "num_osds",
             "events_processed", "completed_ops", "replay_wall_s",
             "setup_wall_s", "events_per_sec", "peak_rss_bytes"}
ceiling = 256 * 1024 * 1024
for c in d["cells"]:
    missing = cell_keys - c.keys()
    assert not missing, f"cell missing {missing}"
    assert c["events_processed"] > 0, "empty replay"
    assert c["mode"] == "streaming", c["mode"]
    assert 0 < c["peak_rss_bytes"] < ceiling, (
        f"peak RSS {c['peak_rss_bytes']} outside (0, {ceiling}): "
        "streaming replay should stay tens-of-MiB at scale 2")
print(f"scale smoke: {len(d['cells'])} cells, RSS "
      f"{max(c['peak_rss_bytes'] for c in d['cells'])/2**20:.1f} MiB "
      f"< 256 MiB ceiling, JSON shape ok")
EOF
  # Both modes at scale 0.5: a materialised replay reads its trace in place,
  # so it may hold the trace once (completed_ops records of 24 bytes) above
  # the streaming footprint, with a quarter of slack, but not the second
  # copy per-client record vectors would add.
  "$build_dir/bench/perf_scale" --scales=0.5 --repeat=1 --out="$out" \
      >/dev/null
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cells = {c["mode"]: c for c in json.load(f)["cells"]}
m, s = cells["materialized"], cells["streaming"]
trace_bytes = m["completed_ops"] * 24
excess = m["peak_rss_bytes"] - s["peak_rss_bytes"]
assert excess <= 1.25 * trace_bytes, (
    f"materialised peak RSS exceeds streaming by {excess/2**20:.1f} MiB, "
    f"{excess/trace_bytes:.2f}x the {trace_bytes/2**20:.1f} MiB trace: "
    "the replay holds more than one copy of it")
print(f"scale smoke: materialised - streaming = {excess/2**20:.1f} MiB, "
      f"{excess/trace_bytes:.2f}x the trace (limit 1.25x)")
EOF
  rm -f "$out"
}

# Open-loop smoke: the multi-tenant SLO bench and the runner's workload
# JSON section.  Asserts the subsystem's headline property: per-tenant
# p99s separate under overload, which the closed-loop reference cannot
# express.
openloop_smoke() {
  local build_dir="${1:-build}"
  echo "== open-loop smoke (ext_openloop --quick, $build_dir) =="
  local out
  out=$(mktemp)
  "$build_dir/bench/ext_openloop" --quick --no-progress --out="$out" \
      >/dev/null
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "edm-bench-result/1", d.get("schema")
assert d.get("bench") == "ext_openloop", d.get("bench")
assert "provenance" in d, "missing provenance"
assert d["sweep"], "no sweep cells"
for cell in d["sweep"]:
    assert len(cell["tenants"]) == 2, "expected a two-tenant overlay"
    for t in cell["tenants"]:
        assert t["completed_ops"] > 0, f"{t['name']}: nothing completed"
        assert t["p99_response_us"] >= t["p50_response_us"] > 0
ref = d["closed_loop_reference"]
assert ref and not any(r["offered_load_expressible"] for r in ref)
a = d["assertions"]
assert a["tenant_p99_separated"], (
    f"per-tenant p99s did not separate under overload "
    f"(ratio {a['tenant_p99_separation']:.2f} at "
    f"{a['separation_multiplier']}x)")
print(f"open-loop smoke: {len(d['sweep'])} cells, tenant p99 separation "
      f"{a['tenant_p99_separation']:.2f}x at {a['separation_multiplier']}x "
      f"offered, JSON shape ok")
EOF
  "$build_dir/tools/edm_run" --scale=0.01 --arrival=poisson \
      --tenants=home02:2000:25,lair62:1000:50 --json >"$out"
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "edm-run-result/4", d.get("schema")
assert "p50_response_us" in d["summary"], "missing p50"
w = d["workload"]
workload_keys = {"open_loop", "offered_ops_per_sec", "arrivals",
                 "last_arrival_us", "peak_queue_depth", "tenants"}
missing = workload_keys - w.keys()
assert not missing, f"workload section missing {missing}"
assert w["open_loop"] == 1, "open loop not active"
assert len(w["tenants"]) == 2, "expected two tenants"
tenant_keys = {"name", "offered_ops_per_sec", "slo_us", "arrivals",
               "completed_ops", "slo_violations", "slo_violation_fraction",
               "mean_response_us", "p50_response_us", "p99_response_us",
               "p999_response_us"}
for t in w["tenants"]:
    missing = tenant_keys - t.keys()
    assert not missing, f"tenant {t.get('name')} missing {missing}"
    assert t["completed_ops"] == t["arrivals"], "dropped arrivals"
assert "provenance" in d, "edm_run --json should stamp provenance"
print(f"open-loop run smoke: {w['arrivals']} arrivals across "
      f"{len(w['tenants'])} tenants, peak queue {w['peak_queue_depth']}, "
      f"JSON shape ok")
EOF
  rm -f "$out"
}

# Fault smoke: the fail-slow bench, the runner's health JSON and the
# --fail-osd/--fail-at-fraction translation, under whichever build "$1"
# points at (the sanitizer build in the full check).
# The replay is deterministic, so the detector-quality assertions hold at
# any build type; the sanitizers are what this stage adds.
fault_smoke() {
  local build_dir="$1"
  echo "== fault smoke (ext_failslow --quick, $build_dir) =="
  local out
  out=$(mktemp)
  "$build_dir/bench/ext_failslow" --quick --out="$out" >/dev/null
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "edm-bench-result/1", d.get("schema")
assert d.get("bench") == "ext_failslow", d.get("bench")
assert "provenance" in d, "missing provenance"
assert d["detection"], "no detection entries"
for t in d["detection"]:
    assert t["false_positives"] == 0, (
        f"{t['trace']}: monitor flagged healthy OSDs {t['flagged_clean']}")
    assert t["flagged_detect"] == [t["injected_osd"]], (
        f"{t['trace']}: flagged {t['flagged_detect']}, "
        f"injected {t['injected_osd']}")
    assert t["p99_improvement"] >= 2.0, (
        f"{t['trace']}: mitigation recovered only "
        f"{t['p99_improvement']:.2f}x of the injected p99 damage")
print("fault smoke: " + ", ".join(
    f"{t['trace']} flagged=[{t['injected_osd']}] fp=0 "
    f"p99x{t['p99_improvement']:.2f}" for t in d["detection"]))
EOF
  "$build_dir/tools/edm_run" --scale=0.01 --health \
      --slow-at=3:0.2:8:0.05:4 --json >"$out"
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "edm-run-result/4", d.get("schema")
health_keys = {"enabled", "mitigated", "checks", "flag_events",
               "clear_events", "flagged_osds", "first_flagged_at_us",
               "quarantined_at_end", "hedged_reads", "hedge_wins",
               "hedge_redundant", "drain_triggers", "drain_planned",
               "drain_moved"}
missing = health_keys - d["health"].keys()
assert not missing, f"health section missing {missing}"
assert d["health"]["enabled"] == 1, "health not enabled"
assert d["health"]["checks"] > 0, "no health checks ran"
assert "p999_response_us" in d["summary"], "missing p999"
f = d["faults"]
assert {"slowdown_events", "recover_events",
        "stalls_injected"} <= f.keys(), "missing fail-slow counters"
assert f["slowdown_events"] == 1, f["slowdown_events"]
print(f"run smoke: edm-run-result/4, {d['health']['checks']} health "
      f"checks, {f['stalls_injected']} stalls, JSON shape ok")
EOF
  # --fail-osd/--fail-at-fraction become a FaultPlan fraction failure at
  # the flag layer: the run must fail that OSD and read around it, an OSD
  # outside the cluster must be one line on stderr and exit status 1, and
  # a fraction without --fail-osd one line naming both and exit status 2.
  "$build_dir/tools/edm_run" --scale=0.01 --fail-osd=1 \
      --fail-at-fraction=0.5 --json >"$out"
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    g = json.load(f)["degraded"]
assert g["failed_osd"] == 1, f"failed_osd {g['failed_osd']}, expected 1"
assert g["degraded_reads"] > 0, "no read met the failed OSD"
print(f"fraction-failure smoke: OSD 1 failed at {g['failed_at_us']} us, "
      f"{g['degraded_reads']} degraded reads")
EOF
  local status=0
  "$build_dir/tools/edm_run" --scale=0.01 --fail-osd=99 >/dev/null \
      2>"$out" || status=$?
  if [[ $status -ne 1 || $(wc -l <"$out") -ne 1 ]]; then
    echo "fault smoke: --fail-osd=99 exited $status with" \
        "$(wc -l <"$out") stderr lines, expected 1 and 1" >&2
    cat "$out" >&2
    rm -f "$out"
    return 1
  fi
  echo "fraction-failure smoke: --fail-osd=99 rejected: $(cat "$out")"
  status=0
  "$build_dir/tools/edm_run" --scale=0.01 --fail-at-fraction=0.3 >/dev/null \
      2>"$out" || status=$?
  if [[ $status -ne 2 || $(wc -l <"$out") -ne 1 ]] ||
      ! grep -q -- "--fail-at-fraction.*--fail-osd" "$out"; then
    echo "fault smoke: --fail-at-fraction alone exited $status with" \
        "$(wc -l <"$out") stderr lines, expected 2 and 1 naming" \
        "--fail-at-fraction and --fail-osd" >&2
    cat "$out" >&2
    rm -f "$out"
    return 1
  fi
  echo "fraction-failure smoke: --fail-at-fraction alone rejected: $(cat "$out")"
  rm -f "$out"
}

# Determinism smoke: the heaviest configuration -- CDF on the wear
# monitor with adaptive sigma (two migrations), the health monitor with
# mitigation on, tracing and time-series on -- run twice through the CLI
# under whichever build "$1" points at.  Report, Chrome trace and
# time-series CSV must be byte-identical (docs/internals/sim.md), and the
# run must have planned, so the sigma fit and Algorithm 1 run under the
# sanitizers.
determinism_smoke() {
  local build_dir="$1"
  echo "== determinism smoke (monitor-mode run twice, $build_dir) =="
  local tmpdir
  tmpdir=$(mktemp -d)
  local flags=(--trace=home02 --scale=0.02 --policy=cdf --trigger=monitor
               --lambda=0.01 --adaptive --health --mitigate --json --quiet)
  local run
  for run in 1 2; do
    "$build_dir/tools/edm_run" "${flags[@]}" \
        --trace-out="$tmpdir/$run-trace.json" \
        --timeseries-out="$tmpdir/$run-series.csv" >"$tmpdir/$run-report.json"
  done
  local stream
  for stream in report.json trace.json series.csv; do
    if ! cmp -s "$tmpdir/1-$stream" "$tmpdir/2-$stream"; then
      echo "determinism smoke: $stream differs between identical runs" >&2
      rm -rf "$tmpdir"
      return 1
    fi
  done
  if ! python3 - "$tmpdir/1-report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    triggers = json.load(f)["migration"]["triggers"]
assert triggers >= 1, f"determinism smoke: monitor never planned ({triggers})"
EOF
  then
    rm -rf "$tmpdir"
    return 1
  fi
  rm -rf "$tmpdir"
  echo "determinism smoke: report/trace/time-series byte-identical, planned"
}

# Parallelism smoke: the flash internal-parallelism model, end to end
# through the CLI and the ext_parallelism bench, under whichever build
# "$1" points at.  --flash-geometry=flat must be byte-identical to the
# default flat model (the 1x1x1 equivalence contract,
# docs/internals/flash.md), and ext_parallelism --quick must emit
# schema-valid JSON whose nvme cells scale with queue depth while the
# flat cells replay identically at every depth.
parallelism_smoke() {
  local build_dir="$1"
  echo "== parallelism smoke (1x1x1 identity + ext_parallelism --quick, $build_dir) =="
  local flat explicit
  flat=$(mktemp)
  explicit=$(mktemp)
  "$build_dir/tools/edm_run" --trace=home02 --scale=0.01 --json --quiet \
      >"$flat"
  "$build_dir/tools/edm_run" --trace=home02 --scale=0.01 \
      --flash-geometry=flat --json --quiet >"$explicit"
  if ! cmp -s "$flat" "$explicit"; then
    echo "parallelism smoke: --flash-geometry=flat JSON differs from default" >&2
    diff "$flat" "$explicit" >&2 || true
    rm -f "$flat" "$explicit"
    return 1
  fi
  echo "parallelism smoke: --flash-geometry=flat byte-identical to default"
  local out
  out=$(mktemp)
  "$build_dir/bench/ext_parallelism" --quick --out="$out" >/dev/null 2>&1
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "edm-bench-result/1", d.get("schema")
assert d.get("bench") == "ext_parallelism", d.get("bench")
assert "provenance" in d, "missing provenance"
assert d["cells"], "no cells"
cell_keys = {"geometry", "channels", "dies_per_channel", "planes_per_die",
             "bus_ctrl_us", "bus_data_us", "osd_qd", "completed_ops",
             "makespan_us", "throughput_ops_s", "speedup_vs_qd1"}
for c in d["cells"]:
    missing = cell_keys - c.keys()
    assert not missing, f"cell missing {missing}"
    assert c["completed_ops"] > 0, "empty replay"
flat = {c["makespan_us"] for c in d["cells"] if c["geometry"] == "flat"}
assert len(flat) == 1, f"flat geometry scaled with queue depth: {flat}"
nvme = [c for c in d["cells"] if c["geometry"] == "nvme"]
deepest = max(nvme, key=lambda c: c["osd_qd"])
assert deepest["speedup_vs_qd1"] > 1.1, (
    f"nvme speedup {deepest['speedup_vs_qd1']:.2f} at qd "
    f"{deepest['osd_qd']}: queue depth bought no throughput")
print(f"parallelism smoke: {len(d['cells'])} cells, flat invariant at "
      f"every depth, nvme x{deepest['speedup_vs_qd1']:.2f} at qd "
      f"{deepest['osd_qd']}, JSON shape ok")
EOF
  rm -f "$flat" "$explicit" "$out"
}

run_preset() {
  local preset="$1"
  echo "== configure ($preset) =="
  cmake --preset "$preset"
  echo "== build ($preset) =="
  cmake --build --preset "$preset" -j "$jobs"
  echo "== test ($preset) =="
  ctest --preset "$preset"
}

if [[ "${1:-}" == "--smoke" ]]; then
  case "${2:-}" in
    perfbench | scale | openloop | fault | determinism | parallelism)
      "${2}_smoke" "${3:-build}"
      exit 0
      ;;
    *)
      echo "usage: tools/check.sh --smoke" \
          "perfbench|scale|openloop|fault|determinism|parallelism" \
          "[build_dir]" >&2
      exit 2
      ;;
  esac
fi

echo "== docs =="
tools/check_docs.sh

run_preset default
perfbench_smoke
scale_smoke
openloop_smoke build
if [[ "${1:-}" != "--fast" ]]; then
  run_preset asan-ubsan
  fault_smoke build-asan
  openloop_smoke build-asan
  determinism_smoke build-asan
  parallelism_smoke build-asan
  run_preset tsan
else
  fault_smoke build
  determinism_smoke build
  parallelism_smoke build
fi
echo "== all checks passed =="
