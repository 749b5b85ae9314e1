#!/usr/bin/env bash
# Full pre-merge check: documentation consistency (tools/check_docs.sh)
# and the doctests of tools/perf_pairs.py's verdict rules, then build +
# test the normal config (plus a build and test run of the
# replay benchmark in perfbench/, a perf_scale smoke that validates the
# edm-bench-result/1 JSON shape, the streaming-replay RSS ceiling and the
# materialised replay's single copy of the trace, and an open-loop smoke
# asserting per-tenant p99 separation under overload and the workload
# JSON shape), then the asan-ubsan config plus fault, open-loop,
# determinism and parallelism smokes (the experiments driver's
# ext_failslow, ext_openloop and ext_parallelism entries at --scale=0.02
# with --out under the sanitizers, asserting detector quality, tenant
# separation and queue-depth scaling from the printed tables, and the
# edm-run-result/4 health JSON shape; a monitor-mode run twice with
# report, trace and time-series compared byte for byte; and
# --flash-geometry=flat byte-identity), then the concurrency-sensitive
# tests (telemetry, thread pool, sweep runner) under
# ThreadSanitizer (CMakePresets.json).  Any failure aborts.
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

# Runs experiments entry "$2" at --scale=0.02 under build "$1" with
# --out="$3"; a non-zero exit, such as a tripped guard, fails the smoke.
# Then checks the document's shape (schema, provenance, the one entry at
# that scale, its first table's columns as listed comma-separated in "$4")
# and rewrites "$3" as that table's rows, one JSON object of printed
# cells per column name, for the caller's checks.
experiment_smoke() {
  "$1/bench/experiments" --experiment="$2" --scale=0.02 --no-progress \
      --out="$3" >/dev/null
  python3 - "$3" "$2" "$4" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "edm-experiments/1", d.get("schema")
assert "provenance" in d, "missing provenance"
[e] = d["experiments"]
assert (e["name"], e["scale"]) == (sys.argv[2], 0.02), (e["name"], e["scale"])
t = e["tables"][0]
assert t["columns"] == sys.argv[3].split(","), t["columns"]
assert t["rows"], "no rows"
with open(sys.argv[1], "w") as f:
    json.dump([dict(zip(t["columns"], r)) for r in t["rows"]], f)
EOF
}

# Open-loop smoke: the multi-tenant SLO entry and the runner's workload
# JSON section.  Asserts the subsystem's headline property: per-tenant
# p99s separate under overload, which the closed-loop reference cannot
# express.
openloop_smoke() {
  local build_dir="${1:-build}"
  echo "== open-loop smoke (experiments ext_openloop, $build_dir) =="
  local out
  out=$(mktemp)
  experiment_smoke "$build_dir" ext_openloop "$out" \
      "policy,mult,offered(op/s),peakQ,tenant,p50(ms),p99(ms),p999(ms),viol%"
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = json.load(f)
closed = [r["policy"] for r in rows if r["policy"].endswith(" (closed)")]
cells = {}
for r in rows:
    if not r["policy"].endswith(" (closed)"):
        cells.setdefault((r["policy"], float(r["mult"])), []).append(r)
assert cells, "no open-loop cells"
for key, tenants in cells.items():
    assert len(tenants) == 2, f"{key}: expected a two-tenant overlay"
    for r in tenants:
        # An empty histogram reads 0, so p50 > 0 means ops completed.
        p50, p99 = float(r["p50(ms)"]), float(r["p99(ms)"])
        assert p99 >= p50 > 0, f"{key} {r['tenant']}: p50 {p50}, p99 {p99}"
policies = list(dict.fromkeys(p for p, _ in cells))
assert closed == [p + " (closed)" for p in policies], (
    f"closed-loop reference rows {closed} for policies {policies}")
deepest = max(m for _, m in cells)
p99s = [float(r["p99(ms)"]) for r in cells[(policies[0], deepest)]]
separation = max(p99s) / min(p99s)
assert separation > 1.05, (
    f"per-tenant p99s did not separate under overload "
    f"(ratio {separation:.2f} at {deepest}x, {policies[0]})")
print(f"open-loop smoke: {len(cells)} cells, tenant p99 separation "
      f"{separation:.2f}x at {deepest}x offered ({policies[0]}), "
      f"closed-loop reference present")
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

# Fault smoke: the fail-slow entry, the runner's health JSON and the
# --fail-osd/--fail-at-fraction translation, under whichever build "$1"
# points at (the sanitizer build in the full check).
# The replay is deterministic, so the detector-quality assertions hold at
# any build type; the sanitizers are what this stage adds.
fault_smoke() {
  local build_dir="$1"
  echo "== fault smoke (experiments ext_failslow, $build_dir) =="
  local out
  out=$(mktemp)
  experiment_smoke "$build_dir" ext_failslow "$out" \
      "trace,mode,p99(ms),p999(ms),makespan(s),flagged,detect(s),hedged(wins),drained"
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = json.load(f)
traces = {}
for r in rows:
    traces.setdefault(r["trace"], {})[r["mode"]] = r
summary = []
for trace, m in traces.items():
    clean = m["clean (+monitor)"]["flagged"]
    assert clean == "-", f"{trace}: monitor flagged healthy OSDs {clean}"
    # The entry injects OSD 3.
    detect = m["+ detection"]["flagged"]
    assert detect == "3", f"{trace}: flagged {detect}, injected 3"
    recovery = (float(m["fail-slow"]["p99(ms)"]) /
                float(m["+ hedge/quarantine"]["p99(ms)"]))
    assert recovery >= 2.0, (
        f"{trace}: mitigation recovered only {recovery:.2f}x of the "
        f"injected p99 damage")
    summary.append(f"{trace} flagged=[3] fp=0 p99x{recovery:.2f}")
print("fault smoke: " + ", ".join(summary))
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
# through the CLI and the ext_parallelism entry, under whichever build
# "$1" points at.  --flash-geometry=flat must be byte-identical to the
# default flat model (the 1x1x1 equivalence contract,
# docs/internals/flash.md).  ext_parallelism must exit 0 (its own exact
# guards fail it when a flat makespan moves with depth or a parallel
# geometry stops scaling) and print every cell with completed ops, one
# flat makespan at every depth and nvme scaling with queue depth.
parallelism_smoke() {
  local build_dir="$1"
  echo "== parallelism smoke (1x1x1 identity + experiments ext_parallelism, $build_dir) =="
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
  experiment_smoke "$build_dir" ext_parallelism "$out" \
      "geometry,qd,ops,makespan(s),ops/s,speedup"
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cells = json.load(f)
for c in cells:
    assert int(c["ops"]) > 0, f"{c['geometry']} qd {c['qd']}: empty replay"
flat = {c["makespan(s)"] for c in cells if c["geometry"] == "flat"}
assert len(flat) == 1, f"flat geometry scaled with queue depth: {flat}"
nvme = [c for c in cells if c["geometry"] == "nvme"]
deepest = max(nvme, key=lambda c: int(c["qd"]))
assert float(deepest["speedup"]) > 1.1, (
    f"nvme speedup {deepest['speedup']} at qd {deepest['qd']}: "
    f"queue depth bought no throughput")
print(f"parallelism smoke: {len(cells)} cells, flat invariant at every "
      f"depth, nvme x{deepest['speedup']} at qd {deepest['qd']}")
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
python3 -m doctest tools/perf_pairs.py

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
