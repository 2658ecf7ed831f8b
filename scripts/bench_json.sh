#!/usr/bin/env bash
# Benchmark runner with machine-readable output: runs the named benchmark
# binaries and writes BENCH_<name>[<suffix>].json at the repo root, so the
# perf trajectory accumulates in version control.
#
# Usage: scripts/bench_json.sh [name ...]
#   name       benchmark binary without the bench_ prefix (default:
#              "epoch sssp" — the quiescence-hot-path pair tracked by
#              ISSUE 3's acceptance criteria)
# Environment:
#   BUILD_DIR       build tree holding bench/ binaries   (default: build)
#   BENCH_SUFFIX    filename suffix, e.g. ".baseline"    (default: empty)
#   BENCH_FILTER    --benchmark_filter regex             (default: all)
#   BENCH_ARGS      extra flags passed to every binary   (default: empty)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BENCH_SUFFIX="${BENCH_SUFFIX:-}"
BENCH_FILTER="${BENCH_FILTER:-}"
BENCH_ARGS="${BENCH_ARGS:-}"

names=("$@")
if [ ${#names[@]} -eq 0 ]; then names=(epoch sssp); fi

# Wire-backend provenance: the benchmark binaries run the in-process
# machine unless a runner says otherwise (bench_backend hosts both ends of
# the shm/tcp pipes in one process — still "inproc" process topology; the
# backend under test is in each benchmark's name).
BENCH_BACKEND="${DPG_BENCH_BACKEND:-inproc}"

for name in "${names[@]}"; do
  bin="$BUILD_DIR/bench/bench_$name"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  out="BENCH_${name}${BENCH_SUFFIX}.json"
  echo "=== bench_$name -> $out ==="
  # shellcheck disable=SC2086  # BENCH_FILTER/BENCH_ARGS are intentionally word-split
  "$bin" \
    --benchmark_out="$out" --benchmark_out_format=json \
    ${BENCH_FILTER:+--benchmark_filter="$BENCH_FILTER"} \
    $BENCH_ARGS
  # Stamp the provenance into the file's metadata block.
  BENCH_BACKEND="$BENCH_BACKEND" OUT="$out" python3 - <<'EOF'
import json, os
path = os.environ["OUT"]
with open(path) as f:
    doc = json.load(f)
# Streaming-overlay occupancy: the peak delta-overlay / tombstone counters
# any benchmark in this file reported, so a committed BENCH_*.json records
# how much un-compacted mutation state its numbers were measured under
# (0 for benchmarks that never mutate).
def peak(counter):
    return max((b.get(counter, 0) for b in doc.get("benchmarks", [])
                if isinstance(b, dict)), default=0)
doc["dpg_metadata"] = {
    "backend": os.environ["BENCH_BACKEND"],
    # Multi-pattern fusion provenance: "on"/"off" when the run measured the
    # fused vs separate triple (bench_fusion), "n/a" for everything else.
    "fusion": os.environ.get("DPG_BENCH_FUSION", "n/a"),
    "occupancy": {
        "delta_edges": peak("delta_edges"),
        "tombstoned_edges": peak("tombstoned_edges"),
        "overlay_bytes": peak("overlay_bytes"),
        "tombstone_bytes": peak("tombstone_bytes"),
    },
}
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
done
