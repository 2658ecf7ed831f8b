#!/usr/bin/env bash
# CI entry point: a -Werror build + full test suite, then ThreadSanitizer
# and AddressSanitizer+UBSan builds running the tier-1 suite, benchmark
# smoke runs with ratio guards, and the end-to-end benchmark's self-check.
# Usage: scripts/ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "=== werror build ==="
cmake --preset werror >/dev/null
cmake --build --preset werror -j "$JOBS"
# --timeout everywhere: a hang (a rank waiting forever on a peer) fails
# its test instead of stalling the pipeline.
# The suite must not leak shared-memory segments: every /dev/shm/dpg_*
# name present afterwards must have been there before it ran.
shm_segments() { ls -1 /dev/shm 2>/dev/null | grep '^dpg_' | sort || true; }
shm_before="$(shm_segments)"
ctest --test-dir build-werror --output-on-failure --timeout 240 -j "$JOBS"
shm_leaked="$(comm -13 <(printf '%s\n' "$shm_before") <(shm_segments) | grep . || true)"
if [ -n "$shm_leaked" ]; then
  echo "shm leak check FAILED: the suite left these /dev/shm segments:"
  echo "$shm_leaked"
  exit 1
fi

echo "=== pattern translator smoke ==="
# The text front end as users run it: every shipped pattern file and the
# three built-in modes must exit 0, and a guard nested 20,000 parentheses
# deep must be refused as a parse error (exit 1), not end in a signal.
for pat in examples/patterns/*.pat; do
  build-werror/examples/pattern_explain "$pat" >/dev/null
done
for mode in --demo --measure --fuse; do
  build-werror/examples/pattern_explain "$mode" >/dev/null
done
deep_pat="$(mktemp)"
python3 -c 'print("pattern P { vertex_property<double> x; action a(v) { when (" +
                  "(" * 20000 + "x[v] > 1.0" + ")" * 20000 + ") { x[v] = 1.0; } } }")' \
  >"$deep_pat"
rc=0
build-werror/examples/pattern_explain "$deep_pat" >/dev/null 2>&1 || rc=$?
rm -f "$deep_pat"
if [ "$rc" -ne 1 ]; then
  echo "translator smoke FAILED: deep nesting exited $rc, expected a parse error (1)"
  exit 1
fi

echo "=== sim seed sweep (8 seeds) ==="
# The deterministic fault-injection simulator: every algorithm under every
# fault plan, eight seeds. A failure prints the reproducing seed; replay a
# single grid point with DPG_SIM_SEEDS=<seed>.
DPG_SIM_SEEDS=1,2,3,4,5,6,7,8 \
  ctest --test-dir build-werror -L sim --output-on-failure --timeout 240 -j "$JOBS"

echo "=== tsan build ==="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure --timeout 240 -j "$JOBS"

echo "=== tsan sim sweep ==="
ctest --test-dir build-tsan -L sim --output-on-failure --timeout 240 -j "$JOBS"

echo "=== asan+ubsan build ==="
# Memory errors and undefined behaviour (misaligned atomics in the shm
# segment, out-of-bounds shard indexing, signed overflow) abort the test
# that hits them: -fno-sanitize-recover turns every UBSan report fatal.
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure --timeout 240 -j "$JOBS"

echo "=== asan+ubsan sim sweep ==="
ctest --test-dir build-asan -L sim --output-on-failure --timeout 240 -j "$JOBS"

echo "=== wire backend smoke (shm + tcp, one process per rank) ==="
# Real cross-process machines through the launcher: 4 rankproc processes
# over the shm ring and over TCP loopback. The bit-for-bit hash matrix is
# backend_sweep_test (already in the sim stages above); this stage proves
# the launcher path users actually run, including a fault plan injected
# above the shm wire.
scripts/run_ranks.sh --backend shm --ranks 4 --algo sssp --seed 1 \
  --rankproc build-werror/tools/dpg_rankproc
scripts/run_ranks.sh --backend shm --ranks 4 --algo sssp --seed 1 --plan chaos \
  --rankproc build-werror/tools/dpg_rankproc
scripts/run_ranks.sh --backend tcp --ranks 4 --algo cc --seed 1 \
  --rankproc build-werror/tools/dpg_rankproc

echo "=== wire backend smoke under tsan ==="
# The same two wires with every rank process tsan-instrumented: races in
# the ring's acquire/release protocol or the TCP reassembly path surface
# here rather than in production.
scripts/run_ranks.sh --backend shm --ranks 2 --algo bfs --seed 2 \
  --rankproc build-tsan/tools/dpg_rankproc
scripts/run_ranks.sh --backend shm --ranks 4 --algo sssp --seed 1 --plan chaos \
  --rankproc build-tsan/tools/dpg_rankproc
scripts/run_ranks.sh --backend tcp --ranks 2 --algo sssp --seed 2 \
  --rankproc build-tsan/tools/dpg_rankproc

echo "=== bench smoke (1 repetition, JSON out) ==="
# One repetition of the quiescence-hot-path and plan-compilation
# benchmarks: catches bench-code rot and emits BENCH_*.ci.json for
# inspection. The werror tree already built the bench binaries.
BUILD_DIR=build-werror BENCH_SUFFIX=.ci \
  BENCH_ARGS="--benchmark_min_time=0.01 --benchmark_repetitions=1" \
  scripts/bench_json.sh epoch sssp message_plan mutation pagerank cc

echo "=== bench ratio guard (pattern vs hand-rolled SSSP) ==="
# The declarative relax pattern has to stay within striking distance of the hand-written AM++-style SSSP at
# the same rank count — the acceptance bound is 1.1x on a quiet machine;
# CI allows 1.3x so single-repetition smoke jitter cannot flake the gate.
python3 - <<'EOF'
import json
with open("BENCH_sssp.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def real_time(name):
    for r in rows:
        if r["name"] == name and r.get("run_type", "iteration") == "iteration":
            return r["real_time"]
    raise SystemExit(f"ratio guard: benchmark '{name}' missing from BENCH_sssp.ci.json")

pattern = real_time("BM_SsspFixedPoint/2/real_time")
hand = real_time("BM_SsspHandRolledReduction/10/real_time")
ratio = pattern / hand
print(f"pattern fixed-point / hand-rolled @2 ranks: {ratio:.2f}x (limit 1.3x)")
if ratio >= 1.3:
    raise SystemExit("ratio guard FAILED: compiled pattern SSSP regressed vs hand-rolled")
EOF

echo "=== bench structural guard (Δ-stepping: each vertex pending at most once) ==="
# Δ-stepping drains the action's work queue in Δ-bucketed order, with each
# vertex pending at most once. On the scale-11 R-MAT graph (2048
# vertices) at 4 ranks, Δ=50 applies the relax action 1.88-2.14k times per
# run (0.92-1.04 per vertex, measured at 0.01 s and 0.2 s minimum times),
# against 2.63-3.22k for the FIFO fixed point and 3.04-3.44k (1.49-1.68
# per vertex) for the lazy-deletion buckets it replaced, which re-filed a
# vertex on every improvement. The bucketed order must keep applying less
# than the fixed point. The per-vertex limit of 1.4 is about 1.4x the
# measured value rather than 2x: 2x would sit above the lazy-deletion
# value, and the limit must catch duplicate entries coming back.
python3 - <<'EOF'
import json
with open("BENCH_sssp.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def row(name):
    for r in rows:
        if r["name"] == name and r.get("run_type", "iteration") == "iteration":
            return r
    raise SystemExit(f"delta guard: benchmark '{name}' missing from BENCH_sssp.ci.json")

delta = row("BM_SsspDelta/4/50/real_time")
fp = row("BM_SsspFixedPoint/4/real_time")
per_vertex = delta["applications"] / delta["vertices"]
print(f"relax applications @4 ranks: delta(50) {delta['applications']:.0f} vs "
      f"fixed point {fp['applications']:.0f}; delta per vertex {per_vertex:.2f} (limit 1.4)")
if delta["applications"] >= fp["applications"]:
    raise SystemExit("delta guard FAILED: bucketed order applies the action as often as the fixed point")
if per_vertex > 1.4:
    raise SystemExit("delta guard FAILED: duplicate bucket entries are back")
EOF

echo "=== bench structural guard (CC claim record, Q6 ablation) ==="
# CC's search compiles to the 16-byte claim record: a record whose target
# the sending rank owns commits in place, and an exact repeat is dropped
# before the wire. On the dense R-MAT graph at 4 ranks the search sends
# 0.11-0.13 records per directed edge (measured); the limit is 0.3, over 2x
# that, and well under the ~0.75 that owner-local apply alone would leave,
# so the suppression cannot silently switch off. The Q6 ablation must keep
# the paper's effect: without epoch_flush, more searches start and more
# root pairs collide.
python3 - <<'EOF'
import json
with open("BENCH_cc.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def row(name):
    for r in rows:
        if r["name"] == name and r.get("run_type", "iteration") == "iteration":
            return r
    raise SystemExit(f"cc guard: benchmark '{name}' missing from BENCH_cc.ci.json")

dense = row("BM_CcDenseSearch/4/1/real_time")
frac = dense["search_msgs"] / dense["edges"]
print(f"cc search messages per directed edge @4 ranks: {frac:.3f} (limit 0.3)")
if frac >= 0.3:
    raise SystemExit("cc guard FAILED: claim records are reaching the wire un-suppressed")
flush = row("BM_CcParallelSearch/4/1/real_time")
noflush = row("BM_CcParallelSearch/4/0/real_time")
print(f"Q6 @4 ranks: seeded {noflush['seeded']:.0f} vs {flush['seeded']:.0f}, "
      f"conflicts {noflush['conflicts']:.0f} vs {flush['conflicts']:.0f} (no flush vs flush)")
if not (noflush["seeded"] > flush["seeded"] and noflush["conflicts"] > flush["conflicts"]):
    raise SystemExit("cc guard FAILED: the epoch_flush ablation no longer reproduces the paper's effect")
EOF

echo "=== bench structural guard (PageRank scatter combines on the sender) ==="
# PageRank's scatter is an `add`, so each rank folds its contributions and
# sends one record per distinct remote target per sweep. On the scale-10
# R-MAT graph at 4 ranks that is 0.16 records per edge per sweep, against
# 0.75 uncombined, one per remote edge (both measured; deterministic for
# the fixed graph). The limit 0.3 is under 2x the measured value
# and far below the uncombined one, so the combiner cannot silently
# switch off.
python3 - <<'EOF'
import json
with open("BENCH_pagerank.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def row(name):
    for r in rows:
        if r["name"] == name and r.get("run_type", "iteration") == "iteration":
            return r
    raise SystemExit(f"pagerank guard: benchmark '{name}' missing from BENCH_pagerank.ci.json")

per_edge = row("BM_PageRankPattern/4/real_time")["records_per_edge"]
print(f"pagerank scatter records per edge per sweep @4 ranks: {per_edge:.3f} (limit 0.3)")
if per_edge >= 0.3:
    raise SystemExit("pagerank guard FAILED: scatter records reach the wire uncombined")
EOF

echo "=== bench ratio guard (pattern vs hand-rolled PageRank) ==="
# PageRank's unconditional scatter compiles to the scatter kernel's 16-byte
# {target, share} record, the record a hand-written AM++ scatter sends
# (the pattern sends fewer of them: it combines on the sender). The
# pattern must stay within 1.3x of that hand-rolled loop at 2
# ranks; falling back to the 96-byte gather chain fails this guard. A
# 2-rank run at this scale is mostly epoch and barrier waits, so single
# smoke repetitions swing past 1.3x on their own: the guard compares
# medians of nine interleaved 0.1 s repetitions.
BUILD_DIR=build-werror BENCH_SUFFIX=.guard.ci \
  BENCH_FILTER='BM_PageRank(Pattern|HandRolled)/2/' \
  BENCH_ARGS="--benchmark_min_time=0.1 --benchmark_repetitions=9 --benchmark_enable_random_interleaving=true" \
  scripts/bench_json.sh pagerank
python3 - <<'EOF'
import json
with open("BENCH_pagerank.guard.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def real_time(name):
    for r in rows:
        if r.get("run_name") == name and r.get("aggregate_name") == "median":
            return r["real_time"]
    raise SystemExit(f"ratio guard: median of '{name}' missing from BENCH_pagerank.guard.ci.json")

pattern = real_time("BM_PageRankPattern/2/real_time")
hand = real_time("BM_PageRankHandRolled/2/real_time")
ratio = pattern / hand
print(f"pattern PageRank / hand-rolled scatter @2 ranks: {ratio:.2f}x (limit 1.3x)")
if ratio >= 1.3:
    raise SystemExit("ratio guard FAILED: compiled PageRank scatter regressed vs hand-rolled")
EOF

echo "=== bench ratio guard (warm repair vs cold re-solve) ==="
# The in-place warm repair after apply_edges() must stay decisively
# cheaper than a cold re-solve on the mutated graph. The real experiment
# (EXPERIMENTS.md FW2) demands >=5x; this smoke run uses a looser 3x so
# single-repetition jitter cannot flake CI while still catching any
# rebuild creeping back into the warm path.
python3 - <<'EOF'
import json
with open("BENCH_mutation.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def real_time(name):
    for r in rows:
        if r["name"] == name and r.get("run_type", "iteration") == "iteration":
            return r["real_time"]
    raise SystemExit(f"ratio guard: benchmark '{name}' missing from BENCH_mutation.ci.json")

for edges in (8, 64):
    cold = real_time(f"BM_MutationColdResolve/{edges}/real_time")
    warm = real_time(f"BM_MutationWarmRepair/{edges}/real_time")
    ratio = cold / warm
    print(f"cold re-solve / warm repair @{edges} edges: {ratio:.1f}x (limit >=3.0x)")
    if ratio < 3.0:
        raise SystemExit("ratio guard FAILED: warm mutation repair lost its edge over a cold re-solve")
EOF

echo "=== streaming stage (mixed add/delete sweep + repair-vs-cold guard) ==="
# Tombstone deletions end to end. The streaming sweep replays mixed
# add/delete mutation batches with warm repair under all four fault plans
# (it is also part of -L sim above; re-pinned to two seeds here so the
# stage stands alone), then the stream-replay benchmark must show warm
# repair >= 5x faster than cold re-solving the three continuous queries
# (sssp / cc / k-core) after every batch.
DPG_SIM_SEEDS=1,2 \
  ctest --test-dir build-werror -L streaming --output-on-failure --timeout 240 -j "$JOBS"
BUILD_DIR=build-werror BENCH_SUFFIX=.ci \
  BENCH_ARGS="--benchmark_repetitions=1" \
  scripts/bench_json.sh streaming
python3 - <<'EOF'
import json
with open("BENCH_streaming.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def real_time(prefix):
    for r in rows:
        if r["name"].startswith(prefix) and r.get("run_type", "iteration") == "iteration":
            return r["real_time"]
    raise SystemExit(f"streaming guard: benchmark '{prefix}' missing from BENCH_streaming.ci.json")

cold = real_time("BM_StreamingColdReplay")
warm = real_time("BM_StreamingWarmReplay")
ratio = cold / warm
print(f"cold re-solve / warm repair per streamed batch: {ratio:.1f}x (limit >=5.0x)")
if ratio < 5.0:
    raise SystemExit("streaming guard FAILED: warm streaming repair lost its edge over cold re-solves")
EOF

echo "=== fusion smoke (fused triple vs sum-of-separate guard) ==="
# Multi-pattern fusion must actually pay for itself: the fused
# sssp+widest+bfs-tree triple has to beat three separate solves on BOTH
# wall time and wire bytes (ratio < 1.0) at 2 ranks. Bit-identity of the
# fused results is covered by fusion_sweep_test in the sim stages above;
# this stage guards the perf claim.
DPG_BENCH_FUSION=on BUILD_DIR=build-werror BENCH_SUFFIX=.ci \
  BENCH_ARGS="--benchmark_min_time=0.05 --benchmark_repetitions=1" \
  scripts/bench_json.sh fusion
python3 - <<'EOF'
import json
with open("BENCH_fusion.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def row(name):
    for r in rows:
        if r["name"] == name and r.get("run_type", "iteration") == "iteration":
            return r
    raise SystemExit(f"fusion guard: benchmark '{name}' missing from BENCH_fusion.ci.json")

fused = row("BM_FusedTriple/2/real_time")
separate = row("BM_SeparateTriple/2/real_time")
wall = fused["real_time"] / separate["real_time"]
wire = fused["wire_bytes"] / separate["wire_bytes_total"]
print(f"fused / sum-of-separate @2 ranks: wall {wall:.2f}x, wire bytes {wire:.2f}x (limit < 1.0)")
if wall >= 1.0:
    raise SystemExit("fusion guard FAILED: fused triple is not faster than three separate solves")
if wire >= 1.0:
    raise SystemExit("fusion guard FAILED: fused wire format moves more bytes than separate records")
EOF

echo "=== serving smoke (multi-tenant throughput guard) ==="
# The serving layer's admission merging + shared result cache must make
# concurrent sessions pay for each unique query once: 8 clients replaying
# the same stream have to clear >= 4x the single-client throughput (the
# solver work is identical; only the serving layer can deliver the
# multiple). Generous vs the ~8x expectation so smoke jitter cannot flake.
BUILD_DIR=build-werror BENCH_SUFFIX=.ci \
  BENCH_ARGS="--benchmark_min_time=0.01 --benchmark_repetitions=1" \
  scripts/bench_json.sh serving
python3 - <<'EOF'
import json
with open("BENCH_serving.ci.json") as f:
    rows = json.load(f)["benchmarks"]

def qps(name):
    for r in rows:
        if r["name"] == name and r.get("run_type", "iteration") == "iteration":
            return r["items_per_second"]
    raise SystemExit(f"serving guard: benchmark '{name}' missing from BENCH_serving.ci.json")

solo = qps("BM_ServingThroughput/1/real_time")
eight = qps("BM_ServingThroughput/8/real_time")
ratio = eight / solo
print(f"8-client / 1-client serving throughput: {ratio:.1f}x (limit >=4.0x)")
if ratio < 4.0:
    raise SystemExit("serving guard FAILED: concurrent sessions lost their throughput multiple")
EOF

echo "=== end-to-end benchmark self-check (perfbench --smoke) ==="
# Every workload of the repo's end-to-end benchmark (BENCHMARK.json) at
# scale 11 (serve-mixed at 9), traced and untraced: builds perfbench from this checkout's
# sources, checks every metric name and unit against BENCHMARK.json and
# every result against its sequential oracle. Catches metric or oracle rot
# before a benchmark run does.
python3 perfbench/run.py --smoke

echo "CI OK"
