// Experiment FW2 (DESIGN.md §4/§7): graph mutation at the non-morphing
// boundary — in-place incremental SSSP repair vs a cold re-solve after
// adding shortcut edges. The warm path performs ZERO reconstruction: the
// shortcut edges are applied once through apply_edges() (delta-CSR
// overlay), the weight map grows lazily from its stored init function, and
// each iteration only restores the pre-mutation distance labels and replays
// the relax pattern from the mutation sites via sssp_solver::repair().
// Expected shape: the warm repair performs a small fraction of the cold
// solve's relaxations and wall time, because the dependency mechanism only
// re-touches the part of the shortest-path tree the new edges improve.
#include <benchmark/benchmark.h>

#include "algo/sssp.hpp"
#include "common.hpp"
#include "strategy/strategies.hpp"

namespace dpg::bench {
namespace {

constexpr ampp::rank_t kRanks = 2;

const workload& wl() {
  static workload w = workload::erdos_renyi(4000, 24000, 9, 20.0);
  return w;
}

std::vector<graph::edge> shortcut_edges(int count) {
  std::vector<graph::edge> extra;
  dpg::xoshiro256ss rng(3);
  for (int i = 0; i < count; ++i) extra.push_back({rng.below(wl().n), rng.below(wl().n)});
  return extra;
}

/// Cold baseline: full re-solve on the already-mutated topology (same
/// delta-CSR overlay the warm path sees, so the comparison is purely
/// "replay everything" vs "replay from the mutation sites").
void BM_MutationColdResolve(benchmark::State& state) {
  const auto extra = shortcut_edges(static_cast<int>(state.range(0)));
  auto g = wl().build(kRanks);
  auto w = wl().weights(g);
  g.apply_edges(extra);
  ampp::transport tp(ampp::transport_config{.n_ranks = kRanks});
  algo::sssp_solver solver(tp, g, w);
  strategy::result last;
  for (auto _ : state) {
    tp.run([&](ampp::transport_context& ctx) {
      const strategy::result r = solver.run_delta(ctx, 0, 5.0);
      if (ctx.rank() == 0) last = r;
    });
  }
  state.counters["relaxations"] = static_cast<double>(last.modifications);
  state.counters["delta_edges"] = static_cast<double>(g.total_delta_edges());
}
BENCHMARK(BM_MutationColdResolve)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_MutationWarmRepair(benchmark::State& state) {
  const auto extra = shortcut_edges(static_cast<int>(state.range(0)));
  auto g = wl().build(kRanks);
  auto w = wl().weights(g);

  // Solve once on the base topology; its labels seed every warm repair.
  ampp::transport tp(ampp::transport_config{.n_ranks = kRanks});
  g.attach_stats(tp.obs().core());
  algo::sssp_solver solver(tp, g, w);
  tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 0, 5.0); });
  std::vector<std::vector<double>> base_dist(kRanks);
  for (ampp::rank_t r = 0; r < kRanks; ++r) {
    auto s = solver.dist().local(r);
    base_dist[r].assign(s.begin(), s.end());
  }

  // The mutation happens ONCE, in place: graph, weight map, solver, and
  // compiled plan all survive it. No object in the hot loop is rebuilt.
  std::vector<vertex_id> sources;
  for (const auto& e : extra) sources.push_back(e.src);
  g.apply_edges(extra);

  strategy::result last;
  for (auto _ : state) {
    for (ampp::rank_t r = 0; r < kRanks; ++r) {
      auto dst = solver.dist().local(r);
      std::copy(base_dist[r].begin(), base_dist[r].end(), dst.begin());
    }
    tp.run([&](ampp::transport_context& ctx) {
      const strategy::result r = solver.repair(ctx, sources);
      if (ctx.rank() == 0) last = r;
    });
  }
  state.counters["relaxations"] = static_cast<double>(last.modifications);
  state.counters["delta_edges"] = static_cast<double>(g.total_delta_edges());
  state.counters["graph_mutations"] =
      static_cast<double>(tp.obs().core().graph_mutations.load(std::memory_order_relaxed));
}
BENCHMARK(BM_MutationWarmRepair)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace dpg::bench

BENCHMARK_MAIN();
