// Distribution ablation (DESIGN.md §3: block / cyclic / hashed): the
// paper's model is distribution-oblivious ("it is not predictable which
// parts of the graph are colocated", §I) — algorithms must be correct under
// any placement, but placement changes the *locality* of the synthesized
// messages. This benchmark quantifies that: the fraction of pattern
// messages whose destination is the sending rank (self deliveries) and the
// end-to-end SSSP time for each scheme, on a locality-friendly topology
// (2-D grid) and a locality-hostile one (R-MAT).
#include <benchmark/benchmark.h>

#include "algo/sssp.hpp"
#include "common.hpp"

namespace dpg::bench {
namespace {

distribution make_dist(int kind, vertex_id n, ampp::rank_t ranks) {
  switch (kind) {
    case 0: return distribution::block(n, ranks);
    case 1: return distribution::cyclic(n, ranks);
    default: return distribution::hashed(n, ranks, 5);
  }
}

void run_case(benchmark::State& state, bool grid) {
  const int kind = static_cast<int>(state.range(0));
  constexpr ampp::rank_t kRanks = 4;
  vertex_id n;
  std::vector<graph::edge> edges;
  if (grid) {
    n = 48 * 48;
    edges = graph::grid_graph(48, 48);
  } else {
    graph::rmat_params p;
    p.scale = 11;
    n = vertex_id{1} << p.scale;
    edges = graph::rmat(p, 42);
  }
  graph::distributed_graph g(n, edges, make_dist(kind, n, kRanks));
  pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 3, 10.0);
  });
  ampp::transport tp(ampp::transport_config{.n_ranks = kRanks});
  algo::sssp_solver solver(tp, g, weight);
  std::uint64_t msgs = 0, self = 0, in_place = 0;
  for (auto _ : state) {
    obs::stats_scope sc(tp.obs());
    tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 0, 20.0); });
    const obs::stats_snapshot& d = sc.finish();
    msgs = d.core.messages_sent;
    self = d.core.self_deliveries;
    in_place = d.core.local_applies;
  }
  state.counters["messages"] = static_cast<double>(msgs);
  // Owner-local records: committed in place, or sent to the sender itself.
  const std::uint64_t records = msgs + in_place;
  state.counters["local_frac"] =
      records ? static_cast<double>(self + in_place) / static_cast<double>(records) : 0.0;
}

void BM_DistributionGrid(benchmark::State& state) { run_case(state, true); }
BENCHMARK(BM_DistributionGrid)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DistributionRmat(benchmark::State& state) { run_case(state, false); }
BENCHMARK(BM_DistributionRmat)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dpg::bench

BENCHMARK_MAIN();
