// Experiment F1 + Q5 (DESIGN.md §4): the two SSSP algorithms of the
// paper's Fig. 1 — chaotic fixed point and Δ-stepping — built from ONE
// shared relax pattern, against the sequential Dijkstra baseline.
//
// Series reported:
//   * fixed_point vs Δ-stepping vs Δ-stepping(uncoordinated) wall time,
//     with `relaxations` (successful relaxations) and `applications`
//     (relax actions applied) per run;
//   * a Δ sweep (Q5): small Δ ⇒ many epochs; huge Δ ⇒ chaotic-like
//     re-relaxation — the U-shaped cost curve;
//   * the Dijkstra baseline for the abstraction-overhead bound.
#include <benchmark/benchmark.h>

#include "algo/baselines.hpp"
#include "algo/sssp.hpp"
#include "common.hpp"

namespace dpg::bench {
namespace {

constexpr unsigned kScale = 11;      // 2048 vertices, ~16k edges
constexpr unsigned kEdgeFactor = 8;

const workload& wl() {
  static workload w = workload::rmat(kScale, kEdgeFactor);
  return w;
}

/// Relax applications per run (`relax().invocations()`: one per vertex the
/// schedule pops, whether or not it improves anything) and the vertex
/// count, for the CI guard on duplicate bucket entries.
void report_applications(benchmark::State& state, algo::sssp_solver& solver,
                         const graph::distributed_graph& g) {
  state.counters["applications"] =
      static_cast<double>(solver.relax().invocations()) / static_cast<double>(state.iterations());
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
}

void BM_SsspFixedPoint(benchmark::State& state) {
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  auto g = wl().build(ranks);
  auto weight = wl().weights(g);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  algo::sssp_solver solver(tp, g, weight);
  strategy::result last;
  obs::stats_snapshot delta;
  for (auto _ : state) {
    obs::stats_scope sc(tp.obs(), &delta);
    tp.run([&](ampp::transport_context& ctx) {
      const strategy::result r = solver.run_fixed_point(ctx, 0);
      if (ctx.rank() == 0) last = r;
    });
  }
  state.counters["relaxations"] = static_cast<double>(last.modifications);
  report_applications(state, solver, g);
  state.counters["edges"] = static_cast<double>(g.num_edges());
  report_stats(state, delta);
}
BENCHMARK(BM_SsspFixedPoint)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SsspDelta(benchmark::State& state) {
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  const double delta = static_cast<double>(state.range(1));
  auto g = wl().build(ranks);
  auto weight = wl().weights(g);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  algo::sssp_solver solver(tp, g, weight);
  strategy::result last;
  obs::stats_snapshot sdelta;
  for (auto _ : state) {
    obs::stats_scope sc(tp.obs(), &sdelta);
    tp.run([&](ampp::transport_context& ctx) {
      const strategy::result r = solver.run_delta(ctx, 0, delta);
      if (ctx.rank() == 0) last = r;
    });
  }
  state.counters["relaxations"] = static_cast<double>(last.modifications);
  report_applications(state, solver, g);
  state.counters["epochs"] = static_cast<double>(last.rounds);
  report_stats(state, sdelta);
}
// Q5 Δ sweep at 2 ranks, plus rank scaling at the sweet spot.
BENCHMARK(BM_SsspDelta)
    ->Args({2, 2})
    ->Args({2, 10})
    ->Args({2, 50})
    ->Args({2, 250})
    ->Args({2, 100000})
    ->Args({1, 50})
    ->Args({4, 50})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SsspDeltaUncoordinated(benchmark::State& state) {
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  auto g = wl().build(ranks);
  auto weight = wl().weights(g);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  algo::sssp_solver solver(tp, g, weight);
  obs::stats_snapshot delta;
  for (auto _ : state) {
    obs::stats_scope sc(tp.obs(), &delta);
    tp.run([&](ampp::transport_context& ctx) {
      solver.run_delta_uncoordinated(ctx, 0, 50.0);
    });
  }
  report_stats(state, delta);
}
BENCHMARK(BM_SsspDeltaUncoordinated)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SsspHandRolledReduction(benchmark::State& state) {
  // Hand-written AM++-style chaotic SSSP (the paper's comparison target,
  // §IV-A): one relax message type with a min-combining reduction cache of
  // 2^range(0) slots per lane. Large caches put the flush/quiescence path
  // under maximum pressure: every epoch-flush and TD-round spin has to
  // establish that the cache holds no residual entries.
  constexpr ampp::rank_t kRanks = 2;
  const auto cache_bits = static_cast<unsigned>(state.range(0));
  auto g = wl().build(kRanks);
  auto weight = wl().weights(g);
  ampp::transport tp(ampp::transport_config{.n_ranks = kRanks});
  std::vector<double> dist(g.num_vertices(),
                           std::numeric_limits<double>::infinity());
  struct relax {
    std::uint64_t v;
    double d;
  };
  ampp::message_type<relax>* mtp = nullptr;
  auto& mt = tp.make_message_type<relax>(
      "relax", [&](ampp::transport_context& ctx, const relax& m) {
        if (m.d < dist[m.v]) {
          dist[m.v] = m.d;
          for (const auto e : g.out_edges(m.v))
            mtp->send(ctx, g.owner(e.dst), relax{e.dst, m.d + weight.read(e)});
        }
      });
  mtp = &mt;
  mt.enable_reduction([](const relax& m) { return m.v; },
                      [](const relax& a, const relax& b) { return a.d <= b.d ? a : b; },
                      cache_bits);
  obs::stats_snapshot delta;
  for (auto _ : state) {
    obs::stats_scope sc(tp.obs(), &delta);
    tp.run([&](ampp::transport_context& ctx) {
      for (vertex_id v = 0; v < g.num_vertices(); ++v)
        if (g.owner(v) == ctx.rank())
          dist[v] = std::numeric_limits<double>::infinity();
      ctx.barrier();
      ampp::epoch ep(ctx);
      if (g.owner(0) == ctx.rank()) mt.send(ctx, g.owner(0), relax{0, 0.0});
    });
  }
  state.counters["cache_bits"] = cache_bits;
  report_stats(state, delta);
}
BENCHMARK(BM_SsspHandRolledReduction)->Arg(10)->Arg(16)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SsspDijkstraBaseline(benchmark::State& state) {
  auto g = wl().build(1);
  auto weight = wl().weights(g);
  for (auto _ : state) {
    auto d = algo::dijkstra(g, weight, 0);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_SsspDijkstraBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SsspBellmanFordBaseline(benchmark::State& state) {
  auto g = wl().build(1);
  auto weight = wl().weights(g);
  for (auto _ : state) {
    auto d = algo::bellman_ford(g, weight, 0);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_SsspBellmanFordBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dpg::bench

BENCHMARK_MAIN();
