// Experiments F3 + Q6 (DESIGN.md §4): the Fig. 3 parallel-search connected
// components algorithm.
//
// Series reported:
//   * parallel search CC vs the sequential baselines (union-find, label
//     propagation), with counters for searches seeded, conflict pairs
//     recorded, and pointer-jump rounds;
//   * the epoch_flush ablation (Q6): flushing between seeds lets running
//     searches claim territory first, so fewer redundant searches start
//     and fewer conflicts need rewriting;
//   * claim records sent against directed edges on a denser graph, where
//     owner-local apply and exact-repeat suppression keep most of them
//     off the wire.
#include <benchmark/benchmark.h>

#include "algo/baselines.hpp"
#include "algo/cc.hpp"
#include "common.hpp"

namespace dpg::bench {
namespace {

// A graph with a giant component plus fragments: ER at the connectivity
// threshold region.
const workload& wl() {
  static workload w = workload::erdos_renyi(4000, 4400, 9);
  return w;
}

// A denser power-law graph, where one search reaches a vertex over many of
// its edges: the claim record's exact-repeat suppression has work to do.
const workload& dense_wl() {
  static workload w = workload::rmat(11, 16, 5);
  return w;
}

void run_search(benchmark::State& state, const workload& w) {
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  const bool flush = state.range(1) != 0;
  auto g = w.build_symmetric(ranks);
  algo::cc_solver cc(g, ampp::transport_config{.n_ranks = ranks});
  for (auto _ : state) cc.solve(flush);
  state.counters["seeded"] = static_cast<double>(cc.searches_seeded());
  state.counters["conflicts"] = static_cast<double>(cc.conflict_pairs());
  state.counters["jump_rounds"] = static_cast<double>(cc.jump_rounds());
  state.counters["search_msgs"] = static_cast<double>(cc.search_messages());
  state.counters["edges"] = static_cast<double>(g.num_edges());
}

void BM_CcParallelSearch(benchmark::State& state) { run_search(state, wl()); }
BENCHMARK(BM_CcParallelSearch)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({2, 0})   // Q6 ablation: no epoch_flush between seeds
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CcDenseSearch(benchmark::State& state) { run_search(state, dense_wl()); }
BENCHMARK(BM_CcDenseSearch)->Args({4, 1})->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CcUnionFindBaseline(benchmark::State& state) {
  auto g = wl().build_symmetric(1);
  std::size_t comps = 0;
  for (auto _ : state) {
    auto labels = algo::cc_union_find(g);
    comps = algo::count_components(labels);
    benchmark::DoNotOptimize(labels);
  }
  state.counters["components"] = static_cast<double>(comps);
}
BENCHMARK(BM_CcUnionFindBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CcLabelPropagationBaseline(benchmark::State& state) {
  auto g = wl().build_symmetric(1);
  for (auto _ : state) {
    auto labels = algo::cc_label_propagation(g);
    benchmark::DoNotOptimize(labels);
  }
}
BENCHMARK(BM_CcLabelPropagationBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dpg::bench

BENCHMARK_MAIN();
