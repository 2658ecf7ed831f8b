// Overhead of the fault decorator: the same Δ-stepping workload with no
// plan, pure reordering, 30% loss (ack-timeout + retransmit), and full
// chaos. The "none" row doubles as the regression guard for the clean
// path — an inactive fault_plan installs no decorator, so it must cost
// nothing.
#include <benchmark/benchmark.h>

#include <atomic>

#include "algo/sssp.hpp"
#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"
#include "common.hpp"

namespace dpg::bench {
namespace {

ampp::fault_plan plan_for(int kind, std::uint64_t seed) {
  switch (kind) {
    case 1:
      return ampp::fault_plan::scramble(seed);
    case 2:
      return ampp::fault_plan::lossy(seed);
    case 3:
      return ampp::fault_plan::chaos(seed);
    default:
      return ampp::fault_plan::none();
  }
}

const char* plan_name(int kind) {
  static const char* names[] = {"none", "scramble", "lossy", "chaos"};
  return names[kind];
}

struct token {
  std::uint64_t x;
};

void BM_PumpUnderFaults(benchmark::State& state) {
  // Raw transport throughput: an all-to-all pump with small envelopes, so
  // the per-envelope fault bookkeeping dominates.
  const int kind = static_cast<int>(state.range(0));
  constexpr ampp::rank_t kRanks = 4;
  ampp::transport tp(ampp::transport_config{.n_ranks = kRanks,
                                            .coalescing_size = 16,
                                            .seed = 11,
                                            .faults = plan_for(kind, 11)});
  std::atomic<std::uint64_t> handled{0};
  auto& mt = tp.make_message_type<token>(
      "pump", [&](ampp::transport_context&, const token&) { ++handled; });
  for (auto _ : state) {
    tp.run([&](ampp::transport_context& ctx) {
      ampp::epoch ep(ctx);
      for (int i = 0; i < 2000; ++i)
        mt.send(ctx, static_cast<ampp::rank_t>((ctx.rank() + 1 + i % (kRanks - 1)) % kRanks),
                token{static_cast<std::uint64_t>(i)});
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(handled.load()));
  state.SetLabel(plan_name(kind));
  const auto s = tp.obs().snapshot();
  state.counters["dropped"] = static_cast<double>(s.core.envelopes_dropped);
  state.counters["duplicated"] = static_cast<double>(s.core.envelopes_duplicated);
  state.counters["delayed"] = static_cast<double>(s.core.envelopes_delayed);
}
BENCHMARK(BM_PumpUnderFaults)->DenseRange(0, 3)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SsspDeltaUnderFaults(benchmark::State& state) {
  // End-to-end: how much chaos slows a real algorithm down (the answer the
  // abstraction-overhead experiments need a baseline for).
  const int kind = static_cast<int>(state.range(0));
  const auto w = workload::erdos_renyi(1 << 10, 1 << 13, 11, 16.0);
  constexpr ampp::rank_t kRanks = 4;
  const auto g = w.build(kRanks);
  auto weight = w.weights(g);
  ampp::transport tp(ampp::transport_config{.n_ranks = kRanks,
                                            .coalescing_size = 64,
                                            .seed = 11,
                                            .faults = plan_for(kind, 11)});
  algo::sssp_solver solver(tp, g, weight);
  for (auto _ : state) {
    tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 0, 4.0); });
  }
  state.SetLabel(plan_name(kind));
  const auto s = tp.obs().snapshot();
  state.counters["retries"] = static_cast<double>(s.core.envelopes_retried);
}
BENCHMARK(BM_SsspDeltaUnderFaults)->DenseRange(0, 3)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dpg::bench

BENCHMARK_MAIN();
