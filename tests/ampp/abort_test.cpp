// Run abort: when one rank of a run throws, every rank still waiting on
// the runtime (a barrier, a termination-detection round) unwinds with
// run_aborted naming the failed rank, transport::run rethrows the original
// exception promptly instead of hanging, and the same transport — with the
// solvers registered on it — runs correctly again afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "algo/baselines.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"
#include "graph/generators.hpp"

namespace dpg::ampp {
namespace {

using clock_type = std::chrono::steady_clock;

struct token {
  std::uint64_t v;
};

/// Runs `f` on `tp`, expects it to rethrow rank 1's "boom" within 2 s, and
/// returns the rank rank 0's run_aborted named (invalid_rank if none).
rank_t expect_abort(transport& tp, const std::function<void(transport_context&)>& f) {
  std::atomic<rank_t> named{invalid_rank};
  const auto t0 = clock_type::now();
  try {
    tp.run([&](transport_context& ctx) {
      try {
        f(ctx);
      } catch (const run_aborted& e) {
        if (ctx.rank() == 0) named = e.failed_rank();
        throw;
      }
    });
    ADD_FAILURE() << "run returned normally";
  } catch (const run_aborted& e) {
    ADD_FAILURE() << "run rethrew the consequence, not the cause: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_LT(clock_type::now() - t0, std::chrono::seconds(2));
  return named.load();
}

class RunAbort : public ::testing::TestWithParam<unsigned> {};

TEST_P(RunAbort, FailureWhilePeerWaitsInBarrier) {
  transport tp(machine_config{.n_ranks = 2, .handler_threads = GetParam()}, tuning_config{});
  const rank_t named = expect_abort(tp, [](transport_context& ctx) {
    if (ctx.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("boom");
    }
    ctx.barrier();
  });
  EXPECT_EQ(named, 1u);
  // The transport is usable again: collectives line up from generation 1.
  std::atomic<int> sum{0};
  tp.run([&](transport_context& ctx) {
    ctx.barrier();
    sum += static_cast<int>(ctx.allreduce_sum(ctx.rank() + 1));
  });
  EXPECT_EQ(sum.load(), 6);
}

TEST_P(RunAbort, FailureMidEpochWhilePeerInTdRound) {
  constexpr rank_t kRanks = 3;
  transport tp(machine_config{.n_ranks = kRanks, .handler_threads = GetParam()},
               tuning_config{.coalescing_size = 4});
  std::atomic<std::uint64_t> handled{0};
  auto& mt = tp.make_message_type<token>("abort.token",
                                         [&](transport_context&, const token&) { ++handled; });
  const rank_t named = expect_abort(tp, [&](transport_context& ctx) {
    epoch ep(ctx);
    for (int i = 0; i < 50; ++i)
      for (rank_t d = 0; d < kRanks; ++d) mt.send(ctx, d, token{1});
    if (ctx.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("boom");
    }
    // Rank 0 ends its epoch in the destructor, which must let the abort
    // out and still close the rank-0 per-epoch stats window.
    if (ctx.rank() == 2) ep.end();
  });
  EXPECT_EQ(named, 1u);
  // Lanes, inboxes and the TD counters were reset: a clean epoch delivers
  // exactly what it sends and terminates.
  handled = 0;
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (int i = 0; i < 50; ++i)
      for (rank_t d = 0; d < kRanks; ++d) mt.send(ctx, d, token{1});
  });
  EXPECT_EQ(handled.load(), 50u * kRanks * kRanks);
  EXPECT_TRUE(tp.occupancy_consistent());
  EXPECT_EQ(tp.obs().epoch_overlaps(), 0u);
}

INSTANTIATE_TEST_SUITE_P(HandlerThreads, RunAbort, ::testing::Values(0u, 1u));

TEST(RunAbort, SolversRerunAfterAbortMatchTheOracles) {
  using graph::vertex_id;
  const vertex_id n = 300;
  const auto edges = graph::erdos_renyi(n, 2400, 31);
  graph::distributed_graph g(n, edges, graph::distribution::cyclic(n, 2));
  pmap::edge_property_map<double> weight(g, [](const graph::edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 17, 8.0);
  });
  transport tp(machine_config{.n_ranks = 2}, tuning_config{.coalescing_size = 16});
  algo::sssp_solver sssp(tp, g, weight);
  algo::pagerank_solver pr(tp, g);
  // Rank 1 fails at its first flush once armed: in the middle of PageRank's
  // first scatter epoch, with combined sums pending, records in the lanes
  // and envelopes in flight.
  std::atomic<bool> armed{false};
  const std::size_t bomb = tp.add_drain([&](transport_context& ctx, bool discard) {
    if (!discard && armed && ctx.rank() == 1) throw std::runtime_error("boom");
  });
  const rank_t named = expect_abort(tp, [&](transport_context& ctx) {
    sssp.run_fixed_point(ctx, 0);
    if (ctx.rank() == 1) armed = true;
    pr.run(ctx, 0.85, 20);
  });
  EXPECT_EQ(named, 1u);
  tp.remove_drain(bomb);

  tp.run([&](transport_context& ctx) {
    sssp.run_fixed_point(ctx, 0);
    pr.run(ctx, 0.85, 20);
  });
  const auto dist = algo::dijkstra(g, weight, 0);
  const auto ranks = algo::pagerank(g, 0.85, 20);
  for (vertex_id v = 0; v < n; ++v) {
    ASSERT_EQ(sssp.dist()[v], dist[v]) << "v=" << v;
    ASSERT_NEAR(pr.ranks()[v], ranks[v], 1e-12) << "v=" << v;
  }
}

}  // namespace
}  // namespace dpg::ampp
