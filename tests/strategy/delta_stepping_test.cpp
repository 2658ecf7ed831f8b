// Δ-stepping strategy tests: correctness against Dijkstra for both the
// coordinated and the uncoordinated (try_finish) variants, across Δ values
// and rank counts; the one-bucket law against fixed_point; the typed error
// for a bad Δ. (The bucketed queue itself: tests/pattern/work_queue_test.)
#include "strategy/delta_stepping.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/sssp.hpp"
#include "graph/generators.hpp"

namespace dpg::strategy {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::edge_handle;
using graph::vertex_id;
using pattern::assign;
using pattern::e_;
using pattern::instantiate;
using pattern::make_action;
using pattern::out_edges_gen;
using pattern::property;
using pattern::trg;
using pattern::v_;
using pattern::when;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Δ-stepping end-to-end, parameterized over (ranks, Δ, uncoordinated)
// ---------------------------------------------------------------------------

using params = std::tuple<ampp::rank_t, double, bool>;

class DeltaSteppingCorrectness : public ::testing::TestWithParam<params> {};

TEST_P(DeltaSteppingCorrectness, MatchesDijkstra) {
  auto [ranks, delta, uncoordinated] = GetParam();
  const vertex_id n = 100;
  const auto edges = graph::erdos_renyi(n, 800, 21);

  distributed_graph g(n, edges, distribution::cyclic(n, ranks));
  pmap::vertex_property_map<double> dist(g, kInf);
  pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 77, 9.0);
  });
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  property d(dist);
  property w(weight);
  auto relax = instantiate(tp, g, locks,
                           make_action("relax", out_edges_gen{},
                                       when(d(trg(e_)) > d(v_) + w(e_),
                                            assign(d(trg(e_)), d(v_) + w(e_)))));

  const auto oracle = algo::dijkstra(g, weight, 0);
  dist[0] = 0.0;
  tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (g.owner(0) == ctx.rank()) seeds.push_back(0);
    if (uncoordinated)
      delta_stepping_uncoordinated(ctx, *relax, dist, delta, seeds);
    else
      delta_stepping(ctx, *relax, dist, delta, seeds);
  });
  for (vertex_id v = 0; v < n; ++v) ASSERT_DOUBLE_EQ(dist[v], oracle[v]) << "v=" << v;
}

std::string param_name(const ::testing::TestParamInfo<params>& info) {
  auto [ranks, delta, unc] = info.param;
  std::string d = std::to_string(static_cast<int>(delta * 10));
  return std::string(unc ? "unc" : "coord") + "_r" + std::to_string(ranks) + "_d" + d;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaSteppingCorrectness,
                         ::testing::Combine(::testing::Values<ampp::rank_t>(1, 2, 4),
                                            ::testing::Values(0.5, 2.0, 10.0, 1000.0),
                                            ::testing::Bool()),
                         param_name);

TEST(DeltaStepping, SmallDeltaUsesMoreEpochs) {
  // Bucket granularity drives synchronization: tiny Δ must consume many
  // more epochs than one huge bucket (the Q5 benchmark's mechanism).
  const vertex_id n = 80;
  distributed_graph g(n, graph::erdos_renyi(n, 600, 4), distribution::cyclic(n, 2));
  pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 7, 5.0);
  });
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  algo::sssp_solver solver(tp, g, weight);
  auto epochs_with = [&](double delta) {
    tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 0, delta); });
    return solver.delta_epochs();
  };
  EXPECT_GT(epochs_with(0.25), epochs_with(1e9));
}

TEST(DeltaStepping, OneBucketAppliesExactlyLikeFixedPoint) {
  // At one rank, with every finite distance inside bucket 0, the bucketed
  // queue is the FIFO queue: seed first, then FIFO with the same at-most-
  // once rule. Same applications, same modifications, one epoch.
  const vertex_id n = 300;
  const auto edges = graph::erdos_renyi(n, 2400, 12);
  distributed_graph g(n, edges, distribution::cyclic(n, 1));
  pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 5, 20.0);
  });
  const auto oracle = algo::dijkstra(g, weight, 0);
  double longest = 0;
  for (const double d : oracle)
    if (d != kInf) longest = std::max(longest, d);
  ampp::transport tp(ampp::transport_config{.n_ranks = 1});
  algo::sssp_solver solver(tp, g, weight);
  auto& relax = solver.relax();

  tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });
  const std::uint64_t fp_apps = relax.invocations(), fp_mods = relax.modifications();
  result res;
  tp.run([&](ampp::transport_context& ctx) { res = solver.run_delta(ctx, 0, 2 * longest); });
  EXPECT_EQ(relax.invocations() - fp_apps, fp_apps);
  EXPECT_EQ(relax.modifications() - fp_mods, fp_mods);
  EXPECT_EQ(res.rounds, 1u);
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(solver.dist()[v], oracle[v]) << v;
}

TEST(DeltaStepping, BadDeltaThrowsAndEverythingKeepsWorking) {
  const vertex_id n = 120;
  const auto edges = graph::erdos_renyi(n, 900, 3);
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 9, 10.0);
  });
  const auto oracle = algo::dijkstra(g, weight, 0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  algo::sssp_solver solver(tp, g, weight);
  tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 0, 4.0); });

  for (const double bad : {0.0, -2.0, std::nan("")}) {
    EXPECT_THROW(tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 5, bad); }),
                 std::invalid_argument);
    EXPECT_THROW(tp.run([&](ampp::transport_context& ctx) {
                   solver.run_delta_uncoordinated(ctx, 5, bad);
                 }),
                 std::invalid_argument);
  }
  // The throw left the last solution in place...
  EXPECT_EQ(solver.last_source(), 0u);
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(solver.dist()[v], oracle[v]) << v;
  // ...and the transport and solver keep solving.
  const auto from5 = algo::dijkstra(g, weight, 5);
  tp.run([&](ampp::transport_context& ctx) { solver.run_delta_uncoordinated(ctx, 5, 3.0); });
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(solver.dist()[v], from5[v]) << v;
  tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(solver.dist()[v], oracle[v]) << v;
}

}  // namespace
}  // namespace dpg::strategy
