// Betweenness centrality: the two-pattern Brandes solver against a
// sequential Brandes oracle, on known topologies and random graphs.
#include "algo/betweenness.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <stack>
#include <vector>

#include "graph/generators.hpp"

namespace dpg::algo {
namespace {

using graph::distributed_graph;
using graph::distribution;

/// Sequential Brandes (unweighted), all sources in `sources`.
std::vector<double> brandes_oracle(const distributed_graph& g,
                                   const std::vector<vertex_id>& sources) {
  const vertex_id n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  for (const vertex_id s : sources) {
    std::vector<std::vector<vertex_id>> preds(n);
    std::vector<double> sigma(n, 0.0), delta(n, 0.0);
    std::vector<std::int64_t> dist(n, -1);
    std::stack<vertex_id> order;
    std::queue<vertex_id> q;
    sigma[s] = 1.0;
    dist[s] = 0;
    q.push(s);
    while (!q.empty()) {
      const vertex_id v = q.front();
      q.pop();
      order.push(v);
      for (const vertex_id w : g.adjacent(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          q.push(w);
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          preds[w].push_back(v);
        }
      }
    }
    while (!order.empty()) {
      const vertex_id w = order.top();
      order.pop();
      for (const vertex_id v : preds[w])
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      if (w != s) bc[w] += delta[w];
    }
  }
  return bc;
}

void expect_bc_matches(const distributed_graph& g, ampp::rank_t ranks,
                       const std::vector<vertex_id>& sources,
                       unsigned handler_threads = 0) {
  const auto oracle = brandes_oracle(g, sources);
  ampp::transport tp(
      ampp::transport_config{.n_ranks = ranks, .handler_threads = handler_threads});
  betweenness_solver solver(tp, g);
  tp.run([&](ampp::transport_context& ctx) {
    solver.reset_bc(ctx);
    for (const vertex_id s : sources) solver.accumulate_source(ctx, s);
  });
  for (vertex_id v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(solver.centrality()[v], oracle[v], 1e-9) << "v=" << v;
}

TEST(Betweenness, PathGraphCentresDominate) {
  // On an undirected path, exact betweenness of vertex i (all sources) is
  // 2*i*(n-1-i); check via the oracle and directly.
  const vertex_id n = 9;
  const auto edges = graph::symmetrize(graph::path_graph(n));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  std::vector<vertex_id> all(n);
  for (vertex_id v = 0; v < n; ++v) all[v] = v;
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  betweenness_solver solver(tp, g);
  tp.run([&](ampp::transport_context& ctx) {
    solver.reset_bc(ctx);
    for (const vertex_id s : all) solver.accumulate_source(ctx, s);
  });
  for (vertex_id v = 0; v < n; ++v)
    EXPECT_NEAR(solver.centrality()[v], 2.0 * v * (n - 1 - v), 1e-9) << "v=" << v;
}

TEST(Betweenness, StarHubTakesAll) {
  const vertex_id n = 8;
  const auto edges = graph::symmetrize(graph::star_graph(n));
  distributed_graph g(n, edges, distribution::block(n, 2));
  std::vector<vertex_id> all(n);
  for (vertex_id v = 0; v < n; ++v) all[v] = v;
  expect_bc_matches(g, 2, all);
  // Exact: hub sits on every leaf-to-leaf shortest path:
  // (n-1)(n-2) ordered pairs.
  const auto oracle = brandes_oracle(g, all);
  EXPECT_NEAR(oracle[0], (n - 1.0) * (n - 2.0), 1e-9);
}

TEST(Betweenness, MatchesOracleOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const vertex_id n = 60;
    const auto edges =
        graph::symmetrize(graph::simplify(graph::erdos_renyi(n, 200, seed)));
    distributed_graph g(n, edges, distribution::cyclic(n, 3));
    expect_bc_matches(g, 3, {0, 7, 23});
  }
}

TEST(Betweenness, HandlerThreadsMatchOracle) {
  // The forward sweep's harvest hook fires from the rank's own thread and
  // from its handler threads concurrently.
  const vertex_id n = 60;
  const auto edges = graph::symmetrize(graph::simplify(graph::erdos_renyi(n, 200, 4)));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "handler_threads=" << threads);
    expect_bc_matches(g, 2, {0, 7, 23}, threads);
  }
}

TEST(Betweenness, SigmaCountsShortestPaths) {
  // Diamond: 0->1->3, 0->2->3 (symmetric): two shortest paths to 3.
  std::vector<graph::edge> base{{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const auto edges = graph::symmetrize(base);
  distributed_graph g(4, edges, distribution::cyclic(4, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  betweenness_solver solver(tp, g);
  tp.run([&](ampp::transport_context& ctx) {
    solver.reset_bc(ctx);
    solver.accumulate_source(ctx, 0);
  });
  EXPECT_DOUBLE_EQ(solver.sigma()[3], 2.0);
  EXPECT_DOUBLE_EQ(solver.sigma()[1], 1.0);
  EXPECT_EQ(solver.depth()[3], 2u);
}

TEST(Betweenness, DirectedGraphsSupported) {
  // Directed path: only forward paths count.
  const vertex_id n = 6;
  distributed_graph g(n, graph::path_graph(n), distribution::block(n, 2));
  std::vector<vertex_id> all(n);
  for (vertex_id v = 0; v < n; ++v) all[v] = v;
  expect_bc_matches(g, 2, all);
}

}  // namespace
}  // namespace dpg::algo
