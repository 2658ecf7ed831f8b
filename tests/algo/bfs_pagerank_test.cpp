// BFS and PageRank built from patterns, validated against the sequential
// baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "algo/pagerank.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"

namespace dpg::algo {
namespace {

using graph::distributed_graph;
using graph::distribution;

TEST(Bfs, FixedPointMatchesSequentialLevels) {
  const vertex_id n = 200;
  const auto edges = graph::erdos_renyi(n, 900, 15);
  distributed_graph g(n, edges, distribution::cyclic(n, 3));
  const auto oracle = bfs_levels(g, 0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});
  bfs_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
  for (vertex_id v = 0; v < n; ++v) {
    const auto got = bfs.depth()[v];
    if (oracle[v] < 0)
      EXPECT_EQ(got, bfs.unreachable_depth()) << "v=" << v;
    else
      EXPECT_EQ(got, static_cast<std::uint64_t>(oracle[v])) << "v=" << v;
  }
}

TEST(Bfs, LevelSyncMatchesFixedPoint) {
  const vertex_id n = 150;
  const auto edges = graph::erdos_renyi(n, 700, 25);
  distributed_graph g(n, edges, distribution::block(n, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  bfs_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 3); });
  std::vector<std::uint64_t> fixed(n);
  for (vertex_id v = 0; v < n; ++v) fixed[v] = bfs.depth()[v];
  tp.run([&](ampp::transport_context& ctx) { bfs.run_level_sync(ctx, 3); });
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(bfs.depth()[v], fixed[v]) << "v=" << v;
}

TEST(Bfs, DisconnectedVerticesKeepSentinelDepth) {
  std::vector<graph::edge> edges{{0, 1}, {1, 2}};
  distributed_graph g(5, edges, distribution::cyclic(5, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  bfs_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
  EXPECT_EQ(bfs.depth()[2], 2u);
  EXPECT_EQ(bfs.depth()[3], bfs.unreachable_depth());
  EXPECT_EQ(bfs.depth()[4], bfs.unreachable_depth());
}

TEST(PageRank, MatchesSequentialPowerIteration) {
  const vertex_id n = 120;
  const auto edges = graph::erdos_renyi(n, 700, 5);
  distributed_graph g(n, edges, distribution::cyclic(n, 3));
  const auto oracle = pagerank(g, 0.85, 20);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});
  pagerank_solver pr(tp, g);
  tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 20); });
  for (vertex_id v = 0; v < n; ++v)
    ASSERT_NEAR(pr.ranks()[v], oracle[v], 1e-12) << "v=" << v;
}

TEST(PageRank, ScatterKernelMatchesSequentialRanks) {
  // The unconditional scatter compiles to the 16-byte scatter record and
  // lands on the sequential ranks.
  const vertex_id n = 300;
  const auto edges = graph::erdos_renyi(n, 2400, 9);
  distributed_graph g(n, edges, distribution::cyclic(n, 4));
  const auto oracle = pagerank(g, 0.85, 20);
  ampp::transport tp(ampp::transport_config{.n_ranks = 4});
  pagerank_solver fast(tp, g);
  EXPECT_TRUE(fast.plan().fast_path);
  EXPECT_EQ(fast.plan().wire_bytes, std::vector<std::size_t>{16});
  tp.run([&](ampp::transport_context& ctx) { fast.run(ctx, 0.85, 20); });
  for (vertex_id v = 0; v < n; ++v)
    ASSERT_NEAR(fast.ranks()[v], oracle[v], 1e-12) << "v=" << v;
}

TEST(PageRank, CombiningScatterSendsOneRecordPerRemoteTargetPerSweep) {
  // The solver's scatter is an `add`, so each sweep each rank sends one
  // record per distinct remote target; every other contribution is folded
  // on the sender or applied in place, and the ranks match the sequential
  // ones. The same sweeps through the lambda `modify` twin of the scatter
  // (uncombined by shape: its F is opaque) send one record per remote
  // edge — over R-MAT scale 10 plus a hub every vertex points at, with and
  // without handler threads.
  constexpr int kIters = 10;
  for (const ampp::rank_t ranks : {2u, 4u}) {
    for (const unsigned threads : {0u, 1u, 2u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " threads=" + std::to_string(threads));
      graph::rmat_params p;
      p.scale = 10;
      p.edge_factor = 8;
      std::vector<graph::edge> edges = graph::rmat(p, 31);
      const vertex_id n = vertex_id{1} << p.scale;
      for (vertex_id v = 1; v < n; ++v) edges.push_back({v, 0});
      distributed_graph g(n, edges, distribution::cyclic(n, ranks));
      std::uint64_t local = 0, remote = 0;
      std::set<std::pair<ampp::rank_t, vertex_id>> pairs;
      for (vertex_id v = 0; v < n; ++v)
        for (const graph::edge_handle e : g.out_edges(v)) {
          if (g.owner(e.dst) == g.owner(v)) {
            ++local;
          } else {
            ++remote;
            pairs.insert({g.owner(v), e.dst});
          }
        }

      const auto oracle = pagerank(g, 0.85, kIters);
      ampp::transport tp(ampp::transport_config{.n_ranks = ranks, .handler_threads = threads});
      pagerank_solver combined(tp, g);
      EXPECT_TRUE(combined.plan().fast_reduction);

      // The twin: kIters sweeps of the oracle's shares into one map.
      using namespace pattern;
      pmap::vertex_property_map<double> share_map(g, 0.0), next_map(g, 0.0);
      std::vector<double> sums(n, 0.0);
      for (vertex_id v = 0; v < n; ++v) {
        if (g.out_degree(v) == 0) continue;
        share_map[v] = oracle[v] / static_cast<double>(g.out_degree(v));
        for (const graph::edge_handle e : g.out_edges(v)) sums[e.dst] += kIters * share_map[v];
      }
      pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
      property share(share_map), next(next_map);
      auto twin = instantiate(
          tp, g, locks,
          make_action("pr.twin", out_edges_gen{},
                      when(lit(true), modify(next(trg(e_)),
                                             [](double& acc, double x) { acc += x; },
                                             share(v_)))));
      EXPECT_FALSE(twin->plan().fast_reduction);

      obs::stats_scope sc(tp.obs());
      tp.run([&](ampp::transport_context& ctx) { combined.run(ctx, 0.85, kIters); });
      const auto c = sc.finish().core;
      EXPECT_EQ(c.messages_sent, pairs.size() * kIters);
      EXPECT_EQ(c.cache_hits, (remote - pairs.size()) * kIters);
      EXPECT_EQ(c.local_applies, local * kIters);
      EXPECT_EQ(c.messages_sent + c.cache_hits + c.local_applies, g.num_edges() * kIters);
      for (vertex_id v = 0; v < n; ++v)
        ASSERT_NEAR(combined.ranks()[v], oracle[v], 1e-12) << "v=" << v;

      obs::stats_scope su(tp.obs());
      tp.run([&](ampp::transport_context& ctx) {
        for (int it = 0; it < kIters; ++it) {
          ampp::epoch ep(ctx);
          strategy::for_each_local_vertex(ctx, g, [&](vertex_id v) { (*twin)(ctx, v); });
        }
      });
      const auto u = su.finish().core;
      EXPECT_EQ(u.messages_sent, remote * kIters);
      EXPECT_EQ(u.cache_hits, 0u);
      EXPECT_EQ(u.local_applies, local * kIters);
      for (vertex_id v = 0; v < n; ++v) ASSERT_NEAR(next_map[v], sums[v], 1e-9) << "v=" << v;
    }
  }
}

TEST(PageRank, MassIsConserved) {
  const vertex_id n = 90;
  // Include sinks (star edges point outward only: leaves are sinks).
  const auto edges = graph::star_graph(n);
  distributed_graph g(n, edges, distribution::block(n, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  pagerank_solver pr(tp, g);
  tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 15); });
  double total = 0;
  for (vertex_id v = 0; v < n; ++v) total += pr.ranks()[v];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PageRank, HubCollectsMoreRankThanLeaves) {
  // Symmetric star: the hub must dominate.
  const vertex_id n = 50;
  const auto edges = graph::symmetrize(graph::star_graph(n));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  pagerank_solver pr(tp, g);
  tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 30); });
  for (vertex_id v = 1; v < n; ++v) EXPECT_GT(pr.ranks()[0], pr.ranks()[v]);
}

}  // namespace
}  // namespace dpg::algo
