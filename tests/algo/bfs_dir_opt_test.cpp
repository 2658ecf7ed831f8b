// Direction-optimizing BFS: correctness against the sequential oracle,
// agreement with plain push BFS, and verification that the heuristic
// actually switches direction on frontier-heavy graphs.
#include "algo/bfs_dir_opt.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "graph/generators.hpp"

namespace dpg::algo {
namespace {

using graph::distributed_graph;
using graph::distribution;

TEST(BfsDirOpt, MatchesOracleOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const vertex_id n = 300;
    const auto edges = graph::symmetrize(graph::erdos_renyi(n, 1200, seed));
    distributed_graph g(n, edges, distribution::cyclic(n, 3), /*bidirectional=*/true);
    const auto oracle = bfs_levels(g, 0);
    ampp::transport tp(ampp::transport_config{.n_ranks = 3});
    bfs_dir_opt_solver bfs(tp, g);
    tp.run([&](ampp::transport_context& ctx) { bfs.run(ctx, 0); });
    for (vertex_id v = 0; v < n; ++v) {
      if (oracle[v] < 0)
        ASSERT_EQ(bfs.depth()[v], bfs.unreachable_depth()) << "seed=" << seed;
      else
        ASSERT_EQ(bfs.depth()[v], static_cast<std::uint64_t>(oracle[v]))
            << "seed=" << seed << " v=" << v;
    }
  }
}

TEST(BfsDirOpt, SwitchesToPullOnDenseFrontiers) {
  // A symmetric R-MAT with edge factor 16: the second or third frontier
  // covers most of the giant component, which must trigger pull mode.
  graph::rmat_params p;
  p.scale = 10;
  p.edge_factor = 16;
  const vertex_id n = 1u << p.scale;
  const auto edges = graph::symmetrize(graph::rmat(p, 5));
  distributed_graph g(n, edges, distribution::cyclic(n, 2), true);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  bfs_dir_opt_solver bfs(tp, g);
  // Source: a hub (max out-degree vertex) so the frontier explodes.
  vertex_id hub = 0;
  for (vertex_id v = 0; v < n; ++v)
    if (g.out_degree(v) > g.out_degree(hub)) hub = v;
  tp.run([&](ampp::transport_context& ctx) { bfs.run(ctx, hub); });
  const auto& modes = bfs.modes();
  ASSERT_FALSE(modes.empty());
  EXPECT_EQ(modes.front(), 'p');  // first level: tiny frontier => push
  EXPECT_NE(std::find(modes.begin(), modes.end(), 'P'), modes.end())
      << "pull mode never engaged";
  // Verify against plain BFS.
  const auto oracle = bfs_levels(g, hub);
  for (vertex_id v = 0; v < n; ++v) {
    const auto want = oracle[v] < 0 ? bfs.unreachable_depth()
                                    : static_cast<std::uint64_t>(oracle[v]);
    ASSERT_EQ(bfs.depth()[v], want) << "v=" << v;
  }
}

TEST(BfsDirOpt, AlphaZeroForcesPushOnly) {
  const vertex_id n = 100;
  const auto edges = graph::symmetrize(graph::erdos_renyi(n, 400, 7));
  distributed_graph g(n, edges, distribution::block(n, 2), true);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  bfs_dir_opt_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run(ctx, 0, /*alpha=*/0.0); });
  for (const char m : bfs.modes()) EXPECT_EQ(m, 'p');
  const auto oracle = bfs_levels(g, 0);
  for (vertex_id v = 0; v < n; ++v) {
    if (oracle[v] >= 0) {
      ASSERT_EQ(bfs.depth()[v], static_cast<std::uint64_t>(oracle[v]));
    }
  }
}

TEST(BfsDirOpt, HugeAlphaForcesPullHeavy) {
  const vertex_id n = 100;
  const auto edges = graph::symmetrize(graph::erdos_renyi(n, 400, 7));
  distributed_graph g(n, edges, distribution::block(n, 2), true);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  bfs_dir_opt_solver bfs(tp, g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run(ctx, 0, /*alpha=*/1e18); });
  for (const char m : bfs.modes()) EXPECT_EQ(m, 'P');
  const auto oracle = bfs_levels(g, 0);
  for (vertex_id v = 0; v < n; ++v) {
    if (oracle[v] >= 0) {
      ASSERT_EQ(bfs.depth()[v], static_cast<std::uint64_t>(oracle[v]));
    }
  }
}

TEST(BfsDirOpt, HandlerThreadsMatchOracle) {
  // With handler threads, the harvest hook runs on the rank's own thread
  // (owner-local discoveries) and on its helpers (delivered ones) at once.
  const vertex_id n = 400;
  const auto edges = graph::symmetrize(graph::erdos_renyi(n, 1600, 11));
  distributed_graph g(n, edges, distribution::cyclic(n, 2), /*bidirectional=*/true);
  const auto oracle = bfs_levels(g, 0);
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "handler_threads=" << threads);
    ampp::transport tp(ampp::transport_config{.n_ranks = 2, .handler_threads = threads});
    bfs_dir_opt_solver bfs(tp, g);
    tp.run([&](ampp::transport_context& ctx) { bfs.run(ctx, 0); });
    for (vertex_id v = 0; v < n; ++v) {
      const auto want = oracle[v] < 0 ? bfs.unreachable_depth()
                                      : static_cast<std::uint64_t>(oracle[v]);
      ASSERT_EQ(bfs.depth()[v], want) << "v=" << v;
    }
  }
}

TEST(BfsDirOpt, RequiresBidirectionalStorage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto edges = graph::path_graph(4);
  distributed_graph g(4, edges, distribution::block(4, 1), /*bidirectional=*/false);
  ampp::transport tp(ampp::transport_config{.n_ranks = 1});
  EXPECT_DEATH({ bfs_dir_opt_solver bfs(tp, g); }, "bidirectional");
}

}  // namespace
}  // namespace dpg::algo
