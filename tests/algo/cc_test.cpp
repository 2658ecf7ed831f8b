// Connected components (the paper's Fig. 3 parallel search) against the
// union-find oracle: partitions must match exactly on every graph family,
// distribution, and rank count; plus diagnostics (conflicts, jump rounds),
// the claim record's accounting, handler threads, and the epoch_flush
// ablation.
#include "algo/cc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "algo/baselines.hpp"
#include "graph/generators.hpp"

namespace dpg::algo {
namespace {

using graph::distributed_graph;
using graph::distribution;

/// Checks that two labellings induce the same partition of [0, n).
void expect_same_partition(const std::vector<vertex_id>& oracle,
                           const pmap::vertex_property_map<vertex_id>& got,
                           vertex_id n) {
  std::map<vertex_id, vertex_id> fwd, bwd;
  for (vertex_id v = 0; v < n; ++v) {
    const vertex_id a = oracle[v];
    const vertex_id b = got[v];
    auto [fit, finserted] = fwd.emplace(a, b);
    ASSERT_EQ(fit->second, b) << "oracle class " << a << " split at v=" << v;
    auto [bit, binserted] = bwd.emplace(b, a);
    ASSERT_EQ(bit->second, a) << "result class " << b << " merges oracle classes at v=" << v;
  }
}

struct cc_case {
  const char* name;
  vertex_id n;
  std::vector<graph::edge> edges;  // already symmetric
};

std::vector<cc_case> cc_cases() {
  std::vector<cc_case> cases;
  // Several disconnected paths.
  {
    std::vector<graph::edge> e;
    for (vertex_id c = 0; c < 5; ++c)
      for (vertex_id v = 0; v + 1 < 10; ++v)
        e.push_back({c * 10 + v, c * 10 + v + 1});
    cases.push_back({"five_paths", 50, graph::symmetrize(e)});
  }
  // Random graph: a mix of one giant and several small components.
  cases.push_back({"er", 200, graph::symmetrize(graph::erdos_renyi(200, 220, 5))});
  // Very sparse: mostly isolated vertices.
  cases.push_back({"sparse", 150, graph::symmetrize(graph::erdos_renyi(150, 30, 6))});
  // Power-law.
  {
    graph::rmat_params p;
    p.scale = 7;
    p.edge_factor = 4;
    cases.push_back({"rmat", 1u << 7, graph::symmetrize(graph::rmat(p, 8))});
  }
  // Fully connected ring.
  cases.push_back({"ring", 64, graph::symmetrize(graph::cycle_graph(64))});
  // No edges at all.
  cases.push_back({"isolated", 40, {}});
  return cases;
}

using params = std::tuple<int, int /*dist*/, ampp::rank_t, bool /*flush*/>;

class CcEndToEnd : public ::testing::TestWithParam<params> {};

TEST_P(CcEndToEnd, PartitionMatchesUnionFind) {
  auto [case_idx, dist_kind, ranks, flush] = GetParam();
  const auto gc = cc_cases()[case_idx];
  distribution d = dist_kind == 0 ? distribution::block(gc.n, ranks)
                   : dist_kind == 1
                       ? distribution::cyclic(gc.n, ranks)
                       : distribution::hashed(gc.n, ranks, 11);
  distributed_graph g(gc.n, gc.edges, d);
  const auto oracle = cc_union_find(g);

  cc_solver cc(g, ampp::transport_config{.n_ranks = ranks});
  cc.solve(flush);
  expect_same_partition(oracle, cc.components(), gc.n);
}

std::string param_name(const ::testing::TestParamInfo<params>& info) {
  auto [c, d, r, f] = info.param;
  static const char* dists[] = {"block", "cyclic", "hashed"};
  return std::string(cc_cases()[c].name) + "_" + dists[d] + "_r" + std::to_string(r) +
         (f ? "_flush" : "_noflush");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcEndToEnd,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1),
                                            ::testing::Values<ampp::rank_t>(1, 4),
                                            ::testing::Bool()),
                         param_name);

INSTANTIATE_TEST_SUITE_P(Distributions, CcEndToEnd,
                         ::testing::Combine(::testing::Values(1),
                                            ::testing::Values(0, 2),
                                            ::testing::Values<ampp::rank_t>(3),
                                            ::testing::Values(true)),
                         param_name);

TEST(Cc, ComponentCountsMatchOracle) {
  const auto edges = graph::symmetrize(graph::erdos_renyi(300, 250, 42));
  distributed_graph g(300, edges, distribution::cyclic(300, 4));
  const auto oracle = cc_union_find(g);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 4});
  cc.solve();
  std::vector<vertex_id> got(300);
  for (vertex_id v = 0; v < 300; ++v) got[v] = cc.components()[v];
  EXPECT_EQ(count_components(got), count_components(oracle));
}

TEST(Cc, IsolatedVerticesAreTheirOwnComponents) {
  distributed_graph g(10, {}, distribution::block(10, 2));
  cc_solver cc(g, ampp::transport_config{.n_ranks = 2});
  cc.solve();
  for (vertex_id v = 0; v < 10; ++v) EXPECT_EQ(cc.components()[v], v);
  EXPECT_EQ(cc.conflict_pairs(), 0u);
  EXPECT_EQ(cc.searches_seeded(), 10u);
}

TEST(Cc, SingleRankSeedsFewSearchesWithFlush) {
  // With one rank and flushing, each component is fully explored before
  // the next seed: the number of searches equals the number of components.
  const auto edges = graph::symmetrize(graph::erdos_renyi(120, 150, 9));
  distributed_graph g(120, edges, distribution::block(120, 1));
  const auto oracle = cc_union_find(g);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 1});
  cc.solve(true);
  EXPECT_EQ(cc.searches_seeded(), count_components(oracle));
  EXPECT_EQ(cc.conflict_pairs(), 0u);
}

TEST(Cc, BaselinesAgree) {
  const auto edges = graph::symmetrize(graph::erdos_renyi(150, 170, 31));
  distributed_graph g(150, edges, distribution::block(150, 1));
  const auto a = cc_union_find(g);
  const auto b = cc_label_propagation(g);
  for (vertex_id v = 0; v < 150; ++v) ASSERT_EQ(a[v], b[v]);
}

/// A hub joined to every odd vertex, over R-MAT scale 10: searches seeded
/// on different ranks keep running into each other around the hub.
distributed_graph hub_and_rmat(ampp::rank_t ranks) {
  graph::rmat_params p;
  p.scale = 10;
  p.edge_factor = 4;
  std::vector<graph::edge> e = graph::rmat(p, 21);
  const vertex_id n = vertex_id{1} << p.scale;
  for (vertex_id v = 1; v < n; v += 2) e.push_back({0, v});
  return distributed_graph(n, graph::symmetrize(e), distribution::cyclic(n, ranks));
}

/// Checks one solve of `cc` on `g`: labels against union-find, duplicate-free
/// collision sets, and the search's record accounting. Every vertex runs
/// the search exactly once (as a seed or once claimed), so it generates one
/// claim record per directed edge, and each record is sent, dropped as an
/// exact repeat, or committed in place.
void expect_clean_solve(const distributed_graph& g, const cc_solver& cc) {
  expect_same_partition(cc_union_find(g), cc.components(), g.num_vertices());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    std::vector<vertex_id> roots = cc.collisions()[v];
    std::sort(roots.begin(), roots.end());
    ASSERT_EQ(std::adjacent_find(roots.begin(), roots.end()), roots.end()) << "v=" << v;
  }
  const obs::counters& s = cc.search_stats().core;
  EXPECT_EQ(g.num_edges(), s.messages_sent + s.cache_hits + s.local_applies);
}

using collision_params = std::tuple<bool /*flush*/, unsigned /*handler threads*/>;

class CcCollisions : public ::testing::TestWithParam<collision_params> {};

TEST_P(CcCollisions, RecordsEachCollisionOnce) {
  const auto [flush, helpers] = GetParam();
  const distributed_graph g = hub_and_rmat(4);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 4, .handler_threads = helpers});
  for (int solve = 0; solve < 2; ++solve) {
    SCOPED_TRACE(solve);
    cc.solve(flush);
    expect_clean_solve(g, cc);
  }
  if (!flush) {
    EXPECT_GT(cc.conflict_pairs(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HubAndRmat, CcCollisions,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0u, 1u, 2u)),
    [](const ::testing::TestParamInfo<collision_params>& info) {
      return std::string(std::get<0>(info.param) ? "flush" : "noflush") + "_h" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Cc, OneRankSendsNoUserMessages) {
  // At one rank every claim target is owned by the sender, so the search
  // commits each record in place and sends nothing.
  const distributed_graph g = hub_and_rmat(1);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 1});
  cc.solve();
  expect_clean_solve(g, cc);
  EXPECT_EQ(cc.search_stats().core.messages_sent, 0u);
  EXPECT_EQ(cc.search_stats().core.local_applies, g.num_edges());
}

TEST(Cc, OneJumpRoundReachesTheFixedPoint) {
  // After the union-find, chg maps every colliding root straight to its
  // final label, so a single cc_jump round rewrites every label: the
  // rewrite changes something exactly when two searches met, and the
  // partition equals union-find's.
  for (const ampp::rank_t ranks : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "ranks=" << ranks);
    const distributed_graph g = hub_and_rmat(ranks);
    cc_solver cc(g, ampp::transport_config{.n_ranks = ranks});
    for (const bool flush : {true, false}) {
      cc.solve(flush);
      expect_same_partition(cc_union_find(g), cc.components(), g.num_vertices());
      EXPECT_LE(cc.jump_rounds(), 1);
      EXPECT_EQ(cc.jump_rounds(), cc.conflict_pairs() > 0 ? 1 : 0);
    }
  }
}

TEST(Cc, SolveIsRepeatable) {
  const auto edges = graph::symmetrize(graph::erdos_renyi(80, 100, 2));
  distributed_graph g(80, edges, distribution::cyclic(80, 2));
  const auto oracle = cc_union_find(g);
  cc_solver cc(g, ampp::transport_config{.n_ranks = 2});
  cc.solve();
  expect_same_partition(oracle, cc.components(), 80);
  cc.solve();  // must fully reset internal state
  expect_same_partition(oracle, cc.components(), 80);
}

}  // namespace
}  // namespace dpg::algo
