// The multi-tenant serving front end, end to end:
//   * session results agree bit-for-bit with direct solver runs,
//   * N identical concurrent queries cost exactly one solve (merge + cache),
//   * repair_query() warm-repairs after apply_edges() and still matches a
//     cold solve exactly,
//   * the split transport-config API round-trips,
//   * per-tenant attribution adds up.
#include <gtest/gtest.h>

#include <barrier>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/sessions.hpp"
#include "graph/generators.hpp"
#include "serve/server.hpp"

namespace dpg::serve {
namespace {

using graph::distributed_graph;
using graph::distribution;

constexpr graph::vertex_id kN = 120;

double wfn_value(const graph::edge_handle& e) {
  return graph::edge_weight(e.src, e.dst, 13, 10.0);
}

struct fixture {
  distributed_graph g;
  pmap::edge_property_map<double> w;

  explicit fixture(std::uint64_t gseed = 5)
      : g(kN, graph::symmetrize(graph::erdos_renyi(kN, 600, gseed)),
          distribution::cyclic(kN, 2)),
        w(g, wfn_value) {}

  server_config cfg() const { return {.machine = {.n_ranks = 2}}; }
};

TEST(TransportConfigSplit, JoinRoundTripsTheFlatAggregate) {
  const ampp::transport_config flat{.n_ranks = 3,
                                    .coalescing_size = 17,
                                    .seed = 99,
                                    .faults = ampp::fault_plan::lossy(7),
                                    .handler_threads = 2};
  const ampp::machine_config m = flat.machine();
  const ampp::tuning_config t = flat.tuning();
  EXPECT_EQ(m.n_ranks, 3);
  EXPECT_EQ(m.handler_threads, 2u);
  EXPECT_EQ(t.coalescing_size, 17u);
  EXPECT_EQ(t.seed, 99u);
  const ampp::transport_config back = ampp::transport_config::join(m, t);
  EXPECT_EQ(back.n_ranks, flat.n_ranks);
  EXPECT_EQ(back.coalescing_size, flat.coalescing_size);
  EXPECT_EQ(back.seed, flat.seed);
  EXPECT_EQ(back.handler_threads, flat.handler_threads);
}

TEST(ServerTest, SsspMatchesDirectSolverAndOracle) {
  fixture fx;
  server srv(fx.g, fx.w, fx.cfg());
  auto r = srv.query({.algo = algorithm::sssp, .params = {.source = 0}});
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->converged);
  EXPECT_FALSE(r->warm_repair);
  EXPECT_GT(r->modifications, 0u);
  EXPECT_GT(r->stats_delta.core.messages_sent, 0u);

  // Against the sequential oracle...
  const auto oracle = algo::dijkstra(fx.g, fx.w, 0);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(r->value_as_double(v), oracle[v]) << "v=" << v;

  // ...and bit-identical to a hand-assembled solo solver run.
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  algo::sssp_solver solver(tp, fx.g, fx.w);
  tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(r->values[v], std::bit_cast<std::uint64_t>(solver.dist()[v]))
        << "v=" << v;
}

TEST(ServerTest, BfsAndCcMatchDirectSolvers) {
  fixture fx;
  server srv(fx.g, fx.w, fx.cfg());

  auto rb = srv.query({.algo = algorithm::bfs, .params = {.source = 3}});
  ASSERT_NE(rb, nullptr);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  algo::bfs_solver bfs(tp, fx.g);
  tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 3); });
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(rb->value(v), bfs.depth()[v]) << "v=" << v;

  // CC labels are deterministic only up to relabelling (which search claims
  // a vertex first is schedule-dependent), so compare partitions.
  auto rc = srv.query({.algo = algorithm::cc});
  ASSERT_NE(rc, nullptr);
  algo::cc_solver cc(fx.g, ampp::transport_config{.n_ranks = 2});
  cc.solve();
  std::map<std::uint64_t, std::uint64_t> fwd, rev;
  for (graph::vertex_id v = 0; v < kN; ++v) {
    const std::uint64_t a = rc->value(v), b = cc.components()[v];
    auto [fa, fi] = fwd.try_emplace(a, b);
    auto [ra, ri] = rev.try_emplace(b, a);
    (void)fi;
    (void)ri;
    EXPECT_EQ(fa->second, b) << "v=" << v;
    EXPECT_EQ(ra->second, a) << "v=" << v;
  }
}

// Malformed queries are refused with a typed error before they reach the
// cache, the in-flight table or a session; the server stays healthy and
// answers the next valid query exactly.
TEST(ServerTest, RejectsInvalidQueriesAndKeepsServing) {
  fixture fx;
  server srv(fx.g, fx.w, fx.cfg());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<serve::query> bad{
      {.algo = algorithm::sssp, .params = {.source = kN}},
      {.algo = algorithm::bfs, .params = {.source = kN + 1000}},
      {.algo = algorithm::sssp, .params = {.source = 0, .delta = nan}},
      {.algo = algorithm::sssp, .params = {.source = 0, .delta = inf}},
      {.algo = algorithm::bfs, .params = {.source = 0, .delta = -1.0}},
      // Not a serve::algorithm: one past the last enumerator, and the top
      // of the underlying type.
      {.algo = static_cast<algorithm>(5), .params = {.source = 0}},
      {.algo = static_cast<algorithm>(255), .params = {.source = 0}},
  };
  for (const serve::query& q : bad) {
    EXPECT_THROW(srv.query(q), std::invalid_argument);
    EXPECT_THROW(srv.repair_query(q), std::invalid_argument);
  }
  EXPECT_EQ(srv.cache().size(), 0u);
  EXPECT_EQ(srv.cache().misses(), 0u);
  EXPECT_EQ(srv.pool().created(), 0u);

  auto r = srv.query({.algo = algorithm::sssp, .params = {.source = 7}});
  ASSERT_NE(r, nullptr);
  const auto oracle = algo::dijkstra(fx.g, fx.w, 7);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(r->values[v], std::bit_cast<std::uint64_t>(oracle[v])) << "v=" << v;
}

// Malformed mutation batches are refused with a typed error before
// anything changes: the version, the cache, the topology and the recorded
// batch stay as they were, and the server keeps serving and repairing.
TEST(ServerTest, RejectsInvalidMutationsAndKeepsServing) {
  distributed_graph g(
      kN, graph::simplify(graph::symmetrize(graph::erdos_renyi(kN, 420, 9))),
      distribution::cyclic(kN, 2));
  pmap::edge_property_map<double> w(g, wfn_value);
  server srv(g, w, {.machine = {.n_ranks = 2}});
  const query qs{.algo = algorithm::sssp, .params = {.source = 0}};
  ASSERT_NE(srv.query(qs), nullptr);  // pins a session to the first version

  // One valid batch for repair_query to replay later.
  const std::vector<graph::edge> good = {{3, 111}, {111, 3}};
  srv.apply_mutation(good, {});
  ASSERT_NE(srv.query({.algo = algorithm::bfs, .params = {.source = 5}}), nullptr);
  const std::uint64_t version = srv.version();
  const std::uint64_t edges = g.num_edges();
  const std::size_t cached = srv.cache().size();

  // A pair with no edge in either direction.
  graph::edge absent{0, 0};
  for (graph::vertex_id b = 1; b < kN && absent.dst == 0; ++b) {
    bool linked = false;
    for (const auto e : g.out_edges(0)) linked = linked || e.dst == b;
    if (!linked) absent.dst = b;
  }
  ASSERT_NE(absent.dst, 0u);
  const graph::edge live = {0, (*g.out_edges(0).begin()).dst};

  struct batch {
    std::vector<graph::edge> added = {}, removed = {};
  };
  const std::vector<batch> bad{
      {.added = {{kN, 1}}},
      {.added = {{1, kN + 5}}},
      {.removed = {{kN, 0}}},
      // No live instance at all.
      {.removed = {absent}},
      // Valid additions ahead of an unresolvable removal must not land.
      {.added = {{7, 90}, {90, 7}}, .removed = {absent}},
      // One live instance, named twice.
      {.removed = {live, live}},
      // The batch's own addition covers one removal, not two.
      {.added = {absent}, .removed = {absent, absent}},
  };
  for (const batch& b : bad) {
    EXPECT_THROW(srv.apply_mutation(b.added, b.removed), std::invalid_argument);
    EXPECT_EQ(srv.version(), version);
    EXPECT_EQ(g.num_edges(), edges);
    EXPECT_EQ(srv.cache().size(), cached);
  }
  EXPECT_THROW(srv.apply_edges(std::vector<graph::edge>{{kN, kN}}), std::invalid_argument);
  EXPECT_THROW(srv.remove_edges(std::vector<graph::edge>{absent}), std::invalid_argument);
  EXPECT_EQ(srv.version(), version);

  // The cached answer is still served, and warm repair still replays the
  // last valid batch.
  const std::uint64_t hits = srv.cache().hits();
  ASSERT_NE(srv.query({.algo = algorithm::bfs, .params = {.source = 5}}), nullptr);
  EXPECT_EQ(srv.cache().hits(), hits + 1);
  auto rs = srv.repair_query(qs);
  ASSERT_NE(rs, nullptr);
  EXPECT_TRUE(rs->warm_repair);
  const auto dist = algo::dijkstra(g, w, 0);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(rs->value_as_double(v), dist[v]) << "v=" << v;

  // A batch whose removal is covered by its own addition is valid.
  srv.apply_mutation(std::vector<graph::edge>{absent}, std::vector<graph::edge>{absent});
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_GT(srv.version(), version);
}

// The admission guarantee behind the serving throughput claim: N identical
// queries — no matter how they interleave — cost exactly one solve. Late
// arrivals hit the cache; concurrent arrivals merge onto the in-flight
// leader; the leadership double-check closes the miss→register window.
TEST(ServerTest, ConcurrentIdenticalQueriesSolveOnce) {
  fixture fx;
  server srv(fx.g, fx.w, fx.cfg());
  constexpr int kClients = 8;
  std::vector<std::shared_ptr<const session_result>> results(kClients);
  std::barrier start(kClients);
  {
    std::vector<std::jthread> clients;
    for (int i = 0; i < kClients; ++i)
      clients.emplace_back([&, i] {
        start.arrive_and_wait();
        results[i] =
            srv.query({.algo = algorithm::sssp, .params = {.source = 7},
                       .tenant = static_cast<std::uint64_t>(i)});
      });
  }
  std::uint64_t solves = 0, hits = 0, merged = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_NE(results[i], nullptr) << i;
    ASSERT_EQ(results[i]->values.size(), static_cast<std::size_t>(kN));
    EXPECT_EQ(results[i]->values, results[0]->values) << i;
    const auto t = srv.obs().tenant(static_cast<std::uint64_t>(i));
    EXPECT_EQ(t.queries, 1u);
    solves += t.solves;
    hits += t.cache_hits;
    merged += t.merged;
  }
  EXPECT_EQ(solves, 1u) << "identical queries must coalesce to one solve";
  EXPECT_EQ(hits + merged, static_cast<std::uint64_t>(kClients) - 1u);
  EXPECT_EQ(srv.pool().created(), 1u);
}

TEST(ServerTest, RepairQueryWarmRepairsAndMatchesColdSolve) {
  fixture fx;
  server srv(fx.g, fx.w, fx.cfg());
  const query q{.algo = algorithm::sssp, .params = {.source = 0}, .tenant = 1};

  auto cold = srv.query(q);
  ASSERT_NE(cold, nullptr);

  // Mutate: symmetric shortcut edges (the graph is undirected).
  const std::vector<graph::edge> extra = {{0, 60}, {60, 0}, {5, 90}, {90, 5}};
  srv.apply_edges(extra, /*tenant=*/1);

  auto warm = srv.repair_query(q);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->warm_repair) << "the pooled session should repair, not re-solve";
  EXPECT_EQ(warm->graph_version, srv.version());

  // Exactness: the warm repair equals a from-scratch solve on the mutated
  // topology, bit for bit.
  fixture fresh;  // same seed → same base graph
  fresh.g.apply_edges(extra);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  algo::sssp_solver solver(tp, fresh.g, fresh.w);
  tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(warm->values[v], std::bit_cast<std::uint64_t>(solver.dist()[v]))
        << "v=" << v;

  EXPECT_EQ(srv.obs().tenant(1).repairs, 1u);

  // A repair_query with *different* params can't reuse the session's state:
  // it transparently falls back to a full solve and is still correct.
  auto other = srv.repair_query(
      {.algo = algorithm::sssp, .params = {.source = 42}, .tenant = 1});
  ASSERT_NE(other, nullptr);
  EXPECT_FALSE(other->warm_repair);
  const auto oracle = algo::dijkstra(fresh.g, fresh.w, 42);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(other->value_as_double(v), oracle[v]) << "v=" << v;
}

// Regression: warm repair is sound only when the session's state is exactly
// one mutation behind the seeds. The server overwrites its recorded seeds on
// every apply_edges(), so after two back-to-back mutations the seeds cover
// only the newest batch — a session whose last run predates both must detect
// the version gap and fall back to a full solve, never serve too-large
// distances stamped with the live version.
TEST(ServerTest, RepairFallsBackAfterMultipleMutations) {
  fixture fx;
  server srv(fx.g, fx.w, fx.cfg());
  const query q{.algo = algorithm::sssp, .params = {.source = 0}, .tenant = 2};

  auto cold = srv.query(q);
  ASSERT_NE(cold, nullptr);

  // Two mutations back to back: batch1's endpoints vanish from the recorded
  // seeds when batch2 overwrites them.
  const std::vector<graph::edge> batch1 = {{0, 100}, {100, 0}};
  const std::vector<graph::edge> batch2 = {{7, 110}, {110, 7}};
  srv.apply_edges(batch1, /*tenant=*/2);
  srv.apply_edges(batch2, /*tenant=*/2);

  auto r = srv.repair_query(q);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->warm_repair)
      << "a session two mutations behind the seeds must full-solve";
  EXPECT_EQ(r->graph_version, srv.version());

  // Exact against the oracle on the twice-mutated topology — batch1's
  // shortcut must be reflected even though its endpoints left the seeds.
  fixture fresh;  // same seed → same base graph
  fresh.g.apply_edges(batch1);
  fresh.g.apply_edges(batch2);
  const auto oracle = algo::dijkstra(fresh.g, fresh.w, 0);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(r->value_as_double(v), oracle[v]) << "v=" << v;

  // Once re-solved at the live version, the next mutate→repair cycle is
  // warm again: the session is now exactly one mutation behind the seeds.
  const std::vector<graph::edge> batch3 = {{3, 115}, {115, 3}};
  srv.apply_edges(batch3, /*tenant=*/2);
  auto warm = srv.repair_query(q);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->warm_repair);
  fresh.g.apply_edges(batch3);
  const auto oracle3 = algo::dijkstra(fresh.g, fresh.w, 0);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(warm->value_as_double(v), oracle3[v]) << "v=" << v;
}

TEST(ServerTest, KcoreAndPagerankSessionsMatchBaselines) {
  // k-core (and its streaming maintainer) is defined on simple symmetric
  // graphs, so this fixture simplifies the symmetrized generator output.
  distributed_graph g(
      kN, graph::simplify(graph::symmetrize(graph::erdos_renyi(kN, 300, 5))),
      distribution::cyclic(kN, 2));
  pmap::edge_property_map<double> w(g, wfn_value);
  server srv(g, w, {.machine = {.n_ranks = 2}});

  auto rk = srv.query({.algo = algorithm::kcore});
  ASSERT_NE(rk, nullptr);
  EXPECT_TRUE(rk->converged);
  const auto cores = algo::kcore_peel(g);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(rk->value(v), cores[v]) << "v=" << v;

  // PageRank: fixed 20-iteration power method, damping defaults to 0.85.
  auto rp = srv.query({.algo = algorithm::pagerank});
  ASSERT_NE(rp, nullptr);
  EXPECT_EQ(rp->rounds, 20u);
  const auto oracle = algo::pagerank(g, 0.85, 20);
  for (graph::vertex_id v = 0; v < kN; ++v)
    ASSERT_NEAR(rp->value_as_double(v), oracle[v], 1e-12) << "v=" << v;

  // delta in (0,1) re-parameterizes the damping factor (and is a distinct
  // cache key, so this is a fresh solve, not a hit).
  auto rp50 = srv.query({.algo = algorithm::pagerank, .params = {.delta = 0.5}});
  const auto oracle50 = algo::pagerank(g, 0.5, 20);
  for (graph::vertex_id v = 0; v < kN; ++v)
    ASSERT_NEAR(rp50->value_as_double(v), oracle50[v], 1e-12) << "v=" << v;
}

// The streaming ingest path end to end: one apply_mutation() batch that both
// appends and tombstones, then warm repair_query() for every algorithm with
// an incremental path — all exactly equal to the sequential oracles on the
// mutated live view (the baselines walk the same tombstone-skipping
// iterators the solvers do).
TEST(ServerTest, ApplyMutationWarmRepairsSsspCcKcore) {
  distributed_graph g(
      kN, graph::simplify(graph::symmetrize(graph::erdos_renyi(kN, 420, 9))),
      distribution::cyclic(kN, 2));
  pmap::edge_property_map<double> w(g, wfn_value);
  server srv(g, w, {.machine = {.n_ranks = 2}});
  const query qs{.algo = algorithm::sssp, .params = {.source = 0}};
  const query qc{.algo = algorithm::cc};
  const query qk{.algo = algorithm::kcore};

  // Cold solves pin the pooled sessions to the pre-mutation version.
  ASSERT_NE(srv.query(qs), nullptr);
  ASSERT_NE(srv.query(qc), nullptr);
  ASSERT_NE(srv.query(qk), nullptr);
  const std::uint64_t v0 = srv.version();

  // One mixed batch: pick two existing symmetric pairs to delete (both
  // directed halves) and add two fresh pairs.
  std::vector<graph::edge> dels;
  for (const auto e : g.out_edges(0)) {
    dels.push_back({e.src, e.dst});
    dels.push_back({e.dst, e.src});
    if (dels.size() == 4) break;
  }
  ASSERT_EQ(dels.size(), 4u) << "fixture vertex 0 needs degree >= 2";
  const std::vector<graph::edge> adds = {{2, 117}, {117, 2}, {50, 81}, {81, 50}};
  srv.apply_mutation(adds, dels);
  EXPECT_EQ(srv.version(), v0 + 2) << "one bump per apply + per remove";

  auto rs = srv.repair_query(qs);
  auto rc = srv.repair_query(qc);
  auto rk = srv.repair_query(qk);
  ASSERT_NE(rs, nullptr);
  ASSERT_NE(rc, nullptr);
  ASSERT_NE(rk, nullptr);
  EXPECT_TRUE(rs->warm_repair) << "sssp should decrementally repair, not re-solve";
  EXPECT_TRUE(rc->warm_repair) << "cc should ride the union-find maintainer";
  EXPECT_TRUE(rk->warm_repair) << "kcore should ride the peel-frontier maintainer";

  const auto dist = algo::dijkstra(g, w, 0);
  const auto labels = algo::cc_union_find(g);
  const auto cores = algo::kcore_peel(g);
  for (graph::vertex_id v = 0; v < kN; ++v) {
    EXPECT_EQ(rs->value_as_double(v), dist[v]) << "v=" << v;
    EXPECT_EQ(rc->value(v), labels[v]) << "v=" << v;
    EXPECT_EQ(rk->value(v), cores[v]) << "v=" << v;
  }

  // The remove_edges() shorthand chains: sessions repaired to the live
  // version above are exactly one mutation behind again.
  const std::vector<graph::edge> dels2 = {adds[0], adds[1]};
  srv.remove_edges(dels2);
  auto rs2 = srv.repair_query(qs);
  ASSERT_NE(rs2, nullptr);
  EXPECT_TRUE(rs2->warm_repair);
  const auto dist2 = algo::dijkstra(g, w, 0);
  for (graph::vertex_id v = 0; v < kN; ++v)
    EXPECT_EQ(rs2->value_as_double(v), dist2[v]) << "v=" << v;
}

TEST(ServerTest, ServingSummaryRendersContextsAndTenants) {
  fixture fx;
  server srv(fx.g, fx.w, fx.cfg());
  srv.query({.algo = algorithm::sssp, .params = {.source = 0}, .tenant = 3});
  srv.query({.algo = algorithm::bfs, .params = {.source = 0}, .tenant = 4});
  const std::string s = srv.serving_summary();
  EXPECT_NE(s.find("sssp"), std::string::npos);
  EXPECT_NE(s.find("bfs"), std::string::npos);
  EXPECT_NE(s.find("tenant"), std::string::npos);
  // The drain folded every live session's registry into the rollup.
  EXPECT_GT(srv.obs().total().core.messages_sent, 0u);
}

}  // namespace
}  // namespace dpg::serve
