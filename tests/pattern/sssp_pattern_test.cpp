// End-to-end test of the SSSP relax pattern (Fig. 2/4 of the paper) and of
// the synthesized communication plan (Fig. 6: one gather at v merged with
// evaluate+modify at trg(e)).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "algo/fused.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "algo/widest_path.hpp"
#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "pattern/action.hpp"

namespace dpg::pattern {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::edge_handle;
using graph::vertex_id;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct sssp_fixture {
  distributed_graph g;
  pmap::vertex_property_map<double> dist_map;
  pmap::edge_property_map<double> weight_map;
  pmap::lock_map locks;

  sssp_fixture(vertex_id n, const std::vector<graph::edge>& edges, ampp::rank_t ranks,
               double uniform_weight = 1.0)
      : sssp_fixture(edges, distribution::cyclic(n, ranks), uniform_weight) {}
  sssp_fixture(const std::vector<graph::edge>& edges, const distribution& d,
               double uniform_weight = 1.0)
      : g(d.num_vertices(), edges, d),
        dist_map(g, kInf),
        weight_map(g, uniform_weight),
        locks(g.dist(), pmap::lock_scheme::per_vertex) {}
};

// Builds the relax action exactly as the paper's Fig. 2 writes it.
template <class Fixture>
auto make_relax(ampp::transport& tp, Fixture& fx) {
  property dist(fx.dist_map);
  property weight(fx.weight_map);
  return instantiate(tp, fx.g, fx.locks,
                     make_action("relax", out_edges_gen{},
                                 when(dist(trg(e_)) > dist(v_) + weight(e_),
                                      assign(dist(trg(e_)), dist(v_) + weight(e_)))));
}

TEST(SsspPattern, PlanMatchesFigureSix) {
  // Fig. 6: dist(v) and weight(e) are gathered locally at v (hop 0); no
  // separate gather message is needed at trg(e) — the read of dist(trg(e))
  // is deferred into the single evaluate+modify message, where it is
  // performed synchronized (atomics for double). Exactly one message per
  // generated edge.
  sssp_fixture fx(4, graph::path_graph(4), 2);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  auto relax = make_relax(tp, fx);
  const plan_info& p = relax->plan();
  EXPECT_EQ(p.gather_hops, 1);      // only the invocation site gathers
  EXPECT_FALSE(p.final_merged);     // the evaluate message crosses to trg(e)
  EXPECT_TRUE(p.atomic_path);
  EXPECT_EQ(p.final_reads, 1);      // dist(trg(e)), read under synchronization
  EXPECT_EQ(p.arena_bytes, 24u);    // dist(v) + weight(e) + slot for dist(trg(e))
  EXPECT_EQ(p.messages_per_application(), 1);
}

TEST(SsspPattern, RelaxUpdatesNeighbours) {
  // One application of relax at the source improves all direct neighbours.
  const vertex_id n = 5;
  sssp_fixture fx(n, graph::star_graph(n), 2, 3.0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  auto relax = make_relax(tp, fx);
  fx.dist_map[0] = 0.0;
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    if (fx.g.owner(0) == ctx.rank()) (*relax)(ctx, 0);
  });
  for (vertex_id v = 1; v < n; ++v) EXPECT_DOUBLE_EQ(fx.dist_map[v], 3.0);
  EXPECT_EQ(relax->modifications(), n - 1);
  EXPECT_EQ(relax->invocations(), 1u);
}

TEST(SsspPattern, FixedPointViaWorkHookOnPath) {
  // The dependency hook re-invokes relax at every improved vertex: on a
  // path this walks the whole line within a single epoch.
  const vertex_id n = 50;
  sssp_fixture fx(n, graph::path_graph(n), 4, 2.0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 4});
  auto relax = make_relax(tp, fx);
  relax->work([&](ampp::transport_context& ctx, vertex_id dep) { (*relax)(ctx, dep); });
  fx.dist_map[0] = 0.0;
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    if (fx.g.owner(0) == ctx.rank()) (*relax)(ctx, 0);
  });
  for (vertex_id v = 0; v < n; ++v) EXPECT_DOUBLE_EQ(fx.dist_map[v], 2.0 * v);
}

TEST(SsspPattern, NoImprovementMeansNoModification) {
  sssp_fixture fx(3, graph::path_graph(3), 1, 1.0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 1});
  auto relax = make_relax(tp, fx);
  fx.dist_map[0] = 0.0;
  fx.dist_map[1] = 0.5;  // already better than 0 + 1.0
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    (*relax)(ctx, 0);
  });
  EXPECT_DOUBLE_EQ(fx.dist_map[1], 0.5);
  EXPECT_EQ(relax->modifications(), 0u);
}

TEST(SsspPattern, HookNotCalledWithoutDependencyFiring) {
  sssp_fixture fx(3, graph::path_graph(3), 1, 1.0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 1});
  auto relax = make_relax(tp, fx);
  int hook_calls = 0;
  relax->work([&](ampp::transport_context&, vertex_id) { ++hook_calls; });
  fx.dist_map.fill(0.0);  // nothing can improve
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    (*relax)(ctx, 0);
  });
  EXPECT_EQ(hook_calls, 0);
}

TEST(SsspPattern, MessageCountMatchesPlan) {
  // Each relax application on a vertex of out-degree d must produce exactly
  // d records of the single synthesized message type. A record whose
  // target its sender owns is committed in place instead of sent: the hub
  // sits on rank 0 of 2 cyclic ranks, so only the odd spokes are messages.
  const vertex_id n = 8;
  sssp_fixture fx(n, graph::star_graph(n), 2, 1.0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2, .coalescing_size = 4});
  auto relax = make_relax(tp, fx);
  fx.dist_map[0] = 0.0;
  obs::stats_scope sc(tp.obs());
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    if (fx.g.owner(0) == ctx.rank()) (*relax)(ctx, 0);
  });
  const obs::stats_snapshot& delta = sc.finish();
  EXPECT_EQ(delta.core.messages_sent + delta.core.local_applies, n - 1);  // one per out-edge
  EXPECT_EQ(delta.core.messages_sent, n / 2);  // spokes 1, 3, 5, 7
}

TEST(SsspPattern, AtomicAndLockedPathsAgree) {
  // Force the locked path by adding a second condition arm (the atomic
  // shape requires exactly one when); results must be identical.
  const vertex_id n = 64;
  const auto edges = graph::erdos_renyi(n, 400, 17);
  auto run_variant = [&](bool locked) {
    sssp_fixture fx(n, edges, 3);
    fx.weight_map = pmap::edge_property_map<double>(fx.g, [](const edge_handle& e) {
      return graph::edge_weight(e.src, e.dst, 5, 9.0);
    });
    ampp::transport tp(ampp::transport_config{.n_ranks = 3});
    property dist(fx.dist_map);
    property weight(fx.weight_map);
    std::unique_ptr<action_instance> relax;
    if (locked) {
      // Semantically identical, but the two-arm shape disables atomics.
      auto a = instantiate(
          tp, fx.g, fx.locks,
          make_action("relax2", out_edges_gen{},
                      when(dist(trg(e_)) > dist(v_) + weight(e_),
                           assign(dist(trg(e_)), dist(v_) + weight(e_))),
                      when(lit(false), assign(dist(trg(e_)), lit(0.0)))));
      EXPECT_FALSE(a->plan().atomic_path);
      relax = std::move(a);
    } else {
      auto a = make_relax(tp, fx);
      EXPECT_TRUE(a->plan().atomic_path);
      relax = std::move(a);
    }
    relax->work([&](ampp::transport_context& ctx, vertex_id dep) { (*relax)(ctx, dep); });
    fx.dist_map[0] = 0.0;
    tp.run([&](ampp::transport_context& ctx) {
      ampp::epoch ep(ctx);
      if (fx.g.owner(0) == ctx.rank()) (*relax)(ctx, 0);
    });
    std::vector<double> out(n);
    for (vertex_id v = 0; v < n; ++v) out[v] = fx.dist_map[v];
    return out;
  };
  EXPECT_EQ(run_variant(false), run_variant(true));
}

TEST(SsspPattern, CompiledRelaxIsBitIdenticalToDijkstra) {
  // The single-locality relax record is a pure transport optimization:
  // the fixed point equals the sequential oracle down to the last bit, on
  // an irregular graph with distinct per-edge weights, under every
  // distribution at a rank count that is not a power of two. Every record
  // an application generates is sent, absorbed by the sender's reduction
  // cache, or committed in place, and the action's counters agree with an
  // independent count of applications and firings.
  const vertex_id n = 96;
  const auto edges = graph::erdos_renyi(n, 700, 29);
  for (const distribution& d : {distribution::cyclic(n, 3), distribution::block(n, 3),
                                distribution::hashed(n, 3)}) {
    for (const unsigned threads : {0u, 1u}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(d.which())) +
                   " threads=" + std::to_string(threads));
      sssp_fixture fx(edges, d);
      fx.weight_map = pmap::edge_property_map<double>(fx.g, [](const edge_handle& e) {
        return graph::edge_weight(e.src, e.dst, 7, 3.0);
      });
      ampp::transport tp(ampp::transport_config{.n_ranks = 3, .handler_threads = threads});
      auto relax = make_relax(tp, fx);
      const plan_info& p = relax->plan();
      EXPECT_TRUE(p.fast_path);
      EXPECT_EQ(p.wire_bytes, std::vector<std::size_t>{16});  // {target vertex, candidate}
      std::atomic<std::uint64_t> applications{0}, records{0}, firings{0};
      const auto apply = [&](ampp::transport_context& ctx, vertex_id v) {
        applications.fetch_add(1, std::memory_order_relaxed);
        records.fetch_add(fx.g.out_degree(v), std::memory_order_relaxed);
        (*relax)(ctx, v);
      };
      relax->work([&](ampp::transport_context& ctx, vertex_id dep) {
        firings.fetch_add(1, std::memory_order_relaxed);
        apply(ctx, dep);
      });
      fx.dist_map[0] = 0.0;
      obs::stats_scope sc(tp.obs());
      tp.run([&](ampp::transport_context& ctx) {
        ampp::epoch ep(ctx);
        if (fx.g.owner(0) == ctx.rank()) apply(ctx, 0);
      });
      const obs::counters c = sc.finish().core;
      EXPECT_EQ(c.messages_sent + c.cache_hits + c.local_applies, records.load());
      EXPECT_GT(c.local_applies, 0u);
      EXPECT_EQ(relax->invocations(), applications.load());
      EXPECT_EQ(relax->modifications(), firings.load());
      const auto oracle = algo::dijkstra(fx.g, fx.weight_map, 0);
      for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(fx.dist_map[v], oracle[v]) << "v=" << v;
    }
  }
}

TEST(SsspPattern, WireBytesMatchTheCompiledPayloads) {
  // One relax at the hub of a star produces exactly n-1 records. The
  // relax kernel commits the records its sender owns in place, so only
  // those it sends are on the wire, 16 bytes each. The general plan of the
  // same relax with a parent assign (sssp_tree's shape) sends every record
  // as its compact evaluate payload: src(e), trg(e), dist(v), weight(e).
  const vertex_id n = 32;
  struct traffic {
    std::uint64_t wire, sent, local;
  };
  const auto measure = [&](bool tree) {
    sssp_fixture fx(n, graph::star_graph(n), 2, 1.0);
    pmap::vertex_property_map<vertex_id> parent(fx.g, graph::invalid_vertex);
    ampp::transport tp(ampp::transport_config{.n_ranks = 2, .coalescing_size = 4});
    property dist(fx.dist_map);
    property weight(fx.weight_map);
    property par(parent);
    std::unique_ptr<action_instance> relax;
    if (tree)
      relax = instantiate(tp, fx.g, fx.locks,
                          make_action("tree", out_edges_gen{},
                                      when(dist(trg(e_)) > dist(v_) + weight(e_),
                                           assign(dist(trg(e_)), dist(v_) + weight(e_)),
                                           assign(par(trg(e_)), src(e_)))));
    else
      relax = make_relax(tp, fx);
    EXPECT_EQ(relax->plan().wire_bytes, std::vector<std::size_t>{tree ? 32u : 16u});
    fx.dist_map[0] = 0.0;
    tp.run([&](ampp::transport_context& ctx) {
      ampp::epoch ep(ctx);
      if (fx.g.owner(0) == ctx.rank()) (*relax)(ctx, 0);
    });
    const obs::stats_snapshot snap = tp.obs().snapshot();
    traffic t{0, snap.core.messages_sent, snap.core.local_applies};
    for (const obs::type_counters& c : snap.per_type)
      if (!c.internal) t.wire += c.wire_bytes;
    return t;
  };
  const traffic fast = measure(false);
  EXPECT_EQ(fast.sent + fast.local, n - 1);
  EXPECT_EQ(fast.sent, n / 2);  // the odd spokes live on rank 1
  EXPECT_EQ(fast.wire, 16u * fast.sent);
  const traffic general = measure(true);
  EXPECT_EQ(general.sent, n - 1);
  EXPECT_EQ(general.wire, 32u * (n - 1));
}

// ---------------------------------------------------------------------------
// Owner-local apply: compiled records whose target the sending rank owns are
// committed in place instead of sent.
// ---------------------------------------------------------------------------

TEST(SsspPattern, OneRankSendsNoUserMessages) {
  // At one rank the sender owns every target, so the fixed-point SSSP
  // relax, the PageRank scatter and the fused triple send no user message
  // at all, and each still equals its oracle.
  const vertex_id n = 300;
  const auto edges = graph::erdos_renyi(n, 2400, 13);
  distributed_graph g(n, edges, distribution::cyclic(n, 1));
  pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 3, 9.0);
  });
  const auto expect_all_local = [](const obs::stats_snapshot& d) {
    EXPECT_EQ(d.core.messages_sent, 0u);
    EXPECT_GT(d.core.local_applies, 0u);
  };
  {
    SCOPED_TRACE("sssp fixed point");
    ampp::transport tp(ampp::transport_config{.n_ranks = 1});
    algo::sssp_solver sssp(tp, g, weight);
    obs::stats_scope sc(tp.obs());
    tp.run([&](ampp::transport_context& ctx) { sssp.run_fixed_point(ctx, 0); });
    expect_all_local(sc.finish());
    const auto oracle = algo::dijkstra(g, weight, 0);
    for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(sssp.dist()[v], oracle[v]) << "v=" << v;
  }
  {
    SCOPED_TRACE("pagerank");
    ampp::transport tp(ampp::transport_config{.n_ranks = 1});
    algo::pagerank_solver pr(tp, g);
    obs::stats_scope sc(tp.obs());
    tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 20); });
    expect_all_local(sc.finish());
    const auto oracle = algo::pagerank(g, 0.85, 20);
    for (vertex_id v = 0; v < n; ++v)
      ASSERT_NEAR(pr.ranks()[v], oracle[v], 1e-12) << "v=" << v;
  }
  {
    SCOPED_TRACE("fused triple");
    ampp::transport tp(ampp::transport_config{.n_ranks = 1});
    algo::fused_triple_solver fused(tp, g, weight, weight);
    algo::sssp_solver sssp(tp, g, weight);
    algo::widest_path_solver widest(tp, g, weight);
    algo::bfs_solver bfs(tp, g);
    obs::stats_scope sc(tp.obs());
    tp.run([&](ampp::transport_context& ctx) {
      fused.run(ctx, {.sssp = 0, .widest = 1, .bfs = 2});
      sssp.run_fixed_point(ctx, 0);
      widest.run(ctx, 1);
      bfs.run_fixed_point(ctx, 2);
    });
    expect_all_local(sc.finish());
    for (vertex_id v = 0; v < n; ++v) {
      ASSERT_EQ(fused.dist()[v], sssp.dist()[v]) << "v=" << v;
      ASSERT_EQ(fused.width()[v], widest.width()[v]) << "v=" << v;
      ASSERT_EQ(fused.depth()[v], bfs.depth()[v]) << "v=" << v;
    }
  }
}

TEST(SsspPattern, ImmediateHookOnLongPath) {
  // The header's immediate-apply hook re-invokes relax from inside the
  // work hook. At one rank every record of a path is owner-local; a record
  // generated inside a local commit's hook goes on the wire instead, so the
  // re-application nests one local commit deep rather than once per vertex
  // (which overflows the stack long before 200,000 vertices).
  const vertex_id n = 200000;
  for (const ampp::rank_t ranks : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "ranks=" << ranks);
    sssp_fixture fx(n, graph::path_graph(n), ranks, 2.0);
    ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
    auto relax = make_relax(tp, fx);
    relax->work([&](ampp::transport_context& ctx, vertex_id dep) { (*relax)(ctx, dep); });
    fx.dist_map[0] = 0.0;
    obs::stats_scope sc(tp.obs());
    tp.run([&](ampp::transport_context& ctx) {
      ampp::epoch ep(ctx);
      if (fx.g.owner(0) == ctx.rank()) (*relax)(ctx, 0);
    });
    const obs::stats_snapshot& d = sc.finish();
    for (vertex_id v = 0; v < n; ++v) ASSERT_DOUBLE_EQ(fx.dist_map[v], 2.0 * v) << "v=" << v;
    EXPECT_EQ(d.core.messages_sent + d.core.local_applies, n - 1);
    // One rank: relaxations from even vertices commit in place, those from
    // odd vertices run nested in a local commit's hook and are sent. Four
    // cyclic ranks: every edge of the path crosses ranks.
    EXPECT_EQ(d.core.local_applies, ranks == 1 ? n / 2 : 0u);
  }
}

// ---------------------------------------------------------------------------
// Whole-envelope dispatch of the fast relax record: the receiver runs one
// loop over each coalesced envelope. Each case is checked against the
// sequential Dijkstra oracle.
// ---------------------------------------------------------------------------

struct envelope_run {
  std::vector<double> dist;
  obs::stats_snapshot delta;
};

/// Runs the fast relax pattern from vertex 0 to its fixed point with the
/// given coalescing size.
envelope_run run_envelopes(const std::vector<graph::edge>& edges, vertex_id n,
                           ampp::rank_t ranks, std::size_t coalescing) {
  sssp_fixture fx(n, edges, ranks);
  fx.weight_map = pmap::edge_property_map<double>(fx.g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 11, 7.0);
  });
  ampp::transport tp(
      ampp::transport_config{.n_ranks = ranks, .coalescing_size = coalescing});
  auto relax = make_relax(tp, fx);
  EXPECT_TRUE(relax->plan().fast_path);
  relax->work([&](ampp::transport_context& ctx, vertex_id dep) { (*relax)(ctx, dep); });
  fx.dist_map[0] = 0.0;
  obs::stats_scope sc(tp.obs());
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    if (fx.g.owner(0) == ctx.rank()) (*relax)(ctx, 0);
  });
  envelope_run out{std::vector<double>(n), sc.finish()};
  for (vertex_id v = 0; v < n; ++v) out.dist[v] = fx.dist_map[v];
  EXPECT_EQ(out.dist, algo::dijkstra(fx.g, fx.weight_map, 0));
  return out;
}

TEST(SsspPattern, EnvelopeWithDuplicateTargets) {
  // Two hubs on rank 0 (vertices 0 and 2, 0 -> 2) both reach the same
  // kSpokes odd spokes on rank 1, more than the relax lane's 2^10
  // combining-cache slots. The first hub's sweep must evict some spoke
  // from the cache into the buffer, and the second hub's record for that
  // spoke then rides the same envelope: the coalescing size holds every
  // send, so the lane flushes once, at the end of the sweep. The envelope
  // loop must keep the best record of each target.
  constexpr vertex_id kSpokes = 1500;
  const vertex_id n = 2 * kSpokes + 1;
  std::vector<graph::edge> edges{{0, 2}};
  for (vertex_id s = 1; s < n; s += 2) {
    edges.push_back({0, s});
    edges.push_back({2, s});
  }
  const envelope_run r = run_envelopes(edges, n, 2, 4 * kSpokes);
  const auto& c = r.delta.core;
  EXPECT_GT(c.cache_evictions, 0u);
  // One envelope carried more records than it has distinct targets.
  EXPECT_EQ(c.batch_kernels_run, 1u);
  EXPECT_GT(c.batch_records, kSpokes);
}

TEST(SsspPattern, SingleRecordEnvelopes) {
  // coalescing_size = 1: the smallest envelopes the sender flushes.
  const vertex_id n = 24;
  const envelope_run r = run_envelopes(graph::erdos_renyi(n, 90, 5), n, 3, 1);
  EXPECT_GT(r.delta.core.batch_records, 0u);
}

TEST(SsspPattern, EnvelopeCountersObeyTheirLaws) {
  // Every record the envelope loop consumes is a handled payload, and
  // every loop run consumes at least one record.
  const vertex_id n = 96;
  const envelope_run r = run_envelopes(graph::erdos_renyi(n, 700, 31), n, 3, 5);
  const auto& c = r.delta.core;
  EXPECT_GT(c.batch_records, 0u);
  EXPECT_LE(c.batch_records, c.handler_invocations);
  EXPECT_LE(c.batch_kernels_run, c.batch_records);
}

}  // namespace
}  // namespace dpg::pattern
