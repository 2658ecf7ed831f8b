// Tests for the fixed_point / once strategies and their interaction with
// work hooks and epochs, including fixed_point's deduplicated work queue.
#include "strategy/strategies.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "algo/fused.hpp"
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
using pattern::lit;
using pattern::make_action;
using pattern::out_edges_gen;
using pattern::property;
using pattern::trg;
using pattern::v_;
using pattern::when;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct sssp_world {
  distributed_graph g;
  pmap::vertex_property_map<double> dist;
  pmap::edge_property_map<double> weight;
  pmap::lock_map locks;
  ampp::transport tp;
  std::unique_ptr<pattern::action_instance> relax;

  sssp_world(vertex_id n, std::vector<graph::edge> edges, ampp::rank_t ranks,
             std::uint64_t wseed = 5, double maxw = 7.0, unsigned handler_threads = 0)
      : g(n, edges, distribution::cyclic(n, ranks)),
        dist(g, kInf),
        weight(g,
               [wseed, maxw](const edge_handle& e) {
                 return graph::edge_weight(e.src, e.dst, wseed, maxw);
               }),
        locks(g.dist(), pmap::lock_scheme::per_vertex),
        tp(ampp::transport_config{.n_ranks = ranks, .handler_threads = handler_threads}) {
    property d(dist);
    property w(weight);
    relax = instantiate(tp, g, locks,
                        make_action("relax", out_edges_gen{},
                                    when(d(trg(e_)) > d(v_) + w(e_),
                                         assign(d(trg(e_)), d(v_) + w(e_)))));
  }

  // Sequential Dijkstra oracle over the same graph + weights.
  std::vector<double> dijkstra(vertex_id s) {
    const vertex_id n = g.num_vertices();
    std::vector<double> d(n, kInf);
    d[s] = 0;
    std::vector<bool> done(n, false);
    for (;;) {
      vertex_id best = graph::invalid_vertex;
      for (vertex_id v = 0; v < n; ++v)
        if (!done[v] && d[v] < kInf && (best == graph::invalid_vertex || d[v] < d[best]))
          best = v;
      if (best == graph::invalid_vertex) break;
      done[best] = true;
      for (const edge_handle e : g.out_edges(best))
        d[e.dst] = std::min(d[e.dst], d[best] + weight[e]);
    }
    return d;
  }
};

TEST(FixedPoint, SolvesSsspOnRandomGraph) {
  const vertex_id n = 120;
  sssp_world w(n, graph::erdos_renyi(n, 900, 3), 4);
  const auto oracle = w.dijkstra(0);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (w.g.owner(0) == ctx.rank()) seeds.push_back(0);
    const result r = fixed_point(ctx, *w.relax, seeds);
    EXPECT_EQ(r.rounds, 1u);
    EXPECT_TRUE(r.changed());
    // The strategy drove the transport: its stats window saw the traffic.
    EXPECT_GT(r.stats_delta.core.messages_sent, 0u);
  });
  for (vertex_id v = 0; v < n; ++v) EXPECT_DOUBLE_EQ(w.dist[v], oracle[v]) << "v=" << v;
}

TEST(FixedPoint, UnreachableVerticesStayInfinite) {
  // Two disjoint paths: the second component must stay at infinity.
  std::vector<graph::edge> edges{{0, 1}, {1, 2}, {3, 4}};
  sssp_world w(5, edges, 2);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (w.g.owner(0) == ctx.rank()) seeds.push_back(0);
    fixed_point(ctx, *w.relax, seeds);
  });
  EXPECT_EQ(w.dist[3], kInf);
  EXPECT_EQ(w.dist[4], kInf);
  EXPECT_LT(w.dist[2], kInf);
}

TEST(FixedPoint, IsIdempotent) {
  const vertex_id n = 40;
  sssp_world w(n, graph::erdos_renyi(n, 300, 9), 3);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (w.g.owner(0) == ctx.rank()) seeds.push_back(0);
    fixed_point(ctx, *w.relax, seeds);
  });
  const std::uint64_t mods_first = w.relax->modifications();
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (w.g.owner(0) == ctx.rank()) seeds.push_back(0);
    // Second run finds everything settled: result reports no change.
    EXPECT_FALSE(fixed_point(ctx, *w.relax, seeds).changed());
  });
  // Second run finds everything settled: no further modifications.
  EXPECT_EQ(w.relax->modifications(), mods_first);
}

TEST(Once, ReportsWhetherAnythingChanged) {
  const vertex_id n = 10;
  sssp_world w(n, graph::path_graph(n), 2, 5, 1.0);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> mine;
    for_each_local_vertex(ctx, w.g, [&](vertex_id v) { mine.push_back(v); });
    // First sweep improves the frontier: must report a change.
    const result r = once(ctx, *w.relax, mine);
    EXPECT_TRUE(r.changed());
    EXPECT_GT(r.modifications, 0u);
    EXPECT_EQ(r.rounds, 1u);
  });
}

TEST(Once, DoesNotFollowDependencies) {
  // One `once` sweep from the source relaxes only direct neighbours on a
  // path (no recursive work), unlike fixed_point.
  const vertex_id n = 6;
  sssp_world w(n, graph::path_graph(n), 2, 5, 1.0);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (w.g.owner(0) == ctx.rank()) seeds.push_back(0);
    once(ctx, *w.relax, seeds);
  });
  EXPECT_LT(w.dist[1], kInf);
  EXPECT_EQ(w.dist[2], kInf);  // dependency not followed
}

TEST(Once, FalseWhenNothingImproves) {
  const vertex_id n = 6;
  sssp_world w(n, graph::path_graph(n), 2);
  w.dist.fill(0.0);
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> mine;
    for_each_local_vertex(ctx, w.g, [&](vertex_id v) { mine.push_back(v); });
    EXPECT_FALSE(once(ctx, *w.relax, mine).changed());
  });
}

TEST(OnceUntilQuiet, ConvergesInBoundedRounds) {
  // Sweeping all vertices with `once` until quiet is Bellman-Ford: at most
  // n-1 productive rounds on a path.
  const vertex_id n = 9;
  sssp_world w(n, graph::path_graph(n), 3, 5, 1.0);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> mine;
    for_each_local_vertex(ctx, w.g, [&](vertex_id v) { mine.push_back(v); });
    const result r = once_until_quiet(ctx, *w.relax, mine);
    EXPECT_LE(r.rounds, static_cast<std::uint64_t>(n) - 1);
    EXPECT_GE(r.rounds, 1u);
    EXPECT_TRUE(r.changed());
  });
  for (vertex_id v = 0; v < n; ++v) EXPECT_DOUBLE_EQ(w.dist[v], static_cast<double>(v));
}

TEST(OnceUntilQuiet, RespectsMaxRounds) {
  const vertex_id n = 9;
  sssp_world w(n, graph::path_graph(n), 3, 5, 1.0);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> mine;
    for_each_local_vertex(ctx, w.g, [&](vertex_id v) { mine.push_back(v); });
    options opt;
    opt.max_rounds = 2;
    EXPECT_EQ(once_until_quiet(ctx, *w.relax, mine, opt).rounds, 2u);
  });
  // Capped early: the far end of the path is not settled yet.
  EXPECT_EQ(w.dist[n - 1], kInf);
}

TEST(Options, CollectStatsCanBeDisabled) {
  const vertex_id n = 10;
  sssp_world w(n, graph::path_graph(n), 2, 5, 1.0);
  w.dist[0] = 0.0;
  w.tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (w.g.owner(0) == ctx.rank()) seeds.push_back(0);
    options opt;
    opt.collect_stats = false;
    const result r = fixed_point(ctx, *w.relax, seeds, opt);
    EXPECT_TRUE(r.changed());
    // No stats window was captured: the delta stays default-constructed.
    EXPECT_EQ(r.stats_delta.core.messages_sent, 0u);
    EXPECT_TRUE(r.stats_delta.per_type.empty());
  });
}

// ---- fixed_point's deduplicated work queue --------------------------------

std::vector<vertex_id> owned_seeds(ampp::transport_context& ctx,
                                   const distributed_graph& g, vertex_id source) {
  std::vector<vertex_id> seeds;
  if (g.owner(source) == ctx.rank()) seeds.push_back(source);
  return seeds;
}

TEST(FixedPointQueue, VertexImprovedTwiceWhilePendingIsAppliedOnce) {
  // Two ranks, cyclic: 0, 2, 4 live on rank 0 and the target 1 on rank 1.
  // The seed files 2 then 4; applying them sends two relax records for 1
  // in one envelope, the worse one (via 2) first. Both records lower
  // dist[1], so 1 is improved twice while pending — and applied once.
  // The relax also records the parent (sssp_tree's second assign), which
  // takes it off the relax record and its sender-side cache, so the two
  // records are not merged before they reach the envelope.
  const std::vector<graph::edge> edges{{0, 2}, {0, 4}, {2, 1}, {4, 1}};
  distributed_graph g(5, edges, distribution::cyclic(5, 2));
  pmap::vertex_property_map<double> dist(g, kInf);
  pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
    return e.src == 2 && e.dst == 1 ? 10.0 : 1.0;
  });
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  pmap::vertex_property_map<vertex_id> parent(g, graph::invalid_vertex);
  property d(dist);
  property w(weight);
  property par(parent);
  auto relax = instantiate(tp, g, locks,
                           make_action("relax", out_edges_gen{},
                                       when(d(trg(e_)) > d(v_) + w(e_),
                                            assign(d(trg(e_)), d(v_) + w(e_)),
                                            assign(par(trg(e_)), src(e_)))));
  EXPECT_FALSE(relax->plan().fast_reduction);
  dist[0] = 0.0;
  tp.run([&](ampp::transport_context& ctx) {
    fixed_point(ctx, *relax, owned_seeds(ctx, g, 0));
  });
  EXPECT_EQ(dist[1], 2.0);
  EXPECT_EQ(parent[1], 4u);
  // 2 and 4 once each, 1 twice (11, then 2).
  ASSERT_EQ(relax->modifications(), 4u);
  // The seed, then 2, 4 and 1 once each: the second improvement of 1 found
  // it already pending.
  EXPECT_EQ(relax->invocations(), 4u);
}

TEST(FixedPointQueue, AppliesAtMostOncePerModification) {
  // Every application past the seeds is owed to a modification that filed
  // its vertex; deduplication can only lower the count. Checked on the
  // sssp, bfs, fused-triple and min-label-flooding fixed points.
  const vertex_id n = 300;
  const auto edges = graph::erdos_renyi(n, 2400, 17);
  for (const ampp::rank_t ranks : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "ranks=" << ranks);
    distributed_graph g(n, edges, distribution::cyclic(n, ranks));
    pmap::edge_property_map<double> weight(g, [](const edge_handle& e) {
      return graph::edge_weight(e.src, e.dst, 3, 9.0);
    });
    ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
    algo::sssp_solver sssp(tp, g, weight);
    algo::bfs_solver bfs(tp, g);
    algo::fused_triple_solver fused(tp, g, weight, weight);
    tp.run([&](ampp::transport_context& ctx) {
      sssp.run_fixed_point(ctx, 0);
      bfs.run_fixed_point(ctx, 0);
      fused.run(ctx, {.sssp = 0, .widest = 1, .bfs = 2});
    });
    // One seed each for sssp and bfs; three distinct sources for fused.
    EXPECT_LE(sssp.relax().invocations() - 1, sssp.relax().modifications());
    EXPECT_LE(bfs.explore().invocations() - 1, bfs.explore().modifications());
    EXPECT_LE(fused.action().invocations() - 3, fused.action().modifications());
    const auto oracle = algo::dijkstra(g, weight, 0);
    for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(sssp.dist()[v], oracle[v]) << "v=" << v;

    // Min-label flooding (label-propagation CC) seeded at every vertex with
    // an out-edge.
    pmap::vertex_property_map<vertex_id> label(g, 0);
    for (ampp::rank_t r = 0; r < ranks; ++r) {
      auto span = label.local(r);
      for (std::size_t li = 0; li < span.size(); ++li) span[li] = label.global_id(r, li);
    }
    pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
    ampp::transport tp2(ampp::transport_config{.n_ranks = ranks});
    property c(label);
    auto propagate = instantiate(tp2, g, locks,
                                 make_action("cc.propagate", out_edges_gen{},
                                             when(c(trg(e_)) > c(v_),
                                                  assign(c(trg(e_)), c(v_)))));
    std::atomic<std::uint64_t> cc_seeds{0};
    tp2.run([&](ampp::transport_context& ctx) {
      std::vector<vertex_id> seeds;
      for_each_local_vertex(ctx, g, [&](vertex_id v) {
        if (g.out_degree(v) > 0) seeds.push_back(v);
      });
      cc_seeds += seeds.size();
      fixed_point(ctx, *propagate, seeds);
    });
    EXPECT_GT(propagate->modifications(), 0u);
    EXPECT_LE(propagate->invocations() - cc_seeds.load(), propagate->modifications());
  }
}

TEST(FixedPointQueue, HandlerThreadsMatchDijkstraBitForBit) {
  // Helper threads file work into a rank's queue concurrently with the
  // rank's own epoch loop; the queue's lock keeps that sound.
  const vertex_id n = 400;
  const auto edges = graph::erdos_renyi(n, 3200, 23);
  for (const unsigned threads : {1u, 2u}) {
    for (const ampp::rank_t ranks : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "handler_threads=" << threads << " ranks=" << ranks);
      sssp_world w(n, edges, ranks, 5, 7.0, threads);
      const auto oracle = w.dijkstra(0);
      for (int rep = 0; rep < 3; ++rep) {
        w.dist.fill(kInf);
        w.dist[0] = 0.0;
        w.tp.run([&](ampp::transport_context& ctx) {
          fixed_point(ctx, *w.relax, owned_seeds(ctx, w.g, 0));
        });
        for (vertex_id v = 0; v < n; ++v)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(w.dist[v]),
                    std::bit_cast<std::uint64_t>(oracle[v]))
              << "v=" << v << " rep=" << rep;
      }
    }
  }
}

TEST(ForEachLocalVertex, CoversAllVerticesExactlyOnce) {
  const vertex_id n = 23;
  sssp_world w(n, graph::path_graph(n), 4);
  std::vector<std::atomic<int>> seen(n);
  w.tp.run([&](ampp::transport_context& ctx) {
    for_each_local_vertex(ctx, w.g, [&](vertex_id v) { ++seen[v]; });
  });
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(seen[v].load(), 1) << "v=" << v;
}

}  // namespace
}  // namespace dpg::strategy
