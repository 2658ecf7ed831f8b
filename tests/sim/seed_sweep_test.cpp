// Deterministic chaos simulator: every algorithm in the repo, swept across
// fault plans x rank counts x seeds, checked bit-for-bit (or within the
// documented float tolerance for PageRank) against the sequential
// baselines in src/algo/baselines. The transport's fault layer (reorder,
// duplicate, delay, drop-with-retry) must be invisible to algorithm
// results, and the obs counters must satisfy the conservation laws at
// quiescence. Every failure message carries the reproducing seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/coloring.hpp"
#include "algo/kcore.hpp"
#include "algo/mis.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "graph/generators.hpp"
#include "sim_harness.hpp"

namespace dpg::sim {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::edge_handle;
using graph::vertex_id;

constexpr vertex_id kN = 96;
constexpr std::uint64_t kM = 480;

std::vector<graph::edge> sim_edges(std::uint64_t seed, bool symmetric) {
  auto edges = graph::erdos_renyi(kN, kM, substream_seed(seed, 1));
  return symmetric ? graph::symmetrize(edges) : edges;
}

pmap::edge_property_map<double> sim_weights(const distributed_graph& g) {
  return pmap::edge_property_map<double>(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 17, 8.0);
  });
}

/// Runs `body` over the full grid, attaching a reproducing-seed trace to
/// every grid point, and asserts the plans injected at least one countable
/// fault somewhere in the sweep (a sweep that never faults tests nothing).
template <class Body>
void sweep(const char* algo, Body&& body) {
  std::uint64_t events = 0;
  for (const std::uint64_t seed : sweep_seeds())
    for (const ampp::rank_t ranks : {ampp::rank_t{2}, ampp::rank_t{4}})
      for (const plan_spec& ps : fault_plans()) {
        SCOPED_TRACE(repro(algo, ps.name, ranks, seed));
        body(seed, ranks, ps, events);
        if (::testing::Test::HasFatalFailure()) return;
      }
  EXPECT_GT(events, 0u) << algo << ": no fault plan ever fired";
}

TEST(SeedSweep, SsspFixedPoint) {
  sweep("sssp_fixed_point", [](std::uint64_t seed, ampp::rank_t ranks,
                               const plan_spec& ps, std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, ranks));
    auto weight = sim_weights(g);
    const auto oracle = algo::dijkstra(g, weight, 0);
    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::sssp_solver solver(tp, g, weight);
    tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });
    for (vertex_id v = 0; v < kN; ++v)
      ASSERT_DOUBLE_EQ(solver.dist()[v], oracle[v]) << "v=" << v;
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SeedSweep, FixedPointHandlerThreads) {
  // With dedicated handler threads, fixed_point's per-rank work queue is
  // filled by helpers while the rank's own thread drains it. Every
  // fixed-point algorithm must still land on its oracle under every plan.
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "handler_threads=" << threads);
    sweep("fixed_point_handler_threads", [threads](std::uint64_t seed, ampp::rank_t ranks,
                                                   const plan_spec& ps,
                                                   std::uint64_t& events) {
      const auto config = sim_config(ranks, seed, ps, 8, threads);
      distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, ranks));
      auto weight = sim_weights(g);
      const auto dist_oracle = algo::dijkstra(g, weight, 0);
      const auto depth_oracle = algo::bfs_levels(g, 0);
      ampp::transport tp(config);
      algo::sssp_solver sssp(tp, g, weight);
      algo::bfs_solver bfs(tp, g);
      tp.run([&](ampp::transport_context& ctx) {
        sssp.run_fixed_point(ctx, 0);
        bfs.run_fixed_point(ctx, 0);
      });
      for (vertex_id v = 0; v < kN; ++v) {
        ASSERT_EQ(sssp.dist()[v], dist_oracle[v]) << "v=" << v;
        const std::uint64_t want = depth_oracle[v] < 0
                                       ? bfs.unreachable_depth()
                                       : static_cast<std::uint64_t>(depth_oracle[v]);
        ASSERT_EQ(bfs.depth()[v], want) << "v=" << v;
      }
      const auto s = tp.obs().snapshot();
      assert_fault_consistency(s);
      assert_occupancy_conserved(tp);
      events += fault_events(s);

      // CC: a queue-drained search epoch, then the pointer-jump rewrite.
      distributed_graph sg(kN, sim_edges(seed, true), distribution::cyclic(kN, ranks));
      const auto cc_oracle = algo::cc_union_find(sg);
      algo::cc_solver cc(sg, config);
      cc.solve();
      std::vector<vertex_id> fwd(kN, graph::invalid_vertex), bwd(kN, graph::invalid_vertex);
      for (vertex_id v = 0; v < kN; ++v) {
        const vertex_id a = cc_oracle[v], b = cc.components()[v];
        if (fwd[a] == graph::invalid_vertex) fwd[a] = b;
        if (bwd[b] == graph::invalid_vertex) bwd[b] = a;
        ASSERT_EQ(fwd[a], b) << "v=" << v;
        ASSERT_EQ(bwd[b], a) << "v=" << v;
      }
      const auto cs = cc.transport().obs().snapshot();
      assert_fault_consistency(cs);
      assert_occupancy_conserved(cc.transport());
      events += fault_events(cs);
    });
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SeedSweep, SsspDeltaStepping) {
  sweep("sssp_delta", [](std::uint64_t seed, ampp::rank_t ranks, const plan_spec& ps,
                         std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, ranks));
    auto weight = sim_weights(g);
    const auto oracle = algo::dijkstra(g, weight, 0);
    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::sssp_solver solver(tp, g, weight);
    tp.run([&](ampp::transport_context& ctx) { solver.run_delta(ctx, 0, 2.0); });
    for (vertex_id v = 0; v < kN; ++v)
      ASSERT_DOUBLE_EQ(solver.dist()[v], oracle[v]) << "v=" << v;
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SeedSweep, SsspMutateThenRepair) {
  // Versioned topology mutation under chaos: solve, apply_edges() in place
  // at the non-morphing boundary, then warm-repair with the SAME solver.
  // Faults must stay invisible — the repaired labels must be bit-identical
  // to a sequential oracle on the mutated graph for every plan — and the
  // graph's obs counters must record exactly one mutation.
  sweep("sssp_mutate_repair", [](std::uint64_t seed, ampp::rank_t ranks,
                                 const plan_spec& ps, std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, ranks));
    auto weight = sim_weights(g);
    ampp::transport tp(sim_config(ranks, seed, ps));
    g.attach_stats(tp.obs().core());
    algo::sssp_solver solver(tp, g, weight);
    tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });

    // Shortcut edges drawn from a dedicated substream so every plan in the
    // sweep mutates identically.
    std::vector<graph::edge> extra;
    dpg::xoshiro256ss rng(substream_seed(seed, 9));
    for (int i = 0; i < 6; ++i) extra.push_back({rng.below(kN), rng.below(kN)});
    g.apply_edges(extra);

    const auto oracle = algo::dijkstra(g, weight, 0);
    std::vector<vertex_id> sources;
    for (const auto& e : extra) sources.push_back(e.src);
    tp.run([&](ampp::transport_context& ctx) { solver.repair(ctx, sources); });

    for (vertex_id v = 0; v < kN; ++v)
      ASSERT_DOUBLE_EQ(solver.dist()[v], oracle[v]) << "v=" << v;
    const auto s = tp.obs().snapshot();
    ASSERT_EQ(s.core.graph_mutations, 1u);
    ASSERT_EQ(s.core.delta_edges, extra.size());
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SeedSweep, Bfs) {
  sweep("bfs", [](std::uint64_t seed, ampp::rank_t ranks, const plan_spec& ps,
                  std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, ranks));
    const auto oracle = algo::bfs_levels(g, 0);
    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::bfs_solver bfs(tp, g);
    tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
    for (vertex_id v = 0; v < kN; ++v) {
      if (oracle[v] < 0)
        ASSERT_EQ(bfs.depth()[v], bfs.unreachable_depth()) << "v=" << v;
      else
        ASSERT_EQ(bfs.depth()[v], static_cast<std::uint64_t>(oracle[v])) << "v=" << v;
    }
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SeedSweep, ConnectedComponents) {
  sweep("cc", [](std::uint64_t seed, ampp::rank_t ranks, const plan_spec& ps,
                 std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, ranks));
    const auto oracle = algo::cc_union_find(g);
    algo::cc_solver cc(g, sim_config(ranks, seed, ps));
    cc.solve();
    // Partition equality: the labellings must induce the same equivalence
    // classes (labels themselves are representative-dependent).
    std::vector<vertex_id> fwd(kN, graph::invalid_vertex), bwd(kN, graph::invalid_vertex);
    for (vertex_id v = 0; v < kN; ++v) {
      const vertex_id a = oracle[v], b = cc.components()[v];
      if (fwd[a] == graph::invalid_vertex) fwd[a] = b;
      if (bwd[b] == graph::invalid_vertex) bwd[b] = a;
      ASSERT_EQ(fwd[a], b) << "v=" << v;
      ASSERT_EQ(bwd[b], a) << "v=" << v;
    }
    const auto s = cc.transport().obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(cc.transport());
    events += fault_events(s);
  });
}

TEST(SeedSweep, PageRank) {
  sweep("pagerank", [](std::uint64_t seed, ampp::rank_t ranks, const plan_spec& ps,
                       std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, ranks));
    const auto oracle = algo::pagerank(g, 0.85, 12);
    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::pagerank_solver pr(tp, g);
    tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 12); });
    // Contribution arrival order varies with delivery order, so the sums
    // are float-associativity-close rather than bit-identical.
    for (vertex_id v = 0; v < kN; ++v)
      ASSERT_NEAR(pr.ranks()[v], oracle[v], 1e-9) << "v=" << v;
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SeedSweep, PageRankHandlerThreads) {
  // With dedicated handler threads, several threads apply scatter records
  // to one rank's shard at once, so the scatter kernel commits under the
  // lock map. The ranks must still match the sequential power iteration
  // under every fault plan.
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "handler_threads=" << threads);
    sweep("pagerank_handler_threads", [threads](std::uint64_t seed, ampp::rank_t ranks,
                                                const plan_spec& ps,
                                                std::uint64_t& events) {
      distributed_graph g(kN, sim_edges(seed, false), distribution::cyclic(kN, ranks));
      const auto oracle = algo::pagerank(g, 0.85, 12);
      ampp::transport tp(sim_config(ranks, seed, ps, 8, threads));
      algo::pagerank_solver pr(tp, g);
      ASSERT_TRUE(pr.plan().fast_path);
      tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, 0.85, 12); });
      for (vertex_id v = 0; v < kN; ++v)
        ASSERT_NEAR(pr.ranks()[v], oracle[v], 1e-12) << "v=" << v;
      const auto s = tp.obs().snapshot();
      assert_fault_consistency(s);
      assert_occupancy_conserved(tp);
      events += fault_events(s);
    });
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SeedSweep, KCore) {
  sweep("kcore", [](std::uint64_t seed, ampp::rank_t ranks, const plan_spec& ps,
                    std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, ranks));
    const auto oracle = algo::kcore_peel(g);
    std::uint64_t degeneracy = 0;
    for (vertex_id v = 0; v < kN; ++v) degeneracy = std::max(degeneracy, oracle[v]);
    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::kcore_solver solver(tp, g);
    std::uint64_t got_degeneracy = 0;
    tp.run([&](ampp::transport_context& ctx) {
      const std::uint64_t d = solver.run(ctx);  // allreduce_max: same on all ranks
      if (ctx.rank() == 0) got_degeneracy = d;
    });
    ASSERT_EQ(got_degeneracy, degeneracy);
    for (vertex_id v = 0; v < kN; ++v)
      ASSERT_EQ(solver.coreness()[v], oracle[v]) << "v=" << v;
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SeedSweep, Coloring) {
  sweep("coloring", [](std::uint64_t seed, ampp::rank_t ranks, const plan_spec& ps,
                       std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, ranks));
    const std::uint64_t algo_seed = substream_seed(seed, 4);
    // Luby coloring is randomized but delivery-order independent: the
    // result is a pure function of the priority seed, so a fault-free run
    // is an exact oracle for the faulty one.
    ampp::transport ref_tp(ampp::transport_config{
        .n_ranks = ranks, .coalescing_size = 8, .seed = substream_seed(seed, 3)});
    algo::coloring_solver ref(ref_tp, g);
    ref_tp.run([&](ampp::transport_context& ctx) { ref.run(ctx, algo_seed); });

    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::coloring_solver cs(tp, g);
    tp.run([&](ampp::transport_context& ctx) { cs.run(ctx, algo_seed); });
    for (vertex_id v = 0; v < kN; ++v) {
      ASSERT_NE(cs.colors()[v], algo::coloring_solver::uncolored) << "v=" << v;
      ASSERT_EQ(cs.colors()[v], ref.colors()[v]) << "v=" << v;
    }
    for (vertex_id v = 0; v < kN; ++v)
      for (const vertex_id u : g.adjacent(v))
        if (u != v) {
          ASSERT_NE(cs.colors()[v], cs.colors()[u]) << "edge " << v << "-" << u;
        }
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(SeedSweep, Mis) {
  sweep("mis", [](std::uint64_t seed, ampp::rank_t ranks, const plan_spec& ps,
                  std::uint64_t& events) {
    distributed_graph g(kN, sim_edges(seed, true), distribution::cyclic(kN, ranks));
    const std::uint64_t algo_seed = substream_seed(seed, 4);
    ampp::transport ref_tp(ampp::transport_config{
        .n_ranks = ranks, .coalescing_size = 8, .seed = substream_seed(seed, 3)});
    algo::mis_solver ref(ref_tp, g);
    ref_tp.run([&](ampp::transport_context& ctx) { ref.run(ctx, algo_seed); });

    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::mis_solver mis(tp, g);
    tp.run([&](ampp::transport_context& ctx) { mis.run(ctx, algo_seed); });
    for (vertex_id v = 0; v < kN; ++v)
      ASSERT_EQ(mis.in_set(v), ref.in_set(v)) << "v=" << v;
    // Structural validity: independent and maximal.
    for (vertex_id v = 0; v < kN; ++v) {
      bool in_neighbor = false;
      for (const vertex_id u : g.adjacent(v)) {
        if (u == v) continue;
        if (mis.in_set(v)) {
          ASSERT_FALSE(mis.in_set(u)) << "edge " << v << "-" << u;
        }
        in_neighbor = in_neighbor || mis.in_set(u);
      }
      if (!mis.in_set(v)) {
        ASSERT_TRUE(in_neighbor) << "v=" << v << " not covered";
      }
    }
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

}  // namespace
}  // namespace dpg::sim
