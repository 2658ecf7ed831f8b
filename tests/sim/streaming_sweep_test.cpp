// The streaming-graph determinism sweep: mixed add/delete mutation batches
// followed by warm repair must reproduce a from-scratch oracle *exactly* —
// across the full fault-plan × rank × seed grid.
//
// Two layers are swept:
//   1. the solver layer: sssp decremental repair (invalidate_unsupported +
//      re-relax from the frontier) against Dijkstra on the mutated graph;
//   2. the serving layer: serve::server::apply_mutation + repair_query for
//      sssp / cc / k-core against the sequential baselines, asserting the
//      *warm* path actually ran (warm_repair), not a silent cold fallback.
//
// SSSP distances are a fixed point of a monotone relaxation and the warm cc
// and k-core maintainers are deterministic sequential structures, so every
// comparison is exact (ASSERT_DOUBLE_EQ / integer equality) — never an
// epsilon. Tombstoned edges must be invisible to the oracles too: the
// baselines walk the same live iterators the distributed solvers do.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/sessions.hpp"
#include "algo/sssp.hpp"
#include "graph/generators.hpp"
#include "serve/server.hpp"
#include "sim_harness.hpp"

namespace dpg::sim {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::edge_handle;
using graph::vertex_id;

constexpr vertex_id kN = 96;
constexpr std::uint64_t kM = 480;
constexpr int kBatches = 3;   // mutation batches replayed per grid point
constexpr int kDeletes = 6;   // edges (or pairs) tombstoned per batch
constexpr int kAdds = 6;      // edges (or pairs) appended per batch

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

TEST(StreamingSweep, SsspDecrementalRepairMatchesDijkstra) {
  // Solver-layer streaming: solve once, then replay mutation batches that
  // both append and tombstone edges. After every batch the decremental
  // invalidation + frontier re-relax must land on exactly the distances
  // Dijkstra computes on the mutated graph's live view.
  sweep("sssp_streaming", [](std::uint64_t seed, ampp::rank_t ranks,
                             const plan_spec& ps, std::uint64_t& events) {
    // `live` mirrors the graph's live edge multiset; deletions draw from it
    // so every victim is guaranteed to have a live instance to resolve.
    std::vector<graph::edge> live =
        graph::erdos_renyi(kN, kM, substream_seed(seed, 1));
    distributed_graph g(kN, live, distribution::cyclic(kN, ranks));
    auto weight = sim_weights(g);
    ampp::transport tp(sim_config(ranks, seed, ps));
    g.attach_stats(tp.obs().core());
    algo::sssp_solver solver(tp, g, weight);
    tp.run([&](ampp::transport_context& ctx) { solver.run_fixed_point(ctx, 0); });

    dpg::xoshiro256ss rng(substream_seed(seed, 9));
    for (int b = 0; b < kBatches; ++b) {
      std::vector<graph::edge> adds, dels;
      for (int i = 0; i < kDeletes; ++i) {
        const std::size_t idx = static_cast<std::size_t>(rng.below(live.size()));
        dels.push_back(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
      for (int i = 0; i < kAdds; ++i) {
        const graph::edge e{static_cast<vertex_id>(rng.below(kN)),
                            static_cast<vertex_id>(rng.below(kN))};
        adds.push_back(e);
        live.push_back(e);
      }
      g.apply_edges(adds);
      g.remove_edges(g.resolve_edges(dels));
      ASSERT_EQ(g.num_edges(), live.size());

      // Boundary invalidation, then re-relax from the frontier plus the
      // added-edge sources (the two seed families of a mixed batch).
      std::vector<vertex_id> seeds = solver.invalidate_unsupported();
      for (const graph::edge& e : adds) seeds.push_back(e.src);
      tp.run([&](ampp::transport_context& ctx) { solver.repair(ctx, seeds); });

      const std::vector<double> oracle = algo::dijkstra(g, weight, 0);
      for (vertex_id v = 0; v < kN; ++v)
        ASSERT_DOUBLE_EQ(solver.dist()[v], oracle[v]) << "batch " << b << " v=" << v;
    }

    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    EXPECT_EQ(s.core.tombstoned_edges,
              static_cast<std::uint64_t>(kBatches * kDeletes));
    events += fault_events(s);
  });
}

/// Canonical (min, max) pair set for the symmetric simple graphs the cc and
/// k-core maintainers require. Batches add absent pairs and delete present
/// ones, always as both directed halves, so the graph stays simple and
/// symmetric across the whole stream.
struct pair_stream {
  std::vector<std::pair<vertex_id, vertex_id>> pairs;
  std::set<std::pair<vertex_id, vertex_id>> present;

  explicit pair_stream(std::span<const graph::edge> edges) {
    for (const graph::edge& e : edges)
      if (e.src < e.dst && present.insert({e.src, e.dst}).second)
        pairs.push_back({e.src, e.dst});
  }

  void deletes(dpg::xoshiro256ss& rng, int count, std::vector<graph::edge>& out) {
    for (int i = 0; i < count && !pairs.empty(); ++i) {
      const std::size_t idx = static_cast<std::size_t>(rng.below(pairs.size()));
      const auto [u, v] = pairs[idx];
      pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(idx));
      present.erase({u, v});
      out.push_back({u, v});
      out.push_back({v, u});
    }
  }

  void adds(dpg::xoshiro256ss& rng, int count, std::vector<graph::edge>& out) {
    for (int i = 0; i < count; ++i) {
      vertex_id u = 0, v = 0;
      do {
        u = static_cast<vertex_id>(rng.below(kN));
        v = static_cast<vertex_id>(rng.below(kN));
        if (u > v) std::swap(u, v);
      } while (u == v || present.contains({u, v}));
      present.insert({u, v});
      pairs.push_back({u, v});
      out.push_back({u, v});
      out.push_back({v, u});
    }
  }
};

TEST(StreamingSweep, ServedStreamingRepairMatchesOracles) {
  // Serving-layer streaming: one server fronting a simple symmetric graph
  // answers sssp / cc / k-core queries across a stream of mixed mutation
  // batches. Every repair_query must (a) actually take the warm path —
  // warm_repair proves the decremental machinery ran, not the full-solve
  // fallback — and (b) be exactly the sequential oracle on the mutated
  // live view. PageRank rides along once per point to cover the
  // repair-as-full-solve fallback for algorithms without a warm path.
  sweep("served_streaming", [](std::uint64_t seed, ampp::rank_t ranks,
                               const plan_spec& ps, std::uint64_t& events) {
    const std::vector<graph::edge> base = graph::simplify(graph::symmetrize(
        graph::erdos_renyi(kN, kM / 2, substream_seed(seed, 1))));
    pair_stream stream(base);
    distributed_graph g(kN, base, distribution::cyclic(kN, ranks));
    auto weight = sim_weights(g);

    serve::server_config cfg;
    cfg.machine = {.n_ranks = ranks};
    cfg.tuning = {.coalescing_size = 8,
                  .seed = substream_seed(seed, 3),
                  .faults = ps.make(substream_seed(seed, 2))};
    serve::server srv(g, weight, cfg);

    const serve::query qs{serve::algorithm::sssp, {.source = 0}, 0};
    const serve::query qc{serve::algorithm::cc, {}, 0};
    const serve::query qk{serve::algorithm::kcore, {}, 0};

    // Cold solves pin every session (and its ride-along maintainer) to the
    // pre-stream version; subsequent repairs chain batch by batch.
    for (const serve::query& q : {qs, qc, qk}) {
      const auto r = srv.query(q);
      ASSERT_NE(r, nullptr);
      EXPECT_FALSE(r->warm_repair);
      assert_fault_consistency(r->stats_delta);
      events += fault_events(r->stats_delta);
    }

    dpg::xoshiro256ss rng(substream_seed(seed, 9));
    for (int b = 0; b < kBatches; ++b) {
      std::vector<graph::edge> adds, dels;
      stream.deletes(rng, kDeletes, dels);
      stream.adds(rng, kAdds, adds);
      srv.apply_mutation(adds, dels);

      const auto rs = srv.repair_query(qs);
      const auto rc = srv.repair_query(qc);
      const auto rk = srv.repair_query(qk);
      ASSERT_TRUE(rs->warm_repair) << "sssp fell back to a cold solve, batch " << b;
      ASSERT_TRUE(rc->warm_repair) << "cc fell back to a cold solve, batch " << b;
      ASSERT_TRUE(rk->warm_repair) << "kcore fell back to a cold solve, batch " << b;
      EXPECT_EQ(rs->graph_version, srv.version());
      assert_fault_consistency(rs->stats_delta);
      events += fault_events(rs->stats_delta);

      const std::vector<double> want_d = algo::dijkstra(g, weight, 0);
      const std::vector<vertex_id> want_cc = algo::cc_union_find(g);
      const std::vector<std::uint64_t> want_core = algo::kcore_peel(g);
      for (vertex_id v = 0; v < kN; ++v) {
        ASSERT_DOUBLE_EQ(rs->value_as_double(v), want_d[v])
            << "sssp batch " << b << " v=" << v;
        ASSERT_EQ(rc->value(v), want_cc[v]) << "cc batch " << b << " v=" << v;
        ASSERT_EQ(rk->value(v), want_core[v]) << "kcore batch " << b << " v=" << v;
      }
    }

    // The fallback path: pagerank has no warm repair, so repair_query must
    // transparently full-solve at the live version.
    const auto rp =
        srv.repair_query({serve::algorithm::pagerank, {.source = 0}, 0});
    ASSERT_NE(rp, nullptr);
    EXPECT_FALSE(rp->warm_repair);
    EXPECT_EQ(rp->graph_version, srv.version());
    events += fault_events(rp->stats_delta);
  });
}

}  // namespace
}  // namespace dpg::sim
