// Multi-pattern fusion under deterministic chaos: the fused
// sssp+widest+bfs-tree triple, swept across fault plans x rank counts x
// seeds, must land every member's result map bit-identical to running
// the three solvers separately — and to the sequential oracles — with
// the per-type conservation laws extended to the fused message family
// (the fused lane's bytes are exactly records x fused-record size, solo
// lanes exactly records x member fast-record size). Sources are
// distinct per member: this grid is the serving layer's merged
// distinct-source story under fault injection.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/bfs.hpp"
#include "algo/fused.hpp"
#include "algo/sssp.hpp"
#include "algo/widest_path.hpp"
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
constexpr vertex_id kSsspSrc = 0, kWidestSrc = 1, kBfsSrc = 2;

std::vector<graph::edge> fusion_edges(std::uint64_t seed) {
  return graph::erdos_renyi(kN, kM, substream_seed(seed, 1));
}

pmap::edge_property_map<double> fusion_weights(const distributed_graph& g) {
  return pmap::edge_property_map<double>(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 17, 8.0);
  });
}

pmap::edge_property_map<double> fusion_caps(const distributed_graph& g) {
  return pmap::edge_property_map<double>(g, [](const edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 23, 50.0);
  });
}

/// Sequential widest-path oracle (Dijkstra with (max, min) in place of
/// (min, +)), mirroring the bottleneck recurrence the relax action solves.
std::vector<double> widest_oracle(const distributed_graph& g,
                                  const pmap::edge_property_map<double>& cap,
                                  vertex_id s) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> width(g.num_vertices(), 0.0);
  width[s] = kInf;
  std::priority_queue<std::pair<double, vertex_id>> pq;
  pq.emplace(kInf, s);
  while (!pq.empty()) {
    const auto [wd, v] = pq.top();
    pq.pop();
    if (wd < width[v]) continue;
    for (const edge_handle e : g.out_edges(v)) {
      const double nw = std::min(wd, cap[e]);
      if (nw > width[e.dst]) {
        width[e.dst] = nw;
        pq.emplace(nw, e.dst);
      }
    }
  }
  return width;
}

/// One member's triple of result maps as exact bit patterns (float
/// equality would hide sign/NaN differences; fusion promises bit
/// identity, so compare bits).
struct triple_bits {
  std::vector<std::uint64_t> dist, width, depth;
  bool operator==(const triple_bits&) const = default;
};

triple_bits bits_of(pmap::vertex_property_map<double>& dist,
                    pmap::vertex_property_map<double>& width,
                    pmap::vertex_property_map<std::uint64_t>& depth) {
  triple_bits t;
  for (vertex_id v = 0; v < kN; ++v) {
    t.dist.push_back(std::bit_cast<std::uint64_t>(dist[v]));
    t.width.push_back(std::bit_cast<std::uint64_t>(width[v]));
    t.depth.push_back(depth[v]);
  }
  return t;
}

/// Same grid driver as the main seed sweep (fault plans x {2,4} ranks x
/// seeds, reproducing-seed traces, at-least-one-fault assertion).
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

/// The conservation laws extended to fused families: every fused-lane
/// payload is exactly one fused record wide, every solo-lane payload one
/// member fast record, and the family moved at least one payload (the
/// fused plan really carried the traffic). Returns the per-lane payload
/// counts so sweeps can assert both dispatch shapes actually ran.
struct family_traffic {
  std::uint64_t fused = 0;
  std::uint64_t solo = 0;
};

family_traffic assert_fused_family_conserved(const obs::stats_snapshot& s,
                                             std::size_t fused_bytes) {
  family_traffic ft;
  for (const obs::type_counters& t : s.per_type) {
    const std::string name = t.name;
    if (name.ends_with(".fused")) {
      EXPECT_EQ(t.bytes, t.sent * fused_bytes) << "type " << name;
      ft.fused += t.sent;
    } else if (name.ends_with(".solo")) {
      EXPECT_EQ(t.bytes, t.sent * 16u) << "type " << name;
      ft.solo += t.sent;
    }
  }
  EXPECT_GT(ft.fused + ft.solo, 0u) << "fused family carried no traffic";
  return ft;
}

TEST(FusionSweep, TripleBitIdenticalToSeparateSolves) {
  family_traffic total;
  sweep("fused_triple", [&total](std::uint64_t seed, ampp::rank_t ranks,
                                 const plan_spec& ps, std::uint64_t& events) {
    distributed_graph g(kN, fusion_edges(seed), distribution::cyclic(kN, ranks));
    auto weight = fusion_weights(g);
    auto cap = fusion_caps(g);
    const auto dist_oracle = algo::dijkstra(g, weight, kSsspSrc);
    const auto width_oracle = widest_oracle(g, cap, kWidestSrc);
    const auto depth_oracle = algo::bfs_levels(g, kBfsSrc);

    // Three separate solves, each on its own faulty transport.
    ampp::transport stp(sim_config(ranks, seed, ps));
    algo::sssp_solver sssp(stp, g, weight);
    stp.run([&](ampp::transport_context& ctx) { sssp.run_fixed_point(ctx, kSsspSrc); });
    ampp::transport wtp(sim_config(ranks, seed, ps));
    algo::widest_path_solver widest(wtp, g, cap);
    wtp.run([&](ampp::transport_context& ctx) { widest.run(ctx, kWidestSrc); });
    ampp::transport btp(sim_config(ranks, seed, ps));
    algo::bfs_solver bfs(btp, g);
    btp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, kBfsSrc); });
    triple_bits separate = bits_of(sssp.dist(), widest.width(), bfs.depth());
    for (ampp::transport* tp : {&stp, &wtp, &btp}) {
      const auto s = tp->obs().snapshot();
      assert_fault_consistency(s);
      assert_occupancy_conserved(*tp);
      events += fault_events(s);
    }

    // One fused solve: all three analytics in a single fixed point.
    ampp::transport ftp(sim_config(ranks, seed, ps));
    algo::fused_triple_solver fused(ftp, g, weight, cap);
    ftp.run([&](ampp::transport_context& ctx) {
      fused.run(ctx, {.sssp = kSsspSrc, .widest = kWidestSrc, .bfs = kBfsSrc});
    });
    triple_bits fused_bits = bits_of(fused.dist(), fused.width(), fused.depth());

    ASSERT_EQ(fused_bits, separate) << "fused diverged from separate solves";
    for (vertex_id v = 0; v < kN; ++v) {
      ASSERT_DOUBLE_EQ(fused.dist()[v], dist_oracle[v]) << "v=" << v;
      ASSERT_DOUBLE_EQ(fused.width()[v], width_oracle[v]) << "v=" << v;
      if (depth_oracle[v] < 0)
        ASSERT_EQ(fused.depth()[v], fused.unreachable_depth()) << "v=" << v;
      else
        ASSERT_EQ(fused.depth()[v], static_cast<std::uint64_t>(depth_oracle[v]))
            << "v=" << v;
    }
    const auto fs = ftp.obs().snapshot();
    assert_fault_consistency(fs);
    const family_traffic ft =
        assert_fused_family_conserved(fs, fused.layout().record_bytes);
    total.fused += ft.fused;
    total.solo += ft.solo;
    assert_occupancy_conserved(ftp);
    events += fault_events(fs);
  });
  // Distinct sources must exercise both dispatch shapes somewhere in the
  // grid: multi-member waves on the fused lane, single-member tails on
  // the per-member solo lanes.
  EXPECT_GT(total.fused, 0u) << "no multi-member wave ever took the fused lane";
  EXPECT_GT(total.solo, 0u) << "no single-member wave ever took a solo lane";
}

TEST(FusionSweep, RerunRepeatsBitIdentically) {
  // A second run on the same solver (fresh reset, including the fused
  // action's per-member emission tracking) must reproduce the first —
  // stale change-tracking state leaking across runs would skip required
  // emissions and show up here as a diverged map.
  sweep("fused_rerun", [](std::uint64_t seed, ampp::rank_t ranks,
                          const plan_spec& ps, std::uint64_t& events) {
    distributed_graph g(kN, fusion_edges(seed), distribution::cyclic(kN, ranks));
    auto weight = fusion_weights(g);
    auto cap = fusion_caps(g);
    ampp::transport tp(sim_config(ranks, seed, ps));
    algo::fused_triple_solver fused(tp, g, weight, cap);
    std::vector<triple_bits> runs;
    for (int pass = 0; pass < 2; ++pass) {
      tp.run([&](ampp::transport_context& ctx) {
        fused.run(ctx, {.sssp = kSsspSrc, .widest = kWidestSrc, .bfs = kBfsSrc});
      });
      runs.push_back(bits_of(fused.dist(), fused.width(), fused.depth()));
    }
    ASSERT_EQ(runs[0], runs[1]) << "re-run diverged (emission reset broken?)";
    const auto s = tp.obs().snapshot();
    assert_fault_consistency(s);
    assert_occupancy_conserved(tp);
    events += fault_events(s);
  });
}

TEST(FusionSweep, FusedWireBeatsSeparateOnCleanTransport) {
  // The perf claim behind the fused wire format, checked deterministically
  // (no fault plan, so no retry noise): a shared-source triple must move
  // fewer wire bytes fused than the three separate solves combined.
  for (const std::uint64_t seed : {1ull, 2ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ampp::rank_t ranks = 2;
    distributed_graph g(kN, fusion_edges(seed), distribution::cyclic(kN, ranks));
    auto weight = fusion_weights(g);
    auto cap = fusion_caps(g);
    const auto clean = [&] {
      return ampp::transport_config{.n_ranks = ranks,
                                    .coalescing_size = 8,
                                    .seed = substream_seed(seed, 3)};
    };
    std::uint64_t separate_wire = 0;
    {
      ampp::transport tp(clean());
      algo::sssp_solver sssp(tp, g, weight);
      tp.run([&](ampp::transport_context& ctx) { sssp.run_fixed_point(ctx, 0); });
      separate_wire += tp.obs().snapshot().core.wire_bytes_sent;
    }
    {
      ampp::transport tp(clean());
      algo::widest_path_solver widest(tp, g, cap);
      tp.run([&](ampp::transport_context& ctx) { widest.run(ctx, 0); });
      separate_wire += tp.obs().snapshot().core.wire_bytes_sent;
    }
    {
      ampp::transport tp(clean());
      algo::bfs_solver bfs(tp, g);
      tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
      separate_wire += tp.obs().snapshot().core.wire_bytes_sent;
    }
    ampp::transport ftp(clean());
    algo::fused_triple_solver fused(ftp, g, weight, cap);
    ftp.run([&](ampp::transport_context& ctx) { fused.run(ctx, {0, 0, 0}); });
    const std::uint64_t fused_wire = ftp.obs().snapshot().core.wire_bytes_sent;
    EXPECT_LT(fused_wire, separate_wire)
        << "fused wire " << fused_wire << "B vs separate " << separate_wire << "B";
  }
}

}  // namespace
}  // namespace dpg::sim
