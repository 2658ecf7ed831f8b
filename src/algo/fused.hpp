// SSSP + widest-path + BFS-tree in one traversal wave (multi-pattern
// fusion, GraFS-style). The three relax actions come from the same
// definitions the standalone solvers use (sssp_relax_def,
// widest_relax_def, bfs_explore_def) and are handed to pattern::fuse,
// which runs each on its own relax lane, adds one fused message family,
// and drives all three to their fixed points in a single epoch loop with
// a single termination detection. Result maps are bit-identical to running
// sssp_solver / widest_path_solver / bfs_solver separately (asserted
// under every fault plan by the fusion sweep).
//
// The sources may differ per member: a candidate generated at a vertex
// one member has not reached yet carries that member's self-rejecting
// sentinel, so mixed-source waves stay exact. This is the serving
// layer's merged distinct-source story — N user queries over one
// snapshot become one fused solve (see serve::server::solve).
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/sssp.hpp"
#include "algo/widest_path.hpp"
#include "pattern/fuse.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class fused_triple_solver {
 private:
  using fused_ptr = decltype(pattern::fuse(
      std::declval<ampp::transport&>(),
      std::declval<const graph::distributed_graph&>(),
      sssp_relax_def(std::declval<pmap::vertex_property_map<double>&>(),
                     std::declval<pmap::edge_property_map<double>&>()),
      widest_relax_def(std::declval<pmap::vertex_property_map<double>&>(),
                       std::declval<pmap::edge_property_map<double>&>()),
      bfs_explore_def(std::declval<pmap::vertex_property_map<std::uint64_t>&>())));

 public:
  static constexpr double infinity = std::numeric_limits<double>::infinity();

  /// Per-member source vertices (they need not coincide).
  struct sources {
    vertex_id sssp = 0;
    vertex_id widest = 0;
    vertex_id bfs = 0;
  };

  /// Registers the fused message family with `tp`. Construct before
  /// transport::run; `g`, `weight`, and `capacity` must outlive the
  /// solver. The fused lane and each member's relax lane combine
  /// same-target candidates on the sender.
  fused_triple_solver(ampp::transport& tp, const graph::distributed_graph& g,
                      pmap::edge_property_map<double>& weight,
                      pmap::edge_property_map<double>& capacity)
      : g_(&g),
        unreachable_(g.num_vertices()),
        dist_(g, infinity),
        width_(g, 0.0),
        depth_(g, unreachable_),
        fused_(pattern::fuse(tp, g, sssp_relax_def(dist_, weight),
                             widest_relax_def(width_, capacity), bfs_explore_def(depth_))) {}

  /// Collective: resets all three maps and solves the three analytics to
  /// their common fixed point in one epoch loop.
  strategy::result run(ampp::transport_context& ctx, sources s,
                       const strategy::options& opt = {}) {
    // Local reset only: the strategy's hook-install barrier (every rank
    // passes it before any application) orders these writes before the
    // first relax, exactly as in the standalone drivers.
    for (auto& x : dist_.local(ctx.rank())) x = infinity;
    for (auto& x : width_.local(ctx.rank())) x = 0.0;
    for (auto& x : depth_.local(ctx.rank())) x = unreachable_;
    if (g_->owner(s.sssp) == ctx.rank()) dist_[s.sssp] = 0.0;
    if (g_->owner(s.widest) == ctx.rank()) width_[s.widest] = infinity;
    if (g_->owner(s.bfs) == ctx.rank()) depth_[s.bfs] = 0;
    fused_->reset_emission(ctx.rank());
    // Seed the union of the owned sources, deduplicated: one invocation
    // of a shared source vertex generates every member's candidates.
    std::vector<vertex_id> seeds;
    for (const vertex_id v : {s.sssp, s.widest, s.bfs})
      if (g_->owner(v) == ctx.rank() &&
          std::find(seeds.begin(), seeds.end(), v) == seeds.end())
        seeds.push_back(v);
    return strategy::fixed_point(ctx, *fused_, seeds, opt);
  }

  pmap::vertex_property_map<double>& dist() { return dist_; }
  pmap::vertex_property_map<double>& width() { return width_; }
  pmap::vertex_property_map<std::uint64_t>& depth() { return depth_; }
  std::uint64_t unreachable_depth() const { return unreachable_; }

  /// The fused action (plan_info, member names, modification counts, and
  /// the explain_fused rendering).
  auto& action() { return *fused_; }
  const auto& action() const { return *fused_; }
  /// The packed fused wire layout (for explain / tests).
  const ampp::fused_layout& layout() const { return fused_->layout(); }

 private:
  const graph::distributed_graph* g_;
  std::uint64_t unreachable_;
  pmap::vertex_property_map<double> dist_;
  pmap::vertex_property_map<double> width_;
  pmap::vertex_property_map<std::uint64_t> depth_;
  fused_ptr fused_;
};

}  // namespace dpg::algo
