// Breadth-first search as a pattern: the relax shape of §II-A with unit
// weights and an integer depth map. Demonstrates the paper's reuse story in
// the other direction — the same declarative action runs under fixed_point
// (chaotic) or Δ-stepping with Δ=1 (level-synchronous flavour).
#pragma once

#include <memory>

#include "pattern/action.hpp"
#include "strategy/delta_stepping.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

/// The BFS explore action: the relax shape with unit weights.
/// bfs_solver and fused_triple_solver both build it here.
inline auto bfs_explore_def(pmap::vertex_property_map<std::uint64_t>& depth) {
  using namespace pattern;
  property d(depth);
  return make_action("bfs.explore", out_edges_gen{},
                     when(d(trg(e_)) > d(v_) + lit<std::uint64_t>(1),
                          assign(d(trg(e_)), d(v_) + lit<std::uint64_t>(1))));
}

class bfs_solver {
 public:
  /// Depth value for unreachable vertices: num_vertices() (no reachable
  /// vertex can be that deep, and it cannot overflow in depth+1).
  bfs_solver(ampp::transport& tp, const graph::distributed_graph& g)
      : g_(&g),
        unreachable_(g.num_vertices()),
        depth_(g, unreachable_),
        locks_(g.dist(), pmap::lock_scheme::per_vertex),
        explore_(pattern::instantiate(tp, g, locks_, bfs_explore_def(depth_))) {}

  /// Collective: chaotic fixed-point BFS.
  strategy::result run_fixed_point(ampp::transport_context& ctx, vertex_id source,
                                   const strategy::options& opt = {}) {
    reset(ctx, source);
    std::vector<vertex_id> seeds;
    if (g_->owner(source) == ctx.rank()) seeds.push_back(source);
    return strategy::fixed_point(ctx, *explore_, seeds, opt);
  }

  /// Collective: bucket-per-level schedule (Δ-stepping with Δ = 1), i.e.
  /// a label-setting frontier expansion.
  strategy::result run_level_sync(ampp::transport_context& ctx, vertex_id source,
                                  const strategy::options& opt = {}) {
    reset(ctx, source);
    std::vector<vertex_id> seeds;
    if (g_->owner(source) == ctx.rank()) seeds.push_back(source);
    return strategy::delta_stepping(ctx, *explore_, depth_, 1.0, seeds, opt);
  }

  pmap::vertex_property_map<std::uint64_t>& depth() { return depth_; }
  std::uint64_t unreachable_depth() const { return unreachable_; }
  pattern::action_instance& explore() { return *explore_; }

 private:
  void reset(ampp::transport_context& ctx, vertex_id source) {
    for (auto& x : depth_.local(ctx.rank())) x = unreachable_;
    if (g_->owner(source) == ctx.rank()) depth_[source] = 0;
    ctx.barrier();
  }

  const graph::distributed_graph* g_;
  std::uint64_t unreachable_;
  pmap::vertex_property_map<std::uint64_t> depth_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> explore_;
};

}  // namespace dpg::algo
