// SSSP + widest-path + BFS-tree in one traversal wave (multi-pattern
// fusion, GraFS-style). The three relax actions are declared exactly as
// their standalone solvers declare them — same DSL text, same shapes —
// and handed to pattern::fuse, which synthesizes one fused message
// family and drives all three to their fixed points in a single epoch
// loop with a single termination detection. Result maps are
// bit-identical to running sssp_solver / widest_path_solver / bfs_solver
// separately (asserted under every fault plan by the fusion sweep).
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

#include "pattern/fuse.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

namespace detail {

// The member action definitions, verbatim from sssp_solver /
// widest_path_solver / bfs_solver. Factored as free builders so the
// fused action's concrete type (which spells out the when-clause types)
// can be named by decltype inside the solver class.
inline auto sssp_def(pmap::vertex_property_map<double>& dist,
                     pmap::edge_property_map<double>& weight) {
  using namespace pattern;
  property d(dist);
  property wt(weight);
  return make_action("sssp.relax", out_edges_gen{},
                     when(d(trg(e_)) > d(v_) + wt(e_),
                          assign(d(trg(e_)), d(v_) + wt(e_))));
}
inline auto widest_def(pmap::vertex_property_map<double>& width,
                       pmap::edge_property_map<double>& capacity) {
  using namespace pattern;
  property w(width);
  property cap(capacity);
  return make_action("widest.relax", out_edges_gen{},
                     when(w(trg(e_)) < min_(w(v_), cap(e_)),
                          assign(w(trg(e_)), min_(w(v_), cap(e_)))));
}
inline auto bfs_def(pmap::vertex_property_map<std::uint64_t>& depth) {
  using namespace pattern;
  property d(depth);
  return make_action("bfs.explore", out_edges_gen{},
                     when(d(trg(e_)) > d(v_) + lit<std::uint64_t>(1),
                          assign(d(trg(e_)), d(v_) + lit<std::uint64_t>(1))));
}

}  // namespace detail

class fused_triple_solver {
 private:
  using fused_ptr = decltype(pattern::fuse(
      std::declval<ampp::transport&>(),
      std::declval<const graph::distributed_graph&>(),
      std::declval<pattern::compile_options>(),
      detail::sssp_def(std::declval<pmap::vertex_property_map<double>&>(),
               std::declval<pmap::edge_property_map<double>&>()),
      detail::widest_def(std::declval<pmap::vertex_property_map<double>&>(),
                 std::declval<pmap::edge_property_map<double>&>()),
      detail::bfs_def(std::declval<pmap::vertex_property_map<std::uint64_t>&>())));

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
  /// solver. Of `copts`, only fast_reduction applies: it switches the
  /// fused lane's sender-side combining cache (the fused family is itself
  /// the fast path).
  fused_triple_solver(ampp::transport& tp, const graph::distributed_graph& g,
                      pmap::edge_property_map<double>& weight,
                      pmap::edge_property_map<double>& capacity,
                      pattern::compile_options copts = {})
      : g_(&g),
        unreachable_(g.num_vertices()),
        dist_(g, infinity),
        width_(g, 0.0),
        depth_(g, unreachable_),
        fused_(pattern::fuse(tp, g, copts, detail::sssp_def(dist_, weight),
                             detail::widest_def(width_, capacity), detail::bfs_def(depth_))) {}

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
