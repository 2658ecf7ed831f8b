// Single-source shortest paths built from the SSSP pattern of §II-A.
//
// One declarative relax action (Fig. 2) is shared verbatim by all three
// execution schedules — this is the paper's headline reuse claim:
//   * fixed_point  — the label-correcting iteration of Fig. 1, with improved
//                    vertices scheduled through a deduplicated per-rank
//                    work queue (docs/runtime.md "fixed_point scheduling"),
//   * Δ-stepping   — the same loop over a Δ-bucketed queue (coordinated,
//                    epoch per bucket),
//   * Δ-stepping (uncoordinated) — the try_finish form of §III-D.
#pragma once

#include <limits>
#include <memory>
#include <span>

#include "pattern/action.hpp"
#include "strategy/delta_stepping.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

/// The SSSP relax action (Fig. 2): lower trg(e)'s distance through v.
/// sssp_solver and fused_triple_solver both build it here.
inline auto sssp_relax_def(pmap::vertex_property_map<double>& dist,
                           pmap::edge_property_map<double>& weight) {
  using namespace pattern;
  property d(dist);
  property w(weight);
  return make_action("sssp.relax", out_edges_gen{},
                     when(d(trg(e_)) > d(v_) + w(e_), assign(d(trg(e_)), d(v_) + w(e_))));
}

class sssp_solver {
 public:
  static constexpr double infinity = std::numeric_limits<double>::infinity();

  /// Registers the relax action's message types with `tp`. Construct before
  /// transport::run; `g` and `weight` must outlive the solver. The relax
  /// compiles to the 16-byte relax record with a sender-side min cache.
  sssp_solver(ampp::transport& tp, const graph::distributed_graph& g,
              pmap::edge_property_map<double>& weight,
              pmap::lock_scheme locking = pmap::lock_scheme::per_vertex)
      : g_(&g),
        dist_(g, infinity),
        locks_(g.dist(), locking),
        weight_(&weight),
        relax_(pattern::instantiate(tp, g, locks_, sssp_relax_def(dist_, weight))) {}

  /// Collective: resets distances and solves from `source` with the
  /// fixed_point strategy.
  strategy::result run_fixed_point(ampp::transport_context& ctx, vertex_id source,
                                   const strategy::options& opt = {}) {
    // Local reset only: the strategy's own hook-install barrier (which every
    // rank passes before any application) already orders these writes before
    // the first relax, so a second rendezvous here would be pure overhead.
    reset_local(ctx, source);
    std::vector<vertex_id> seeds;
    if (g_->owner(source) == ctx.rank()) seeds.push_back(source);
    return strategy::fixed_point(ctx, *relax_, seeds, opt);
  }

  /// Collective warm restart after a topology mutation: re-seeds the
  /// fixed_point strategy at `sources` *without* resetting distances.
  /// Because the relax action is monotone (assign only fires when it lowers
  /// a label), replaying it from the mutation sites corrects every label the
  /// mutation can improve and leaves the rest untouched — no graph rebuild,
  /// no property-map rebuild, no full re-solve.
  ///
  /// Incremental (adds only): seed with the sources of the added edges.
  /// Decremental / general (any deletions): call invalidate_unsupported()
  /// at the boundary first, then seed with its returned frontier plus the
  /// added-edge sources. Seeds whose label was invalidated to infinity are
  /// dropped here; if they become reachable again the fixed point files
  /// and re-applies them on its own.
  strategy::result repair(ampp::transport_context& ctx,
                          std::span<const vertex_id> sources,
                          const strategy::options& opt = {}) {
    std::vector<vertex_id> seeds;
    for (const vertex_id v : sources)
      if (g_->owner(v) == ctx.rank() && dist_[v] != infinity) seeds.push_back(v);
    return strategy::fixed_point(ctx, *relax_, seeds, opt);
  }

  /// Decremental invalidation, run at the mutation boundary (outside any
  /// transport::run) after remove_edges(). Keeps exactly the labels the
  /// live graph still witnesses and resets the rest to infinity; returns
  /// the repair frontier: every still-valid vertex with a live out-edge
  /// into the invalidated region (pass it to repair(), which filters by
  /// owning rank).
  ///
  /// A label survives iff its vertex is reachable from the last solve's
  /// source through *tight* live edges (dist[u] + w(e) == dist[v] — the
  /// exact sum the relax action committed, so the comparison is bitwise
  /// for the surviving shortest-path forest). Survivors are exact for the
  /// mutated graph: the tight path witnesses new_dist(v) <= dist[v], and
  /// deletions only lengthen paths so dist[v] = old_dist(v) <= new_dist(v).
  /// Everything else restarts from infinity, which monotone re-relaxation
  /// from the returned frontier then repairs to the exact fixed point.
  /// Ties broken differently by an equal-length alternative path may
  /// invalidate more than strictly necessary — never less.
  std::vector<vertex_id> invalidate_unsupported() {
    DPG_ASSERT_MSG(ampp::current_rank() == ampp::invalid_rank,
                   "invalidate_unsupported called inside transport::run: "
                   "decremental invalidation is a boundary operation, like "
                   "the mutation that makes it necessary");
    DPG_ASSERT_MSG(has_solution_, "invalidate_unsupported before any solve");
    const std::uint64_t n = g_->num_vertices();
    std::vector<std::uint8_t> supported(n, 0);
    std::vector<vertex_id> stack;
    if (dist_[source_] == 0.0) {
      supported[source_] = 1;
      stack.push_back(source_);
    }
    while (!stack.empty()) {
      const vertex_id u = stack.back();
      stack.pop_back();
      const double du = dist_[u];
      for (const auto e : g_->out_edges(u)) {
        if (supported[e.dst]) continue;
        if (dist_[e.dst] == du + (*weight_)[e]) {
          supported[e.dst] = 1;
          stack.push_back(e.dst);
        }
      }
    }
    std::vector<vertex_id> frontier;
    for (vertex_id v = 0; v < n; ++v) {
      if (supported[v]) {
        for (const auto e : g_->out_edges(v))
          if (!supported[e.dst]) {
            frontier.push_back(v);
            break;
          }
      } else if (dist_[v] != infinity) {
        dist_[v] = infinity;
      }
    }
    return frontier;
  }

  /// Collective: Δ-stepping with one epoch per bucket level. Throws
  /// std::invalid_argument on every rank, leaving the last solution as it
  /// was, unless Δ > 0.
  strategy::result run_delta(ampp::transport_context& ctx, vertex_id source, double delta,
                             const strategy::options& opt = {}) {
    return run_bucketed(ctx, source, delta, opt, strategy::delta_stepping<double>);
  }

  /// Collective: the §III-D uncoordinated variant (local buckets, a single
  /// epoch terminated via try_finish). Throws like run_delta.
  strategy::result run_delta_uncoordinated(ampp::transport_context& ctx, vertex_id source,
                                           double delta,
                                           const strategy::options& opt = {}) {
    return run_bucketed(ctx, source, delta, opt,
                        strategy::delta_stepping_uncoordinated<double>);
  }

  pmap::vertex_property_map<double>& dist() { return dist_; }
  const pmap::vertex_property_map<double>& dist() const { return dist_; }
  pattern::action_instance& relax() { return *relax_; }
  /// Relaxations performed since construction (successful condition fires).
  std::uint64_t relaxations() const { return relax_->modifications(); }
  /// Epochs consumed by the last Δ-stepping run.
  std::uint64_t delta_epochs() const { return delta_epochs_; }
  /// Source of the last solve (meaningful once has_solution()).
  vertex_id last_source() const { return source_; }
  bool has_solution() const { return has_solution_; }

 private:
  template <class Strategy>
  strategy::result run_bucketed(ampp::transport_context& ctx, vertex_id source, double delta,
                                const strategy::options& opt, Strategy strat) {
    pattern::work_queue::check_width(delta);
    // As in run_fixed_point, the strategy's hook-install barrier orders the
    // reset before the first relax.
    reset_local(ctx, source);
    std::vector<vertex_id> seeds;
    if (g_->owner(source) == ctx.rank()) seeds.push_back(source);
    const strategy::result res = strat(ctx, *relax_, dist_, delta, seeds, opt);
    if (ctx.rank() == 0 || ctx.tp().cross_process()) delta_epochs_ = res.rounds;
    return res;
  }

  void reset_local(ampp::transport_context& ctx, vertex_id source) {
    auto mine = dist_.local(ctx.rank());
    for (auto& x : mine) x = infinity;
    if (g_->owner(source) == ctx.rank()) dist_[source] = 0.0;
    // One writer per solver instance (rank 0 in-process; each rank process
    // owns its own instance); the strategy's hook-install barrier orders
    // the write before any read.
    if (ctx.rank() == 0 || ctx.tp().cross_process()) {
      source_ = source;
      has_solution_ = true;
    }
  }

  const graph::distributed_graph* g_;
  pmap::vertex_property_map<double> dist_;
  pmap::lock_map locks_;
  pmap::edge_property_map<double>* weight_;
  std::unique_ptr<pattern::action_instance> relax_;
  std::uint64_t delta_epochs_ = 0;
  vertex_id source_ = 0;
  bool has_solution_ = false;
};

}  // namespace dpg::algo
