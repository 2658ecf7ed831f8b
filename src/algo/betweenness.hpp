// Betweenness centrality (Brandes' algorithm) for unweighted graphs, as
// patterns + a level-synchronous imperative driver.
//
// This algorithm exercises the parts of the paper's grammar no simpler
// solver needs:
//   * the forward action has an if / else-if chain whose first arm performs
//     THREE modifications (depth assignment, σ accumulation, predecessor
//     recording — the paper's §III-C `preds[v].insert(u)` example);
//   * the backward action uses the *property-map set generator*
//     ("generator: u in preds[v]"), fanning out along recorded
//     predecessors rather than graph edges;
//   * its modification reads σ at the generated vertex — a synchronized
//     final-locality read feeding a general `modify`.
//
// Forward (per level L, frontier has final σ):    for e in out_edges(v):
//   if depth[trg] unset:   depth[trg]=L+1; σ[trg]+=σ[v]; preds[trg]∪={v}
//   elif depth[trg]==L+1:  σ[trg]+=σ[v];  preds[trg]∪={v}
// Backward (levels L..1):  for u in preds[v]:
//   δ[u] += σ[u]/σ[v] · (1 + δ[v])
// bc[v] = Σ_sources δ[v]  (v ≠ source).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class betweenness_solver {
 public:
  betweenness_solver(ampp::transport& tp, const graph::distributed_graph& g)
      : g_(&g),
        unset_(g.num_vertices()),
        depth_(g, unset_),
        sigma_(g, 0.0),
        delta_(g, 0.0),
        preds_(g),
        bc_(g, 0.0),
        locks_(g.dist(), pmap::lock_scheme::per_vertex),
        next_frontier_(tp.size()) {
    using namespace pattern;
    property D(depth_);
    property S(sigma_);
    property Del(delta_);
    property P(preds_);
    forward_ = instantiate(
        tp, g, locks_,
        make_action(
            "bc.forward", out_edges_gen{},
            when(D(trg(e_)) == lit(unset_),
                 assign(D(trg(e_)), D(v_) + lit<std::uint64_t>(1)),
                 modify(S(trg(e_)), [](double& s, double sv) { s += sv; }, S(v_)),
                 modify(P(trg(e_)),
                        [](std::vector<vertex_id>& p, vertex_id u) { p.push_back(u); },
                        src(e_))),
            when(D(trg(e_)) == D(v_) + lit<std::uint64_t>(1),
                 modify(S(trg(e_)), [](double& s, double sv) { s += sv; }, S(v_)),
                 modify(P(trg(e_)),
                        [](std::vector<vertex_id>& p, vertex_id u) { p.push_back(u); },
                        src(e_)))));
    backward_ = instantiate(
        tp, g, locks_,
        make_action("bc.backward", pmap_gen<pmap::vertex_property_map<std::vector<vertex_id>>>{&preds_},
                    when(lit(true),
                         modify(Del(u_),
                                [](double& d, double sv, double dv, double su) {
                                  d += su / sv * (1.0 + dv);
                                },
                                S(v_), Del(v_), S(u_)))));
    harvest_ = [this](ampp::transport_context& c, vertex_id dep) {
      next_frontier_.push(c.rank(), dep);
    };
  }

  /// Collective: accumulates the contribution of one source into bc.
  /// Call reset_bc() first to start a fresh centrality computation; run
  /// several sources to approximate (or all for exact) betweenness.
  void accumulate_source(ampp::transport_context& ctx, vertex_id source) {
    const ampp::rank_t r = ctx.rank();
    {
      auto depths = depth_.local(r);
      auto sigmas = sigma_.local(r);
      auto deltas = delta_.local(r);
      auto preds = preds_.local(r);
      for (std::size_t li = 0; li < depths.size(); ++li) {
        depths[li] = unset_;
        sigmas[li] = 0.0;
        deltas[li] = 0.0;
        preds[li].clear();
      }
    }
    std::vector<std::vector<vertex_id>> levels;  // this rank's vertices per level
    std::vector<vertex_id> frontier;
    if (g_->owner(source) == ctx.rank()) {
      depth_[source] = 0;
      sigma_[source] = 1.0;
      frontier.push_back(source);
    }
    (void)next_frontier_.take(r);
    strategy::install_hook_collective(ctx, *forward_, harvest_);

    // Forward sweep: one epoch per level; the dependency hook harvests
    // newly discovered vertices (depth is only assigned once, so each
    // vertex is harvested exactly once).
    for (;;) {
      const bool any = ctx.allreduce_or(!frontier.empty());
      if (!any) break;
      levels.push_back(frontier);
      {
        ampp::epoch ep(ctx);
        for (const vertex_id v : frontier) (*forward_)(ctx, v);
      }
      frontier = next_frontier_.take(r);
      // The σ-accumulation arm also fires the dependency hook (it writes a
      // map the action reads), so a vertex reached along several same-level
      // edges is harvested once per edge: deduplicate.
      std::sort(frontier.begin(), frontier.end());
      frontier.erase(std::unique(frontier.begin(), frontier.end()), frontier.end());
    }

    // Backward sweep: deepest level first; δ flows along preds.
    const std::uint64_t my_levels = levels.size();
    const std::uint64_t max_levels = ctx.allreduce_max(my_levels);
    for (std::uint64_t l = max_levels; l-- > 1;) {
      ampp::epoch ep(ctx);
      if (l < levels.size())
        for (const vertex_id v : levels[l]) (*backward_)(ctx, v);
    }

    // Fold this source's δ into bc (source excluded).
    {
      auto deltas = delta_.local(r);
      auto bcs = bc_.local(r);
      for (std::size_t li = 0; li < deltas.size(); ++li) bcs[li] += deltas[li];
      if (g_->owner(source) == ctx.rank()) bc_[source] -= delta_[source];
    }
    ctx.barrier();
  }

  /// Collective: zero the accumulated centrality.
  void reset_bc(ampp::transport_context& ctx) {
    for (auto& x : bc_.local(ctx.rank())) x = 0.0;
    ctx.barrier();
  }

  pmap::vertex_property_map<double>& centrality() { return bc_; }
  pmap::vertex_property_map<double>& sigma() { return sigma_; }
  pmap::vertex_property_map<std::uint64_t>& depth() { return depth_; }

 private:
  const graph::distributed_graph* g_;
  std::uint64_t unset_;
  pmap::vertex_property_map<std::uint64_t> depth_;
  pmap::vertex_property_map<double> sigma_;
  pmap::vertex_property_map<double> delta_;
  pmap::vertex_property_map<std::vector<vertex_id>> preds_;
  pmap::vertex_property_map<double> bc_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> forward_;
  std::unique_ptr<pattern::action_instance> backward_;
  pattern::action_instance::work_hook harvest_;
  strategy::frontier_harvest next_frontier_;
};

}  // namespace dpg::algo
