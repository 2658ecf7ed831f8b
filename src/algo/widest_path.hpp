// Single-source widest path (maximum-bottleneck path): the relax shape of
// §II-A with (max, min) in place of (min, +). Exercises the DSL's min_
// operator and the max-update direction of the §IV-B atomic fast path —
// the pattern framework synthesizes the same one-message plan as SSSP.
#pragma once

#include <limits>
#include <memory>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

/// The widest-path relax action: improve trg(e)'s bottleneck width when
/// the path through v is wider,
///   width[trg(e)] = max(width[trg(e)], min(width[v], cap[e])).
/// widest_path_solver and fused_triple_solver both build it here.
inline auto widest_relax_def(pmap::vertex_property_map<double>& width,
                             pmap::edge_property_map<double>& capacity) {
  using namespace pattern;
  property w(width);
  property cap(capacity);
  return make_action("widest.relax", out_edges_gen{},
                     when(w(trg(e_)) < min_(w(v_), cap(e_)),
                          assign(w(trg(e_)), min_(w(v_), cap(e_)))));
}

class widest_path_solver {
 public:
  static constexpr double infinity = std::numeric_limits<double>::infinity();

  widest_path_solver(ampp::transport& tp, const graph::distributed_graph& g,
                     pmap::edge_property_map<double>& capacity)
      : g_(&g),
        width_(g, 0.0),
        locks_(g.dist(), pmap::lock_scheme::per_vertex),
        relax_(pattern::instantiate(tp, g, locks_, widest_relax_def(width_, capacity))) {}

  /// Collective: solve from `source` by fixed point.
  strategy::result run(ampp::transport_context& ctx, vertex_id source,
                       const strategy::options& opt = {}) {
    for (auto& x : width_.local(ctx.rank())) x = 0.0;
    if (g_->owner(source) == ctx.rank()) width_[source] = infinity;
    ctx.barrier();
    std::vector<vertex_id> seeds;
    if (g_->owner(source) == ctx.rank()) seeds.push_back(source);
    return strategy::fixed_point(ctx, *relax_, seeds, opt);
  }

  pmap::vertex_property_map<double>& width() { return width_; }
  pattern::action_instance& relax() { return *relax_; }

 private:
  const graph::distributed_graph* g_;
  pmap::vertex_property_map<double> width_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> relax_;
};

}  // namespace dpg::algo
