// PageRank as a pattern: a scatter action sums rank contributions into the
// target's slot with `add` (a property-map modification declared a sum),
// and an imperative per-iteration epilogue applies damping and swaps
// buffers — a textbook case of the paper's "declarative patterns inside
// imperative algorithms". The unconditional scatter compiles to the
// 16-byte {target, share} record of the scatter kernel
// (pattern/action.hpp, detail::scatter_shape); because the update is a
// sum, each rank folds its contributions per remote target and sends one
// record per distinct target per sweep.
#pragma once

#include <memory>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class pagerank_solver {
 public:
  pagerank_solver(ampp::transport& tp, const graph::distributed_graph& g)
      : g_(&g),
        rank_(g, 0.0),
        next_(g, 0.0),
        share_(g, 0.0),
        locks_(g.dist(), pmap::lock_scheme::per_vertex) {
    using namespace pattern;
    property next(next_);
    property share(share_);
    scatter_ = instantiate(
        tp, g, locks_,
        make_action("pr.scatter", out_edges_gen{},
                    // Always fires: add the sender's per-edge share.
                    when(lit(true), add(next(trg(e_)), share(v_)))));
  }

  /// Collective: `iterations` damped power-iteration rounds.
  void run(ampp::transport_context& ctx, double damping, int iterations) {
    const auto n = static_cast<double>(g_->num_vertices());
    const ampp::rank_t r = ctx.rank();
    for (auto& x : rank_.local(r)) x = 1.0 / n;
    ctx.barrier();

    for (int it = 0; it < iterations; ++it) {
      // Local prologue: per-vertex share; collect sink mass.
      double local_sink = 0.0;
      {
        auto ranks = rank_.local(r);
        auto shares = share_.local(r);
        auto nexts = next_.local(r);
        for (std::size_t li = 0; li < ranks.size(); ++li) {
          nexts[li] = 0.0;
          const std::uint64_t deg = g_->out_degree(rank_.global_id(r, li));
          if (deg == 0)
            local_sink += ranks[li];
          else
            shares[li] = ranks[li] / static_cast<double>(deg);
        }
      }
      const double sink = ctx.allreduce_sum(local_sink);

      // Declarative scatter inside one epoch.
      {
        ampp::epoch ep(ctx);
        strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
          if (g_->out_degree(v) > 0) (*scatter_)(ctx, v);
        });
      }

      // Imperative epilogue: damping, teleport, sink redistribution, swap.
      const double base = (1.0 - damping) / n + damping * sink / n;
      auto ranks = rank_.local(r);
      auto nexts = next_.local(r);
      for (std::size_t li = 0; li < ranks.size(); ++li)
        ranks[li] = base + damping * nexts[li];
      ctx.barrier();
    }
  }

  pmap::vertex_property_map<double>& ranks() { return rank_; }
  const pattern::plan_info& plan() const { return scatter_->plan(); }

 private:
  const graph::distributed_graph* g_;
  pmap::vertex_property_map<double> rank_;
  pmap::vertex_property_map<double> next_;
  pmap::vertex_property_map<double> share_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> scatter_;
};

}  // namespace dpg::algo
