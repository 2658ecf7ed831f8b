// Direction-optimizing BFS: one imperative strategy choosing, level by
// level, between two declarative patterns over the same property map —
//
//   push (top-down):  out_edges of the frontier
//       when(depth(trg(e)) > depth(v)+1, assign(depth(trg(e)), depth(v)+1))
//   pull (bottom-up):  in_edges of the undiscovered
//       when(depth(v) > depth(src(e))+1, assign(depth(v), depth(src(e))+1))
//
// This is the paper's separation of concerns at full strength: the
// *what* (two relax-shaped patterns) is declarative and reusable; the
// *when/which* (the Beamer-style direction heuristic, frontier tracking,
// level synchronization) is an ordinary imperative program using epochs,
// work hooks (to harvest the newly discovered frontier), and collectives.
//
// Requires a bidirectional graph (in-edge storage).
#pragma once

#include <memory>
#include <vector>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class bfs_dir_opt_solver {
 public:
  bfs_dir_opt_solver(ampp::transport& tp, const graph::distributed_graph& g)
      : g_(&g),
        unreachable_(g.num_vertices()),
        depth_(g, unreachable_),
        level_(g, 0),
        locks_(g.dist(), pmap::lock_scheme::per_vertex),
        next_frontier_(tp.size()) {
    DPG_ASSERT_MSG(g.bidirectional(),
                   "direction-optimizing BFS pulls over in_edges; build the "
                   "graph with bidirectional=true");
    using namespace pattern;
    property d(depth_);
    property lvl(level_);
    push_ = instantiate(
        tp, g, locks_,
        make_action("bfs.push", out_edges_gen{},
                    when(d(trg(e_)) > d(v_) + lit<std::uint64_t>(1),
                         assign(d(trg(e_)), d(v_) + lit<std::uint64_t>(1)))));
    // The pull arm is gated on the source sitting at *exactly* the current
    // level (lvl[v] is set to the round number before each epoch). Without
    // the gate, a pull can chain inside one epoch — v pulls from a vertex
    // that was itself just discovered at level+1 and adopts level+2, an
    // overestimate that later pull sweeps (which only visit undiscovered
    // vertices) would never repair. The gate keeps every round level-pure.
    pull_ = instantiate(
        tp, g, locks_,
        make_action("bfs.pull", in_edges_gen{},
                    when(d(v_) > d(src(e_)) + lit<std::uint64_t>(1) &&
                             d(src(e_)) == lvl(v_),
                         assign(d(v_), d(src(e_)) + lit<std::uint64_t>(1)))));
    // Both patterns modify-and-read `depth`, so each successful assignment
    // fires the work hook at the discovered vertex's owner: the strategy
    // harvests it as next level's frontier.
    harvest_ = [this](ampp::transport_context& c, vertex_id dep) {
      next_frontier_.push(c.rank(), dep);
    };
  }

  /// Collective. Returns the number of level rounds executed.
  /// `alpha` tunes the switch: pull when the frontier's out-edges exceed
  /// (remaining undiscovered vertices' in-edges)/alpha.
  int run(ampp::transport_context& ctx, vertex_id source, double alpha = 4.0) {
    const ampp::rank_t r = ctx.rank();
    for (auto& x : depth_.local(r)) x = unreachable_;
    std::vector<vertex_id> frontier;
    if (g_->owner(source) == ctx.rank()) {
      depth_[source] = 0;
      frontier.push_back(source);
    }
    (void)next_frontier_.take(r);
    if (ctx.rank() == 0) modes_.clear();
    strategy::install_hook_collective(ctx, *push_, harvest_);
    strategy::install_hook_collective(ctx, *pull_, harvest_);

    int levels = 0;
    for (;;) {
      // Global decision inputs: frontier out-edge volume and undiscovered
      // in-edge volume.
      std::uint64_t f_edges = 0;
      for (const vertex_id v : frontier) f_edges += g_->out_degree(v);
      std::uint64_t u_edges = 0;
      strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
        if (depth_[v] == unreachable_) u_edges += g_->in_degree(v);
      });
      const std::uint64_t gf = ctx.allreduce_sum(f_edges);
      const std::uint64_t gu = ctx.allreduce_sum(u_edges);
      if (gf == 0) break;
      const bool pull = static_cast<double>(gf) * alpha > static_cast<double>(gu);
      if (ctx.rank() == 0) modes_.push_back(pull ? 'P' : 'p');
      // Publish the current level for the pull gate (local writes only).
      if (pull)
        for (auto& x : level_.local(r)) x = static_cast<std::uint64_t>(levels);
      ctx.barrier();  // modes_/level bookkeeping precedes any send

      {
        ampp::epoch ep(ctx);
        if (pull) {
          strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
            if (depth_[v] == unreachable_) (*pull_)(ctx, v);
          });
        } else {
          for (const vertex_id v : frontier) (*push_)(ctx, v);
        }
      }
      frontier = next_frontier_.take(r);
      ++levels;
    }
    return levels;
  }

  pmap::vertex_property_map<std::uint64_t>& depth() { return depth_; }
  std::uint64_t unreachable_depth() const { return unreachable_; }
  /// Per-level direction decisions of the last run ('p' push, 'P' pull);
  /// recorded on rank 0.
  const std::vector<char>& modes() const { return modes_; }

 private:
  const graph::distributed_graph* g_;
  std::uint64_t unreachable_;
  pmap::vertex_property_map<std::uint64_t> depth_;
  pmap::vertex_property_map<std::uint64_t> level_;  ///< round number, for the pull gate
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> push_;
  std::unique_ptr<pattern::action_instance> pull_;
  pattern::action_instance::work_hook harvest_;
  strategy::frontier_harvest next_frontier_;
  std::vector<char> modes_;
};

}  // namespace dpg::algo
