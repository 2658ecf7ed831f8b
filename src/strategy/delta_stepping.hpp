// The Δ-stepping strategy of §II-A, in both the coordinated form the paper
// lists and the uncoordinated try_finish form of §III-D.
//
// Coordinated (one epoch per bucket):
//
//   strategy delta(action a, container vertices, property-map m, delta Δ) {
//     buckets B;  for (v in vertices) B.insert(v, m[v], Δ);
//     a.work(Vertex v) = { B.insert(v, m[v], Δ); }
//     while (!B.empty()) { while (!B[i].empty()) { v = B[i].pop(); a(v); } i++; }
//   }
//
// Every rank keeps its own bucket structure for the vertices it owns; the
// work hook runs on the owner of the dependent vertex and files it locally.
// The per-bucket inner loop runs inside an epoch because in-flight actions
// may refill the bucket after it tests empty (the paper's remark); we drain
// and try_finish until the epoch truly ends, then reconcile globally.
//
// Uncoordinated (§III-D): a single epoch; each rank drains its local
// buckets in priority order and calls try_finish when out of work — "if
// ending the epoch is unsuccessful, the thread goes back to its local
// bucket structure" (its buckets can refill while it tries to end).
#pragma once

#include <atomic>
#include <limits>
#include <span>
#include <vector>

#include "strategy/buckets.hpp"
#include "strategy/strategies.hpp"

namespace dpg::strategy {

template <class T>
class delta_stepping {
 public:
  /// `m` is the priority property map (the tentative distances); Δ the
  /// bucket width. Construct before transport::run; call run()/
  /// run_uncoordinated() collectively inside.
  delta_stepping(ampp::transport& tp, const graph::distributed_graph& g,
                 pattern::action_instance& a, pmap::vertex_property_map<T>& m,
                 double delta)
      : g_(&g), a_(&a), m_(&m), delta_(delta) {
    for (ampp::rank_t r = 0; r < tp.size(); ++r) buckets_.emplace_back(delta);
    // The work hook of §II-A line 4: file the dependent vertex into the
    // owner rank's buckets under its (updated) priority. Built here, once,
    // so concurrent SPMD ranks never race on assignment.
    hook_ = [this](ampp::transport_context& c, vertex_id dep) {
      buckets_[c.rank()].insert(dep, priority(dep));
    };
  }

  /// Coordinated Δ-stepping: one epoch per bucket level. Collective.
  /// result::rounds counts the epochs driven (a proxy for global
  /// synchronization cost — the Δ sweep benchmark reports it).
  result run(ampp::transport_context& ctx, std::span<const vertex_id> seeds,
             const options& opt = {}) {
    buckets& B = my_buckets(ctx);
    B.clear();
    install_hook_collective(ctx, *a_, hook_);
    for (const vertex_id v : seeds) B.insert(v, priority(v));

    obs::registry& reg = ctx.tp().obs();
    std::optional<obs::stats_scope> sc;
    if (opt.collect_stats) sc.emplace(reg);
    const std::uint64_t before = a_->modifications();
    obs::trace_span sp(&reg.trace(), "strategy", "delta", ctx.rank());

    std::uint64_t epochs = 0;
    for (;;) {
      // Agree on the lowest globally non-empty bucket.
      const std::uint64_t mine = B.first_nonempty();
      const std::uint64_t level = ctx.allreduce_min(mine);
      if (level == buckets::none) break;
      obs::trace_span lsp(&reg.trace(), "strategy", "bucket", ctx.rank());
      lsp.arg("level", level);

      // Drain this level to a global fixed point. try_finish may succeed
      // while a conflicting hook insertion has just refilled the bucket
      // (bucket contents are invisible to termination detection), so
      // reconcile with a reduction and re-enter the epoch if needed.
      for (;;) {
        {
          ampp::epoch ep(ctx);
          ++epochs;
          do {
            while (auto v = B.pop(level)) (*a_)(ctx, *v);
          } while (!ep.try_finish());
        }
        if (!ctx.allreduce_or(!B.empty(level))) break;
      }
    }
    if (ctx.rank() == 0) epochs_used_ = epochs;  // one writer; TSan-clean
    sp.arg("epochs", epochs);
    sp.finish();
    ctx.barrier();

    result res;
    res.rounds = epochs;
    res.modifications = a_->modifications() - before;
    if (sc) res.stats_delta = sc->finish();
    return res;
  }

  /// Uncoordinated Δ-stepping (§III-D): single epoch, local priority order,
  /// termination purely via try_finish. Collective.
  result run_uncoordinated(ampp::transport_context& ctx, std::span<const vertex_id> seeds,
                           const options& opt = {}) {
    buckets& B = my_buckets(ctx);
    B.clear();
    install_hook_collective(ctx, *a_, hook_);
    for (const vertex_id v : seeds) B.insert(v, priority(v));

    obs::registry& reg = ctx.tp().obs();
    std::optional<obs::stats_scope> sc;
    if (opt.collect_stats) sc.emplace(reg);
    const std::uint64_t before = a_->modifications();
    obs::trace_span sp(&reg.trace(), "strategy", "delta_uncoordinated", ctx.rank());

    {
      ampp::epoch ep(ctx);
      for (;;) {
        while (auto v = B.pop_any()) (*a_)(ctx, *v);
        if (B.empty() && ep.try_finish()) break;
        // Either local work arrived while trying to finish, or some other
        // rank still works: go back to the buckets.
      }
    }
    if (ctx.rank() == 0) epochs_used_ = 1;
    sp.finish();
    ctx.barrier();

    result res;
    res.rounds = 1;
    res.modifications = a_->modifications() - before;
    if (sc) res.stats_delta = sc->finish();
    return res;
  }

  /// Epochs consumed by the last run (a proxy for global synchronization
  /// cost; the Δ sweep benchmark reports it).
  std::uint64_t epochs_used() const { return epochs_used_; }

 private:
  buckets& my_buckets(ampp::transport_context& ctx) { return buckets_[ctx.rank()]; }

  double priority(vertex_id v) const {
    // Atomic like the relax CAS it can race with: with handler threads, a
    // concurrent handler may be lowering m[v] while this hook files v.
    return static_cast<double>(std::atomic_ref<T>((*m_)[v]).load(std::memory_order_relaxed));
  }

  const graph::distributed_graph* g_;
  pattern::action_instance* a_;
  pmap::vertex_property_map<T>* m_;
  double delta_;
  std::deque<buckets> buckets_;  // deque: buckets hold locks and cannot move
  pattern::action_instance::work_hook hook_;
  std::uint64_t epochs_used_ = 0;
};

}  // namespace dpg::strategy
