// The Δ-stepping strategy of §II-A, in both the coordinated form the paper
// lists and the uncoordinated try_finish form of §III-D:
//
//   strategy delta(action a, container vertices, property-map m, delta Δ) {
//     buckets B;  for (v in vertices) B.insert(v, m[v], Δ);
//     a.work(Vertex v) = { B.insert(v, m[v], Δ); }
//     while (!B.empty()) { while (!B[i].empty()) { v = B[i].pop(); a(v); } i++; }
//   }
//
// The buckets are the action's per-rank work queue in its Δ-bucketed order
// (pattern/work_queue.hpp): the hook files the dependent vertex with its
// owner under its current priority m[v], at most once. Both forms are then
// fixed_point's epoch loop draining that queue:
//   * coordinated — one epoch per bucket level: the ranks agree on the
//     lowest non-empty bucket (allreduce_min) and drain just that bucket;
//   * uncoordinated — a single epoch; each rank pops its own lowest bucket
//     and calls try_finish when out of work — "if ending the epoch is
//     unsuccessful, the thread goes back to its local bucket structure".
#pragma once

#include <atomic>
#include <span>

#include "pmap/vertex_map.hpp"
#include "strategy/strategies.hpp"

namespace dpg::strategy {

namespace detail {

/// Readies the calling rank's queue in Δ-bucketed order, installs the hook
/// that files a dependent vertex under its priority m[v], and files the
/// rank's seeds. Throws std::invalid_argument on every rank, before any
/// collective, unless Δ > 0.
template <class T>
pattern::work_queue& file_seeds(ampp::transport_context& ctx, pattern::action_instance& a,
                                pmap::vertex_property_map<T>& m, double delta,
                                std::span<const vertex_id> seeds) {
  // Atomic like the relax CAS it can race with: with handler threads, a
  // concurrent handler may be lowering m[v] while the hook files v.
  const auto priority = [&m](vertex_id v) {
    return static_cast<double>(std::atomic_ref<T>(m[v]).load(std::memory_order_relaxed));
  };
  const ampp::rank_t r = ctx.rank();
  const graph::distribution& d = a.vertex_dist();
  pattern::work_queue& q = a.pending_work(r);
  q.prepare(d.count(r), ctx.tp().config().handler_threads > 0, delta);
  install_hook_collective(ctx, a, [&a, priority](ampp::transport_context& c, vertex_id dep) {
    a.pending_work(c.rank()).push(a.vertex_dist().local_index(dep), priority(dep));
  });
  for (const vertex_id v : seeds) q.push(d.local_index(v), priority(v));
  return q;
}

}  // namespace detail

/// Coordinated Δ-stepping: one epoch per bucket level, with `m` the
/// priority map (the tentative distances) and Δ the bucket width.
/// result::rounds counts the epochs driven (a proxy for global
/// synchronization cost — the Δ sweep benchmark reports it). A level that
/// refills while it drains is picked again by the next allreduce_min.
/// Collective; `seeds` are the calling rank's.
template <class T>
result delta_stepping(ampp::transport_context& ctx, pattern::action_instance& a,
                      pmap::vertex_property_map<T>& m, double delta,
                      std::span<const vertex_id> seeds, const options& opt = {}) {
  pattern::work_queue& q = detail::file_seeds(ctx, a, m, delta, seeds);
  return detail::measured(ctx, a, opt, "delta", [&] {
    std::uint64_t epochs = 0;
    for (std::uint64_t level; (level = ctx.allreduce_min(q.first_nonempty())) !=
                              pattern::work_queue::none;) {
      obs::trace_span lsp(&ctx.tp().obs().trace(), "strategy", "bucket", ctx.rank());
      lsp.arg("level", level);
      ampp::epoch ep(ctx);
      ++epochs;
      detail::drain(ctx, ep, a, [&q, level] { return q.pop(level); });
    }
    return epochs;
  });
}

/// Uncoordinated Δ-stepping (§III-D): a single epoch, local bucket order,
/// termination purely via try_finish — fixed_point over the bucketed
/// queue. Collective.
template <class T>
result delta_stepping_uncoordinated(ampp::transport_context& ctx, pattern::action_instance& a,
                                    pmap::vertex_property_map<T>& m, double delta,
                                    std::span<const vertex_id> seeds,
                                    const options& opt = {}) {
  pattern::work_queue& q = detail::file_seeds(ctx, a, m, delta, seeds);
  return detail::measured(ctx, a, opt, "delta_uncoordinated", [&] {
    ampp::epoch ep(ctx);
    detail::drain(ctx, ep, a, [&q] { return q.pop(); });
    return std::uint64_t{1};
  });
}

}  // namespace dpg::strategy
