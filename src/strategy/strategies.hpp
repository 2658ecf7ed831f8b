// The basic strategies shipped with the framework (§II-A): fixed_point and
// once. Strategies are ordinary imperative SPMD programs that apply pattern
// actions through the framework's primitives — epochs, work hooks, and
// collectives. Users write their own the same way (Δ-stepping, in
// delta_stepping.hpp, is fixed_point's epoch loop over a Δ-bucketed queue).
//
// Every strategy entry point takes a `strategy::options` and returns a
// `strategy::result` {rounds, modifications, stats_delta} so callers can
// treat strategies uniformly and measure them without touching raw
// transport counters.
#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/obs.hpp"
#include "pattern/action.hpp"
#include "util/spinlock.hpp"

namespace dpg::strategy {

using graph::vertex_id;

/// Common knobs accepted by every strategy entry point.
struct options {
  /// Round cap for iterating strategies (once_until_quiet); single-epoch
  /// strategies ignore it.
  int max_rounds = 1 << 20;
  /// Capture the transport-counter delta the strategy consumed into
  /// result::stats_delta. Cheap (two registry snapshots); disable only in
  /// tight strategy-composition loops.
  bool collect_stats = true;
};

/// Common return value of every strategy entry point. Counters are global
/// (summed across ranks): after the collective returns, every rank holds
/// the same values.
struct result {
  std::uint64_t rounds = 0;         ///< epochs/rounds the strategy drove
  std::uint64_t modifications = 0;  ///< successful condition firings it caused
  obs::stats_snapshot stats_delta;  ///< transport counters consumed (if collected)

  /// Did any property-map modification happen anywhere in the system?
  bool changed() const { return modifications != 0; }

  /// Wire faults this run absorbed (always 0 without a `fault_plan` on the
  /// transport): dropped envelopes recovered by retry, duplicates
  /// suppressed by the dedup window, and delayed releases. Lets chaos
  /// tests assert that the sweep actually exercised the fault layer.
  std::uint64_t faults_survived() const {
    const obs::counters& c = stats_delta.core;
    return c.envelopes_dropped + c.envelopes_duplicated + c.envelopes_delayed;
  }
};

/// Collectively installs a work hook on a shared action instance: assigned
/// on one rank, published to all by the barrier. (All strategies call this
/// at entry so a single action can serve several strategies in sequence.)
inline void install_hook_collective(ampp::transport_context& ctx,
                                    pattern::action_instance& a,
                                    pattern::action_instance::work_hook hook) {
  // In-process every rank shares one action instance, so one assignment
  // suffices; cross-process each rank process owns its own instance and
  // must install locally (rank identity no longer implies instance
  // identity). The barrier publishes either way.
  if (ctx.rank() == 0 || ctx.tp().cross_process()) a.work(std::move(hook));
  ctx.barrier();
}

/// Per-rank lists of the vertices a work hook harvests, e.g. the next
/// frontier of a level-synchronous strategy. The hook runs on whichever
/// thread commits the firing: the rank's own thread for an owner-local
/// apply, a handler thread for a delivered record. So push() takes the
/// rank's lock. take() runs between epochs, when no hook fires.
class frontier_harvest {
 public:
  explicit frontier_harvest(ampp::rank_t ranks) : slots_(ranks) {}

  void push(ampp::rank_t r, vertex_id v) {
    slot& s = slots_[r];
    std::lock_guard<dpg::spinlock> g(s.mu);
    s.vertices.push_back(v);
  }
  /// Rank r's harvest since the last take(), leaving it empty.
  std::vector<vertex_id> take(ampp::rank_t r) {
    return std::exchange(slots_[r].vertices, {});
  }

 private:
  struct alignas(64) slot {
    dpg::spinlock mu;
    std::vector<vertex_id> vertices;
  };
  std::vector<slot> slots_;  // sized once: slots hold locks and cannot move
};

/// Applies `fn` to every vertex the calling rank owns.
template <class F>
void for_each_local_vertex(ampp::transport_context& ctx,
                           const graph::distributed_graph& g, F fn) {
  const auto& d = g.dist();
  const std::uint64_t cnt = d.count(ctx.rank());
  for (std::uint64_t li = 0; li < cnt; ++li) fn(d.global(ctx.rank(), li));
}

namespace detail {

/// Runs `body` under the strategy's trace span and returns its result:
/// `body` returns the rounds it drove, and the global modification count
/// and (if asked) the transport-counter delta are filled in around it.
template <class Body>
result measured(ampp::transport_context& ctx, pattern::action_instance& a,
                const options& opt, const char* name, Body body) {
  obs::registry& reg = ctx.tp().obs();
  std::optional<obs::stats_scope> sc;
  if (opt.collect_stats) sc.emplace(reg);
  const std::uint64_t before = a.modifications();
  result res;
  {
    obs::trace_span sp(&reg.trace(), "strategy", name, ctx.rank());
    res.rounds = body();
    sp.arg("rounds", res.rounds);
  }
  // Cross-process each process saw only its own firings. The sum is
  // load-bearing: once_until_quiet ends on changed(), so all rank
  // processes must agree on it or the synchronous rounds deadlock.
  res.modifications = a.modifications() - before;
  if (ctx.tp().cross_process()) res.modifications = ctx.allreduce_sum(res.modifications);
  if (sc) res.stats_delta = sc->finish();
  return res;
}

/// Applications between the queue loop's inbox polls, and the most one
/// verdict-wait step applies. In a scale-17 sweep of 16/64/256 the 4-rank
/// fixed point ran within run-to-run spread at each, and peak RSS rose
/// slightly with the chunk (EXPERIMENTS.md E10).
inline constexpr int progress_chunk = 64;

/// The epoch loop of every queue-driven strategy: apply what `pop` yields
/// from the rank's work queue until the epoch ends everywhere. A rank never
/// idles while it holds queued work, and never sits on received work while
/// it is busy: it drains its inbox after every progress_chunk
/// applications, and while a termination-detection round awaits its
/// verdict it keeps applying its queue in chunks between inbox drains.
///
/// A push follows either a counted receipt or an owner-local commit made
/// on this thread (here, in the verdict wait, or in the caller's seed
/// loop), which the loop pops before its next try_finish. So a TD round
/// that declares the epoch done proves no handler pushed since this rank's
/// previous report, the queue was emptied after that report, and the wait
/// found nothing to apply (docs/runtime.md "fixed_point scheduling").
template <class Pop>
void drain(ampp::transport_context& ctx, ampp::epoch& ep, pattern::action_instance& a,
           Pop pop) {
  const ampp::rank_t r = ctx.rank();
  const graph::distribution& d = a.vertex_dist();
  const ampp::work_step chunk = [&] {  // true if it applied anything
    int n = 0;
    for (; n < progress_chunk; ++n) {
      const auto li = pop();
      if (!li) break;
      a(ctx, d.global(r, *li));
    }
    return n != 0;
  };
  for (;;) {
    while (chunk()) ctx.drain();
    if (ep.try_finish(chunk)) return;
  }
}

}  // namespace detail

/// Readies the calling rank's work queue in FIFO order and installs the
/// hook that files a dependent vertex there. Collective: the install
/// barrier orders each rank's prepare before any handler can file work.
inline pattern::work_queue& queue_dependents(ampp::transport_context& ctx,
                                             pattern::action_instance& a) {
  pattern::work_queue& q = a.pending_work(ctx.rank());
  q.prepare(a.vertex_dist().count(ctx.rank()), ctx.tp().config().handler_threads > 0);
  install_hook_collective(ctx, a, [&a](ampp::transport_context& c, vertex_id dep) {
    a.pending_work(c.rank()).push(a.vertex_dist().local_index(dep));
  });
  return q;
}

/// The fixed_point strategy of §II-A. The paper writes it as
///
///   strategy fixed_point(action a, container vertices) {
///     a.work(Vertex v) = { a(v) };
///     epoch { for (v in vertices) a(v); }
///   }
///
/// Here the hook only files the dependent vertex in its owner rank's
/// deduplicated FIFO work queue (action_instance::pending_work); the
/// strategy applies it from its epoch loop. A vertex improved several times
/// while it waits is applied once, against its current label, so every
/// improvement that landed in the meantime goes out in a single sweep of
/// its edges. The fixed point is the same; see docs/runtime.md "fixed_point
/// scheduling" for why termination detection stays sound.
///
/// `seeds` holds the seed vertices owned by the calling rank (SPMD callers
/// pass their local portion). Collective; returns when the fixed point is
/// reached everywhere.
inline result fixed_point(ampp::transport_context& ctx, pattern::action_instance& a,
                          std::span<const vertex_id> seeds, const options& opt = {}) {
  pattern::work_queue& q = queue_dependents(ctx, a);
  return detail::measured(ctx, a, opt, "fixed_point", [&] {
    ampp::epoch ep(ctx);
    for (const vertex_id v : seeds) a(ctx, v);
    detail::drain(ctx, ep, a, [&q] { return q.pop(); });
    return std::uint64_t{1};
  });
}

/// The once strategy (§II-B): applies the action at every seed exactly once
/// (dependencies are ignored); result::changed() reports whether any
/// property-map modification happened anywhere in the system. Collective.
inline result once(ampp::transport_context& ctx, pattern::action_instance& a,
                   std::span<const vertex_id> seeds, const options& opt = {}) {
  install_hook_collective(ctx, a, {});
  ctx.barrier();  // all ranks snapshot the counter before anyone applies
  return detail::measured(ctx, a, opt, "once", [&] {
    ampp::epoch ep(ctx);
    for (const vertex_id v : seeds) a(ctx, v);
    return std::uint64_t{1};
  });
}

/// Repeats `once` until no modification happens or opt.max_rounds is
/// reached (a synchronous-round fixed point; used for the CC pointer-jump
/// loop of Fig. 3, lines 14-17). result::rounds counts the rounds that
/// performed work.
inline result once_until_quiet(ampp::transport_context& ctx, pattern::action_instance& a,
                               std::span<const vertex_id> seeds,
                               const options& opt = {}) {
  obs::registry& reg = ctx.tp().obs();
  std::optional<obs::stats_scope> sc;
  if (opt.collect_stats) sc.emplace(reg);
  obs::trace_span sp(&reg.trace(), "strategy", "once_until_quiet", ctx.rank());
  options inner = opt;
  inner.collect_stats = false;  // one delta for the whole loop, not per round
  result res;
  while (static_cast<int>(res.rounds) < opt.max_rounds) {
    const result r = once(ctx, a, seeds, inner);
    if (!r.changed()) break;
    ++res.rounds;
    res.modifications += r.modifications;
  }
  sp.arg("rounds", res.rounds);
  sp.finish();
  if (sc) res.stats_delta = sc->finish();
  return res;
}

}  // namespace dpg::strategy
