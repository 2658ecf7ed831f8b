// Epochs (§II, §III-D, §IV of the paper).
//
// An epoch is the coarse-grained synchronization construct for the
// fine-grained world of actions: it finishes, on all ranks, only when every
// action invoked inside it — and every action transitively created by
// dependency work items or message handlers — has finished. Epochs map
// directly onto AM++ epochs; termination is established by the transport's
// message-based four-counter protocol (transport::td_round).
//
// The two mid-epoch primitives from §III-D:
//   * epoch::flush()      — the paper's `epoch_flush`: perform as much
//     pending work as possible (flush coalescing buffers, run handlers
//     until this rank is locally quiescent), then return control.
//   * epoch::try_finish() — participate in exactly one termination-
//     detection round; returns true (and ends the epoch) iff no work was
//     left anywhere in the system. Used by uncoordinated algorithms: every
//     queue-driven strategy (fixed_point, and Δ-stepping over the same work
//     queue in bucket order) drains its rank's queue, then tries to finish,
//     keeps popping its queue while the verdict is pending, and goes back
//     to the queue when the round fails.
#pragma once

#include "ampp/transport.hpp"
#include "obs/trace.hpp"

namespace dpg::ampp {

/// RAII scope for one epoch. Construction and destruction are collective:
/// every rank of the transport must construct its epoch, and destruction
/// (or end()) blocks until global termination is detected.
class epoch {
 public:
  /// Collective. Enables message sends on this rank and synchronizes entry
  /// so that no rank can inject epoch-N+1 messages while another rank is
  /// still completing epoch N.
  explicit epoch(transport_context& ctx);

  epoch(const epoch&) = delete;
  epoch& operator=(const epoch&) = delete;

  /// `epoch_flush`: flush outgoing buffers and run handlers until this rank
  /// is locally quiescent. Does not synchronize with other ranks. The
  /// emptiness re-check each iteration reads the per-lane occupancy
  /// counters (docs/runtime.md "Progress & quiescence fast paths") — it
  /// never rescans buffers or reduction caches.
  void flush();

  /// One termination-detection round. True iff the epoch ended globally;
  /// afterwards the epoch must not be used further. When false, pending
  /// work may have arrived — the caller typically returns to its local
  /// work source (e.g. its bucket structure) and tries again later.
  ///
  /// `step`, if given, is a slice of the caller's local work (e.g. a few
  /// pops of its queue) that the round runs between inbox drains while it
  /// awaits the verdict, so the rank keeps working instead of idling. It
  /// must only apply work the caller queued; the round has already
  /// reported, so what it does is counted by the next round.
  bool try_finish(const work_step& step = {});

  /// Block until global termination (repeated TD rounds), then end the
  /// epoch. Idempotent.
  void end();

  bool ended() const noexcept { return ended_; }

  /// Ends the epoch if still active. While unwinding (a failed run) it
  /// only closes the epoch's books; otherwise a run abort propagates.
  ~epoch() noexcept(false);

 private:
  void finish();

  transport_context& ctx_;
  int uncaught_;  ///< std::uncaught_exceptions() at construction
  bool ended_ = false;
  obs::trace_span span_;  ///< covers the epoch on this rank's trace lane
};

}  // namespace dpg::ampp
