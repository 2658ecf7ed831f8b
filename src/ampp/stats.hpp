// Cumulative core runtime counters — the *internal backing store* of the
// observability layer (message counts for the Fig. 5/6 plan ablation,
// cache hit rates for the AM++ caching claim, termination-detection rounds
// for the epoch-overhead experiment).
//
// The public measurement API is obs::registry (reached via
// transport::obs()): per-message-type and per-epoch attribution, snapshots,
// and the RAII obs::stats_scope. snap() is the runtime's own bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>

// The counter list, written once: every counter is an atomic in
// transport_stats and a plain field of its snapshot.
//
// Conservation laws asserted by the sim harness at quiescence:
//  * envelopes_dropped == envelopes_retried and envelopes_duplicated ==
//    duplicates_suppressed (the fault decorator's recovery);
//  * envelopes_sent <= flush_lane_visits (every envelope comes out of a
//    visited lane) and pool_reuses <= envelopes_sent (every reuse built one
//    envelope);
//  * batch_records <= handler_invocations (every batched record is also
//    counted as a handled payload).
#define DPG_TRANSPORT_COUNTERS(X)                                                           \
  X(messages_sent)        /* user payloads enqueued to an inbox */                          \
  X(local_applies)        /* compiled records committed in place by their owner; not sent */ \
  X(envelopes_sent)       /* coalesced buffers delivered */                                 \
  X(bytes_sent)           /* logical payload bytes delivered */                             \
  X(wire_bytes_sent)      /* envelope bytes on the wire (compact layouts truncate) */       \
  X(handler_invocations)  /* user handler calls */                                          \
  X(self_deliveries)      /* payloads whose destination was the sender */                   \
  X(cache_hits)           /* sends absorbed by a reduction cache or scatter accumulator */  \
  X(cache_evictions)      /* cache slots spilled to the wire */                             \
  X(td_rounds)            /* termination-detection rounds completed */                      \
  X(barriers)             /* barrier operations completed */                                \
  X(epochs)               /* epochs ended */                                                \
  X(control_messages)     /* internal control-plane payloads */                             \
  X(envelopes_dropped)    /* transmissions lost by the fault plan */                        \
  X(envelopes_retried)    /* retransmissions after an ack timeout */                        \
  X(envelopes_duplicated) /* extra copies injected on the wire */                           \
  X(envelopes_delayed)    /* envelopes held back N progress ticks */                        \
  X(duplicates_suppressed) /* copies absorbed by the dedup window */                        \
  X(flush_lane_visits)    /* lanes locked by a flush (incl. capacity flushes) */            \
  X(flush_lane_skips)     /* lanes a flush skipped via occupancy tracking */                \
  X(pool_reuses)          /* envelope byte buffers recycled from the pool */                \
  X(batch_records)        /* fast records processed by envelope loops */                    \
  X(batch_kernels_run)    /* envelope-loop invocations */                                   \
  X(graph_mutations)      /* apply_edges/remove_edges calls (graph attach_stats) */         \
  X(delta_edges)          /* overlay edges appended */                                      \
  X(tombstoned_edges)     /* edges tombstoned by remove_edges */

namespace dpg::ampp {

/// Aggregate transport statistics. All counters are cumulative over the
/// transport's lifetime.
struct transport_stats {
#define DPG_X(name) std::atomic<std::uint64_t> name{0};
  DPG_TRANSPORT_COUNTERS(DPG_X)
#undef DPG_X

  /// Plain-value snapshot; obs::stats_scope takes deltas of these.
  struct snapshot {
#define DPG_X(name) std::uint64_t name = 0;
    DPG_TRANSPORT_COUNTERS(DPG_X)
#undef DPG_X

    snapshot operator-(const snapshot& o) const {
      snapshot d;
#define DPG_X(name) d.name = name - o.name;
      DPG_TRANSPORT_COUNTERS(DPG_X)
#undef DPG_X
      return d;
    }
    snapshot operator+(const snapshot& o) const {
      snapshot d;
#define DPG_X(name) d.name = name + o.name;
      DPG_TRANSPORT_COUNTERS(DPG_X)
#undef DPG_X
      return d;
    }
  };

  snapshot snap() const {
    snapshot s;
#define DPG_X(name) s.name = name.load();
    DPG_TRANSPORT_COUNTERS(DPG_X)
#undef DPG_X
    return s;
  }
};

}  // namespace dpg::ampp
