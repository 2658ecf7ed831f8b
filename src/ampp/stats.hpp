// Cumulative core runtime counters — the *internal backing store* of the
// observability layer (message counts for the Fig. 5/6 plan ablation,
// cache hit rates for the AM++ caching claim, termination-detection rounds
// for the epoch-overhead experiment).
//
// The public measurement API is obs::registry (reached via
// transport::obs()): per-message-type and per-epoch attribution, snapshots,
// and the RAII obs::stats_scope. Manual snapshot-and-subtract through
// snap() is DEPRECATED in favour of obs::stats_scope; snap() remains for
// the runtime's own bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>

namespace dpg::ampp {

/// Aggregate transport statistics. All counters are cumulative over the
/// transport's lifetime; callers snapshot-and-subtract to measure a region.
struct transport_stats {
  std::atomic<std::uint64_t> messages_sent{0};      ///< user payloads enqueued to a remote inbox
  /// Compiled relax/scatter/fused records committed in place by the rank
  /// that generated them, because it owns their target: never sent, so
  /// not in messages_sent. Bumped once per application by the pattern
  /// layer's owner-local apply.
  std::atomic<std::uint64_t> local_applies{0};
  std::atomic<std::uint64_t> envelopes_sent{0};     ///< coalesced buffers delivered
  std::atomic<std::uint64_t> bytes_sent{0};         ///< logical payload bytes delivered
  std::atomic<std::uint64_t> wire_bytes_sent{0};    ///< envelope bytes on the wire (<= bytes_sent; compact layouts truncate)
  std::atomic<std::uint64_t> handler_invocations{0};///< user handler calls
  std::atomic<std::uint64_t> self_deliveries{0};    ///< payloads whose destination was the sender
  std::atomic<std::uint64_t> cache_hits{0};         ///< sends absorbed by a reduction cache or scatter accumulator
  std::atomic<std::uint64_t> cache_evictions{0};    ///< cache slots spilled to the wire
  std::atomic<std::uint64_t> td_rounds{0};          ///< termination-detection rounds completed
  std::atomic<std::uint64_t> barriers{0};           ///< barrier operations completed
  std::atomic<std::uint64_t> epochs{0};             ///< epochs ended
  std::atomic<std::uint64_t> control_messages{0};   ///< internal control-plane payloads
  // Fault-injection counters (zero unless a fault_plan is active). At
  // quiescence: envelopes_dropped == envelopes_retried and
  // envelopes_duplicated == duplicates_suppressed — the reliability layer's
  // conservation laws, asserted by the sim harness.
  std::atomic<std::uint64_t> envelopes_dropped{0};    ///< transmissions lost by the fault plan
  std::atomic<std::uint64_t> envelopes_retried{0};    ///< retransmissions after an ack timeout
  std::atomic<std::uint64_t> envelopes_duplicated{0}; ///< extra copies injected on the wire
  std::atomic<std::uint64_t> envelopes_delayed{0};    ///< envelopes held back N progress ticks
  std::atomic<std::uint64_t> duplicates_suppressed{0};///< copies absorbed by the dedup window
  // Flush/quiescence hot-path counters. Conservation laws (asserted by the
  // sim harness): envelopes_sent <= flush_lane_visits (every envelope comes
  // out of a visited lane) and pool_reuses <= envelopes_sent (every reuse
  // built one envelope).
  std::atomic<std::uint64_t> flush_lane_visits{0};    ///< lanes locked by a flush (incl. capacity flushes)
  std::atomic<std::uint64_t> flush_lane_skips{0};     ///< lanes a flush skipped via occupancy/dirty tracking
  std::atomic<std::uint64_t> pool_reuses{0};          ///< envelope byte buffers recycled from the pool
  // Envelope-loop counters (bumped by the pattern layer's whole-envelope
  // dispatch of fast records; zero when no such loop is installed).
  // Conservation law (asserted by the sim harness): batch_records <=
  // handler_invocations — every batched record is also counted as a
  // handled payload.
  std::atomic<std::uint64_t> batch_records{0};      ///< fast records processed by envelope loops
  std::atomic<std::uint64_t> batch_kernels_run{0};  ///< envelope-loop invocations
  // Topology-mutation counters (bumped by distributed_graph::apply_edges /
  // remove_edges when a graph is attached via attach_stats; mutation
  // happens outside epochs, so these appear in the summary's totals row,
  // not per-epoch).
  std::atomic<std::uint64_t> graph_mutations{0};      ///< apply_edges/remove_edges calls observed
  std::atomic<std::uint64_t> delta_edges{0};          ///< overlay edges appended
  std::atomic<std::uint64_t> tombstoned_edges{0};     ///< edges tombstoned by remove_edges

  /// Plain-value snapshot. Manual snapshot-and-subtract in tests/benches is
  /// deprecated — use obs::stats_scope, which also captures per-type deltas.
  struct snapshot {
    std::uint64_t messages_sent, local_applies, envelopes_sent, bytes_sent, wire_bytes_sent,
        handler_invocations,
        self_deliveries, cache_hits, cache_evictions, td_rounds, barriers, epochs,
        control_messages, envelopes_dropped, envelopes_retried, envelopes_duplicated,
        envelopes_delayed, duplicates_suppressed, flush_lane_visits, flush_lane_skips,
        pool_reuses, batch_records, batch_kernels_run, graph_mutations, delta_edges,
        tombstoned_edges;

    snapshot operator-(const snapshot& o) const {
      return {messages_sent - o.messages_sent,
              local_applies - o.local_applies,
              envelopes_sent - o.envelopes_sent,
              bytes_sent - o.bytes_sent,
              wire_bytes_sent - o.wire_bytes_sent,
              handler_invocations - o.handler_invocations,
              self_deliveries - o.self_deliveries,
              cache_hits - o.cache_hits,
              cache_evictions - o.cache_evictions,
              td_rounds - o.td_rounds,
              barriers - o.barriers,
              epochs - o.epochs,
              control_messages - o.control_messages,
              envelopes_dropped - o.envelopes_dropped,
              envelopes_retried - o.envelopes_retried,
              envelopes_duplicated - o.envelopes_duplicated,
              envelopes_delayed - o.envelopes_delayed,
              duplicates_suppressed - o.duplicates_suppressed,
              flush_lane_visits - o.flush_lane_visits,
              flush_lane_skips - o.flush_lane_skips,
              pool_reuses - o.pool_reuses,
              batch_records - o.batch_records,
              batch_kernels_run - o.batch_kernels_run,
              graph_mutations - o.graph_mutations,
              delta_edges - o.delta_edges,
              tombstoned_edges - o.tombstoned_edges};
    }

    snapshot operator+(const snapshot& o) const {
      return {messages_sent + o.messages_sent,
              local_applies + o.local_applies,
              envelopes_sent + o.envelopes_sent,
              bytes_sent + o.bytes_sent,
              wire_bytes_sent + o.wire_bytes_sent,
              handler_invocations + o.handler_invocations,
              self_deliveries + o.self_deliveries,
              cache_hits + o.cache_hits,
              cache_evictions + o.cache_evictions,
              td_rounds + o.td_rounds,
              barriers + o.barriers,
              epochs + o.epochs,
              control_messages + o.control_messages,
              envelopes_dropped + o.envelopes_dropped,
              envelopes_retried + o.envelopes_retried,
              envelopes_duplicated + o.envelopes_duplicated,
              envelopes_delayed + o.envelopes_delayed,
              duplicates_suppressed + o.duplicates_suppressed,
              flush_lane_visits + o.flush_lane_visits,
              flush_lane_skips + o.flush_lane_skips,
              pool_reuses + o.pool_reuses,
              batch_records + o.batch_records,
              batch_kernels_run + o.batch_kernels_run,
              graph_mutations + o.graph_mutations,
              delta_edges + o.delta_edges,
              tombstoned_edges + o.tombstoned_edges};
    }
  };

  snapshot snap() const {
    return {messages_sent.load(), local_applies.load(), envelopes_sent.load(), bytes_sent.load(),
            wire_bytes_sent.load(), handler_invocations.load(), self_deliveries.load(), cache_hits.load(),
            cache_evictions.load(), td_rounds.load(), barriers.load(), epochs.load(),
            control_messages.load(), envelopes_dropped.load(), envelopes_retried.load(),
            envelopes_duplicated.load(), envelopes_delayed.load(),
            duplicates_suppressed.load(), flush_lane_visits.load(), flush_lane_skips.load(),
            pool_reuses.load(), batch_records.load(), batch_kernels_run.load(),
            graph_mutations.load(), delta_edges.load(), tombstoned_edges.load()};
  }
};

}  // namespace dpg::ampp
