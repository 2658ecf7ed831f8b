// Shared plumbing for the deterministic fault-injection simulator suite.
//
// The seed-sweep tests run every algorithm across a grid of
//
//     fault plans  x  rank counts  x  sweep seeds
//
// and compare the results against the sequential baselines. Every fault
// decision in the transport is a pure function of the seeds wired up here,
// so any failure reproduces exactly from the seed printed by repro() —
// rerun a single point of the grid with e.g.
//
//     DPG_SIM_SEEDS=5 ctest -L sim --output-on-failure
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "ampp/transport.hpp"
#include "util/rng.hpp"

namespace dpg::sim {

/// A named fault-plan factory; the sweep instantiates the plan per seed so
/// every grid point gets an independent fault pattern.
struct plan_spec {
  const char* name;
  ampp::fault_plan (*make)(std::uint64_t seed);
};

/// The canned plans the CI sweep exercises (ISSUE 2 asks for >= 3).
inline const std::vector<plan_spec>& fault_plans() {
  static const std::vector<plan_spec> specs = {
      {"scramble", [](std::uint64_t s) { return ampp::fault_plan::scramble(s); }},
      {"lossy", [](std::uint64_t s) { return ampp::fault_plan::lossy(s); }},
      {"chaos", [](std::uint64_t s) { return ampp::fault_plan::chaos(s); }},
      {"control_chaos",
       [](std::uint64_t s) { return ampp::fault_plan::control_chaos(s); }},
  };
  return specs;
}

/// Seeds to sweep: eight by default, overridable with a comma-separated
/// DPG_SIM_SEEDS (the reproduction knob printed on failure).
inline std::vector<std::uint64_t> sweep_seeds() {
  if (const char* env = std::getenv("DPG_SIM_SEEDS")) {
    std::vector<std::uint64_t> seeds;
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
    if (!seeds.empty()) return seeds;
  }
  return {1, 2, 3, 4, 5, 6, 7, 8};
}

/// One line identifying a grid point, attached via SCOPED_TRACE so every
/// assertion failure carries its reproducing seed.
inline std::string repro(const char* algo, const char* plan, ampp::rank_t ranks,
                         std::uint64_t seed) {
  std::ostringstream os;
  os << "algo=" << algo << " plan=" << plan << " ranks=" << static_cast<unsigned>(ranks)
     << " seed=" << seed << "  (reproduce: DPG_SIM_SEEDS=" << seed << ")";
  return os.str();
}

/// Transport configuration for one grid point. The graph, the plan, and the
/// transport draw from disjoint substreams of the sweep seed so changing
/// one never perturbs the others.
inline ampp::transport_config sim_config(ampp::rank_t ranks, std::uint64_t seed,
                                         const plan_spec& ps,
                                         std::size_t coalescing = 8,
                                         unsigned handler_threads = 0) {
  return ampp::transport_config{.n_ranks = ranks,
                                .coalescing_size = coalescing,
                                .seed = substream_seed(seed, 3),
                                .faults = ps.make(substream_seed(seed, 2)),
                                .handler_threads = handler_threads};
}

/// The conservation laws every quiescent faulty run must satisfy: all
/// payloads sent were dispatched exactly once, every drop was recovered by
/// a retry, every injected duplicate was suppressed by the dedup window,
/// and the per-type rows still sum to the core totals. The flush hot-path
/// counters obey their own laws: every envelope is built out of a lane the
/// flush actually visited, and every pooled-buffer reuse built exactly one
/// envelope.
inline void assert_fault_consistency(const obs::stats_snapshot& s) {
  EXPECT_EQ(s.core.messages_sent, s.core.handler_invocations);
  EXPECT_EQ(s.core.envelopes_dropped, s.core.envelopes_retried);
  EXPECT_EQ(s.core.envelopes_duplicated, s.core.duplicates_suppressed);
  EXPECT_LE(s.core.envelopes_sent, s.core.flush_lane_visits);
  EXPECT_LE(s.core.pool_reuses, s.core.envelopes_sent);
  // Every record an envelope loop consumed was also counted as a handled
  // payload (batch dispatch replaces the per-record calls, not the
  // envelope-level accounting).
  EXPECT_LE(s.core.batch_records, s.core.handler_invocations);
  EXPECT_LE(s.core.batch_kernels_run, s.core.batch_records);
  std::uint64_t sent = 0, handled = 0;
  std::uint64_t envs = 0, wire = 0, bytes = 0;
  for (const obs::type_counters& t : s.per_type) {
    // Wire accounting covers every type, control plane included: each
    // envelope flush records exactly one (envelope, wire_bytes) pair, and
    // no type's wire traffic can exceed its envelope count times its
    // largest single envelope.
    envs += t.envelopes;
    wire += t.wire_bytes;
    bytes += t.bytes;
    EXPECT_LE(t.wire_bytes, t.envelopes * t.max_env_bytes) << "type " << t.name;
    if (t.internal) continue;
    sent += t.sent;
    handled += t.handled;
    EXPECT_EQ(t.sent, t.handled) << "type " << t.name;
  }
  EXPECT_EQ(sent, s.core.messages_sent);
  EXPECT_EQ(handled, s.core.handler_invocations);
  EXPECT_EQ(envs, s.core.envelopes_sent);
  EXPECT_EQ(wire, s.core.wire_bytes_sent);
  EXPECT_EQ(bytes, s.core.bytes_sent);
  // Compact wire layouts truncate — they never pad.
  EXPECT_LE(s.core.wire_bytes_sent, s.core.bytes_sent);
}

/// Occupancy-counter conservation: after a quiescent run, every O(1)
/// per-(type,rank) occupancy counter must equal a brute-force recount of
/// buffered payloads + used reduction slots under the lane locks, so
/// `rank_buffers_empty` (a counter read) agrees with scanning — under every
/// fault plan, not just clean runs.
inline void assert_occupancy_conserved(const ampp::transport& tp) {
  EXPECT_TRUE(tp.occupancy_consistent())
      << "occupancy counters drifted from lane contents";
}

/// How many countable fault events a run injected (reorders are invisible
/// to the counters; drops, duplicates and delays are not). The sweeps sum
/// this across the grid to prove the plans actually fired.
inline std::uint64_t fault_events(const obs::stats_snapshot& s) {
  return s.core.envelopes_dropped + s.core.envelopes_duplicated +
         s.core.envelopes_delayed;
}

}  // namespace dpg::sim
