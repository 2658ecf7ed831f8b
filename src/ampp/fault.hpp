// Deterministic fault injection. A `fault_plan` is a seeded list of rules;
// each rule matches envelopes by (source rank, destination rank, message-type
// name prefix) and gives per-envelope probabilities for four faults, which
// the fault decorator (fault.cpp) injects above any delivery backend:
//
//   * reorder   — on arrival the envelope is inserted at a drawn position of
//                 the destination inbox instead of the back;
//   * duplicate — a second copy is sent; the arrival-side dedup window
//                 (per-(src, dest) sequence numbers) suppresses it;
//   * delay     — the envelope is held at the sender for `delay_flushes`
//                 progress ticks;
//   * drop      — the transmission is lost; the ack timeout fires after
//                 `retry_timeout_flushes << drops` ticks and the envelope is
//                 retransmitted. `max_drops` bounds the adversary, so
//                 delivery is eventual and epochs terminate.
//
// Every decision is a pure function of (plan seed ^ transport seed, fault
// stage, src, dest, msg type, sequence number, attempt) — no hidden RNG
// state — so a single-rank run replays exactly. See docs/runtime.md
// "Fault injection".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ampp/types.hpp"
#include "util/rng.hpp"

namespace dpg::ampp {

/// Decision site inside the transmission pipeline; part of the hash input
/// so the four coins of one envelope are independent.
enum class fault_stage : std::uint64_t {
  reorder = 1,
  duplicate = 2,
  delay = 3,
  drop = 4,
  placement = 5,  ///< inbox position draw for a reordered envelope
};

/// One fault-injection rule: matchers plus per-envelope probabilities.
struct fault_rule {
  // ---- matchers (disengaged / empty = wildcard) ---------------------------
  std::optional<rank_t> src{};   ///< only envelopes sent by this rank
  std::optional<rank_t> dest{};  ///< only envelopes addressed to this rank
  std::string type_prefix{};     ///< message-type name prefix ("" = every type,
                                 ///< "dpg." = the control plane)

  // ---- per-envelope fault probabilities in [0, 1] -------------------------
  double reorder = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double drop = 0.0;

  // ---- knobs --------------------------------------------------------------
  /// Progress ticks a delayed envelope is held before release.
  unsigned delay_flushes = 3;
  /// Base ack-timeout in progress ticks; retransmission n waits
  /// `retry_timeout_flushes << n` ticks (exponential backoff).
  unsigned retry_timeout_flushes = 2;
  /// Adversary budget: one envelope is dropped at most this many times,
  /// guaranteeing eventual delivery (and hence epoch termination).
  unsigned max_drops = 4;

  bool matches(rank_t s, rank_t d, std::string_view type) const {
    if (src.has_value() && *src != s) return false;
    if (dest.has_value() && *dest != d) return false;
    if (!type_prefix.empty() &&
        std::string_view(type).substr(0, type_prefix.size()) != type_prefix)
      return false;
    return true;
  }
};

namespace detail {

/// Stateless mix of every coordinate of one fault decision.
inline std::uint64_t fault_mix(std::uint64_t seed, fault_stage st, rank_t src, rank_t dest,
                               msg_type_id type, std::uint64_t seq,
                               std::uint64_t attempt) noexcept {
  std::uint64_t h = splitmix64(seed ^ 0xfa017ULL).next();
  const std::uint64_t words[5] = {static_cast<std::uint64_t>(st),
                                  (static_cast<std::uint64_t>(src) << 32) | dest,
                                  static_cast<std::uint64_t>(type), seq, attempt};
  for (const std::uint64_t w : words) h = splitmix64(h ^ (w + 0x9e3779b97f4a7c15ULL)).next();
  return h;
}

}  // namespace detail

/// A seeded, deterministic fault-injection plan. A default-constructed plan
/// is inactive: no decorator is installed.
class fault_plan {
 public:
  /// Mixed with the transport's own seed; two transports with equal
  /// configuration make identical fault decisions.
  std::uint64_t seed = 0;
  /// First matching rule wins; no match = the envelope is delivered cleanly.
  std::vector<fault_rule> rules;

  bool active() const noexcept { return !rules.empty(); }

  const fault_rule* match(rank_t src, rank_t dest, std::string_view type) const {
    for (const fault_rule& r : rules)
      if (r.matches(src, dest, type)) return &r;
    return nullptr;
  }

  /// Deterministic coin with probability `p`.
  static bool decide(double p, std::uint64_t seed, fault_stage st, rank_t src, rank_t dest,
                     msg_type_id type, std::uint64_t seq, std::uint64_t attempt) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return detail::fault_mix(seed, st, src, dest, type, seq, attempt) <
           static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
  }

  /// Deterministic uniform draw (for the reorder placement index).
  static std::uint64_t draw(std::uint64_t seed, fault_stage st, rank_t src, rank_t dest,
                            msg_type_id type, std::uint64_t seq,
                            std::uint64_t attempt) noexcept {
    return detail::fault_mix(seed, st, src, dest, type, seq, attempt);
  }

  // ---- canned plans (the sim harness sweeps these) ------------------------

  /// No faults.
  static fault_plan none() { return {}; }

  /// Pure adversarial reordering.
  static fault_plan scramble(std::uint64_t seed) { return {seed, {{.reorder = 1.0}}}; }

  /// Reordering plus heavy loss: every lane drops ~30% of transmissions.
  static fault_plan lossy(std::uint64_t seed, double drop = 0.3) {
    return {seed, {{.reorder = 0.25, .drop = drop}}};
  }

  /// Everything at once: reorder, duplicate, delay, and drop.
  static fault_plan chaos(std::uint64_t seed) {
    return {seed, {{.reorder = 0.5, .duplicate = 0.25, .delay = 0.25, .drop = 0.25}}};
  }

  /// Faults aimed only at the control plane (termination detection and
  /// collectives, message types named "dpg.*") — data traffic is clean.
  static fault_plan control_chaos(std::uint64_t seed) {
    return {seed,
            {{.type_prefix = "dpg.", .reorder = 1.0, .duplicate = 0.25, .delay = 0.2,
              .drop = 0.25}}};
  }
};

}  // namespace dpg::ampp
