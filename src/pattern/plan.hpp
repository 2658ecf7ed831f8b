// The plan core: the one runtime analysis both front ends lower onto.
//
// The EDSL (instantiated_action::build, fed by plan_builder) and the text
// analyzer (pattern::text::analyze, fed by its AST) each describe an
// action as a list of gather reads — where each read's index resolves, the
// arena slot it fills, the header fields its index touches, and who
// consumes the slot — plus the modification locality. plan_gather turns
// that description into the synthesized communication: which hop each
// read runs on (§IV-A, Def. 2), whether the final evaluate+modify merges
// into the last hop (Fig. 6), the locality labels, and which bytes of
// gather_state ride each wire. The compiled-record eligibility rules live
// here too, so the two front ends cannot disagree on a plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ampp/transport.hpp"

namespace dpg::pattern {

enum class home_kind : std::uint8_t { at_v, at_gen, chase };

/// Runtime identity of a locality (Definition 1, classified): the input
/// vertex, the far end of the generated edge / the generated vertex, or a
/// pointer chase — the value of a gathered vertex read, identified by the
/// arena slot that read fills.
struct home_id {
  home_kind kind = home_kind::at_v;
  std::size_t chase_slot = 0;  ///< arena offset of the chased vertex (chase only)

  friend bool operator==(const home_id&, const home_id&) = default;
};

/// What the generator yields, as far as localities are concerned: the
/// at_gen home is trg(e) for out-edges, src(e) for in-edges, else u.
enum class gen_kind : std::uint8_t { none, out_edges, in_edges, vertices };

/// One gather read as the plan analysis sees it.
struct read_info {
  home_id home;
  bool pinned = false;  ///< must be gathered early even if homed at the
                        ///< modification locality (it feeds a chase index)
  std::size_t arena_offset = 0;
  std::size_t size = 0;    ///< bytes the value occupies in the arena
  unsigned idx_needs = 0;  ///< header fields the index expression touches
};

/// One recorded consumption of an arena slot: `step` is the index of the
/// read whose index expression consumed it, or -1 when the consumer is the
/// final condition/modification evaluation. The wire-layout pass drops a
/// slot from every hop transition past its last consumer.
struct slot_use {
  std::size_t offset = 0;
  int step = -1;
};

/// The locality rule of every compiled record (relax, scatter, claim): the
/// target's owner is computable from the generator state alone (its index
/// is not a pointer chase), and the record's value reads only at the
/// invocation vertex — and reads nothing at all when the target is v
/// itself, since those reads would be the general plan's synchronized
/// final reads, which the compiled kernel must mirror bit-for-bit.
constexpr bool record_locality_ok(home_kind target, bool value_reads_only_at_v,
                                  bool value_reads) {
  return target != home_kind::chase && value_reads_only_at_v &&
         (target == home_kind::at_gen || !value_reads);
}

/// The sender-side reduction rides a compiled record's wire lane, so it
/// needs the record engaged, a lane (a merged, fully local record has
/// none), and a rule that makes folding sound.
constexpr bool sender_reduces(bool fast, bool merged, bool rule) {
  return fast && !merged && rule;
}

/// Shape of the synthesized communication, exposed for tests/benchmarks
/// (this is the observable form of Figs. 5 and 6).
struct plan_info {
  int gather_hops = 0;       ///< hops of the gather chain (hop 0 = invocation site)
  bool final_merged = false; ///< evaluate+modify merged into the last gather hop
  bool atomic_path = false;  ///< single-value compare-and-update via atomics
  int final_reads = 0;       ///< reads deferred to the (synchronized) final hop
  std::size_t arena_bytes = 0;  ///< gathered payload bytes
  int conditions = 0;           ///< arms of the if/else-if chain
  bool has_dependencies = false;  ///< §IV-C: some modification creates work items
  /// Human-readable locality of each gather hop, then of the final hop,
  /// e.g. {"v", "chase"} + "v" for the cc_jump chase.
  std::vector<std::string> hop_localities;
  std::vector<int> hop_reads;  ///< gather reads performed per hop
  std::string final_locality;
  /// Single-locality kernel engaged: the relax kernel when atomic_path is
  /// set (compare-and-update), the claim kernel when claim is set, else the
  /// unconditional scatter kernel.
  bool fast_path = false;
  bool claim = false;  ///< the fast kernel is CC's two-arm claim record
  /// Sender-side reduction on the fast lane: a combining cache for relax,
  /// exact-repeat suppression for claim, per-target sums for an `add`
  /// scatter.
  bool fast_reduction = false;
  std::size_t cse_hits = 0;  ///< duplicate reads sharing one arena slot
  /// Bytes each synthesized message carries on the wire, in send order:
  /// gather wires first (into hop 1, hop 2, …), then the evaluate message
  /// when the final stage is not merged. Empty for fully local actions.
  std::vector<std::size_t> wire_bytes;

  int messages_per_application() const {
    // Messages one application generates per generated item: one per hop
    // transition (hop 0 is local), plus the final evaluate unless merged.
    return (gather_hops - 1) + (final_merged ? 0 : 1);
  }
};

/// Renders a plan as text — the reproduction of the paper's Figs. 5/6 as
/// an inspectable artifact (what the authors' planned translator would
/// print about the communication it generates).
std::string explain(const std::string& action_name, const plan_info& p);

/// A front end's description of one action, in registration order.
struct plan_request {
  gen_kind gen = gen_kind::none;
  std::vector<read_info> reads;
  std::vector<slot_use> uses;
  home_id ml;                ///< the modification locality
  unsigned final_needs = 0;  ///< header fields the conditions and modifications touch
};

/// The analysis result. `info` holds the hop structure, the labels, the
/// final-read count and the arena size; the front end adds what only it
/// knows (conditions, dependencies, CSE, the kernel choice) and then calls
/// report_wires.
struct gather_plan {
  static constexpr std::size_t final_stage = static_cast<std::size_t>(-1);

  plan_info info;
  std::vector<home_id> hops;        ///< home of each gather hop; hops[0] is v
  std::vector<std::size_t> hop_of;  ///< per read: its gather hop, or final_stage
  /// Compact layout per synthesized message: gather wires in hop order,
  /// then the evaluate wire when the final stage is not merged.
  std::vector<std::vector<ampp::wire_range>> wires;

  /// Fills info.wire_bytes: one `record_bytes` record for a compiled
  /// kernel (none when it is merged at v), else each wire's compact layout.
  void report_wires(bool fast, std::size_t record_bytes);
};

/// Partitions the reads into gather hops and final (synchronized) reads,
/// labels the localities, and computes each wire's live bytes: the header
/// fields some later stage needs plus the arena slots written at or before
/// the sending hop and consumed strictly after it.
gather_plan plan_gather(const plan_request& req);

}  // namespace dpg::pattern
