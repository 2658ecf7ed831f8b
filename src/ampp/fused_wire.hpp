// Wire-format packing for fused message families (multi-pattern fusion).
//
// When N single-locality relax patterns over one graph share a generator
// and target-locality shape, their per-edge candidates can travel in one
// record: the shared addressing field (the target vertex every member
// routes by) is sent once, and each member contributes one 8-byte live
// slot. This header owns the layout arithmetic — slot offsets, record
// size, and the byte comparison against the members' own records — so the
// pattern-side fusion pass and the explain output agree on one source of
// truth for what the fused wire carries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dpg::ampp {

/// One member pattern's live slot inside a fused record.
struct fused_slot {
  std::string member;           ///< member action name, e.g. "sssp.relax"
  std::size_t offset = 0;       ///< byte offset of the slot in the fused record
  std::size_t bytes = 0;        ///< slot width (8 for every atomic-capable value)
  std::size_t member_bytes = 0; ///< bytes of the member's own relax record (its plan's)
  std::string update;           ///< value kind + direction, e.g. "f64 min-update"
};

/// The packed layout of one fused message family: a shared addressing
/// prefix followed by the members' live slots, in member order.
struct fused_layout {
  std::size_t addressing_bytes = 0;  ///< shared routing prefix (target vertex)
  std::size_t record_bytes = 0;      ///< addressing + all live slots, no padding
  std::vector<fused_slot> slots;

  /// Bytes the same candidates would cost as separate per-member records
  /// (each repeating the addressing field the fused record shares).
  std::size_t separate_bytes() const {
    std::size_t b = 0;
    for (const fused_slot& s : slots) b += s.member_bytes;
    return b;
  }

  /// The satellite-facing rendering: shared addressing bytes, per-member
  /// live slots, and the per-hop fused payload vs its separate-record sum.
  std::string describe(const std::string& family) const {
    std::string out;
    out += "fused family " + family + ":\n";
    out += "  members: " + std::to_string(slots.size()) +
           " single-locality relax patterns, one generator shape\n";
    out += "  shared addressing: " + std::to_string(addressing_bytes) +
           "B (target vertex, sent once per record)\n";
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const fused_slot& s = slots[i];
      out += "  member " + std::to_string(i) + " " + s.member + ": live slot @" +
             std::to_string(s.offset) + "B +" + std::to_string(s.bytes) + "B " +
             s.update + " (own record " + std::to_string(s.member_bytes) + "B)\n";
    }
    out += "  per-hop fused payload: " + std::to_string(record_bytes) + "B (vs " +
           std::to_string(separate_bytes()) + "B as separate records)\n";
    return out;
  }
};

/// Packs member slots after the shared addressing prefix, in declaration
/// order, with no padding (every slot is 8 bytes, the prefix is 8 bytes).
/// The caller supplies slots with `bytes`, `member_bytes`, `member`, and
/// `update` filled in; offsets and totals come back computed.
inline fused_layout pack_fused_layout(std::size_t addressing_bytes,
                                      std::vector<fused_slot> slots) {
  fused_layout l;
  l.addressing_bytes = addressing_bytes;
  std::size_t at = addressing_bytes;
  for (fused_slot& s : slots) {
    s.offset = at;
    at += s.bytes;
  }
  l.record_bytes = at;
  l.slots = std::move(slots);
  return l;
}

}  // namespace dpg::ampp
