#include "pattern/plan.hpp"

#include <algorithm>

#include "pattern/expr.hpp"

namespace dpg::pattern {

namespace {

std::string home_label(const home_id& h, gen_kind gen) {
  switch (h.kind) {
    case home_kind::at_v: return "v";
    case home_kind::at_gen:
      if (gen == gen_kind::out_edges) return "trg(e)";
      if (gen == gen_kind::in_edges) return "src(e)";
      return "u";
    case home_kind::chase: return "chase";  // the value of a gathered vertex read
  }
  return "?";
}

/// Header fields the destination of a hop at `h` needs for its address map.
unsigned addr_mask(const home_id& h, gen_kind gen) {
  switch (h.kind) {
    case home_kind::at_v: return hdr_v;
    case home_kind::at_gen:
      if (gen == gen_kind::out_edges) return hdr_e_dst;
      if (gen == gen_kind::in_edges) return hdr_e_src;
      return hdr_u;
    case home_kind::chase: return 0;  // destination comes from an arena slot, charged as a use
  }
  return 0;
}

/// Byte ranges of gather_state covering the header fields in `mask`.
std::vector<ampp::wire_range> mask_ranges(unsigned mask) {
  std::vector<ampp::wire_range> r;
  const auto add = [&r](std::size_t ofs, std::size_t len) {
    r.push_back(ampp::wire_range{static_cast<std::uint32_t>(ofs),
                                 static_cast<std::uint32_t>(len)});
  };
  if (mask & hdr_v) add(offsetof(gather_state, v), sizeof(graph::vertex_id));
  if (mask & hdr_e_src)
    add(offsetof(gather_state, e) + offsetof(graph::edge_handle, src), sizeof(graph::vertex_id));
  if (mask & hdr_e_dst)
    add(offsetof(gather_state, e) + offsetof(graph::edge_handle, dst), sizeof(graph::vertex_id));
  if (mask & hdr_e_id)
    add(offsetof(gather_state, e) + offsetof(graph::edge_handle, eid),
        sizeof(graph::edge_handle) - offsetof(graph::edge_handle, eid));
  if (mask & hdr_u) add(offsetof(gather_state, u), sizeof(graph::vertex_id));
  return r;
}

}  // namespace

gather_plan plan_gather(const plan_request& req) {
  gather_plan out;
  plan_info& info = out.info;

  // Hop partition: reads homed at the modification locality run in the
  // final, synchronized stage unless pinned; the rest group by home into
  // gather hops in order of first registration, starting at v.
  out.hops.push_back(home_id{});
  info.hop_localities.push_back("v");
  info.hop_reads.push_back(0);
  for (const read_info& r : req.reads) {
    info.arena_bytes = std::max(info.arena_bytes, r.arena_offset + r.size);
    if (r.home == req.ml && !r.pinned) {
      ++info.final_reads;
      out.hop_of.push_back(gather_plan::final_stage);
      continue;
    }
    const auto it = std::find(out.hops.begin(), out.hops.end(), r.home);
    const auto hop = static_cast<std::size_t>(it - out.hops.begin());
    if (it == out.hops.end()) {
      out.hops.push_back(r.home);
      info.hop_localities.push_back(home_label(r.home, req.gen));
      info.hop_reads.push_back(0);
    }
    ++info.hop_reads[hop];
    out.hop_of.push_back(hop);
  }
  const std::size_t H = out.hops.size();
  info.gather_hops = static_cast<int>(H);
  info.final_locality = home_label(req.ml, req.gen);
  info.final_merged = out.hops.back() == req.ml;

  // Positions: hops 0..H-1, then the final stage (H, or H-1 when merged).
  const std::size_t final_pos = info.final_merged ? H - 1 : H;
  const auto pos_of = [&](std::size_t step) {
    return out.hop_of[step] == gather_plan::final_stage ? final_pos : out.hop_of[step];
  };

  // Header-field needs per position. Address maps evaluate at the sending
  // side: hop k's destination is computed at hop k-1, the final message's
  // at the last hop; the final stage itself re-derives the modification
  // locality (lock guard, work hook).
  std::vector<unsigned> pos_needs(H + 1, 0u);
  pos_needs[final_pos] |= req.final_needs;
  for (std::size_t i = 0; i < req.reads.size(); ++i) pos_needs[pos_of(i)] |= req.reads[i].idx_needs;
  for (std::size_t k = 1; k < H; ++k) pos_needs[k - 1] |= addr_mask(out.hops[k], req.gen);
  if (!info.final_merged) pos_needs[H - 1] |= addr_mask(req.ml, req.gen);
  pos_needs[final_pos] |= addr_mask(req.ml, req.gen);

  // Arena-slot liveness: written at the performing hop, live until the
  // last recorded consumption.
  std::vector<std::size_t> last_use;
  for (std::size_t i = 0; i < req.reads.size(); ++i) last_use.push_back(pos_of(i));
  for (const slot_use& u : req.uses) {
    const std::size_t p = u.step < 0 ? final_pos : pos_of(static_cast<std::size_t>(u.step));
    for (std::size_t i = 0; i < req.reads.size(); ++i)
      if (req.reads[i].arena_offset == u.offset) last_use[i] = std::max(last_use[i], p);
  }

  const std::size_t wires = (H - 1) + (info.final_merged ? 0 : 1);
  for (std::size_t w = 0; w < wires; ++w) {
    unsigned hdr = 0;
    for (std::size_t p = w + 1; p < pos_needs.size(); ++p) hdr |= pos_needs[p];
    std::vector<ampp::wire_range> ranges = mask_ranges(hdr);
    for (std::size_t i = 0; i < req.reads.size(); ++i)
      if (pos_of(i) <= w && last_use[i] > w)
        ranges.push_back(ampp::wire_range{
            static_cast<std::uint32_t>(offsetof(gather_state, arena) + req.reads[i].arena_offset),
            static_cast<std::uint32_t>(req.reads[i].size)});
    std::sort(ranges.begin(), ranges.end(),
              [](const ampp::wire_range& a, const ampp::wire_range& b) {
                return a.offset < b.offset;
              });
    // Coalesce contiguous ranges: fewer memcpys per payload at flush.
    std::vector<ampp::wire_range> merged;
    for (const auto& r : ranges) {
      if (!merged.empty() && merged.back().offset + merged.back().len == r.offset)
        merged.back().len += r.len;
      else
        merged.push_back(r);
    }
    out.wires.push_back(std::move(merged));
  }
  return out;
}

void gather_plan::report_wires(bool fast, std::size_t record_bytes) {
  info.wire_bytes.clear();
  if (fast) {
    if (!info.final_merged) info.wire_bytes.push_back(record_bytes);
    return;
  }
  for (const auto& layout : wires) {
    std::size_t b = 0;
    for (const auto& r : layout) b += r.len;
    info.wire_bytes.push_back(b);
  }
}

std::string explain(const std::string& action_name, const plan_info& p) {
  std::string out;
  out += "action " + action_name + ":\n";
  for (std::size_t k = 0; k < p.hop_localities.size(); ++k) {
    out += "  hop " + std::to_string(k) + " at " + p.hop_localities[k];
    out += k == 0 ? " (invocation site)" : " (gather message)";
    out += ": " + std::to_string(p.hop_reads[k]) + " read(s)\n";
  }
  out += "  final at " + p.final_locality;
  if (p.final_merged)
    out += " (merged into the last gather hop)";
  else
    out += " (evaluate+modify message)";
  out += ": " + std::to_string(p.final_reads) + " synchronized read(s), " +
         std::to_string(p.conditions) + " condition(s)\n";
  out += std::string("  synchronization: ") +
         (p.atomic_path ? "atomic compare-and-update"
          : p.claim     ? "atomic claim from the sentinel, lock map on collision"
                        : "lock map") +
         "\n";
  out += "  dependencies: " + std::string(p.has_dependencies ? "yes (work hook fires)"
                                                             : "none") + "\n";
  out += "  messages per application: " + std::to_string(p.messages_per_application()) +
         ", payload arena: " + std::to_string(p.arena_bytes) + " bytes\n";
  out += "  compiled wire payloads:";
  if (p.wire_bytes.empty()) {
    out += " none (fully local)";
  } else {
    for (std::size_t i = 0; i < p.wire_bytes.size(); ++i) {
      std::string label;
      if (p.fast_path)
        label = p.atomic_path ? "relax" : p.claim ? "claim" : "scatter";
      else if (!p.final_merged && i + 1 == p.wire_bytes.size())
        label = "eval";
      else
        label = "gather" + std::to_string(i + 1);
      out += " " + label + "=" + std::to_string(p.wire_bytes[i]) + "B";
    }
  }
  out += " (full gather_state = " + std::to_string(sizeof(gather_state)) + "B)\n";
  out += "  gather read CSE: " + std::to_string(p.cse_hits) + " shared slot(s)\n";
  out += std::string("  fast path: ") +
         (!p.fast_path     ? "off"
          : p.atomic_path ? "compiled single-locality relax kernel"
          : p.claim       ? "compiled single-locality claim kernel"
                          : "compiled single-locality scatter kernel") +
         "\n";
  out += std::string("  sender reduction: ") +
         (!p.fast_reduction ? "off"
          : p.claim         ? "exact-repeat suppression on the claim lane"
          : p.atomic_path   ? "combining cache on the relax lane"
                            : "per-target sum accumulator on the scatter lane") +
         "\n";
  return out;
}

}  // namespace dpg::pattern
