// The on-wire format of the cross-process wire backends.
//
// Everything that crosses a process boundary is framed explicitly here:
// a fixed-width, padding-free `wire_header` in front of every envelope's
// payload bytes, and a `wire_handshake` exchanged once per connection by
// the TCP backend (and embedded in the shared-memory segment header) so a
// peer speaking a different format version — or a different byte order —
// is rejected before a single envelope is decoded, instead of scattering
// garbage into property maps.
//
// Contract for seam-crossing types: trivially copyable, fixed-width
// fields, no padding (so memcpy'ing the object bytes is the serialization
// and `std::has_unique_object_representations_v` can prove it). The
// static_asserts below are the enforcement; the same asserts guard the
// transport's control-plane payloads in transport.hpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace dpg::ampp {

/// Thrown on any wire-level protocol violation: handshake mismatch, frame
/// corruption, stale-topology envelopes, peer disconnects. Deliberately an
/// exception rather than an assert — a malformed *peer* is an environment
/// error the caller may want to report cleanly, not a bug in this process.
class wire_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t wire_magic = 0x44504757u;      // "DPGW"
inline constexpr std::uint16_t wire_format_version = 1;       // bump on layout change
inline constexpr std::uint8_t wire_endian_little = 1;
inline constexpr std::uint8_t wire_endian_big = 2;

/// Endianness tag of this build. The backends do not byte-swap: a
/// mixed-endian pair is rejected at handshake (§ "versioned handshake").
constexpr std::uint8_t wire_native_endian() noexcept {
  return std::endian::native == std::endian::little ? wire_endian_little
                                                    : wire_endian_big;
}

/// Frame flags.
inline constexpr std::uint8_t wire_flag_oob = 0x01;  ///< out-of-band blob
                                                     ///< (exchange_blobs), not
                                                     ///< an envelope

/// The largest blob one exchange_blobs call ships: the exchange refuses a
/// larger one, so a longer out-of-band length prefix is corruption.
inline constexpr std::uint32_t wire_max_blob_bytes = std::uint32_t{1} << 28;

/// FNV-1a over a type name: stamped into every frame so a receiver whose
/// message-type registration order diverged from the sender's fails loudly
/// instead of dispatching payloads to the wrong handler.
constexpr std::uint32_t wire_name_hash(std::string_view name) noexcept {
  std::uint32_t h = 2166136261u;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

/// The explicit on-wire envelope header. Fixed-width fields only, no
/// implicit padding; 56 bytes on every ABI we compile for.
struct wire_header {
  std::uint32_t magic = wire_magic;
  std::uint16_t version = wire_format_version;
  std::uint8_t endian = wire_native_endian();
  std::uint8_t flags = 0;
  std::uint32_t type_id = 0;        ///< msg_type_id in the shared registration order
  std::uint32_t type_hash = 0;      ///< wire_name_hash(type name); 0 for OOB frames
  std::uint32_t count = 0;          ///< payload records in this envelope
  std::uint32_t payload_bytes = 0;  ///< bytes following this header (the length prefix)
  std::uint32_t src = 0;            ///< sending rank
  std::uint32_t pad0 = 0;           ///< explicit padding (keeps seq 8-aligned)
  std::uint64_t seq = 0;            ///< per-(src,dest) wire sequence / OOB generation
  /// Topology stamp (single-writer topology across processes): it must
  /// match the receiver's stamp exactly or the frame is rejected — a
  /// stale-version envelope fails loudly rather than scattering into a
  /// resized pmap.
  std::uint64_t topo_version = 0;
  std::uint64_t structure_version = 0;
};

static_assert(sizeof(wire_header) == 56, "wire_header layout is part of the protocol");
static_assert(std::is_trivially_copyable_v<wire_header>);
static_assert(std::has_unique_object_representations_v<wire_header>,
              "wire_header must be padding-free: its object bytes are the wire bytes");

/// The versioned handshake: first bytes on every TCP connection (both
/// directions) and the leading fields of the shared-memory segment header.
/// A mismatch on any field is a rejection before envelope decoding.
struct wire_handshake {
  std::uint32_t magic = wire_magic;
  std::uint16_t version = wire_format_version;
  std::uint8_t endian = wire_native_endian();
  std::uint8_t pad0 = 0;
  std::uint32_t src_rank = 0;
  std::uint32_t n_ranks = 0;
  std::uint32_t channel = 0;  ///< per-process transport construction index
  std::uint32_t pad1 = 0;
};

static_assert(sizeof(wire_handshake) == 24, "wire_handshake layout is part of the protocol");
static_assert(std::is_trivially_copyable_v<wire_handshake>);
static_assert(std::has_unique_object_representations_v<wire_handshake>);

/// Validates the peer half of a handshake against ours. Throws wire_error
/// naming the first mismatching field; `who` prefixes the message.
inline void validate_handshake(const wire_handshake& peer, std::uint32_t expect_n_ranks,
                               std::uint32_t expect_channel, const std::string& who) {
  if (peer.magic != wire_magic)
    throw wire_error(who + ": bad magic (not a dpg wire peer)");
  if (peer.version != wire_format_version)
    throw wire_error(who + ": wire format version mismatch (peer v" +
                     std::to_string(peer.version) + ", local v" +
                     std::to_string(wire_format_version) + ")");
  if (peer.endian != wire_native_endian())
    throw wire_error(who + ": endianness mismatch (peer tag " +
                     std::to_string(peer.endian) + ", local tag " +
                     std::to_string(wire_native_endian()) + "); refusing to decode");
  if (peer.n_ranks != expect_n_ranks)
    throw wire_error(who + ": rank-count mismatch (peer says " +
                     std::to_string(peer.n_ranks) + ", local machine has " +
                     std::to_string(expect_n_ranks) + ")");
  if (peer.channel != expect_channel)
    throw wire_error(who + ": channel mismatch (peer channel " +
                     std::to_string(peer.channel) + ", local channel " +
                     std::to_string(expect_channel) +
                     "); transports were constructed in different orders");
}

/// Format-level validation of one received frame header (the part that
/// does not need the message-type registry; the transport adds registry
/// and topology checks on top). Throws wire_error on violation.
inline void validate_header(const wire_header& h, std::uint32_t n_ranks) {
  if (h.magic != wire_magic) throw wire_error("wire frame: bad magic (stream corrupt?)");
  if (h.version != wire_format_version)
    throw wire_error("wire frame: format version mismatch (frame v" +
                     std::to_string(h.version) + ", local v" +
                     std::to_string(wire_format_version) + ")");
  if (h.endian != wire_native_endian())
    throw wire_error("wire frame: endianness mismatch; refusing to decode");
  if (h.src >= n_ranks)
    throw wire_error("wire frame: source rank " + std::to_string(h.src) +
                     " out of range");
}

/// The length prefix against what the header allows, checked before the
/// payload is awaited: a typed frame carries exactly `count` records of
/// `stride` bytes, an out-of-band frame at most wire_max_blob_bytes.
/// Throws wire_error, so a corrupt prefix fails at once instead of
/// holding the stream while up to 4 GiB that never come are awaited.
inline void validate_length(const wire_header& h, std::uint64_t stride) {
  if (h.flags & wire_flag_oob) {
    if (h.payload_bytes > wire_max_blob_bytes)
      throw wire_error("wire frame: out-of-band length " + std::to_string(h.payload_bytes) +
                       " exceeds the exchange bound of " +
                       std::to_string(wire_max_blob_bytes) + " bytes");
    return;
  }
  if (std::uint64_t{h.count} * stride != h.payload_bytes)
    throw wire_error("wire frame: length " + std::to_string(h.payload_bytes) +
                     " disagrees with " + std::to_string(h.count) + " records of " +
                     std::to_string(stride) + " bytes");
}

}  // namespace dpg::ampp
