// The wire-backend seam (ISSUE 8 tentpole).
//
// A `wire_backend` carries opaque envelope byte buffers between rank
// *processes*: send() frames one envelope (wire_header + payload bytes)
// to a destination rank, poll() drains every frame currently available
// and hands each one to a sink. Everything above the seam — coalescing
// lanes, four-counter termination detection, seq/dedup windows,
// ack/retry, collectives — is wire-agnostic and unchanged; everything
// below is a dumb reliable byte pipe.
//
// Contract:
//  * One process hosts exactly one rank (`cfg.self_rank`); the other
//    ranks of the machine live in sibling processes launched with the
//    same session id (scripts/run_ranks.sh).
//  * send() is thread-safe per backend and delivers frames to a given
//    destination in order, reliably (no drops, no duplicates) — which is
//    why the transport's dedup window is a no-op across a real wire and
//    fault plans stay an in-process-only instrument.
//  * poll() may be called concurrently with send(); implementations
//    serialize internally. It never blocks beyond "what is readable now".
//  * Errors (peer disconnect, handshake mismatch, corrupt frame) throw
//    ampp::wire_error — loudly, never by decoding garbage.
//
// The in-process path does NOT go through this interface: when
// backend_config::kind is `inproc` (the default) the transport keeps its
// direct inbox push, bit-identical to every seed baseline. The seam only
// activates for shm_ring / tcp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ampp/types.hpp"
#include "ampp/wire.hpp"

namespace dpg::ampp {

/// Selects and parameterizes the wire backend of a transport. Default
/// (kind = inproc) keeps today's single-process N-thread simulation.
struct backend_config {
  enum class kind_t : std::uint8_t {
    inproc,    ///< all ranks in this process; direct inbox delivery (default)
    shm_ring,  ///< one process per rank on one host; shared-memory SPSC rings
    tcp,       ///< one process per rank; TCP full mesh, loopback or multi-host
  };

  kind_t kind = kind_t::inproc;
  /// The rank this process hosts (cross-process kinds only).
  rank_t self_rank = 0;
  /// Session id shared by all rank processes of one run: names the shm
  /// segment / scopes the port block so concurrent runs don't collide.
  std::string session = "dpg";
  /// TCP: host to bind/connect on. Rank processes on one host use loopback;
  /// multi-host runs put every rank's address here (same value per rank for
  /// now — a full host list is future work).
  std::string host = "127.0.0.1";
  /// TCP: first port of the block. Rank r of channel c listens on
  /// base_port + c * n_ranks + r.
  std::uint16_t base_port = 29700;
  /// shm: per-(src,dest) ring capacity in bytes (power of two).
  std::uint32_t ring_bytes = 1u << 20;
  /// How long construction waits for peers to appear before failing.
  std::uint32_t attach_timeout_ms = 30000;
  /// Channel index distinguishing multiple transports in one process
  /// (e.g. one per solver). -1 = assign automatically from
  /// a process-global counter — correct whenever every rank process
  /// constructs its transports in the same order, which the SPMD model
  /// guarantees. Tests pairing two backends inside one process set it
  /// explicitly.
  std::int32_t channel = -1;

  bool cross_process() const { return kind != kind_t::inproc; }
};

/// Abstract rank-to-rank byte pipe. Implementations: backend/shm_ring,
/// backend/tcp. Constructed (rendezvous + handshake included) by
/// make_backend.
class wire_backend {
 public:
  virtual ~wire_backend() = default;

  /// Human-readable backend name ("shm_ring", "tcp") for stats/bench metadata.
  virtual const char* name() const = 0;
  /// The rank this process hosts.
  virtual rank_t self() const = 0;

  /// Frames and ships one envelope to `dest` (!= self). `h.payload_bytes`
  /// bytes are read from `payload`. Blocks only if the destination's pipe
  /// is full; throws wire_error if the peer is gone.
  virtual void send(rank_t dest, const wire_header& h, const std::byte* payload) = 0;

  /// Sink for received frames: header + `h.payload_bytes` of payload.
  using frame_sink = std::function<void(const wire_header& h, const std::byte* payload)>;

  /// Drains every frame currently readable from every peer into `sink`.
  /// Returns the number of frames delivered. Throws wire_error on protocol
  /// violations or a dead peer with a partial frame in flight.
  virtual std::size_t poll(const frame_sink& sink) = 0;
};

/// Builds the backend described by `cfg` for a machine of `n_ranks` ranks
/// and rendezvouses with the sibling rank processes (creates/attaches the
/// shm segment, listens + connects the TCP mesh, exchanges handshakes).
/// Throws wire_error on timeout or a peer speaking a different wire
/// format. Returns nullptr for kind_t::inproc.
std::unique_ptr<wire_backend> make_backend(const backend_config& cfg, rank_t n_ranks);

}  // namespace dpg::ampp
