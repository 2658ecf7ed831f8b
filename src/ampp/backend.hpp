// The delivery seam. Every envelope the transport sends crosses one
// `envelope_backend` (send per envelope, poll per local rank), which places
// it in the destination rank's inbox. Above the seam — lanes, reduction
// caches, termination detection, collectives — nothing knows the wire.
// make_backend builds one of:
//  * in-process: every rank is a thread of this process; send() moves the
//    envelope, buffer included, into the destination inbox;
//  * wire (shm_ring, tcp): this process hosts one rank; one framing step
//    turns envelopes into wire_header + payload frames on a `wire_backend`
//    byte pipe and validates arriving frames (registry, topology stamp,
//    stride, and on a clean wire the per-source sequence order);
//  * either one under the fault decorator (ampp/fault.cpp) when a
//    fault_plan is active.
//
// The `wire_backend` byte-pipe contract below the framing step:
//  * One process hosts exactly one rank (`cfg.self_rank`); the other
//    ranks of the machine live in sibling processes launched with the
//    same session id (scripts/run_ranks.sh).
//  * send() is thread-safe per backend and delivers frames to a given
//    destination in order, reliably (no drops, no duplicates).
//  * poll() may be called concurrently with send(); implementations
//    serialize internally. It never blocks beyond "what is readable now".
//  * Errors (peer disconnect, handshake mismatch, corrupt frame) throw
//    ampp::wire_error — loudly, never by decoding garbage.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ampp/types.hpp"
#include "ampp/wire.hpp"

namespace dpg::obs {
class registry;
}

namespace dpg::ampp {

class transport_context;
class wire_pool;
struct transport_config;

namespace detail {

class message_type_base;

/// Type-erased dispatch table for one registered message type.
struct message_vtable {
  void (*dispatch)(message_type_base* self, transport_context& ctx, const std::byte* data,
                   std::uint32_t count);
  std::size_t payload_size;
  message_type_base* self;
};

/// A coalesced batch of `count` payloads of one message type, stamped with
/// its source rank and per-(src, dest) sequence number (the wire's order
/// check and the fault decorator's dedup key).
struct envelope {
  const message_vtable* vt = nullptr;
  std::uint32_t count = 0;
  std::vector<std::byte> bytes;
  rank_t src = invalid_rank;
  std::uint64_t seq = 0;
};

/// The envelopes delivered to one rank and not yet dispatched (aligned:
/// two ranks' inbox locks never share a cache line).
struct alignas(64) inbox {
  mutable std::mutex mu;
  std::deque<envelope> q;
  /// Handlers currently executing on this rank (incremented under mu
  /// before the envelope is popped, so "queue empty and no handler active"
  /// is an exact local-quiescence predicate).
  std::atomic<int> active_handlers{0};

  void push(envelope&& env) {
    std::lock_guard<std::mutex> g(mu);
    q.push_back(std::move(env));
  }
};
using inbox_set = std::deque<inbox>;  ///< indexed by rank; deque: inboxes hold locks

}  // namespace detail

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
  /// Channel index distinguishing multiple transports in one process.
  /// -1 = a process-global counter, correct because SPMD rank processes
  /// construct their transports in the same order.
  std::int32_t channel = -1;

  bool cross_process() const { return kind != kind_t::inproc; }
};

/// Abstract rank-to-rank byte pipe. Implementations: backend/shm_ring,
/// backend/tcp. Constructed (rendezvous + handshake included) by
/// make_wire.
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

  /// What the framing step knows of a frame's length: throws wire_error
  /// unless the header's length prefix is one it allows (validate_length
  /// with the type's stride). The pipe runs it on every header before it
  /// awaits the payload. A bare pipe checks only the header format.
  using frame_check = std::function<void(const wire_header& h)>;
  void set_frame_check(frame_check c) { check_ = std::move(c); }

 protected:
  /// validate_header, then the installed frame check.
  void check_frame(const wire_header& h, rank_t n_ranks) const {
    validate_header(h, n_ranks);
    if (check_) check_(h);
  }

 private:
  frame_check check_;
};

/// Builds the byte pipe described by `cfg` (shm_ring or tcp) for a machine
/// of `n_ranks` ranks and rendezvouses with the sibling rank processes
/// (creates/attaches the shm segment, listens + connects the TCP mesh,
/// exchanges handshakes). Throws wire_error on timeout or a peer speaking a
/// different wire format.
std::unique_ptr<wire_backend> make_wire(const backend_config& cfg, rank_t n_ranks);

/// The graph's (version, structure_version) pair stamped on every frame.
struct topology_stamp {
  std::uint64_t version = 0, structure_version = 0;
};

/// What a backend reaches of the transport it serves (all outlive it):
/// arrivals land in `inboxes`; `types` (by msg_type_id) decodes frames.
struct backend_host {
  const transport_config& cfg;
  obs::registry& obs;
  wire_pool& pool;
  detail::inbox_set& inboxes;
  const std::vector<std::unique_ptr<detail::message_type_base>>& types;
  const topology_stamp& stamp;
};

/// The envelope-level seam. send() may be called from any thread of the
/// sending rank; poll(r) from any thread of local rank r.
class envelope_backend {
 public:
  virtual ~envelope_backend() = default;
  /// "inproc", "shm_ring" or "tcp" (the decorator reports what it wraps).
  virtual const char* name() const = 0;
  /// Moves `env`, buffer included, from rank `src` toward rank `dest`.
  virtual void send(rank_t src, rank_t dest, detail::envelope&& env) = 0;
  /// Progress for local rank `r`: what has arrived for it lands in its inbox.
  virtual void poll(rank_t r) = 0;
  /// Nothing sent by or addressed to local rank `r` waits in the backend.
  virtual bool quiet(rank_t) const { return true; }
  /// Drops everything in flight and restarts every sequence window at 0
  /// (after an aborted run).
  virtual void reset() {}
  /// The cross-process out-of-band allgather (transport::exchange_blobs).
  virtual std::vector<std::vector<std::byte>> exchange_blobs(const std::vector<std::byte>& mine);
};

/// The delivery stack for `host.cfg`: the in-process backend or the framed
/// wire (rendezvous included), under the fault decorator when the fault
/// plan is active.
std::unique_ptr<envelope_backend> make_backend(const backend_host& host);

namespace detail {
/// The undecorated backend, delivering into `sink`. `ordered`: a frame out
/// of per-source sequence order is a wire_error (off under the decorator).
std::unique_ptr<envelope_backend> make_delivery(const backend_host& host, inbox_set& sink,
                                                bool ordered);
std::unique_ptr<envelope_backend> make_faulty(const backend_host& host);  ///< fault.cpp
}  // namespace detail

}  // namespace dpg::ampp
