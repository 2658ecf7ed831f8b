// The active-message transport: a from-scratch reimplementation of the
// AM++ / Active Pebbles facilities the paper builds on (§I, §IV). Ranks are
// SPMD threads of one process (the simulated machine) or one rank per
// process over a real wire; envelopes cross one delivery backend
// (backend.hpp) either way.
//
// Faithfulness notes:
//  * Message types are statically typed; handlers are arbitrary functions
//    and are NOT restricted — a handler may send any number of further
//    messages (the AM++ property the paper singles out in §I).
//  * Coalescing: sends are buffered per (source, destination) lane and
//    delivered as batched envelopes (§IV "built-in layers for message
//    coalescing").
//  * Caching/reductions: a message type may opt into a direct-mapped
//    reduction cache that combines same-key payloads, or drops exact
//    repeats of idempotent ones, before they reach the wire (§IV "caching
//    allows to avoid unnecessary message sends").
//  * Object-based addressing: a message type may carry an address map that
//    computes the destination rank from the payload (§IV-D).
//  * Termination detection / epochs: epochs map to AM++ epochs; the end of
//    an epoch is detected with a message-based four-counter protocol (see
//    epoch.hpp). No shortcut through shared memory is taken for the
//    decision — only the monotonic sent/received counters that a real
//    distributed runtime would also reduce.
//
// Progress model: polling. Messages are handled when the owning rank's
// thread calls into the runtime (drain/flush/collectives/epoch ends), the
// same progress discipline AM++ uses.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ampp/backend.hpp"
#include "ampp/fault.hpp"
#include "ampp/stats.hpp"
#include "ampp/types.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"
#include "util/spinlock.hpp"

namespace dpg::ampp {

class transport;
class transport_context;
class epoch;

/// A slice of the caller's own work that a wait runs between inbox drains
/// (epoch::try_finish): true if it did anything. Empty: the wait only
/// drains.
using work_step = std::function<bool()>;

/// Construction-time transport knobs: they determine the machine shape
/// (thread/lane topology) and cannot change over a transport's lifetime.
/// Under the serving layer every solver session's transport shares the
/// machine shape of its server, so sessions are interchangeable in the
/// warm pool.
struct machine_config {
  rank_t n_ranks = 4;
  /// Dedicated message-handler threads per rank (§II-A: ranks "each
  /// running multiple threads"). 0 = polling-only progress (handlers run
  /// when the rank's SPMD thread calls into the runtime). With helpers,
  /// handlers execute concurrently with the SPMD thread: property maps
  /// touched by patterns should hold atomic-capable values or the
  /// algorithm must phase its accesses (see docs/runtime.md).
  unsigned handler_threads = 0;
  /// Wire backend (see backend.hpp). Default: all ranks in this process,
  /// the classic simulated machine. shm_ring / tcp make this process host
  /// exactly rank `backend.self_rank` and carry every remote envelope over
  /// a real inter-process wire.
  backend_config backend{};
};

/// Runtime tuning knobs: per-session behavior that may legitimately differ
/// between transports sharing one machine shape (a chaos-testing session
/// next to a clean one, different coalescing budgets per workload).
struct tuning_config {
  /// Payloads buffered per (source, destination) lane before an envelope is
  /// delivered. 1 disables coalescing.
  std::size_t coalescing_size = 256;
  /// Root seed for runtime-internal randomization (mixed into every
  /// fault-injection decision).
  std::uint64_t seed = 42;
  /// Fault-injection plan: seeded, per-(src, dest, message-type) injection
  /// of envelope reorder, duplicate, delay, and drop-with-retry (see
  /// fault.hpp), over any backend. Active-message semantics promise nothing
  /// about delivery order or timing, so every algorithm must survive any
  /// plan. Default: no faults, no decorator.
  fault_plan faults{};
};

/// Transport configuration: the deprecated flat aggregate of machine_config
/// and tuning_config, kept so existing call sites (designated initializers
/// everywhere) compile unchanged. New code — the serving layer in
/// particular — should pass the two halves separately so construction-time
/// and runtime knobs cannot be conflated.
struct transport_config {
  rank_t n_ranks = 4;
  std::size_t coalescing_size = 256;
  std::uint64_t seed = 42;
  fault_plan faults{};
  unsigned handler_threads = 0;
  backend_config backend{};

  /// The construction-time half.
  machine_config machine() const {
    return machine_config{n_ranks, handler_threads, backend};
  }
  /// The runtime half.
  tuning_config tuning() const { return tuning_config{coalescing_size, seed, faults}; }
  /// Reassembles the flat aggregate from its two halves.
  static transport_config join(const machine_config& m, const tuning_config& t) {
    return transport_config{m.n_ranks, t.coalescing_size, t.seed, t.faults,
                            m.handler_threads, m.backend};
  }
};

/// A shareable envelope byte-buffer pool: free lists of wire buffers,
/// sharded to keep concurrent transports off one lock. A transport that is
/// not handed a pool creates a private one, so single-solver programs are
/// unchanged; the serving layer hands every session's transport one shared
/// pool, which keeps per-session idle overhead near zero — warm sessions
/// park no buffer capacity of their own (the iPregel memory discipline).
class wire_pool {
 public:
  /// `shards` sizes the lock sharding (rank count is a good choice).
  explicit wire_pool(std::size_t shards = 16) : shards_(shards == 0 ? 1 : shards) {}

  wire_pool(const wire_pool&) = delete;
  wire_pool& operator=(const wire_pool&) = delete;

  /// A recycled buffer (capacity intact, size 0) or a fresh empty one.
  std::vector<std::byte> acquire(std::size_t shard) {
    shard_t& s = shards_[shard % shards_.size()];
    std::lock_guard<dpg::spinlock> g(s.mu);
    if (s.free_list.empty()) return {};
    std::vector<std::byte> bytes = std::move(s.free_list.back());
    s.free_list.pop_back();
    return bytes;
  }

  /// Returns `bytes` to the shard's free list. Bounded in both list length
  /// and kept capacity: envelopes are normally coalescing-size payloads,
  /// but a reduction-cache spill can be much bigger and should not be
  /// hoarded.
  void release(std::size_t shard, std::vector<std::byte>&& bytes) {
    constexpr std::size_t kMaxPooled = 64;
    constexpr std::size_t kMaxPooledCapacity = std::size_t{1} << 20;
    if (bytes.capacity() == 0 || bytes.capacity() > kMaxPooledCapacity) return;
    bytes.clear();
    shard_t& s = shards_[shard % shards_.size()];
    std::lock_guard<dpg::spinlock> g(s.mu);
    if (s.free_list.size() < kMaxPooled) s.free_list.push_back(std::move(bytes));
  }

  /// Buffers currently parked across all shards (diagnostics).
  std::size_t pooled() const {
    std::size_t n = 0;
    for (const shard_t& s : shards_) {
      std::lock_guard<dpg::spinlock> g(s.mu);
      n += s.free_list.size();
    }
    return n;
  }

 private:
  struct shard_t {
    mutable dpg::spinlock mu;
    std::vector<std::vector<std::byte>> free_list;
  };
  std::deque<shard_t> shards_;  // deque: shards hold locks
};

namespace detail {

/// Base class for registered message types; the transport needs uniform
/// access to buffered lanes for flushing during epochs.
class message_type_base {
 public:
  virtual ~message_type_base() = default;

  /// Spill every buffered payload and cached reduction slot owned by
  /// `src` onto the wire. Visits only dirty lanes (lanes whose occupancy
  /// tracking says they hold data); clean lanes are skipped without
  /// locking.
  virtual void flush_rank(rank_t src) = 0;

  /// Occupancy counter for rank `src`: buffered payloads + used reduction
  /// slots across all of its lanes. One relaxed read per lane, no locks.
  virtual std::int64_t rank_occupancy(rank_t src) const = 0;
  /// True when rank `src` has nothing buffered for any destination.
  bool rank_buffers_empty(rank_t src) const { return rank_occupancy(src) == 0; }

  /// Brute-force recount of rank_occupancy under the lane locks — the
  /// conservation oracle for tests; never on a hot path.
  virtual std::int64_t rank_occupancy_scan(rank_t src) const = 0;

  /// Drops every buffered payload and cached slot (after an aborted run).
  virtual void discard() = 0;

  /// Dispatch table for envelopes of this type (the wire's receive path
  /// rebuilds envelopes from frames with it).
  virtual const message_vtable* wire_vtable() const = 0;
  /// Bytes one payload occupies on the wire (sizeof(Payload), or the
  /// compact-layout stride): validates a frame's length against its count.
  virtual std::size_t wire_stride_bytes() const = 0;

  const std::string& name() const { return name_; }
  msg_type_id id() const { return id_; }
  /// FNV-1a of the type name, stamped into every cross-process frame so
  /// registration-order divergence between processes fails loudly.
  std::uint32_t wire_hash() const { return wire_hash_; }

 protected:
  friend class dpg::ampp::transport;
  std::string name_;
  msg_type_id id_ = 0;
  std::uint32_t wire_hash_ = 0;
  bool internal_ = false;  ///< control-plane types bypass epoch/TD accounting
  transport* tp_ = nullptr;
};

}  // namespace detail

/// Handler concept: invocable with (transport_context&, const Payload&).
template <class H, class Payload>
concept message_handler = std::invocable<H&, transport_context&, const Payload&>;

/// Address map concept: computes a destination rank from a payload (§IV-D).
template <class A, class Payload>
concept address_map = std::invocable<const A&, const Payload&> &&
    std::convertible_to<std::invoke_result_t<const A&, const Payload&>, rank_t>;

/// One contiguous byte range of a payload that travels on the wire when a
/// compact wire layout is installed (see message_type::set_wire_layout).
struct wire_range {
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
};

/// A registered, statically typed active-message type.
///
/// Payloads must be trivially copyable: they travel through byte buffers
/// exactly as they would through a network. Handlers run on the destination
/// rank's thread and may freely send further messages of any type.
template <class Payload>
class message_type final : public detail::message_type_base {
  static_assert(std::is_trivially_copyable_v<Payload>,
                "active-message payloads must be trivially copyable");

 public:
  using handler_fn = std::function<void(transport_context&, const Payload&)>;
  using address_fn = std::function<rank_t(const Payload&)>;
  using key_fn = std::function<std::uint64_t(const Payload&)>;
  using combine_fn = std::function<Payload(const Payload&, const Payload&)>;

  /// Send `p` to rank `dest`. Must be called from inside transport::run on
  /// the sending rank's thread and, for non-internal types, inside an epoch.
  void send(transport_context& ctx, rank_t dest, const Payload& p) {
    send(ctx, dest, std::span<const Payload>(&p, 1));
  }

  /// Send a run of payloads to one rank: checked once and appended under
  /// one acquisition of the lane lock, with exactly the reduction,
  /// coalescing and flush rules of sending them one by one. The one send
  /// path; the single-payload send is a run of one.
  void send(transport_context& ctx, rank_t dest, std::span<const Payload> run);

  /// Object-based addressing: destination computed by the address map.
  void send(transport_context& ctx, const Payload& p);

  /// Enable the AM++-style reduction cache: sends whose key collides with a
  /// cached entry are combined instead of transmitted. `cache_bits` gives a
  /// 2^cache_bits-slot direct-mapped cache per destination lane. The
  /// combine function must make one combined message semantically equal to
  /// delivering both (e.g. min for SSSP relaxations).
  void enable_reduction(key_fn key, combine_fn combine, unsigned cache_bits = 10);

  /// The same cache for idempotent messages: a send whose payload is
  /// bytewise equal to the one cached in its slot is dropped. The key only
  /// picks and tags the slot; a key match with different bytes evicts the
  /// cached payload to the wire instead, so no distinct payload is lost.
  void enable_suppression(key_fn key, unsigned cache_bits = 10);

  /// Installs a compact wire layout: only the given byte ranges of each
  /// payload travel inside envelopes; the receiver reassembles payloads
  /// with the dead bytes value-initialized (`Payload{}`). Ranges must be
  /// sorted, non-overlapping, and in-bounds. Must be called before
  /// transport::run, like registration itself. Senders still buffer and
  /// reduce *full* payloads — truncation happens at envelope flush, so
  /// reduction caches and address maps are unaffected. A layout covering
  /// the whole payload reverts to the plain memcpy path.
  void set_wire_layout(std::vector<wire_range> ranges);

  /// Installs an envelope-batch handler: the receiver hands a whole
  /// envelope's payload bytes (`count` packed records) to `h` in one call
  /// instead of dispatching per record — the entry point of the pattern
  /// layer's envelope loop (pattern::instantiated_action::fast_envelope).
  /// Only taken when no compact wire layout is installed (full payloads
  /// travel, so the bytes are the records verbatim); a layout silently
  /// keeps the per-record path. The batch handler fully replaces the per-record
  /// handler for batched envelopes and must preserve its semantics.
  using batch_handler_fn =
      std::function<void(transport_context&, const std::byte*, std::uint32_t)>;
  void set_batch_handler(batch_handler_fn h);

  void flush_rank(rank_t src) override;
  std::int64_t rank_occupancy(rank_t src) const override;
  std::int64_t rank_occupancy_scan(rank_t src) const override;
  void discard() override;
  const detail::message_vtable* wire_vtable() const override { return &vt_; }
  std::size_t wire_stride_bytes() const override { return wire_stride_; }

 private:
  friend class transport;
  message_type() = default;

  struct red_slot {
    bool used = false;
    std::uint64_t key = 0;
    Payload payload;
  };

  /// One outgoing lane: source rank -> one destination rank. With
  /// handler threads, handlers running on the source rank send
  /// concurrently with the SPMD thread, so each lane carries its own lock
  /// (uncontended and near-free in polling mode). Cache-line aligned, so
  /// no two ranks' lanes share a line: every send writes its lane, and
  /// lines shared across ranks measurably slowed 4-rank PageRank.
  struct alignas(64) lane {
    mutable dpg::spinlock mu;
    std::vector<Payload> buf;
    std::vector<red_slot> cache;  // empty unless reduction enabled
    /// Buffered payloads + used reduction slots in this lane. Written only
    /// under mu — and with plain load+store rather than fetch_add, so the
    /// send hot path carries no lock-prefixed RMW. Read lock-free
    /// (relaxed) by flush_rank's clean-lane skip and the quiescence
    /// probes; a stale zero is safe because any payload it misses is
    /// flushed by the next TD round, perturbing the sent-sums and failing
    /// the double-round stability test.
    std::atomic<std::int64_t> occupancy{0};
    /// Used reduction-cache slots, with their indices, so a flush spills
    /// O(used) slots instead of scanning all 2^cache_bits. Guarded by mu;
    /// used_list holds each used slot exactly once (entries are appended
    /// only on the unused->used transition and cleared by the spill).
    std::uint32_t used_slots = 0;
    std::vector<std::uint32_t> used_list;
    /// Cache hits and evictions since the lane's last flush. Counted under
    /// mu and published to the shared counters by the flush: a per-send
    /// RMW on a counter every rank bumps costs more than the send itself.
    /// Every hit or eviction leaves a payload buffered or cached, so a
    /// flush follows before the epoch can end.
    std::uint64_t hits = 0, evictions = 0;
  };

  struct per_source {
    std::deque<lane> lanes;  // indexed by destination rank; deque: lanes hold locks
  };

  struct reduction {
    key_fn key;
    combine_fn combine;  ///< empty: suppress exact repeats only
    unsigned bits;
  };

  static void dispatch_thunk(detail::message_type_base* self, transport_context& ctx,
                             const std::byte* data, std::uint32_t count);

  void flush_lane_locked(rank_t src, rank_t dest, lane& ln, bool spill_cache);
  /// Occupancy bookkeeping (call with the lane lock held): plain
  /// load+store, not fetch_add — writers are serialized by the lane lock,
  /// only the lock-free readers need atomicity.
  static void note_occupancy(lane& ln, std::int64_t delta);

  handler_fn handler_;
  batch_handler_fn batch_;  ///< whole-envelope dispatch (empty: per record)
  address_fn addr_;
  std::optional<reduction> reduce_;
  std::deque<per_source> rows_;  // indexed by source rank (deque: lanes hold locks)
  detail::message_vtable vt_{};
  std::vector<wire_range> layout_;  ///< empty: full payloads travel
  std::size_t wire_stride_ = sizeof(Payload);  ///< bytes per payload on the wire
};

/// Per-rank view of the transport handed to the SPMD function and to
/// message handlers. Provides rank identity, progress, and collectives.
class transport_context {
 public:
  rank_t rank() const noexcept { return rank_; }
  rank_t size() const noexcept;
  transport& tp() noexcept { return *tp_; }

  /// Process every envelope currently queued for this rank (handlers may
  /// enqueue more locally; those are processed too). Returns the number of
  /// payloads handled.
  std::size_t drain();

  /// Process at most one queued envelope. Returns payloads handled.
  std::size_t poll_once();

  /// Message-based barrier across all ranks (progress keeps running while
  /// waiting, as in AM++: handlers execute inside blocking calls).
  void barrier();

  /// Message-based all-reduce of a trivially copyable value (<= 56 bytes).
  /// All ranks must call with the same op in the same program order.
  template <class T, class Op>
  T allreduce(T value, Op op);

  /// Convenience reductions.
  template <class T>
  T allreduce_sum(T v) {
    return allreduce(v, [](T a, T b) { return a + b; });
  }
  template <class T>
  T allreduce_min(T v) {
    return allreduce(v, [](T a, T b) { return b < a ? b : a; });
  }
  template <class T>
  T allreduce_max(T v) {
    return allreduce(v, [](T a, T b) { return a < b ? b : a; });
  }
  bool allreduce_or(bool v) {
    return allreduce_sum(std::uint32_t{v ? 1u : 0u}) != 0;
  }

  bool in_epoch() const noexcept { return in_epoch_; }

 private:
  friend class transport;
  friend class epoch;
  template <class P>
  friend class message_type;

  transport_context(transport* tp, rank_t r) : tp_(tp), rank_(r) {}

  /// barrier() whose coordinator runs `at_release` once every rank has
  /// arrived and before it releases any (the epoch entry opens rank 0's
  /// per-epoch stats window there).
  void barrier(const std::function<void()>& at_release);

  // Type-erased allreduce plumbing (implemented in transport.cpp). The
  // coordinator runs `at_release`, if set, between the fold and the
  // broadcast.
  void allreduce_raw(const void* in, void* out, std::size_t size,
                     void (*combine)(void* ctx, const void* contrib, void* acc), void* opctx,
                     const std::function<void()>& at_release = {});

  transport* tp_;
  rank_t rank_;
  bool in_epoch_ = false;
  std::uint64_t coll_gen_ = 0;   ///< per-rank collective call counter (SPMD order)
  std::uint64_t td_round_ = 0;   ///< next termination-detection round to join
};

/// Thrown inside a run on every rank still waiting on the runtime once
/// another rank (or handler thread) of the run failed; transport::run
/// itself rethrows the original exception.
class run_aborted : public std::runtime_error {
 public:
  explicit run_aborted(rank_t failed)
      : std::runtime_error("run aborted: rank " + std::to_string(failed) + " failed"),
        failed_(failed) {}
  rank_t failed_rank() const noexcept { return failed_; }

 private:
  rank_t failed_;
};

/// The simulated distributed machine: N ranks, per-rank inboxes, a message
/// type registry, and the control plane (termination detection,
/// collectives) implemented with internal message types. Envelopes travel
/// through one delivery backend (backend.hpp).
class transport {
 public:
  /// Preferred constructor: construction-time machine shape + runtime
  /// tuning, with an optional shared envelope pool (the serving layer hands
  /// every session's transport one pool; see wire_pool).
  transport(machine_config machine, tuning_config tuning,
            std::shared_ptr<wire_pool> pool = nullptr);
  /// Deprecated shim: the flat aggregate, optionally with a shared pool.
  explicit transport(transport_config cfg, std::shared_ptr<wire_pool> pool = nullptr);
  ~transport();

  transport(const transport&) = delete;
  transport& operator=(const transport&) = delete;

  rank_t size() const noexcept { return cfg_.n_ranks; }
  const transport_config& config() const noexcept { return cfg_; }
  /// The envelope byte-buffer pool this transport recycles through —
  /// shared across sessions when one was injected at construction.
  const std::shared_ptr<wire_pool>& envelope_pool() const noexcept { return pool_; }

  /// True when this transport carries remote envelopes over a real wire
  /// (shm_ring / tcp): this process hosts exactly one rank and run()
  /// executes the SPMD function for that rank alone.
  bool cross_process() const noexcept { return cfg_.backend.cross_process(); }
  /// The rank this process hosts (0 in-process: every rank is local).
  rank_t self_rank() const noexcept { return local_lo_; }
  /// Wire backend name for stats/bench metadata ("inproc" when in-process).
  const char* backend_name() const noexcept { return backend_->name(); }

  /// Stamps every outgoing cross-process frame with the graph's
  /// (version, structure_version) pair. Receivers reject frames whose stamp
  /// differs from their own — the loud-failure half of the single-writer
  /// topology contract (see docs/runtime.md "Transport backends"): a
  /// process that mutated its topology while a peer still runs on the old
  /// one produces wire_error, not silent scatter into a resized pmap.
  void set_topology_stamp(std::uint64_t version, std::uint64_t structure_version);

  /// Cross-process out-of-band allgather: ships `mine` to every peer and
  /// returns all ranks' blobs indexed by rank (self included). A collective
  /// — every rank process must call in the same program order, outside
  /// run(). This is how between-run gathers that the in-process code does
  /// by reading sibling shards directly (CC's conflict collection, result
  /// hashing) cross the wire.
  std::vector<std::vector<std::byte>> exchange_blobs(const std::vector<std::byte>& mine);

  /// Register a message type. Must happen before run(). The handler runs on
  /// the destination rank; the optional address map enables send(payload)
  /// without an explicit rank (§IV-D).
  template <class Payload, message_handler<Payload> H>
  message_type<Payload>& make_message_type(std::string name, H handler);

  template <class Payload, message_handler<Payload> H, address_map<Payload> A>
  message_type<Payload>& make_message_type(std::string name, H handler, A addr);

  /// Sender-side drains: work a rank holds back from the wire (a combining
  /// scatter's accumulator, pattern/action.hpp) that must reach its lanes
  /// before they are flushed. Every registered drain runs on the rank's own
  /// thread at the start of each flush of all message types (every TD round
  /// and epoch::flush) and may send, so that round counts what it releases.
  /// After an aborted run it is called per local rank with `discard` set
  /// and drops what it holds. Register and remove between runs.
  using drain_fn = std::function<void(transport_context&, bool discard)>;
  std::size_t add_drain(drain_fn fn);
  void remove_drain(std::size_t id);

  /// Execute `f` as an SPMD program: one thread per local rank, each
  /// receiving its own transport_context. Blocks until all ranks return.
  /// When a rank throws, every other rank waiting on the runtime unwinds
  /// with run_aborted, whatever was in flight is discarded, and run
  /// rethrows the first exception; the transport stays usable. May be
  /// called repeatedly.
  void run(const std::function<void(transport_context&)>& f);

  /// The observability registry: the public measurement surface (counters
  /// with per-message-type and per-epoch attribution, obs::stats_scope
  /// deltas, span tracing, Chrome trace export). See docs/runtime.md.
  obs::registry& obs() noexcept { return obs_; }
  const obs::registry& obs() const noexcept { return obs_; }

  /// Payloads delivered per message type, indexed by msg_type_id; for
  /// benchmark reporting.
  std::uint64_t sent_of_type(msg_type_id id) const { return obs_.type_sent(id); }
  const std::string& type_name(msg_type_id id) const { return types_.at(id)->name(); }
  std::size_t num_types() const { return types_.size(); }

  /// Conservation oracle for tests: true iff, for every message type and
  /// every rank, the O(1) occupancy counter equals a brute-force recount of
  /// buffered payloads + used reduction slots under the lane locks. Only
  /// meaningful while the transport is quiescent (between runs, or
  /// single-rank).
  bool occupancy_consistent() const;

 private:
  friend class transport_context;
  friend class epoch;
  template <class P>
  friend class message_type;

  struct alignas(64) rank_state {  // aligned: ranks' hot counters share no line
    std::atomic<std::uint64_t> sent{0};      ///< user payloads this rank pushed out
    std::atomic<std::uint64_t> received{0};  ///< user payloads this rank handled
    /// Next envelope sequence number per destination rank.
    struct alignas(64) seq_slot { std::atomic<std::uint64_t> next{0}; };
    std::vector<seq_slot> seq;
    // Control-plane mailboxes (written by handlers on this rank's thread).
    std::atomic<std::int64_t> td_result_round{-1};
    std::atomic<bool> td_result_done{false};
    std::atomic<std::uint64_t> coll_result_gen{0};
    std::array<std::byte, 56> coll_result_bytes{};
  };

  /// What one drain dispatched: `envelopes` (control plane included) gates
  /// yielding; `user_payloads` feeds the quiescence predicates and the
  /// public drain()/poll_once() return values.
  struct drain_result {
    std::size_t user_payloads = 0;
    std::size_t envelopes = 0;
  };

  /// Stamps `env` and hands it to the backend: one call per envelope.
  void deliver(rank_t src, rank_t dest, detail::envelope env, std::uint32_t user_payloads);
  /// One backend poll for `ctx`'s rank, then dispatch from its inbox.
  drain_result drain_rank(transport_context& ctx, bool at_most_one);
  /// The one progress loop of every wait in the runtime: drain `ctx`'s
  /// inbox until `done(last drain)` holds, running `idle` between drains
  /// and yielding after a pass that neither dispatched nor worked; throws
  /// run_aborted once another rank failed.
  template <class Done>
  void progress_until(transport_context& ctx, Done done, bool at_most_one = false,
                      const work_step& idle = {});
  /// Flush and drain until this rank is locally quiescent: nothing
  /// buffered, nothing waiting in its inbox or the backend, no handler
  /// running (td_round, epoch::flush).
  void quiesce_local(transport_context& ctx);
  /// Runs the registered drains, then spills every lane of `ctx`'s rank.
  /// Called only on the rank's own thread (td_round, epoch::flush).
  void flush_all_types(transport_context& ctx);
  /// Nothing buffered in any outgoing lane or reduction cache of `r`: one
  /// relaxed counter read per message type (a transport-wide aggregate
  /// would put a second atomic RMW on every send).
  bool outbound_empty(rank_t r) const {
    for (const auto& mt : types_)
      if (mt->rank_occupancy(r) != 0) return false;
    return true;
  }
  /// Inbox empty and no handler mid-flight (exact snapshot under its lock).
  bool locally_quiet(rank_t r) const;
  /// Runs `body` as local rank `r`; a throw records the run's failure.
  template <class Body>
  void guarded(rank_t r, Body body);
  /// After an aborted run: drops everything in flight (inboxes, backend,
  /// lanes, drains' pending work, collectives) and restarts the TD and
  /// sequence counters, so the next run terminates.
  void discard_in_flight();

  // ---- control plane ------------------------------------------------------
  // These payloads cross the backend seam (TD reports/verdicts and
  // collective contributions travel rank-to-rank like any envelope), so
  // they obey the wire contract from wire.hpp: fixed-width fields and
  // explicit padding, asserted padding-free below — their object bytes ARE
  // their wire bytes, on every process of a run.
  struct td_report_t {
    std::uint64_t round, sent, recv;
    rank_t src;
    std::uint32_t pad0 = 0;
  };
  struct td_result_t {
    std::uint64_t round;
    std::uint32_t done;
    std::uint32_t pad0 = 0;
  };
  struct coll_contrib_t {
    std::uint64_t gen;
    rank_t src;
    std::uint32_t size;
    std::array<std::byte, 56> bytes;
  };
  struct coll_result_t {
    std::uint64_t gen;
    std::uint32_t size;
    std::uint32_t pad0 = 0;
    std::array<std::byte, 56> bytes;
  };
  static_assert(sizeof(td_report_t) == 32 && sizeof(td_result_t) == 16 &&
                    sizeof(coll_contrib_t) == 72 && sizeof(coll_result_t) == 72,
                "control-plane payload layouts are part of the wire protocol");
  static_assert(std::has_unique_object_representations_v<td_report_t> &&
                    std::has_unique_object_representations_v<td_result_t> &&
                    std::has_unique_object_representations_v<coll_contrib_t> &&
                    std::has_unique_object_representations_v<coll_result_t>,
                "control-plane payloads must be padding-free: they memcpy across the seam");

  struct td_coordinator {
    std::mutex mu;
    std::uint64_t round = 0;
    std::uint32_t reports = 0;
    std::uint64_t sum_sent = 0, sum_recv = 0;
    std::uint64_t prev_sent = ~0ULL, prev_recv = ~0ULL;
  };
  struct coll_round {
    std::vector<coll_contrib_t> contribs;
  };
  struct coll_coordinator {
    std::mutex mu;
    std::map<std::uint64_t, coll_round> rounds;
  };

  void register_control_plane();
  void td_on_report(transport_context& ctx, const td_report_t& r);
  /// One termination-detection round for the calling rank: flush, drain to
  /// empty, report, wait for the verdict (running `step` between drains).
  /// Returns true iff globally done.
  bool td_round(transport_context& ctx, const work_step& step = {});

  template <class Payload>
  message_type<Payload>& make_internal(std::string name,
                                       std::function<void(transport_context&, const Payload&)> h);

  transport_config cfg_;
  /// The ranks whose SPMD function runs in this process: every rank
  /// in-process, the hosted rank across processes.
  rank_t local_lo_ = 0, local_hi_ = 0;
  std::vector<std::unique_ptr<detail::message_type_base>> types_;
  std::vector<drain_fn> drains_;  ///< indexed by add_drain id; removed ones are empty
  std::vector<rank_state> ranks_;
  detail::inbox_set inboxes_;
  std::shared_ptr<wire_pool> pool_;  ///< envelope buffers, possibly shared
  obs::registry obs_;
  topology_stamp stamp_;
  bool running_ = false;
  /// The first failure of the current run and the rank it happened on
  /// (invalid_rank: none; read lock-free by every progress loop).
  std::mutex err_mu_;
  std::exception_ptr first_error_;
  std::atomic<rank_t> failed_rank_{invalid_rank};

  td_coordinator td_;
  coll_coordinator coll_;
  message_type<td_report_t>* mt_td_report_ = nullptr;
  message_type<td_result_t>* mt_td_result_ = nullptr;
  message_type<coll_contrib_t>* mt_coll_contrib_ = nullptr;
  message_type<coll_result_t>* mt_coll_result_ = nullptr;
  /// Declared last: destroyed first, while what it references still lives.
  std::unique_ptr<envelope_backend> backend_;
};

// ===========================================================================
// message_type implementation
// ===========================================================================

template <class Payload>
void message_type<Payload>::dispatch_thunk(detail::message_type_base* self,
                                           transport_context& ctx, const std::byte* data,
                                           std::uint32_t count) {
  auto* mt = static_cast<message_type<Payload>*>(self);
  if (mt->layout_.empty()) {
    if (mt->batch_) {
      // Whole-envelope dispatch: the records sit packed in the wire buffer
      // exactly as sent (no layout truncation), so the batch handler can
      // read them in place. received/handler accounting is done by
      // the caller per envelope count, identical to the per-record path.
      mt->batch_(ctx, data, count);
      return;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      Payload p;
      std::memcpy(&p, data + i * sizeof(Payload), sizeof(Payload));
      mt->handler_(ctx, p);
    }
    return;
  }
  const std::size_t stride = mt->wire_stride_;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::byte* in = data + i * stride;
    // Value-init so bytes outside the live ranges hold the payload type's
    // defaults (sentinels stay sentinels), then scatter the wire bytes back
    // to their home offsets.
    Payload p{};
    std::byte* out = reinterpret_cast<std::byte*>(&p);
    for (const wire_range& r : mt->layout_) {
      std::memcpy(out + r.offset, in, r.len);
      in += r.len;
    }
    mt->handler_(ctx, p);
  }
}

template <class Payload>
void message_type<Payload>::set_batch_handler(batch_handler_fn h) {
  DPG_ASSERT_MSG(tp_ == nullptr || !tp_->running_,
                 "batch handlers must be installed before transport::run");
  batch_ = std::move(h);
}

template <class Payload>
void message_type<Payload>::set_wire_layout(std::vector<wire_range> ranges) {
  DPG_ASSERT_MSG(tp_ == nullptr || !tp_->running_,
                 "wire layouts must be installed before transport::run");
  std::size_t stride = 0, prev_end = 0;
  for (const wire_range& r : ranges) {
    DPG_ASSERT_MSG(r.len > 0 && r.offset >= prev_end &&
                       r.offset + r.len <= sizeof(Payload),
                   "wire layout ranges must be sorted, disjoint, and in-bounds");
    prev_end = r.offset + r.len;
    stride += r.len;
  }
  if (stride == sizeof(Payload)) {  // full coverage: plain memcpy is faster
    layout_.clear();
    wire_stride_ = sizeof(Payload);
    return;
  }
  DPG_ASSERT_MSG(stride > 0, "a wire layout must carry at least one byte");
  layout_ = std::move(ranges);
  wire_stride_ = stride;
}

template <class Payload>
void message_type<Payload>::send(transport_context& ctx, rank_t dest,
                                 std::span<const Payload> run) {
  DPG_ASSERT_MSG(ctx.rank() == current_rank(), "send from a foreign rank's context");
  DPG_ASSERT_MSG(dest < tp_->size(), "destination rank out of range");
  DPG_ASSERT_MSG(internal_ || ctx.in_epoch(),
                 "user messages may only be sent inside an epoch");
  lane& ln = rows_[ctx.rank()].lanes[dest];
  std::lock_guard<dpg::spinlock> lane_guard(ln.mu);
  const std::size_t cap = tp_->cfg_.coalescing_size;

  if (reduce_) {
    for (const Payload& p : run) {
      const std::uint64_t key = reduce_->key(p);
      // Fibonacci hash into the direct-mapped cache.
      const std::size_t slot_idx =
          static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - reduce_->bits));
      red_slot& slot = ln.cache[slot_idx];
      if (slot.used && slot.key == key) {
        if (reduce_->combine) {
          slot.payload = reduce_->combine(slot.payload, p);
          ++ln.hits;
          continue;
        }
        if (std::memcmp(&slot.payload, &p, sizeof(Payload)) == 0) {
          ++ln.hits;
          continue;
        }
      }
      if (slot.used) {
        // Evict: the old payload moves slot -> buf (still buffered) and the
        // new one takes the slot, so the net occupancy change is +1.
        ln.buf.push_back(slot.payload);
        ++ln.evictions;
      } else {
        ++ln.used_slots;
        ln.used_list.push_back(static_cast<std::uint32_t>(slot_idx));
      }
      slot.used = true;
      slot.key = key;
      slot.payload = p;
      note_occupancy(ln, +1);
      if (ln.buf.size() >= cap) flush_lane_locked(ctx.rank(), dest, ln, /*spill_cache=*/false);
    }
    return;
  }

  // Append in chunks that fill the lane exactly to the coalescing size, so
  // every envelope carries what one-by-one sends would have put in it.
  while (!run.empty()) {
    const std::size_t take = std::min(run.size(), cap - std::min(cap, ln.buf.size()));
    ln.buf.insert(ln.buf.end(), run.begin(), run.begin() + static_cast<std::ptrdiff_t>(take));
    note_occupancy(ln, static_cast<std::int64_t>(take));
    run = run.subspan(take);
    if (ln.buf.size() >= cap) flush_lane_locked(ctx.rank(), dest, ln, /*spill_cache=*/false);
  }
}

template <class Payload>
void message_type<Payload>::send(transport_context& ctx, const Payload& p) {
  DPG_ASSERT_MSG(static_cast<bool>(addr_), "message type has no address map");
  send(ctx, addr_(p), p);
}

template <class Payload>
void message_type<Payload>::enable_reduction(key_fn key, combine_fn combine,
                                             unsigned cache_bits) {
  DPG_ASSERT_MSG(cache_bits >= 1 && cache_bits <= 24, "unreasonable reduction cache size");
  reduce_ = reduction{std::move(key), std::move(combine), cache_bits};
  for (auto& row : rows_)
    for (auto& ln : row.lanes) ln.cache.assign(std::size_t{1} << cache_bits, red_slot{});
}

template <class Payload>
void message_type<Payload>::enable_suppression(key_fn key, unsigned cache_bits) {
  enable_reduction(std::move(key), combine_fn{}, cache_bits);
}

template <class Payload>
void message_type<Payload>::note_occupancy(lane& ln, std::int64_t delta) {
  ln.occupancy.store(ln.occupancy.load(std::memory_order_relaxed) + delta,
                     std::memory_order_relaxed);
}

template <class Payload>
void message_type<Payload>::flush_lane_locked(rank_t src, rank_t dest, lane& ln,
                                              bool spill_cache) {
  transport_stats& core = tp_->obs_.core();
  core.flush_lane_visits.fetch_add(1, std::memory_order_relaxed);
  if (ln.hits != 0)
    core.cache_hits.fetch_add(std::exchange(ln.hits, 0), std::memory_order_relaxed);
  if (ln.evictions != 0)
    core.cache_evictions.fetch_add(std::exchange(ln.evictions, 0), std::memory_order_relaxed);
  if (reduce_ && spill_cache && ln.used_slots != 0) {
    // Spill O(used) slots via the used-slot index list, not O(2^bits) over
    // the whole cache. slot -> buf is occupancy-neutral; the flush below
    // settles the account.
    for (const std::uint32_t idx : ln.used_list) {
      red_slot& slot = ln.cache[idx];
      ln.buf.push_back(slot.payload);
      slot.used = false;
    }
    ln.used_list.clear();
    ln.used_slots = 0;
  }
  if (ln.buf.empty()) return;
  const auto count = static_cast<std::uint32_t>(ln.buf.size());
  detail::envelope env;
  env.vt = &vt_;
  env.count = count;
  env.bytes = tp_->pool_->acquire(src);
  if (env.bytes.capacity() != 0) core.pool_reuses.fetch_add(1, std::memory_order_relaxed);
  if (layout_.empty()) {
    env.bytes.resize(ln.buf.size() * sizeof(Payload));
    std::memcpy(env.bytes.data(), ln.buf.data(), env.bytes.size());
  } else {
    // Compact wire layout: gather only the live ranges of each payload,
    // packed back to back. The receiver's dispatch_thunk reverses this.
    env.bytes.resize(ln.buf.size() * wire_stride_);
    std::byte* out = env.bytes.data();
    for (const Payload& p : ln.buf) {
      const std::byte* in = reinterpret_cast<const std::byte*>(&p);
      for (const wire_range& r : layout_) {
        std::memcpy(out, in + r.offset, r.len);
        out += r.len;
      }
    }
  }
  const std::size_t wire_bytes = env.bytes.size();
  ln.buf.clear();
  note_occupancy(ln, -static_cast<std::int64_t>(count));
  const std::size_t n_bytes = static_cast<std::size_t>(count) * sizeof(Payload);
  tp_->deliver(src, dest, std::move(env), internal_ ? 0 : count);
  tp_->obs_.on_sent(id_, count, n_bytes);
  tp_->obs_.on_envelope(id_, wire_bytes);
  if (internal_)
    tp_->obs_.core().control_messages.fetch_add(count, std::memory_order_relaxed);
}

template <class Payload>
void message_type<Payload>::flush_rank(rank_t src) {
  per_source& row = rows_[src];
  const auto n_lanes = static_cast<rank_t>(row.lanes.size());
  std::uint64_t skipped = 0;
  for (rank_t d = 0; d < n_lanes; ++d) {
    // A clean lane (zero occupancy) is skipped without taking its lock —
    // the common case on TD idle spins, where no lane holds anything.
    lane& ln = row.lanes[d];
    if (ln.occupancy.load(std::memory_order_relaxed) == 0) {
      ++skipped;
      continue;
    }
    std::lock_guard<dpg::spinlock> lane_guard(ln.mu);
    flush_lane_locked(src, d, ln, /*spill_cache=*/true);
  }
  if (skipped != 0)
    tp_->obs_.core().flush_lane_skips.fetch_add(skipped, std::memory_order_relaxed);
}

template <class Payload>
void message_type<Payload>::discard() {
  for (per_source& row : rows_)
    for (lane& ln : row.lanes) {
      std::lock_guard<dpg::spinlock> lane_guard(ln.mu);
      ln.buf.clear();
      for (const std::uint32_t idx : ln.used_list) ln.cache[idx].used = false;
      ln.used_list.clear();
      ln.used_slots = 0;
      ln.hits = ln.evictions = 0;
      ln.occupancy.store(0, std::memory_order_relaxed);
    }
}

template <class Payload>
std::int64_t message_type<Payload>::rank_occupancy(rank_t src) const {
  std::int64_t n = 0;
  for (const lane& ln : rows_[src].lanes)
    n += ln.occupancy.load(std::memory_order_relaxed);
  return n;
}

template <class Payload>
std::int64_t message_type<Payload>::rank_occupancy_scan(rank_t src) const {
  std::int64_t n = 0;
  for (const lane& ln : rows_[src].lanes) {
    std::lock_guard<dpg::spinlock> lane_guard(ln.mu);
    n += static_cast<std::int64_t>(ln.buf.size());
    for (const red_slot& s : ln.cache)
      if (s.used) ++n;
  }
  return n;
}

// ===========================================================================
// transport template members
// ===========================================================================

template <class Payload, message_handler<Payload> H>
message_type<Payload>& transport::make_message_type(std::string name, H handler) {
  DPG_ASSERT_MSG(!running_, "message types must be registered before transport::run");
  auto mt = std::unique_ptr<message_type<Payload>>(new message_type<Payload>());
  mt->name_ = std::move(name);
  mt->id_ = static_cast<msg_type_id>(types_.size());
  mt->wire_hash_ = wire_name_hash(mt->name_);
  mt->tp_ = this;
  mt->handler_ = std::move(handler);
  mt->rows_.resize(cfg_.n_ranks);
  for (auto& row : mt->rows_) row.lanes.resize(cfg_.n_ranks);
  mt->vt_ = detail::message_vtable{&message_type<Payload>::dispatch_thunk, sizeof(Payload),
                                   mt.get()};
  auto& ref = *mt;
  const std::size_t slot = obs_.add_type(mt->name_);
  DPG_ASSERT(slot == mt->id_);
  types_.push_back(std::move(mt));
  return ref;
}

template <class Payload, message_handler<Payload> H, address_map<Payload> A>
message_type<Payload>& transport::make_message_type(std::string name, H handler, A addr) {
  auto& mt = make_message_type<Payload>(std::move(name), std::move(handler));
  mt.addr_ = [a = std::move(addr)](const Payload& p) { return static_cast<rank_t>(a(p)); };
  return mt;
}

template <class Payload>
message_type<Payload>& transport::make_internal(
    std::string name, std::function<void(transport_context&, const Payload&)> h) {
  auto& mt = make_message_type<Payload>(std::move(name), std::move(h));
  mt.internal_ = true;
  obs_.mark_internal(mt.id());
  return mt;
}

template <class T, class Op>
T transport_context::allreduce(T value, Op op) {
  static_assert(std::is_trivially_copyable_v<T>, "allreduce values must be trivially copyable");
  static_assert(sizeof(T) <= 56, "allreduce values are limited to 56 bytes");
  T out{};
  auto combine = [](void* opctx, const void* contrib, void* acc) {
    auto& o = *static_cast<Op*>(opctx);
    T a, c;
    std::memcpy(&a, acc, sizeof(T));
    std::memcpy(&c, contrib, sizeof(T));
    a = o(a, c);
    std::memcpy(acc, &a, sizeof(T));
  };
  allreduce_raw(&value, &out, sizeof(T), combine, &op);
  return out;
}

}  // namespace dpg::ampp
