#include "ampp/transport.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "ampp/epoch.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace dpg::ampp {

// ---------------------------------------------------------------------------
// current_rank
// ---------------------------------------------------------------------------

namespace {
thread_local rank_t tl_current_rank = invalid_rank;
thread_local bool tl_in_handler = false;

/// Marks the calling thread as dispatching a handler for its lifetime.
class handler_scope {
 public:
  handler_scope() : prev_(tl_in_handler) { tl_in_handler = true; }
  ~handler_scope() { tl_in_handler = prev_; }
  handler_scope(const handler_scope&) = delete;
  handler_scope& operator=(const handler_scope&) = delete;

 private:
  bool prev_;
};
}  // namespace

rank_t current_rank() noexcept { return tl_current_rank; }

bool in_handler() noexcept { return tl_in_handler; }

namespace detail {

current_rank_scope::current_rank_scope(rank_t r) noexcept {
  DPG_ASSERT_MSG(tl_current_rank == invalid_rank, "nested transport::run on one thread");
  tl_current_rank = r;
}

current_rank_scope::~current_rank_scope() { tl_current_rank = invalid_rank; }

}  // namespace detail

// ---------------------------------------------------------------------------
// transport: construction / control plane registration
// ---------------------------------------------------------------------------

transport::transport(machine_config machine, tuning_config tuning,
                     std::shared_ptr<wire_pool> pool)
    : transport(transport_config::join(machine, tuning), std::move(pool)) {}

transport::transport(transport_config cfg, std::shared_ptr<wire_pool> pool)
    : cfg_(std::move(cfg)),
      ranks_(cfg_.n_ranks),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<wire_pool>(cfg_.n_ranks)) {
  DPG_ASSERT_MSG(cfg_.n_ranks >= 1, "transport needs at least one rank");
  DPG_ASSERT_MSG(cfg_.coalescing_size >= 1, "coalescing size must be positive");
  faults_active_ = cfg_.faults.active();
  if (faults_active_) {
    fault_seed_ = substream_seed(cfg_.seed, 0xfa) ^ cfg_.faults.seed;
    for (rank_state& rs : ranks_) {
      rs.wire_seq = std::vector<std::atomic<std::uint64_t>>(cfg_.n_ranks);
      rs.dedup.resize(cfg_.n_ranks);
    }
  }
  if (cfg_.backend.cross_process()) {
    DPG_ASSERT_MSG(cfg_.n_ranks >= 2, "a cross-process machine needs at least two ranks");
    DPG_ASSERT_MSG(!faults_active_,
                   "fault plans are an in-process-only instrument: real backends are "
                   "reliable ordered pipes, so there is nothing for the plan to model");
    // Rendezvous happens here: the constructor returns only once every
    // sibling rank process attached and passed the handshake.
    backend_ = make_backend(cfg_.backend, cfg_.n_ranks);
    xproc_ = true;
    self_rank_ = cfg_.backend.self_rank;
    xsend_seq_ = std::vector<std::atomic<std::uint64_t>>(cfg_.n_ranks);
    xrecv_seq_.assign(cfg_.n_ranks, 0);
    oob_in_.resize(cfg_.n_ranks);
  }
  register_control_plane();
}

transport::~transport() = default;

void transport::register_control_plane() {
  mt_td_report_ = &make_internal<td_report_t>(
      "dpg.td_report",
      [this](transport_context& ctx, const td_report_t& r) { td_on_report(ctx, r); });

  mt_td_result_ = &make_internal<td_result_t>(
      "dpg.td_result", [this](transport_context& ctx, const td_result_t& r) {
        rank_state& rs = ranks_[ctx.rank()];
        rs.td_result_done.store(r.done != 0, std::memory_order_relaxed);
        rs.td_result_round.store(static_cast<std::int64_t>(r.round), std::memory_order_release);
      });

  mt_coll_contrib_ = &make_internal<coll_contrib_t>(
      "dpg.coll_contrib", [this](transport_context&, const coll_contrib_t& c) {
        std::lock_guard<std::mutex> g(coll_.mu);
        coll_.rounds[c.gen].contribs.push_back(c);
      });

  mt_coll_result_ = &make_internal<coll_result_t>(
      "dpg.coll_result", [this](transport_context& ctx, const coll_result_t& r) {
        rank_state& rs = ranks_[ctx.rank()];
        rs.coll_result_bytes = r.bytes;
        rs.coll_result_gen.store(r.gen, std::memory_order_release);
      });
}

// ---------------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------------

void transport::deliver(rank_t src, rank_t dest, detail::envelope env,
                        std::uint32_t user_payloads) {
  transport_stats& st = obs_.core();
  st.envelopes_sent.fetch_add(1, std::memory_order_relaxed);
  // bytes_sent counts *logical* payload bytes; wire_bytes_sent counts what
  // actually travels, which is smaller when a compact wire layout is
  // installed (see message_type::set_wire_layout).
  st.bytes_sent.fetch_add(env.count * env.vt->payload_size, std::memory_order_relaxed);
  st.wire_bytes_sent.fetch_add(env.bytes.size(), std::memory_order_relaxed);
  // `sent` counts at the first transmission only: a held (delayed or
  // dropped) payload keeps ΣS > ΣR until its eventual dispatch, so
  // termination detection can never declare done over an in-flight retry.
  if (user_payloads != 0) {
    st.messages_sent.fetch_add(user_payloads, std::memory_order_relaxed);
    if (src == dest)
      st.self_deliveries.fetch_add(user_payloads, std::memory_order_relaxed);
    ranks_[src].sent.fetch_add(user_payloads, std::memory_order_relaxed);
  }
  {
    obs::trace_span sp(&obs_.trace(), "transport", "envelope", src);
    sp.arg("dest", dest);
    sp.arg("count", env.count);
    sp.arg("bytes", env.bytes.size());
  }
  if (xproc_ && dest != self_rank_) {
    // Remote rank: frame the envelope and hand it to the wire. Everything
    // above this point (stats, TD sent-counting at first transmission) is
    // identical to the in-process path, which is what lets the four-counter
    // protocol sit oblivious above the seam.
    DPG_ASSERT_MSG(src == self_rank_, "cross-process send from a foreign rank");
    wire_header h;
    h.type_id = env.vt->self->id();
    h.type_hash = env.vt->self->wire_hash();
    h.count = env.count;
    h.payload_bytes = static_cast<std::uint32_t>(env.bytes.size());
    h.src = src;
    h.seq = xsend_seq_[dest].fetch_add(1, std::memory_order_relaxed);
    h.topo_version = topo_version_;
    h.structure_version = topo_structure_version_;
    backend_->send(dest, h, env.bytes.data());
    pool_release(src, std::move(env.bytes));
    return;
  }
  if (faults_active_) {
    env.src = src;
    env.seq = ranks_[src].wire_seq[dest].fetch_add(1, std::memory_order_relaxed);
    transmit(src, dest, std::move(env), /*drops=*/0, /*fresh=*/true);
    return;
  }
  rank_state& rs = ranks_[dest];
  std::lock_guard<std::mutex> g(rs.inbox_mu);
  rs.inbox.push_back(std::move(env));
}

void transport::transmit(rank_t src, rank_t dest, detail::envelope env, unsigned drops,
                         bool fresh) {
  const detail::message_type_base* mt = env.vt->self;
  const fault_rule* rule = cfg_.faults.match(src, dest, mt->name());
  if (rule == nullptr) {
    enqueue_wire(src, dest, nullptr, std::move(env), 0);
    return;
  }
  const msg_type_id tid = mt->id();
  const std::uint64_t seq = env.seq;
  transport_stats& st = obs_.core();

  if (fresh && fault_plan::decide(rule->delay, fault_seed_, fault_stage::delay, src, dest,
                                  tid, seq, 0)) {
    st.envelopes_delayed.fetch_add(1, std::memory_order_relaxed);
    hold_envelope(src, dest, std::move(env),
                  ranks_[src].fault_tick.load(std::memory_order_relaxed) + rule->delay_flushes,
                  drops, /*is_retry=*/false);
    return;
  }

  if (drops < rule->max_drops &&
      fault_plan::decide(rule->drop, fault_seed_, fault_stage::drop, src, dest, tid, seq,
                         drops)) {
    // Lost on the wire; the sender's ack timeout fires after
    // retry_timeout_flushes << min(drops, cap) progress ticks (exponential
    // backoff) and the envelope is retransmitted. max_drops bounds the
    // adversary; the shift cap keeps the backoff finite and monotone when a
    // plan (or a genuinely lossy wire) drops the same envelope dozens of
    // times — an uncapped `<< drops` is undefined behavior at 64 drops and
    // wraps the due tick into the far past or future well before that. The
    // cap (1024 ticks) is already orders of magnitude past any genuine
    // congestion window here; existing plans (max_drops <= 4) never reach it.
    constexpr unsigned kMaxBackoffShift = 10;
    st.envelopes_dropped.fetch_add(1, std::memory_order_relaxed);
    hold_envelope(src, dest, std::move(env),
                  ranks_[src].fault_tick.load(std::memory_order_relaxed) +
                      (static_cast<std::uint64_t>(rule->retry_timeout_flushes)
                       << std::min(drops, kMaxBackoffShift)),
                  drops + 1, /*is_retry=*/true);
    return;
  }

  if (fault_plan::decide(rule->duplicate, fault_seed_, fault_stage::duplicate, src, dest,
                         tid, seq, drops)) {
    st.envelopes_duplicated.fetch_add(1, std::memory_order_relaxed);
    detail::envelope copy;
    copy.vt = env.vt;
    copy.count = env.count;
    copy.bytes = env.bytes;
    copy.src = env.src;
    copy.seq = env.seq;
    enqueue_wire(src, dest, rule, std::move(copy), drops + (1ULL << 32));
  }
  enqueue_wire(src, dest, rule, std::move(env), drops);
}

void transport::enqueue_wire(rank_t src, rank_t dest, const fault_rule* rule,
                             detail::envelope env, std::uint64_t attempt) {
  rank_state& rs = ranks_[dest];
  std::lock_guard<std::mutex> g(rs.inbox_mu);
  if (rule != nullptr && !rs.inbox.empty() &&
      fault_plan::decide(rule->reorder, fault_seed_, fault_stage::reorder, src, dest,
                         env.vt->self->id(), env.seq, attempt)) {
    const std::size_t pos = static_cast<std::size_t>(
        fault_plan::draw(fault_seed_, fault_stage::placement, src, dest, env.vt->self->id(),
                         env.seq, attempt) %
        (rs.inbox.size() + 1));
    rs.inbox.insert(rs.inbox.begin() + static_cast<std::ptrdiff_t>(pos), std::move(env));
    return;
  }
  rs.inbox.push_back(std::move(env));
}

void transport::hold_envelope(rank_t src, rank_t dest, detail::envelope env,
                              std::uint64_t due_tick, unsigned drops, bool is_retry) {
  rank_state& rs = ranks_[src];
  std::lock_guard<std::mutex> g(rs.held_mu);
  rs.held.push_back(held_tx{std::move(env), dest, due_tick, drops, is_retry});
  rs.held_count.store(rs.held.size(), std::memory_order_release);
}

void transport::pump_faults(rank_t r) {
  rank_state& rs = ranks_[r];
  const std::uint64_t tick = rs.fault_tick.fetch_add(1, std::memory_order_relaxed) + 1;
  if (rs.held_count.load(std::memory_order_acquire) == 0) return;
  std::vector<held_tx> due;
  {
    std::lock_guard<std::mutex> g(rs.held_mu);
    for (auto it = rs.held.begin(); it != rs.held.end();) {
      if (it->due_tick <= tick) {
        due.push_back(std::move(*it));
        it = rs.held.erase(it);
      } else {
        ++it;
      }
    }
    rs.held_count.store(rs.held.size(), std::memory_order_release);
  }
  if (due.empty()) return;
  std::uint64_t retries = 0;
  for (const held_tx& h : due)
    if (h.is_retry) ++retries;
  if (retries != 0)
    obs_.core().envelopes_retried.fetch_add(retries, std::memory_order_relaxed);
  {
    obs::trace_span sp(&obs_.trace(), "fault", retries != 0 ? "retry_round" : "delay_release",
                       r);
    sp.arg("released", due.size());
    sp.arg("retries", retries);
    sp.arg("tick", tick);
  }
  // Retransmit outside held_mu: transmit may re-hold (another drop) or take
  // a destination inbox lock.
  for (held_tx& h : due) transmit(r, h.dest, std::move(h.env), h.drops, /*fresh=*/false);
}

bool transport::dedup_accept(rank_state& rs, const detail::envelope& env) {
  rank_state::dedup_window& w = rs.dedup[env.src];
  if (env.seq < w.next_expected) return false;
  if (env.seq == w.next_expected) {
    ++w.next_expected;
    // Absorb the contiguous run the out-of-order set already holds.
    auto it = w.ahead.begin();
    while (it != w.ahead.end() && *it == w.next_expected) {
      it = w.ahead.erase(it);
      ++w.next_expected;
    }
    return true;
  }
  return w.ahead.insert(env.seq).second;
}

bool transport::fault_held_empty(rank_t r) const {
  return ranks_[r].held_count.load(std::memory_order_acquire) == 0;
}

std::vector<std::byte> transport::pool_acquire(rank_t src) {
  std::vector<std::byte> bytes = pool_->acquire(src);
  if (bytes.capacity() != 0)
    obs_.core().pool_reuses.fetch_add(1, std::memory_order_relaxed);
  return bytes;
}

void transport::pool_release(rank_t r, std::vector<std::byte>&& bytes) {
  pool_->release(r, std::move(bytes));
}

void transport::set_topology_stamp(std::uint64_t version, std::uint64_t structure_version) {
  DPG_ASSERT_MSG(!running_, "the topology stamp may only change between runs");
  topo_version_ = version;
  topo_structure_version_ = structure_version;
}

void transport::poll_backend() {
  backend_->poll([this](const wire_header& h, const std::byte* payload) {
    // The backend already ran validate_header (magic/version/endian/src);
    // here the frame meets the local process: registry, topology, ordering.
    if (h.flags & wire_flag_oob) {
      std::lock_guard<std::mutex> g(oob_mu_);
      oob_in_[h.src].emplace_back(
          h.seq, std::vector<std::byte>(payload, payload + h.payload_bytes));
      return;
    }
    if (h.type_id >= types_.size())
      throw wire_error("wire frame: unknown message type id " +
                       std::to_string(h.type_id) + " (registry has " +
                       std::to_string(types_.size()) + " types)");
    detail::message_type_base* mt = types_[h.type_id].get();
    if (h.type_hash != mt->wire_hash())
      throw wire_error("wire frame: type hash mismatch for id " +
                       std::to_string(h.type_id) + " (local type '" + mt->name() +
                       "') — processes registered message types in different orders");
    if (h.topo_version != topo_version_ || h.structure_version != topo_structure_version_)
      throw wire_error(
          "wire frame: stale topology stamp (frame v" + std::to_string(h.topo_version) +
          "/s" + std::to_string(h.structure_version) + ", local v" +
          std::to_string(topo_version_) + "/s" + std::to_string(topo_structure_version_) +
          ") — cross-process runs require single-writer topology; see docs/runtime.md");
    if (h.seq != xrecv_seq_[h.src])
      throw wire_error("wire frame: sequence gap from rank " + std::to_string(h.src) +
                       " (got " + std::to_string(h.seq) + ", expected " +
                       std::to_string(xrecv_seq_[h.src]) +
                       ") — the backend pipe is supposed to be reliable and ordered");
    ++xrecv_seq_[h.src];
    if (h.payload_bytes != h.count * mt->wire_stride_bytes())
      throw wire_error("wire frame: length disagrees with payload stride for type '" +
                       mt->name() + "'");
    detail::envelope env;
    env.vt = mt->wire_vtable();
    env.count = h.count;
    env.bytes = pool_acquire(self_rank_);
    env.bytes.resize(h.payload_bytes);
    std::memcpy(env.bytes.data(), payload, h.payload_bytes);
    env.src = h.src;
    env.seq = h.seq;
    rank_state& rs = ranks_[self_rank_];
    std::lock_guard<std::mutex> g(rs.inbox_mu);
    rs.inbox.push_back(std::move(env));
  });
}

std::vector<std::vector<std::byte>> transport::exchange_blobs(
    const std::vector<std::byte>& mine) {
  DPG_ASSERT_MSG(xproc_, "exchange_blobs is the cross-process gather; in-process code "
                         "reads sibling shards directly");
  DPG_ASSERT_MSG(!running_, "exchange_blobs is a between-runs collective");
  DPG_ASSERT_MSG(mine.size() < (std::uint64_t{1} << 32), "blob too large for one frame");
  const std::uint64_t gen = ++oob_gen_;
  wire_header h;
  h.flags = wire_flag_oob;
  h.payload_bytes = static_cast<std::uint32_t>(mine.size());
  h.src = self_rank_;
  h.seq = gen;  // OOB frames use the exchange generation, not the envelope seq
  h.topo_version = topo_version_;
  h.structure_version = topo_structure_version_;
  for (rank_t d = 0; d < cfg_.n_ranks; ++d)
    if (d != self_rank_) backend_->send(d, h, mine.data());

  std::vector<std::vector<std::byte>> out(cfg_.n_ranks);
  out[self_rank_] = mine;
  for (rank_t src = 0; src < cfg_.n_ranks; ++src) {
    if (src == self_rank_) continue;
    for (;;) {
      {
        std::lock_guard<std::mutex> g(oob_mu_);
        auto& q = oob_in_[src];
        if (!q.empty()) {
          // SPMD program order makes generations lockstep per source; a
          // mismatch means the processes diverged.
          if (q.front().first != gen)
            throw wire_error("exchange_blobs: generation mismatch from rank " +
                             std::to_string(src) + " (got " +
                             std::to_string(q.front().first) + ", expected " +
                             std::to_string(gen) + ")");
          out[src] = std::move(q.front().second);
          q.pop_front();
          break;
        }
      }
      poll_backend();
      std::this_thread::yield();
    }
  }
  return out;
}

transport::drain_result transport::drain_rank(transport_context& ctx, bool at_most_one) {
  rank_state& rs = ranks_[ctx.rank()];
  if (xproc_) poll_backend();
  if (faults_active_) pump_faults(ctx.rank());
  drain_result res;
  for (;;) {
    detail::envelope env;
    bool suppressed = false;
    {
      std::lock_guard<std::mutex> g(rs.inbox_mu);
      if (rs.inbox.empty()) break;
      env = std::move(rs.inbox.front());
      rs.inbox.pop_front();
      if (faults_active_ && !dedup_accept(rs, env)) {
        // Injected duplicate: absorbed by the dedup window before dispatch;
        // neither `received` nor any per-type counter moves, so exactly-once
        // accounting (and the TD sums) are unaffected.
        obs_.core().duplicates_suppressed.fetch_add(1, std::memory_order_relaxed);
        suppressed = true;
      } else {
        // Claimed under the lock: quiescence tests see either the queued
        // envelope or the active handler, never a gap.
        rs.active_handlers.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (suppressed) {
      pool_release(ctx.rank(), std::move(env.bytes));
      continue;
    }
    {
      obs::trace_span sp(&obs_.trace(), "handler", env.vt->self->name().c_str(),
                         ctx.rank());
      sp.arg("count", env.count);
      handler_scope in_dispatch;
      env.vt->dispatch(env.vt->self, ctx, env.bytes.data(), env.count);
    }
    const bool internal = env.vt->self->internal_;
    obs_.on_handled(env.vt->self->id(), env.count);
    if (!internal) {
      rs.received.fetch_add(env.count, std::memory_order_relaxed);
      obs_.core().handler_invocations.fetch_add(env.count, std::memory_order_relaxed);
      res.user_payloads += env.count;
    }
    rs.active_handlers.fetch_sub(1, std::memory_order_release);
    ++res.envelopes;
    pool_release(ctx.rank(), std::move(env.bytes));
    if (at_most_one) break;
  }
  return res;
}

bool transport::locally_quiet(rank_t r) const {
  const rank_state& rs = ranks_[r];
  std::lock_guard<std::mutex> g(rs.inbox_mu);
  return rs.inbox.empty() && rs.active_handlers.load(std::memory_order_acquire) == 0;
}

std::size_t transport::add_drain(drain_fn fn) {
  DPG_ASSERT_MSG(!running_, "drains must be registered between runs");
  drains_.push_back(std::move(fn));
  return drains_.size() - 1;
}

void transport::remove_drain(std::size_t id) {
  DPG_ASSERT_MSG(!running_, "drains must be removed between runs");
  drains_.at(id) = nullptr;
}

void transport::flush_all_types(transport_context& ctx) {
  const rank_t src = ctx.rank();
  obs::trace_span sp(&obs_.trace(), "transport", "flush", src);
  for (const drain_fn& d : drains_)
    if (d) d(ctx);
  if (faults_active_) pump_faults(src);
  for (auto& mt : types_) mt->flush_rank(src);
}

bool transport::all_buffers_empty(rank_t src) const {
  if (!outbound_empty(src)) return false;
  if (!fault_held_empty(src)) return false;
  const rank_state& rs = ranks_[src];
  std::lock_guard<std::mutex> g(rs.inbox_mu);
  return rs.inbox.empty();
}

bool transport::occupancy_consistent() const {
  for (rank_t r = 0; r < cfg_.n_ranks; ++r) {
    for (const auto& mt : types_) {
      const std::int64_t counter = mt->rank_occupancy(r);
      const std::int64_t scan = mt->rank_occupancy_scan(r);
      if (counter != scan) {
        DPG_WARN("occupancy drift: type '%s' rank %u counter=%lld scan=%lld",
                 mt->name().c_str(), static_cast<unsigned>(r),
                 static_cast<long long>(counter), static_cast<long long>(scan));
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

void transport::run(const std::function<void(transport_context&)>& f) {
  DPG_ASSERT_MSG(!running_, "transport::run is not reentrant");
  running_ = true;
  // Reset per-run control-plane state; message counters stay cumulative
  // (the four-counter protocol only needs monotonicity).
  td_.round = 0;
  td_.reports = 0;
  td_.sum_sent = td_.sum_recv = 0;
  td_.prev_sent = td_.prev_recv = ~0ULL;
  // Deliberately NOT clearing coll_.rounds: in-process it is provably empty
  // here (all rank threads joined, and a parked contribution would have
  // deadlocked the collective that owned it), but cross-process a fast peer
  // can enter the next run and land its first-generation contribution while
  // this coordinator still drains the previous run's tail — wiping it would
  // lose the contribution and deadlock that collective. Generation numbers
  // restart per run in lockstep, so the stashed entry is exactly the one
  // the next run's first collective will look up.
  for (rank_state& rs : ranks_) {
    rs.td_result_round.store(-1, std::memory_order_relaxed);
    rs.td_result_done.store(false, std::memory_order_relaxed);
    rs.coll_result_gen.store(0, std::memory_order_relaxed);
  }

  if (cfg_.n_ranks == 1 && cfg_.handler_threads == 0) {
    detail::current_rank_scope scope(0);
    transport_context ctx(this, 0);
    f(ctx);
    quiesce_residual(ctx);
    DPG_ASSERT_MSG(all_buffers_empty(0), "messages left undelivered at end of run");
    running_ = false;
    return;
  }

  if (xproc_) {
    // Cross-process: this process hosts exactly one rank. The SPMD function
    // runs once, for self_rank_; sibling processes run the same program for
    // their ranks, and every remote envelope crosses the backend. Optional
    // helper threads drain the one local inbox, same as in-process.
    std::mutex xerr_mu;
    std::exception_ptr xerr;
    std::atomic<bool> stop_helpers{false};
    std::vector<std::thread> helpers;
    for (unsigned hth = 0; hth < cfg_.handler_threads; ++hth) {
      helpers.emplace_back([this, &stop_helpers, &xerr_mu, &xerr] {
        detail::current_rank_scope scope(self_rank_);
        transport_context hctx(this, self_rank_);
        hctx.in_epoch_ = true;
        try {
          while (!stop_helpers.load(std::memory_order_acquire)) {
            if (drain_rank(hctx, /*at_most_one=*/true).envelopes == 0)
              std::this_thread::yield();
          }
        } catch (...) {
          std::lock_guard<std::mutex> g(xerr_mu);
          if (!xerr) xerr = std::current_exception();
        }
      });
    }
    {
      detail::current_rank_scope scope(self_rank_);
      transport_context ctx(this, self_rank_);
      try {
        f(ctx);
      } catch (...) {
        std::lock_guard<std::mutex> g(xerr_mu);
        if (!xerr) xerr = std::current_exception();
      }
    }
    stop_helpers.store(true, std::memory_order_release);
    for (auto& t : helpers) t.join();
    running_ = false;
    if (xerr) std::rethrow_exception(xerr);
    return;
  }

  std::mutex err_mu;
  std::exception_ptr first_error;

  // Optional dedicated handler threads (§II-A multithreaded ranks): each
  // concurrently drains its rank's inbox for the whole run. They hold an
  // always-in-epoch context so the handlers they execute may send.
  std::atomic<bool> stop_helpers{false};
  std::vector<std::thread> helpers;
  for (rank_t r = 0; r < cfg_.n_ranks; ++r) {
    for (unsigned h = 0; h < cfg_.handler_threads; ++h) {
      helpers.emplace_back([this, r, &stop_helpers, &err_mu, &first_error] {
        detail::current_rank_scope scope(r);
        transport_context hctx(this, r);
        hctx.in_epoch_ = true;
        try {
          while (!stop_helpers.load(std::memory_order_acquire)) {
            // Gate on envelopes, not user payloads: a helper that just
            // dispatched a control-plane envelope (TD verdict, collective
            // result) did real work and should keep draining, not yield.
            if (drain_rank(hctx, /*at_most_one=*/true).envelopes == 0)
              std::this_thread::yield();
          }
        } catch (...) {
          std::lock_guard<std::mutex> g(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(cfg_.n_ranks);
  for (rank_t r = 0; r < cfg_.n_ranks; ++r) {
    threads.emplace_back([this, r, &f, &err_mu, &first_error] {
      detail::current_rank_scope scope(r);
      transport_context ctx(this, r);
      try {
        f(ctx);
        // Empty this rank's held queue before the thread exits: a parked
        // retry of a control-plane envelope (TD verdict, collective result)
        // would otherwise leave its destination rank spinning forever.
        quiesce_residual(ctx);
      } catch (...) {
        std::lock_guard<std::mutex> g(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  stop_helpers.store(true, std::memory_order_release);
  for (auto& t : helpers) t.join();
  if (faults_active_ && !first_error) {
    // Mop-up pass: residual quiesce above emptied every held queue, but a
    // release from rank A may have landed in rank B's inbox after B's final
    // drain (late verdict duplicates and the like). Drain every inbox to
    // empty — only internal control-plane envelopes can remain here (TD
    // proves user traffic quiescent at each epoch's end), and their
    // handlers send nothing — so the duplicate/suppression and drop/retry
    // conservation laws hold exactly at destruction.
    bool dirty = true;
    while (dirty) {
      dirty = false;
      for (rank_t r = 0; r < cfg_.n_ranks; ++r) {
        detail::current_rank_scope scope(r);
        transport_context cctx(this, r);
        drain_rank(cctx, /*at_most_one=*/false);
        if (!fault_held_empty(r) || !locally_quiet(r)) dirty = true;
      }
    }
  }
  running_ = false;
  if (first_error) std::rethrow_exception(first_error);
}

void transport::quiesce_residual(transport_context& ctx) {
  if (!faults_active_) return;
  const rank_t r = ctx.rank();
  while (!fault_held_empty(r)) {
    pump_faults(r);
    drain_rank(ctx, /*at_most_one=*/false);
    std::this_thread::yield();
  }
  drain_rank(ctx, /*at_most_one=*/false);
}

// ---------------------------------------------------------------------------
// termination detection (message-based four-counter protocol)
// ---------------------------------------------------------------------------

void transport::td_on_report(transport_context& ctx, const td_report_t& r) {
  DPG_ASSERT_MSG(ctx.rank() == 0, "TD reports must arrive at the coordinator");
  bool decide = false;
  std::uint64_t round = 0;
  bool done = false;
  {
    std::lock_guard<std::mutex> g(td_.mu);
    DPG_ASSERT_MSG(r.round == td_.round, "TD round mismatch (lockstep violated)");
    td_.sum_sent += r.sent;
    td_.sum_recv += r.recv;
    if (++td_.reports == cfg_.n_ranks) {
      done = td_.sum_sent == td_.sum_recv && td_.sum_sent == td_.prev_sent &&
             td_.sum_recv == td_.prev_recv;
      td_.prev_sent = td_.sum_sent;
      td_.prev_recv = td_.sum_recv;
      round = td_.round;
      ++td_.round;
      td_.reports = 0;
      td_.sum_sent = td_.sum_recv = 0;
      decide = true;
    }
  }
  if (decide) {
    obs_.core().td_rounds.fetch_add(1, std::memory_order_relaxed);
    const td_result_t result{round, done ? 1u : 0u};
    for (rank_t d = 0; d < cfg_.n_ranks; ++d) mt_td_result_->send(ctx, d, result);
    mt_td_result_->flush_rank(ctx.rank());
  }
}

bool transport::td_round(transport_context& ctx) {
  const rank_t r = ctx.rank();
  const std::uint64_t round = ctx.td_round_;
  obs::trace_span sp(&obs_.trace(), "epoch", "td_round", r);
  sp.arg("round", round);

  // Locally quiesce: alternate flushing outgoing buffers and handling
  // arrived messages until neither produces work — and, with dedicated
  // handler threads, until no handler is mid-flight (an in-flight handler
  // may still send). Handlers may refill buffers, hence the loop. With
  // fault injection the held queue (delayed/dropped envelopes awaiting
  // release) must also be empty before reporting: a parked user payload is
  // counted sent but not yet received, and each flush advances the
  // progress tick, so the loop pumps every hold to delivery.
  for (;;) {
    flush_all_types(ctx);
    const drain_result dr = drain_rank(ctx, /*at_most_one=*/false);
    // outbound_empty is one relaxed counter read per message type (no lane
    // locks, no cache scans): this spin is the hottest loop of every
    // strategy.
    if (dr.user_payloads == 0 && outbound_empty(r) && fault_held_empty(r) &&
        locally_quiet(r))
      break;
    if (dr.envelopes == 0) std::this_thread::yield();
  }

  const td_report_t report{round, ranks_[r].sent.load(std::memory_order_relaxed),
                           ranks_[r].received.load(std::memory_order_relaxed), r};
  mt_td_report_->send(ctx, 0, report);
  mt_td_report_->flush_rank(r);

  // Wait for the coordinator's verdict for this round; keep making
  // progress while waiting (handlers run, which may create new work — that
  // is fine, the next round will observe it).
  while (ranks_[r].td_result_round.load(std::memory_order_acquire) <
         static_cast<std::int64_t>(round)) {
    if (drain_rank(ctx, /*at_most_one=*/false).envelopes == 0) std::this_thread::yield();
  }
  ctx.td_round_ = round + 1;
  return ranks_[r].td_result_done.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// collectives
// ---------------------------------------------------------------------------

rank_t transport_context::size() const noexcept { return tp_->size(); }

std::size_t transport_context::drain() { return tp_->drain_rank(*this, false).user_payloads; }

std::size_t transport_context::poll_once() {
  return tp_->drain_rank(*this, true).user_payloads;
}

void transport_context::barrier() {
  std::uint32_t dummy = 0;
  allreduce(dummy, [](std::uint32_t a, std::uint32_t) { return a; });
  tp_->obs_.core().barriers.fetch_add(1, std::memory_order_relaxed);
}

void transport_context::allreduce_raw(const void* in, void* out, std::size_t size,
                                      void (*combine)(void*, const void*, void*),
                                      void* opctx) {
  DPG_ASSERT(size <= 56);
  transport& tp = *tp_;
  const std::uint64_t gen = ++coll_gen_;
  obs::trace_span sp(&tp.obs_.trace(), "collective", "allreduce", rank_);
  sp.arg("gen", gen);

  transport::coll_contrib_t contrib{};
  contrib.gen = gen;
  contrib.src = rank_;
  contrib.size = static_cast<std::uint32_t>(size);
  std::memcpy(contrib.bytes.data(), in, size);
  tp.mt_coll_contrib_->send(*this, 0, contrib);
  tp.mt_coll_contrib_->flush_rank(rank_);

  if (rank_ == 0) {
    // Coordinator: gather all contributions for this generation, fold them
    // in rank order (deterministic for non-commutative ops), broadcast.
    std::vector<transport::coll_contrib_t> contribs;
    for (;;) {
      {
        std::lock_guard<std::mutex> g(tp.coll_.mu);
        auto it = tp.coll_.rounds.find(gen);
        if (it != tp.coll_.rounds.end() && it->second.contribs.size() == tp.size()) {
          contribs = std::move(it->second.contribs);
          tp.coll_.rounds.erase(it);
          break;
        }
      }
      if (tp.drain_rank(*this, false).envelopes == 0) std::this_thread::yield();
    }
    std::sort(contribs.begin(), contribs.end(),
              [](const auto& a, const auto& b) { return a.src < b.src; });
    transport::coll_result_t result{};
    result.gen = gen;
    result.size = static_cast<std::uint32_t>(size);
    std::memcpy(result.bytes.data(), contribs[0].bytes.data(), size);
    for (rank_t i = 1; i < tp.size(); ++i)
      combine(opctx, contribs[i].bytes.data(), result.bytes.data());
    for (rank_t d = 0; d < tp.size(); ++d) tp.mt_coll_result_->send(*this, d, result);
    tp.mt_coll_result_->flush_rank(rank_);
  }

  transport::rank_state& rs = tp.ranks_[rank_];
  while (rs.coll_result_gen.load(std::memory_order_acquire) < gen) {
    if (tp.drain_rank(*this, false).envelopes == 0) std::this_thread::yield();
  }
  std::memcpy(out, rs.coll_result_bytes.data(), size);
}

// ---------------------------------------------------------------------------
// epoch
// ---------------------------------------------------------------------------

epoch::epoch(transport_context& ctx) : ctx_(ctx) {
  DPG_ASSERT_MSG(!ctx.in_epoch_, "epochs do not nest");
  // Enable sends before the entry barrier: a rank waiting in the barrier
  // already runs handlers, and handlers may legitimately send.
  ctx.in_epoch_ = true;
  ctx.barrier();
  // Open the span (and the rank-0 per-epoch stats window) only after the
  // entry barrier so the window excludes stragglers from the previous epoch.
  span_ = obs::trace_span(&ctx.tp().obs_.trace(), "epoch", "epoch", ctx.rank());
  if (ctx.rank() == 0) ctx.tp().obs_.epoch_begin();
}

void epoch::flush() {
  DPG_ASSERT_MSG(!ended_, "epoch_flush after the epoch ended");
  transport& tp = ctx_.tp();
  const rank_t r = ctx_.rank();
  for (;;) {
    tp.flush_all_types(ctx_);
    const transport::drain_result dr = tp.drain_rank(ctx_, /*at_most_one=*/false);
    if (dr.user_payloads == 0 && tp.outbound_empty(r) && tp.fault_held_empty(r) &&
        tp.locally_quiet(r))
      break;
    if (dr.envelopes == 0) std::this_thread::yield();
  }
}

bool epoch::try_finish() {
  DPG_ASSERT_MSG(!ended_, "try_finish after the epoch ended");
  if (ctx_.tp().td_round(ctx_)) {
    finish();
    return true;
  }
  return false;
}

void epoch::end() {
  if (ended_) return;
  while (!ctx_.tp().td_round(ctx_)) {
  }
  finish();
}

void epoch::finish() {
  ctx_.in_epoch_ = false;
  ended_ = true;
  if (ctx_.rank() == 0) {
    ctx_.tp().obs_.core().epochs.fetch_add(1, std::memory_order_relaxed);
    ctx_.tp().obs_.epoch_end();
  }
  span_.finish();
}

epoch::~epoch() { end(); }

}  // namespace dpg::ampp
