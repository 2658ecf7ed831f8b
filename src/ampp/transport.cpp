#include "ampp/transport.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "ampp/epoch.hpp"
#include "util/log.hpp"

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

/// Refuses a machine the transport cannot build. Runs first in the member
/// initializers, before any rank state, pool or backend exists.
transport_config checked(transport_config cfg) {
  if (cfg.n_ranks == 0) throw std::invalid_argument("transport needs at least one rank");
  if (cfg.coalescing_size == 0)
    throw std::invalid_argument("transport: coalescing_size must be positive");
  return cfg;
}
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
    : cfg_(checked(std::move(cfg))),
      ranks_(cfg_.n_ranks),
      inboxes_(cfg_.n_ranks),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<wire_pool>(cfg_.n_ranks)) {
  for (rank_state& rs : ranks_) rs.seq = std::vector<rank_state::seq_slot>(cfg_.n_ranks);
  local_lo_ = cross_process() ? cfg_.backend.self_rank : 0;
  local_hi_ = cross_process() ? local_lo_ + 1 : cfg_.n_ranks;
  // Across processes the rendezvous happens here: the constructor returns
  // only once every sibling rank process attached and passed the handshake.
  backend_ = make_backend(backend_host{cfg_, obs_, *pool_, inboxes_, types_, stamp_});
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
  env.src = src;
  env.seq = ranks_[src].seq[dest].next.fetch_add(1, std::memory_order_relaxed);
  backend_->send(src, dest, std::move(env));
}

void transport::set_topology_stamp(std::uint64_t version, std::uint64_t structure_version) {
  DPG_ASSERT_MSG(!running_, "the topology stamp may only change between runs");
  stamp_ = topology_stamp{version, structure_version};
}

std::vector<std::vector<std::byte>> transport::exchange_blobs(
    const std::vector<std::byte>& mine) {
  DPG_ASSERT_MSG(!running_, "exchange_blobs is a between-runs collective");
  return backend_->exchange_blobs(mine);
}

transport::drain_result transport::drain_rank(transport_context& ctx, bool at_most_one) {
  const rank_t r = ctx.rank();
  detail::inbox& in = inboxes_[r];
  backend_->poll(r);
  drain_result res;
  for (;;) {
    detail::envelope env;
    {
      std::lock_guard<std::mutex> g(in.mu);
      if (in.q.empty()) break;
      env = std::move(in.q.front());
      in.q.pop_front();
      // Claimed under the lock: quiescence tests see either the queued
      // envelope or the active handler, never a gap.
      in.active_handlers.fetch_add(1, std::memory_order_relaxed);
    }
    {
      obs::trace_span sp(&obs_.trace(), "handler", env.vt->self->name().c_str(), r);
      sp.arg("count", env.count);
      handler_scope in_dispatch;
      env.vt->dispatch(env.vt->self, ctx, env.bytes.data(), env.count);
    }
    obs_.on_handled(env.vt->self->id(), env.count);
    if (!env.vt->self->internal_) {
      ranks_[r].received.fetch_add(env.count, std::memory_order_relaxed);
      obs_.core().handler_invocations.fetch_add(env.count, std::memory_order_relaxed);
      res.user_payloads += env.count;
    }
    in.active_handlers.fetch_sub(1, std::memory_order_release);
    ++res.envelopes;
    pool_->release(r, std::move(env.bytes));
    if (at_most_one) break;
  }
  return res;
}

template <class Done>
void transport::progress_until(transport_context& ctx, Done done, bool at_most_one) {
  for (;;) {
    const rank_t failed = failed_rank_.load(std::memory_order_acquire);
    if (failed != invalid_rank) throw run_aborted(failed);
    const drain_result dr = drain_rank(ctx, at_most_one);
    if (done(dr)) return;
    if (dr.envelopes == 0) std::this_thread::yield();
  }
}

void transport::quiesce_local(transport_context& ctx) {
  // Handlers may refill buffers, hence the loop. A payload held in the
  // backend (delayed or dropped) is counted sent but not yet received;
  // every poll advances the fault decorator's tick, so the loop pumps every
  // hold to delivery.
  const rank_t r = ctx.rank();
  flush_all_types(ctx);
  progress_until(ctx, [&](const drain_result& dr) {
    // outbound_empty is one relaxed counter read per message type (no lane
    // locks, no cache scans): this spin is the hottest loop of every
    // strategy.
    if (dr.user_payloads == 0 && outbound_empty(r) && backend_->quiet(r) && locally_quiet(r))
      return true;
    flush_all_types(ctx);
    return false;
  });
}

bool transport::locally_quiet(rank_t r) const {
  const detail::inbox& in = inboxes_[r];
  std::lock_guard<std::mutex> g(in.mu);
  return in.q.empty() && in.active_handlers.load(std::memory_order_acquire) == 0;
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
    if (d) d(ctx, /*discard=*/false);
  for (auto& mt : types_) mt->flush_rank(src);
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

template <class Body>
void transport::guarded(rank_t r, Body body) {
  detail::current_rank_scope scope(r);
  transport_context ctx(this, r);
  try {
    body(ctx);
  } catch (...) {
    // The first failure wins; every later one is a run_aborted it caused.
    std::lock_guard<std::mutex> g(err_mu_);
    if (!first_error_) {
      first_error_ = std::current_exception();
      failed_rank_.store(r, std::memory_order_release);
    }
  }
}

void transport::run(const std::function<void(transport_context&)>& f) {
  DPG_ASSERT_MSG(!running_, "transport::run is not reentrant");
  running_ = true;
  // Reset per-run control-plane state; message counters stay cumulative
  // (the four-counter protocol only needs monotonicity).
  td_.round = 0;
  td_.reports = 0;
  td_.sum_sent = td_.sum_recv = 0;
  td_.prev_sent = td_.prev_recv = ~0ULL;
  // Deliberately NOT clearing coll_.rounds (only an aborted run does):
  // cross-process, a fast peer can land its first contribution of this run
  // while this coordinator still drained the previous one. Generations
  // restart per run in lockstep, so the stashed entry is the one the first
  // collective looks up.
  for (rank_state& rs : ranks_) {
    rs.td_result_round.store(-1, std::memory_order_relaxed);
    rs.td_result_done.store(false, std::memory_order_relaxed);
    rs.coll_result_gen.store(0, std::memory_order_relaxed);
  }

  // Optional dedicated handler threads (§II-A multithreaded ranks): each
  // concurrently drains its rank's inbox for the whole run. They hold an
  // always-in-epoch context so the handlers they execute may send.
  std::atomic<bool> stop_helpers{false};
  std::vector<std::thread> helpers, threads;
  for (rank_t r = local_lo_; r < local_hi_; ++r)
    for (unsigned h = 0; h < cfg_.handler_threads; ++h)
      helpers.emplace_back([this, r, &stop_helpers] {
        guarded(r, [&](transport_context& hctx) {
          hctx.in_epoch_ = true;
          progress_until(
              hctx,
              [&](const drain_result&) { return stop_helpers.load(std::memory_order_acquire); },
              /*at_most_one=*/true);
        });
      });
  const auto rank_main = [this, &f](rank_t r) {
    guarded(r, [&](transport_context& ctx) {
      f(ctx);
      // Release what the backend still holds of this rank's: a peer may be
      // waiting on a parked control-plane envelope (TD verdict, collective).
      progress_until(ctx, [&](const drain_result&) { return backend_->quiet(r); });
    });
  };
  if (local_hi_ - local_lo_ == 1)
    rank_main(local_lo_);  // one local rank runs on the calling thread
  else
    for (rank_t r = local_lo_; r < local_hi_; ++r) threads.emplace_back(rank_main, r);
  for (auto& t : threads) t.join();
  stop_helpers.store(true, std::memory_order_release);
  for (auto& t : helpers) t.join();

  running_ = false;
  if (first_error_) {
    discard_in_flight();
    failed_rank_.store(invalid_rank, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
  // Mop-up pass: a late arrival (a verdict duplicate, a release that landed
  // after its destination's final drain) may still wait. Only internal
  // control-plane envelopes can remain here (TD proves user traffic
  // quiescent at each epoch's end), and their handlers send nothing, so
  // this ends — and the duplicate/suppression and drop/retry conservation
  // laws hold exactly between runs.
  for (bool dirty = true; dirty;) {
    dirty = false;
    for (rank_t r = local_lo_; r < local_hi_; ++r) {
      detail::current_rank_scope scope(r);
      transport_context ctx(this, r);
      drain_rank(ctx, /*at_most_one=*/false);
      if (!backend_->quiet(r) || !locally_quiet(r)) dirty = true;
    }
  }
}

void transport::discard_in_flight() {
  for (rank_t r = local_lo_; r < local_hi_; ++r) {
    detail::current_rank_scope scope(r);
    transport_context ctx(this, r);
    for (const drain_fn& d : drains_)
      if (d) d(ctx, /*discard=*/true);
  }
  for (auto& mt : types_) mt->discard();
  backend_->reset();
  for (rank_t r = 0; r < cfg_.n_ranks; ++r) {
    detail::inbox& in = inboxes_[r];
    std::lock_guard<std::mutex> g(in.mu);
    for (detail::envelope& env : in.q) pool_->release(r, std::move(env.bytes));
    in.q.clear();
    in.active_handlers.store(0, std::memory_order_relaxed);
  }
  for (rank_state& rs : ranks_) {
    rs.sent.store(0, std::memory_order_relaxed);
    rs.received.store(0, std::memory_order_relaxed);
    for (auto& s : rs.seq) s.next.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> g(coll_.mu);
  coll_.rounds.clear();
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

  quiesce_local(ctx);

  const td_report_t report{round, ranks_[r].sent.load(std::memory_order_relaxed),
                           ranks_[r].received.load(std::memory_order_relaxed), r};
  mt_td_report_->send(ctx, 0, report);
  mt_td_report_->flush_rank(r);

  // Wait for the coordinator's verdict for this round; keep making
  // progress while waiting (handlers run, which may create new work — that
  // is fine, the next round will observe it).
  rank_state& rs = ranks_[r];
  progress_until(ctx, [&](const drain_result&) {
    return rs.td_result_round.load(std::memory_order_acquire) >=
           static_cast<std::int64_t>(round);
  });
  ctx.td_round_ = round + 1;
  return rs.td_result_done.load(std::memory_order_relaxed);
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
    tp.progress_until(*this, [&](const transport::drain_result&) {
      std::lock_guard<std::mutex> g(tp.coll_.mu);
      auto it = tp.coll_.rounds.find(gen);
      if (it == tp.coll_.rounds.end() || it->second.contribs.size() != tp.size()) return false;
      contribs = std::move(it->second.contribs);
      tp.coll_.rounds.erase(it);
      return true;
    });
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
  tp.progress_until(*this, [&](const transport::drain_result&) {
    return rs.coll_result_gen.load(std::memory_order_acquire) >= gen;
  });
  std::memcpy(out, rs.coll_result_bytes.data(), size);
}

// ---------------------------------------------------------------------------
// epoch
// ---------------------------------------------------------------------------

epoch::epoch(transport_context& ctx) : ctx_(ctx), uncaught_(std::uncaught_exceptions()) {
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
  ctx_.tp().quiesce_local(ctx_);
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

epoch::~epoch() noexcept(false) {
  try {
    // Unwinding out of a failed run: skip the termination rounds, which
    // could only throw again.
    if (std::uncaught_exceptions() == uncaught_) end();
  } catch (...) {
    finish();  // an aborted run still closes the epoch's books
    throw;
  }
  if (!ended_) finish();
}

}  // namespace dpg::ampp
