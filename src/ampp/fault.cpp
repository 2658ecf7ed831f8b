// The fault decorator over the in-process or the wire backend: it injects
// a fault_plan's faults and recovers from them. Send side: delay, drop and
// duplicate decisions, the held queue, progress ticks and retries. Arrival
// side: the inner backend delivers into staging inboxes, and poll(r) moves
// rank r's arrivals through the dedup window and the reorder placement
// into the transport's inbox.
#include <algorithm>
#include <set>

#include "ampp/transport.hpp"
#include "util/rng.hpp"

namespace dpg::ampp {
namespace {

class faulty_backend final : public envelope_backend {
 public:
  explicit faulty_backend(const backend_host& host)
      : host_(host),
        plan_(host.cfg.faults),
        seed_(substream_seed(host.cfg.seed, 0xfa) ^ plan_.seed),
        staged_(host.cfg.n_ranks),
        ranks_(host.cfg.n_ranks) {
    for (rank_faults& rf : ranks_) rf.dedup.resize(host.cfg.n_ranks);
    inner_ = detail::make_delivery(host, staged_, /*ordered=*/false);
  }

  const char* name() const override { return inner_->name(); }

  void send(rank_t src, rank_t dest, detail::envelope&& env) override {
    transmit(src, dest, std::move(env), /*drops=*/0, /*fresh=*/true);
  }

  void poll(rank_t r) override {
    pump(r);
    inner_->poll(r);
    accept(r);
  }

  bool quiet(rank_t r) const override {
    if (ranks_[r].held_count.load(std::memory_order_acquire) != 0) return false;
    std::lock_guard<std::mutex> g(staged_[r].mu);
    return staged_[r].q.empty();
  }

  void reset() override {
    // Called between runs: no other thread touches this state.
    for (rank_t r = 0; r < ranks_.size(); ++r) {
      ranks_[r].held.clear();
      ranks_[r].held_count.store(0, std::memory_order_relaxed);
      std::fill(ranks_[r].dedup.begin(), ranks_[r].dedup.end(), dedup_window{});
      staged_[r].q.clear();
    }
    inner_->reset();
  }

  std::vector<std::vector<std::byte>> exchange_blobs(const std::vector<std::byte>& mine) override {
    return inner_->exchange_blobs(mine);
  }

 private:
  /// An envelope parked at its sender until its due tick: delayed, or
  /// dropped (then the release is the retransmission).
  struct held_tx {
    detail::envelope env;
    rank_t dest = 0;
    std::uint64_t due_tick = 0;
    unsigned drops = 0;     ///< drop events so far (bounds the adversary)
    bool is_retry = false;  ///< release is a retransmission, not a delay expiry
  };
  /// Dedup window for one source: the contiguous frontier of accepted seqs
  /// plus the accepted seqs ahead of it (arrivals may be out of order).
  struct dedup_window {
    std::uint64_t next_expected = 0;
    std::set<std::uint64_t> ahead;
  };
  struct rank_faults {
    std::atomic<std::uint64_t> tick{0};  ///< advanced by every poll
    std::atomic<std::size_t> held_count{0};  ///< lock-free emptiness probe
    std::mutex held_mu;
    std::vector<held_tx> held;
    std::vector<dedup_window> dedup;  ///< per source; guarded by staged_[r].mu
  };

  transport_stats& stats() { return host_.obs.core(); }

  /// Runs one envelope through delay → drop → duplicate and hands what
  /// survives to the inner backend. A release from the held queue (`fresh`
  /// false) is never delayed again, so delay 1.0 cannot livelock.
  void transmit(rank_t src, rank_t dest, detail::envelope env, unsigned drops, bool fresh) {
    const fault_rule* rule = plan_.match(src, dest, env.vt->self->name());
    if (rule == nullptr) {
      inner_->send(src, dest, std::move(env));
      return;
    }
    const msg_type_id tid = env.vt->self->id();
    const std::uint64_t seq = env.seq;
    const std::uint64_t now = ranks_[src].tick.load(std::memory_order_relaxed);
    if (fresh &&
        fault_plan::decide(rule->delay, seed_, fault_stage::delay, src, dest, tid, seq, 0)) {
      stats().envelopes_delayed.fetch_add(1, std::memory_order_relaxed);
      hold(src, held_tx{std::move(env), dest, now + rule->delay_flushes, drops, false});
      return;
    }
    if (drops < rule->max_drops &&
        fault_plan::decide(rule->drop, seed_, fault_stage::drop, src, dest, tid, seq, drops)) {
      // Lost; the ack timeout fires after retry_timeout_flushes << drops
      // ticks (exponential backoff). The shift cap (1024 ticks, far past
      // any plan with max_drops <= 4) keeps the backoff finite and monotone
      // when a plan drops one envelope dozens of times: an uncapped
      // `<< drops` is undefined behavior at 64 drops.
      constexpr unsigned kMaxBackoffShift = 10;
      stats().envelopes_dropped.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t wait = static_cast<std::uint64_t>(rule->retry_timeout_flushes)
                                 << std::min(drops, kMaxBackoffShift);
      hold(src, held_tx{std::move(env), dest, now + wait, drops + 1, true});
      return;
    }
    if (fault_plan::decide(rule->duplicate, seed_, fault_stage::duplicate, src, dest, tid, seq,
                           drops)) {
      stats().envelopes_duplicated.fetch_add(1, std::memory_order_relaxed);
      inner_->send(src, dest, detail::envelope(env));
    }
    inner_->send(src, dest, std::move(env));
  }

  void hold(rank_t src, held_tx&& h) {
    rank_faults& rf = ranks_[src];
    std::lock_guard<std::mutex> g(rf.held_mu);
    rf.held.push_back(std::move(h));
    rf.held_count.store(rf.held.size(), std::memory_order_release);
  }

  /// Advances rank `r`'s progress tick and retransmits/releases every held
  /// envelope whose due tick has passed.
  void pump(rank_t r) {
    rank_faults& rf = ranks_[r];
    const std::uint64_t tick = rf.tick.fetch_add(1, std::memory_order_relaxed) + 1;
    if (rf.held_count.load(std::memory_order_acquire) == 0) return;
    std::vector<held_tx> due;
    {
      std::lock_guard<std::mutex> g(rf.held_mu);
      const auto split = std::stable_partition(rf.held.begin(), rf.held.end(),
                                               [&](const held_tx& h) { return h.due_tick > tick; });
      std::move(split, rf.held.end(), std::back_inserter(due));
      rf.held.erase(split, rf.held.end());
      rf.held_count.store(rf.held.size(), std::memory_order_release);
    }
    if (due.empty()) return;
    const auto retries = static_cast<std::uint64_t>(
        std::count_if(due.begin(), due.end(), [](const held_tx& h) { return h.is_retry; }));
    stats().envelopes_retried.fetch_add(retries, std::memory_order_relaxed);
    {
      obs::trace_span sp(&host_.obs.trace(), "fault",
                         retries != 0 ? "retry_round" : "delay_release", r);
      sp.arg("released", due.size());
      sp.arg("retries", retries);
      sp.arg("tick", tick);
    }
    // Retransmit outside held_mu: transmit may hold again (another drop).
    for (held_tx& h : due) transmit(r, h.dest, std::move(h.env), h.drops, /*fresh=*/false);
  }

  /// Moves rank `r`'s staged arrivals into its inbox: a duplicate is dropped
  /// before any counter moves; a reordered one goes to a drawn position.
  void accept(rank_t r) {
    detail::inbox& st = staged_[r];
    std::lock_guard<std::mutex> g(st.mu);
    while (!st.q.empty()) {
      detail::envelope env = std::move(st.q.front());
      st.q.pop_front();
      if (!fresh_seq(ranks_[r].dedup[env.src], env.seq)) {
        stats().duplicates_suppressed.fetch_add(1, std::memory_order_relaxed);
        host_.pool.release(r, std::move(env.bytes));
        continue;
      }
      const msg_type_id tid = env.vt->self->id();
      const fault_rule* rule = plan_.match(env.src, r, env.vt->self->name());
      detail::inbox& in = host_.inboxes[r];
      std::lock_guard<std::mutex> gi(in.mu);
      if (rule != nullptr && !in.q.empty() &&
          fault_plan::decide(rule->reorder, seed_, fault_stage::reorder, env.src, r, tid,
                             env.seq, 0)) {
        const std::uint64_t pos =
            fault_plan::draw(seed_, fault_stage::placement, env.src, r, tid, env.seq, 0) %
            (in.q.size() + 1);
        in.q.insert(in.q.begin() + static_cast<std::ptrdiff_t>(pos), std::move(env));
      } else {
        in.q.push_back(std::move(env));
      }
    }
  }

  /// True iff `seq` was not accepted from this source before.
  static bool fresh_seq(dedup_window& w, std::uint64_t seq) {
    if (seq < w.next_expected) return false;
    if (seq != w.next_expected) return w.ahead.insert(seq).second;
    ++w.next_expected;
    // Absorb the contiguous run the out-of-order set already holds.
    for (auto it = w.ahead.begin(); it != w.ahead.end() && *it == w.next_expected;) {
      it = w.ahead.erase(it);
      ++w.next_expected;
    }
    return true;
  }

  backend_host host_;
  const fault_plan& plan_;
  const std::uint64_t seed_;  ///< transport seed mixed with the plan seed
  mutable detail::inbox_set staged_;  ///< what the inner backend delivered, per rank
  std::deque<rank_faults> ranks_;     ///< deque: holds locks
  std::unique_ptr<envelope_backend> inner_;
};

}  // namespace

std::unique_ptr<envelope_backend> detail::make_faulty(const backend_host& host) {
  return std::make_unique<faulty_backend>(host);
}

}  // namespace dpg::ampp
