// Epoch semantics (§II, §III-D): an epoch ends only when all actions and
// their transitive message cascades have finished on all ranks; epoch_flush
// performs pending local work; try_finish detects global quiescence without
// ever declaring it early.
#include "ampp/epoch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ampp/transport.hpp"

namespace dpg::ampp {
namespace {

struct token {
  std::uint64_t depth;
  std::uint64_t payload;
};

TEST(Epoch, EndWaitsForHandlerCascades) {
  // Each token of depth d spawns two tokens of depth d-1 on other ranks.
  // Epoch end must wait for the entire binary tree: 2^(d+1)-1 handlers.
  constexpr rank_t kRanks = 4;
  constexpr std::uint64_t kDepth = 9;
  transport tp(transport_config{.n_ranks = kRanks, .coalescing_size = 8});
  std::atomic<std::uint64_t> handled{0};
  message_type<token>* mtp = nullptr;
  auto& mt = tp.make_message_type<token>("tree", [&](transport_context& ctx, const token& t) {
    ++handled;
    if (t.depth > 0) {
      mtp->send(ctx, (ctx.rank() + 1) % kRanks, token{t.depth - 1, 0});
      mtp->send(ctx, (ctx.rank() + 2) % kRanks, token{t.depth - 1, 0});
    }
  });
  mtp = &mt;
  std::atomic<std::uint64_t> observed_at_exit{0};
  tp.run([&](transport_context& ctx) {
    {
      epoch ep(ctx);
      if (ctx.rank() == 0) mt.send(ctx, 1, token{kDepth, 0});
    }
    if (ctx.rank() == 0) observed_at_exit = handled.load();
  });
  const std::uint64_t expect = (1ULL << (kDepth + 1)) - 1;
  EXPECT_EQ(handled.load(), expect);
  // The count must already be complete the moment rank 0 leaves the epoch.
  EXPECT_EQ(observed_at_exit.load(), expect);
}

TEST(Epoch, EmptyEpochTerminates) {
  transport tp(transport_config{.n_ranks = 3});
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);  // nobody sends anything
  });
  EXPECT_GE(tp.obs().core().epochs.load(), 1u);
}

TEST(Epoch, SequentialEpochsAreIsolated) {
  // Messages from epoch k must all be handled before epoch k+1's handlers
  // see anything: we tag each epoch's messages and check the tag.
  constexpr rank_t kRanks = 3;
  transport tp(transport_config{.n_ranks = kRanks});
  std::atomic<std::uint64_t> current_tag{0};
  std::atomic<int> mismatches{0};
  auto& mt = tp.make_message_type<token>("tag", [&](transport_context&, const token& t) {
    if (t.payload != current_tag.load()) ++mismatches;
  });
  tp.run([&](transport_context& ctx) {
    for (std::uint64_t tag = 0; tag < 5; ++tag) {
      if (ctx.rank() == 0) current_tag = tag;
      epoch ep(ctx);
      for (rank_t d = 0; d < kRanks; ++d) mt.send(ctx, d, token{0, tag});
      ep.end();
      // The epoch-entry barrier of the next iteration orders the tag bump
      // (rank 0, pre-epoch) before any send of that next epoch.
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Epoch, FlushPerformsLocalWork) {
  // After epoch_flush on a single rank, every self-addressed message
  // (including handler-generated ones) must have been handled.
  transport tp(transport_config{.n_ranks = 1, .coalescing_size = 16});
  std::atomic<std::uint64_t> handled{0};
  message_type<token>* mtp = nullptr;
  auto& mt = tp.make_message_type<token>("f", [&](transport_context& ctx, const token& t) {
    ++handled;
    if (t.depth > 0) mtp->send(ctx, 0, token{t.depth - 1, 0});
  });
  mtp = &mt;
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    mt.send(ctx, 0, token{41, 0});
    ep.flush();
    EXPECT_EQ(handled.load(), 42u);  // whole chain done before flush returns
  });
}

TEST(Epoch, TryFinishSucceedsOnlyWhenGloballyQuiet) {
  // Rank 0 keeps injecting work in bounded portions; try_finish must return
  // false while work remains and true once everything is drained.
  constexpr rank_t kRanks = 2;
  transport tp(transport_config{.n_ranks = kRanks});
  std::atomic<std::uint64_t> handled{0};
  auto& mt = tp.make_message_type<token>(
      "w", [&](transport_context&, const token&) { ++handled; });
  std::atomic<int> false_results{0};
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0) {
      for (int burst = 0; burst < 3; ++burst) {
        for (int i = 0; i < 10; ++i) mt.send(ctx, 1, token{0, 0});
        if (!ep.try_finish()) {
          ++false_results;
        } else {
          // try_finish can only succeed after everything was delivered;
          // but with more bursts to send this would be a bug in the test,
          // so re-enter: not allowed — instead just stop sending.
          break;
        }
      }
    }
    // Everyone converges on end() (idempotent if already ended).
    ep.end();
  });
  EXPECT_EQ(handled.load(), 30u);
}

TEST(Epoch, TryFinishLoopTerminatesForAllRanks) {
  // All ranks seed work, then loop on try_finish like the uncoordinated
  // Δ-stepping described in §III-D.
  constexpr rank_t kRanks = 4;
  transport tp(transport_config{.n_ranks = kRanks, .coalescing_size = 4});
  std::atomic<std::uint64_t> handled{0};
  message_type<token>* mtp = nullptr;
  auto& mt = tp.make_message_type<token>("t", [&](transport_context& ctx, const token& t) {
    ++handled;
    if (t.depth > 0) mtp->send(ctx, (ctx.rank() + 1) % kRanks, token{t.depth - 1, 0});
  });
  mtp = &mt;
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    mt.send(ctx, (ctx.rank() + 1) % kRanks, token{20, 0});
    while (!ep.try_finish()) {
    }
  });
  EXPECT_EQ(handled.load(), kRanks * 21u);
}

TEST(Epoch, TryFinishStepWorksThroughTheVerdictWait) {
  // A 1,000-hop chain whose hops are local work: rank 1's step sends a
  // ping, rank 0's handler answers with a pong, and the pong handler queues
  // the next hop on rank 1. The queue loop hands its step to try_finish,
  // so hops also go out while a round awaits its verdict. Rank 0 holds
  // back its first report until rank 1's step has sent a hop from inside
  // the wait, so that path runs in every run. The epoch must end exactly
  // once, on every rank, after the last pong was handled.
  constexpr std::uint64_t kHops = 1000;
  transport tp(transport_config{.n_ranks = 2, .coalescing_size = 1});
  std::vector<std::uint64_t> queued;  // rank 1's hops; only its thread touches it
  std::atomic<std::uint64_t> pongs{0};
  auto& pong = tp.make_message_type<token>("pong", [&](transport_context&, const token& t) {
    ++pongs;
    if (t.depth + 1 < kHops) queued.push_back(t.depth + 1);
  });
  auto& ping = tp.make_message_type<token>(
      "ping", [&](transport_context& ctx, const token& t) { pong.send(ctx, 1, t); });
  const std::uint64_t epochs_before = tp.obs().core().epochs.load();
  std::atomic<int> finishes{0};
  std::atomic<std::uint64_t> pongs_at_finish{0}, hops_in_wait{0};
  std::atomic<bool> stepped_in_wait{false};
  tp.run([&](transport_context& ctx) {
    bool waiting = false;
    const work_step step = [&] {
      if (ctx.rank() != 1 || queued.empty()) return false;
      const std::uint64_t hop = queued.back();
      queued.pop_back();
      ping.send(ctx, 0, token{hop, 0});
      if (waiting) {
        ++hops_in_wait;
        stepped_in_wait = true;
      }
      return true;
    };
    epoch ep(ctx);
    if (ctx.rank() == 1) queued.push_back(0);
    // Rank 1's first round cannot end before rank 0 reports.
    if (ctx.rank() == 0)
      while (!stepped_in_wait.load()) ctx.drain();
    for (;;) {
      while (step()) {
      }
      waiting = true;
      const bool done = ep.try_finish(step);
      waiting = false;
      if (done) break;
    }
    ++finishes;
    if (ctx.rank() == 1) pongs_at_finish = pongs.load();
  });
  EXPECT_EQ(finishes.load(), 2);
  EXPECT_EQ(tp.obs().core().epochs.load() - epochs_before, 1u);
  EXPECT_EQ(pongs_at_finish.load(), kHops);
  EXPECT_EQ(pongs.load(), kHops);
  EXPECT_TRUE(queued.empty());
  EXPECT_GT(hops_in_wait.load(), 0u) << "the verdict wait never ran the step";
}

TEST(Epoch, TerminationIsNeverEarly) {
  // Long dependency chain through all ranks with tiny coalescing buffers:
  // the classic stress for termination detectors. If detection fired early,
  // the handled count at epoch exit would be short.
  constexpr rank_t kRanks = 5;
  transport tp(transport_config{.n_ranks = kRanks, .coalescing_size = 1});
  std::atomic<std::uint64_t> handled{0};
  message_type<token>* mtp = nullptr;
  auto& mt = tp.make_message_type<token>("c", [&](transport_context& ctx, const token& t) {
    ++handled;
    if (t.depth > 0) mtp->send(ctx, (ctx.rank() + 1) % kRanks, token{t.depth - 1, 0});
  });
  mtp = &mt;
  for (int trial = 0; trial < 5; ++trial) {
    handled = 0;
    tp.run([&](transport_context& ctx) {
      epoch ep(ctx);
      if (ctx.rank() == 0) mt.send(ctx, 1, token{1000, 0});
    });
    ASSERT_EQ(handled.load(), 1001u) << "trial " << trial;
  }
}

TEST(Epoch, FlushRankIdempotent) {
  // epoch_flush is a progress primitive, not a delivery event: flushing
  // again with nothing pending must deliver nothing new. Single rank so
  // the global counters can be compared race-free between the two calls.
  transport tp(transport_config{.n_ranks = 1, .coalescing_size = 64});
  std::atomic<std::uint64_t> handled{0};
  auto& mt = tp.make_message_type<token>(
      "idem", [&](transport_context&, const token&) { ++handled; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (int i = 0; i < 10; ++i) mt.send(ctx, 0, token{0, 0});
    ep.flush();
    const std::uint64_t sent_1 = tp.obs().core().messages_sent.load();
    const std::uint64_t handled_1 = handled.load();
    EXPECT_EQ(handled_1, 10u);
    ep.flush();  // double flush: no pending work, nothing may move
    EXPECT_EQ(tp.obs().core().messages_sent.load(), sent_1);
    EXPECT_EQ(handled.load(), handled_1);
    mt.flush_rank(0);  // ditto for the raw per-type flush
    EXPECT_EQ(tp.obs().core().messages_sent.load(), sent_1);
  });
  EXPECT_EQ(handled.load(), 10u);
}

TEST(Epoch, DoubleFlushNeverDuplicatesDelivery) {
  // Multi-rank variant: redundant flushes anywhere in the epoch must not
  // change the total payload count.
  constexpr rank_t kRanks = 3;
  transport tp(transport_config{.n_ranks = kRanks, .coalescing_size = 64});
  std::atomic<std::uint64_t> handled{0};
  auto& mt = tp.make_message_type<token>(
      "dd", [&](transport_context&, const token&) { ++handled; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (int i = 0; i < 10; ++i) mt.send(ctx, (ctx.rank() + 1) % kRanks, token{0, 0});
    ep.flush();
    ep.flush();
    mt.flush_rank(ctx.rank());
  });
  EXPECT_EQ(handled.load(), 10u * kRanks);
  EXPECT_EQ(tp.obs().core().messages_sent.load(), 10u * kRanks);
}

TEST(Epoch, ReentryAfterEmptyRound) {
  // An epoch in which nothing was sent must leave the transport in a state
  // where the next epoch still runs full cascades — and an empty flush
  // round inside an epoch must not wedge later sends of the same epoch.
  constexpr rank_t kRanks = 3;
  transport tp(transport_config{.n_ranks = kRanks, .coalescing_size = 4});
  std::atomic<std::uint64_t> handled{0};
  message_type<token>* mtp = nullptr;
  auto& mt = tp.make_message_type<token>("re", [&](transport_context& ctx, const token& t) {
    ++handled;
    if (t.depth > 0) mtp->send(ctx, (ctx.rank() + 1) % kRanks, token{t.depth - 1, 0});
  });
  mtp = &mt;
  tp.run([&](transport_context& ctx) {
    {
      epoch ep(ctx);  // completely empty round
    }
    {
      epoch ep(ctx);
      ep.flush();  // empty flush first...
      if (ctx.rank() == 0) mt.send(ctx, 1, token{4, 0});  // ...then real work
    }
    {
      epoch ep(ctx);  // empty again after the cascade
    }
  });
  EXPECT_EQ(handled.load(), 5u);
  EXPECT_GE(tp.obs().core().epochs.load(), 3u);
}

// --- Occupancy-counter conservation (the O(1) quiescence fast path) -------
//
// rank_buffers_empty is now a relaxed counter read; these tests pin the
// counter to the ground truth (a locked brute-force recount) at the
// observable quiescence points of an epoch.

TEST(Epoch, OccupancyTracksBufferedPayloads) {
  transport tp(transport_config{.n_ranks = 1, .coalescing_size = 64});
  auto& mt = tp.make_message_type<token>("occ", [](transport_context&, const token&) {});
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    EXPECT_EQ(mt.rank_occupancy(0), 0);
    EXPECT_TRUE(mt.rank_buffers_empty(0));
    for (int i = 1; i <= 5; ++i) {
      mt.send(ctx, 0, token{0, 0});
      EXPECT_EQ(mt.rank_occupancy(0), i);
      EXPECT_EQ(mt.rank_occupancy_scan(0), i);
      EXPECT_FALSE(mt.rank_buffers_empty(0));
    }
    mt.flush_rank(0);
    EXPECT_EQ(mt.rank_occupancy(0), 0);
    EXPECT_EQ(mt.rank_occupancy_scan(0), 0);
    EXPECT_TRUE(mt.rank_buffers_empty(0));
  });
  EXPECT_TRUE(tp.occupancy_consistent());
}

TEST(Epoch, OccupancyTracksReductionCache) {
  // With a reduction cache the counter must see fresh slots (+1), combines
  // (0), evictions (net +1: the evicted payload moves to the buffer while
  // the slot stays used), and flushes (-everything).
  transport tp(transport_config{.n_ranks = 1, .coalescing_size = 64});
  auto& mt = tp.make_message_type<token>("red", [](transport_context&, const token&) {});
  mt.enable_reduction([](const token& t) { return t.depth; },
                      [](const token& a, const token& b) {
                        return token{a.depth, a.payload < b.payload ? a.payload : b.payload};
                      },
                      /*cache_bits=*/2);  // 4 slots: tiny, to force evictions
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    const auto evictions = [&] { return tp.obs().core().cache_evictions.load(); };
    const std::uint64_t ev0 = evictions();
    mt.send(ctx, 0, token{1, 10});  // fresh slot: occupancy 1
    EXPECT_EQ(mt.rank_occupancy(0), 1);
    mt.send(ctx, 0, token{1, 7});  // combines in place: still 1
    EXPECT_EQ(mt.rank_occupancy(0), 1);
    EXPECT_EQ(mt.rank_occupancy_scan(0), 1);
    // Distinct keys until something evicts; every send adds exactly one.
    std::uint64_t key = 2;
    while (evictions() == ev0) {
      mt.send(ctx, 0, token{key++, 1});
      EXPECT_EQ(mt.rank_occupancy(0), mt.rank_occupancy_scan(0));
    }
    EXPECT_GT(mt.rank_occupancy(0), 0);
    mt.flush_rank(0);
    EXPECT_EQ(mt.rank_occupancy(0), 0);
    EXPECT_EQ(mt.rank_occupancy_scan(0), 0);
    EXPECT_TRUE(mt.rank_buffers_empty(0));
    ctx.drain();
  });
  EXPECT_TRUE(tp.occupancy_consistent());
}

TEST(Epoch, DirtyLaneFlushSkipsCleanLanes) {
  // A flush over many destinations with one dirty lane must skip the rest
  // (counted), and a second flush with nothing pending must skip everything.
  // The flush counters are transport-global, so ranks 1..3 park on a plain
  // atomic (no transport activity) while rank 0 measures; the epoch
  // constructor's collective entry ensures all barrier traffic has been
  // flushed before the baseline snapshot.
  constexpr rank_t kRanks = 4;
  transport tp(transport_config{.n_ranks = kRanks, .coalescing_size = 64});
  auto& mt = tp.make_message_type<token>("dirty", [](transport_context&, const token&) {});
  std::atomic<bool> measured{false};
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0) {
      const std::uint64_t skips0 = tp.obs().core().flush_lane_skips.load();
      const std::uint64_t visits0 = tp.obs().core().flush_lane_visits.load();
      mt.send(ctx, 1, token{0, 0});
      mt.flush_rank(0);
      const std::uint64_t visited = tp.obs().core().flush_lane_visits.load() - visits0;
      EXPECT_EQ(visited, 1u);  // only the 0->1 lane was locked
      EXPECT_GE(tp.obs().core().flush_lane_skips.load() - skips0, kRanks - 1u);
      const std::uint64_t skips1 = tp.obs().core().flush_lane_skips.load();
      const std::uint64_t visits1 = tp.obs().core().flush_lane_visits.load();
      mt.flush_rank(0);  // nothing pending: occupancy short-circuits
      EXPECT_EQ(tp.obs().core().flush_lane_visits.load(), visits1);
      EXPECT_EQ(tp.obs().core().flush_lane_skips.load() - skips1, kRanks);
      measured.store(true, std::memory_order_release);
    } else {
      while (!measured.load(std::memory_order_acquire)) std::this_thread::yield();
    }
  });
  EXPECT_TRUE(tp.occupancy_consistent());
}

TEST(Epoch, EnvelopePoolRecyclesBuffers) {
  // Repeated flush/deliver cycles on one rank must start reusing envelope
  // byte buffers instead of allocating fresh ones each flush.
  transport tp(transport_config{.n_ranks = 1, .coalescing_size = 4});
  std::atomic<std::uint64_t> handled{0};
  auto& mt = tp.make_message_type<token>(
      "pool", [&](transport_context&, const token&) { ++handled; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 3; ++i) mt.send(ctx, 0, token{0, 0});
      mt.flush_rank(0);
      ctx.drain();  // returns the envelope's bytes to the pool
    }
  });
  EXPECT_EQ(handled.load(), 30u);
  EXPECT_GT(tp.obs().core().pool_reuses.load(), 0u);
  EXPECT_LE(tp.obs().core().pool_reuses.load(), tp.obs().core().envelopes_sent.load());
}

TEST(Epoch, OccupancyConsistentAfterCascades) {
  // The counters must survive real multi-rank cascades with tiny buffers
  // (lots of capacity flushes) — checked via the transport-wide oracle.
  constexpr rank_t kRanks = 4;
  transport tp(transport_config{.n_ranks = kRanks, .coalescing_size = 2});
  std::atomic<std::uint64_t> handled{0};
  message_type<token>* mtp = nullptr;
  auto& mt = tp.make_message_type<token>("cons", [&](transport_context& ctx, const token& t) {
    ++handled;
    if (t.depth > 0) mtp->send(ctx, (ctx.rank() + 1) % kRanks, token{t.depth - 1, 0});
  });
  mtp = &mt;
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    mt.send(ctx, (ctx.rank() + 1) % kRanks, token{30, 0});
  });
  EXPECT_EQ(handled.load(), kRanks * 31u);
  EXPECT_TRUE(tp.occupancy_consistent());
  for (rank_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(mt.rank_occupancy(r), 0) << "rank " << r;
    EXPECT_EQ(mt.rank_occupancy_scan(r), 0) << "rank " << r;
    EXPECT_TRUE(mt.rank_buffers_empty(r)) << "rank " << r;
  }
  EXPECT_LE(tp.obs().core().envelopes_sent.load(), tp.obs().core().flush_lane_visits.load());
}

}  // namespace
}  // namespace dpg::ampp
