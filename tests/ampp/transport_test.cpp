// Unit tests for the active-message transport: typed message delivery,
// handler chaining (handlers sending messages), coalescing accounting,
// object-based addressing, and multi-run reuse.
#include "ampp/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ampp/epoch.hpp"

namespace dpg::ampp {
namespace {

struct ping {
  std::uint64_t value;
  rank_t target;
};

TEST(Transport, SingleRankSelfDelivery) {
  transport tp(transport_config{.n_ranks = 1});
  std::atomic<std::uint64_t> sum{0};
  auto& mt = tp.make_message_type<ping>(
      "ping", [&](transport_context&, const ping& p) { sum += p.value; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (std::uint64_t i = 1; i <= 100; ++i) mt.send(ctx, 0, ping{i, 0});
  });
  EXPECT_EQ(sum.load(), 5050u);
  EXPECT_EQ(tp.obs().core().messages_sent.load(), 100u);
  EXPECT_EQ(tp.obs().core().handler_invocations.load(), 100u);
  EXPECT_EQ(tp.obs().core().self_deliveries.load(), 100u);
}

TEST(Transport, AllToAllDelivery) {
  constexpr rank_t kRanks = 4;
  constexpr int kPerPair = 50;
  transport tp(transport_config{.n_ranks = kRanks});
  std::vector<std::atomic<std::uint64_t>> received(kRanks);
  auto& mt = tp.make_message_type<ping>(
      "ping", [&](transport_context& ctx, const ping& p) {
        EXPECT_EQ(p.target, ctx.rank());
        received[ctx.rank()] += p.value;
      });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    for (rank_t d = 0; d < kRanks; ++d)
      for (int i = 0; i < kPerPair; ++i) mt.send(ctx, d, ping{1, d});
  });
  for (rank_t r = 0; r < kRanks; ++r)
    EXPECT_EQ(received[r].load(), static_cast<std::uint64_t>(kRanks) * kPerPair);
  EXPECT_EQ(tp.obs().core().messages_sent.load(),
            static_cast<std::uint64_t>(kRanks) * kRanks * kPerPair);
}

TEST(Transport, HandlersMaySendMessages) {
  // A chain: each message with value > 0 forwards value-1 to the next rank.
  // AM++'s distinguishing property (§I): handlers are unrestricted.
  constexpr rank_t kRanks = 3;
  transport tp(transport_config{.n_ranks = kRanks});
  std::atomic<std::uint64_t> handled{0};
  message_type<ping>* mtp = nullptr;
  auto& mt = tp.make_message_type<ping>("chain", [&](transport_context& ctx, const ping& p) {
    ++handled;
    if (p.value > 0) mtp->send(ctx, (ctx.rank() + 1) % kRanks, ping{p.value - 1, 0});
  });
  mtp = &mt;
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0) mt.send(ctx, 1, ping{99, 0});
  });
  EXPECT_EQ(handled.load(), 100u);  // 99 forwards + the original
}

TEST(Transport, ObjectBasedAddressing) {
  // §IV-D: the destination is computed from the payload by an address map.
  constexpr rank_t kRanks = 4;
  transport tp(transport_config{.n_ranks = kRanks});
  std::vector<std::atomic<std::uint64_t>> count(kRanks);
  auto& mt = tp.make_message_type<ping>(
      "addr",
      [&](transport_context& ctx, const ping& p) {
        EXPECT_EQ(ctx.rank(), p.target);
        ++count[ctx.rank()];
      },
      [](const ping& p) { return p.target; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (std::uint64_t i = 0; i < 400; ++i)
        mt.send(ctx, ping{i, static_cast<rank_t>(i % kRanks)});
  });
  for (rank_t r = 0; r < kRanks; ++r) EXPECT_EQ(count[r].load(), 100u);
}

TEST(Transport, CoalescingReducesEnvelopes) {
  // With a coalescing factor of 64, 1000 same-lane sends should travel in
  // ~ceil(1000/64) envelopes, not 1000.
  transport tp(transport_config{.n_ranks = 2, .coalescing_size = 64});
  auto& mt = tp.make_message_type<ping>("c", [](transport_context&, const ping&) {});
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (int i = 0; i < 1000; ++i) mt.send(ctx, 1, ping{1, 1});
  });
  EXPECT_EQ(tp.obs().core().messages_sent.load(), 1000u);
  //

  // envelopes_sent includes control-plane envelopes (TD reports/results), so
  // bound rather than match exactly: data envelopes = ceil(1000/64) = 16.
  EXPECT_LT(tp.obs().core().envelopes_sent.load(), 16 + 40u);
}

TEST(Transport, NoCoalescingDeliversEagerly) {
  transport tp(transport_config{.n_ranks = 2, .coalescing_size = 1});
  std::atomic<int> n{0};
  auto& mt =
      tp.make_message_type<ping>("e", [&](transport_context&, const ping&) { ++n; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (int i = 0; i < 10; ++i) mt.send(ctx, 1, ping{1, 1});
  });
  EXPECT_EQ(n.load(), 10);
}

TEST(Transport, RunCanBeInvokedRepeatedly) {
  transport tp(transport_config{.n_ranks = 2});
  std::atomic<int> n{0};
  auto& mt =
      tp.make_message_type<ping>("r", [&](transport_context&, const ping&) { ++n; });
  for (int round = 0; round < 3; ++round) {
    tp.run([&](transport_context& ctx) {
      epoch ep(ctx);
      mt.send(ctx, 1 - ctx.rank(), ping{1, 0});
    });
  }
  EXPECT_EQ(n.load(), 6);
}

TEST(Transport, ExceptionInRankPropagates) {
  transport tp(transport_config{.n_ranks = 2});
  EXPECT_THROW(tp.run([&](transport_context&) {
    // Both ranks throw immediately; no epoch is entered, so no rank blocks
    // waiting for a peer (which would deadlock the test).
    throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST(Transport, PerTypeCountsAreTracked) {
  transport tp(transport_config{.n_ranks = 2});
  auto& a = tp.make_message_type<ping>("a", [](transport_context&, const ping&) {});
  auto& b = tp.make_message_type<ping>("b", [](transport_context&, const ping&) {});
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0) {
      for (int i = 0; i < 7; ++i) a.send(ctx, 1, ping{1, 1});
      for (int i = 0; i < 3; ++i) b.send(ctx, 1, ping{1, 1});
    }
  });
  EXPECT_EQ(tp.sent_of_type(a.id()), 7u);
  EXPECT_EQ(tp.sent_of_type(b.id()), 3u);
  EXPECT_EQ(tp.type_name(a.id()), "a");
  EXPECT_EQ(tp.type_name(b.id()), "b");
}

}  // namespace
}  // namespace dpg::ampp
