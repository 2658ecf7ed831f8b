// The AM++-style reduction cache (§IV: "caching allows to avoid
// unnecessary message sends and the corresponding handler calls").
// Correctness contract: delivering the combined payload must be equivalent
// to delivering every absorbed payload.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"

namespace dpg::ampp {
namespace {

struct relax_msg {
  std::uint64_t vertex;
  std::uint64_t dist;
};

class ReductionCacheTest : public ::testing::Test {
 protected:
  // Applies min-combining at the destination into `best`, so the final map
  // is identical whether or not messages were absorbed en route.
  std::map<std::uint64_t, std::uint64_t> best;
  std::mutex mu;
};

TEST_F(ReductionCacheTest, MinReductionPreservesSemantics) {
  transport tp(transport_config{.n_ranks = 2, .coalescing_size = 1024});
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg& m) {
        std::lock_guard<std::mutex> g(mu);
        auto [it, fresh] = best.emplace(m.vertex, m.dist);
        if (!fresh && m.dist < it->second) it->second = m.dist;
      });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      /*cache_bits=*/6);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0) {
      // Many updates to few keys: heavy duplication, as in power-law SSSP.
      for (std::uint64_t i = 0; i < 1000; ++i)
        mt.send(ctx, 1, relax_msg{i % 10, 1000 - i});
    }
  });
  ASSERT_EQ(best.size(), 10u);
  // Minimum distance sent for vertex v is 1000-i at the largest i with
  // i%10==v, i.e. i = 990+v, so dist = 10-v.
  for (std::uint64_t v = 0; v < 10; ++v) EXPECT_EQ(best[v], 10 - v);
  EXPECT_GT(tp.obs().core().cache_hits.load(), 900u);
  // Far fewer handler invocations than the 1000 logical sends.
  EXPECT_LT(tp.obs().core().handler_invocations.load(), 100u);
}

TEST_F(ReductionCacheTest, EvictionSpillsRatherThanDrops) {
  // More distinct keys than cache slots: evictions must deliver, not drop.
  transport tp(transport_config{.n_ranks = 2, .coalescing_size = 64});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      /*cache_bits=*/2);  // 4 slots only
  constexpr std::uint64_t kKeys = 512;
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (std::uint64_t k = 0; k < kKeys; ++k) mt.send(ctx, 1, relax_msg{k, k});
  });
  // Every distinct key must arrive exactly once (no two sends share a key).
  EXPECT_EQ(delivered.load(), kKeys);
  EXPECT_GT(tp.obs().core().cache_evictions.load(), 0u);
}

TEST_F(ReductionCacheTest, CombineRespectsTieBreaking) {
  // With equal distances the combiner keeps the first payload (a <= b picks
  // a); semantics must not depend on which survives, but the cache must not
  // duplicate either.
  transport tp(transport_config{.n_ranks = 2});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      4);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (int i = 0; i < 100; ++i) mt.send(ctx, 1, relax_msg{7, 3});
  });
  EXPECT_EQ(delivered.load(), 1u);
  EXPECT_EQ(tp.obs().core().cache_hits.load(), 99u);
}

TEST_F(ReductionCacheTest, FlushOnEpochEndDeliversCachedEntries) {
  // A cached entry never re-sent must still arrive by epoch end (the
  // termination protocol flushes caches before reporting).
  transport tp(transport_config{.n_ranks = 3, .coalescing_size = 1 << 20});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  mt.enable_reduction([](const relax_msg& m) { return m.vertex; },
                      [](const relax_msg& a, const relax_msg& b) {
                        return a.dist <= b.dist ? a : b;
                      },
                      8);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    mt.send(ctx, (ctx.rank() + 1) % 3, relax_msg{ctx.rank(), 1});
  });
  EXPECT_EQ(delivered.load(), 3u);
}

TEST_F(ReductionCacheTest, SuppressionDropsOnlyExactRepeats) {
  // Suppression mode (idempotent payloads): a send equal to its slot's
  // payload is dropped; one that only shares the key is evicted to the
  // wire. The constant key makes every distinct payload a key-only match.
  transport tp(transport_config{.n_ranks = 2});
  std::map<std::uint64_t, int> seen;
  auto& mt = tp.make_message_type<relax_msg>(
      "claim", [&](transport_context&, const relax_msg& m) {
        std::lock_guard<std::mutex> g(mu);
        ++seen[m.vertex];
      });
  mt.enable_suppression([](const relax_msg&) { return std::uint64_t{5}; }, 4);
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (std::uint64_t v = 0; v < 50; ++v)
        for (int rep = 0; rep < 3; ++rep) mt.send(ctx, 1, relax_msg{v, 9});
  });
  ASSERT_EQ(seen.size(), 50u);  // no distinct payload lost
  for (const auto& [v, n] : seen) EXPECT_EQ(n, 1) << "v=" << v;
  EXPECT_EQ(tp.obs().core().cache_hits.load(), 100u);
  EXPECT_EQ(tp.obs().core().cache_evictions.load(), 49u);
}

TEST_F(ReductionCacheTest, WithoutReductionAllMessagesDeliver) {
  transport tp(transport_config{.n_ranks = 2});
  std::atomic<std::uint64_t> delivered{0};
  auto& mt = tp.make_message_type<relax_msg>(
      "relax", [&](transport_context&, const relax_msg&) { ++delivered; });
  tp.run([&](transport_context& ctx) {
    epoch ep(ctx);
    if (ctx.rank() == 0)
      for (int i = 0; i < 100; ++i) mt.send(ctx, 1, relax_msg{7, 3});
  });
  EXPECT_EQ(delivered.load(), 100u);
  EXPECT_EQ(tp.obs().core().cache_hits.load(), 0u);
}

}  // namespace
}  // namespace dpg::ampp
