// The per-rank work queue in its Δ-bucketed order: filing and the clamp
// (non-finite or huge priorities must neither reach the float→integer cast
// nor grow the rows without bound), FIFO order within a bucket, the
// at-most-once rule with its stale-entry skip, the first-nonempty cursor,
// and the locked mode handler threads use.
#include "pattern/work_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dpg::pattern {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::uint64_t kLast = work_queue::max_buckets - 1;
constexpr std::uint64_t kNone = work_queue::none;

class WorkQueueBuckets : public ::testing::Test {
 protected:
  void SetUp() override { q.prepare(64, false, 1.0); }
  work_queue q;
};

TEST_F(WorkQueueBuckets, BucketOfFilesByPriorityOverDelta) {
  q.prepare(64, false, 2.0);
  EXPECT_EQ(q.bucket_of(0.0), 0u);
  EXPECT_EQ(q.bucket_of(1.99), 0u);
  EXPECT_EQ(q.bucket_of(2.0), 1u);
  EXPECT_EQ(q.bucket_of(83.0), 41u);
  EXPECT_EQ(q.bucket_of(-3.0), 0u);  // negative weights file into bucket 0
  EXPECT_EQ(q.bucket_of(-kInf), 0u);
}

TEST_F(WorkQueueBuckets, BucketOfClampsNonFiniteAndHuge) {
  for (const double p : {kInf, kNaN, std::numeric_limits<double>::max(), 1e30})
    EXPECT_EQ(q.bucket_of(p), kLast) << p;
  // Exactly at the cap clamps too (the cast would be out of range there).
  EXPECT_EQ(q.bucket_of(static_cast<double>(work_queue::max_buckets)), kLast);
  EXPECT_EQ(q.bucket_of(static_cast<double>(work_queue::max_buckets) - 2.0), kLast - 1);
}

TEST_F(WorkQueueBuckets, RejectsNonPositiveWidthAndStaysUsable) {
  for (const double bad : {0.0, -0.0, -1.0, kNaN, -kInf})
    EXPECT_THROW(q.prepare(8, false, bad), std::invalid_argument) << bad;
  EXPECT_TRUE(q.push(3, 0.5));
  EXPECT_EQ(q.pop(), 3u);
}

TEST_F(WorkQueueBuckets, HugePrioritiesShareTheLastBucketAndPop) {
  q.prepare(64, false, 0.5);
  EXPECT_TRUE(q.push(7, kInf));
  EXPECT_TRUE(q.push(8, 1e300));
  EXPECT_TRUE(q.push(9, kNaN));
  EXPECT_EQ(q.first_nonempty(), kLast);
  EXPECT_EQ(q.pop(), 7u);
  EXPECT_EQ(q.pop(), 8u);
  EXPECT_EQ(q.pop(), 9u);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.first_nonempty(), kNone);
}

TEST_F(WorkQueueBuckets, FifoWithinBucketLowestBucketFirst) {
  q.push(5, 3.3);
  q.push(7, 3.1);
  q.push(1, 1.0);
  q.push(9, 3.2);
  EXPECT_EQ(q.pop(3), 5u);  // a bucket pops in filing order, not priority order
  EXPECT_EQ(q.first_nonempty(), 1u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 7u);
  EXPECT_EQ(q.pop(3), 9u);
  EXPECT_FALSE(q.pop(3).has_value());
  EXPECT_EQ(q.first_nonempty(), kNone);
}

TEST_F(WorkQueueBuckets, PushIntoSameOrHigherBucketIsDropped) {
  EXPECT_TRUE(q.push(4, 2.5));
  EXPECT_FALSE(q.push(4, 2.1));  // same bucket, lower priority: stays put
  EXPECT_FALSE(q.push(4, 7.0));  // higher bucket
  EXPECT_EQ(q.pop(2), 4u);
  EXPECT_FALSE(q.pop(7).has_value());  // filed once, popped once
  EXPECT_TRUE(q.push(4, 7.0));         // popping cleared the mark
  EXPECT_EQ(q.pop(), 4u);
}

TEST_F(WorkQueueBuckets, RefileIntoLowerBucketSkipsTheStaleEntry) {
  q.push(1, 5.5);
  q.push(2, 5.5);
  EXPECT_TRUE(q.push(1, 2.0));  // re-filed: row 5 now holds a stale entry
  EXPECT_EQ(q.first_nonempty(), 2u);
  EXPECT_EQ(q.pop(2), 1u);
  EXPECT_EQ(q.first_nonempty(), 5u);
  EXPECT_EQ(q.pop(5), 2u);  // the stale entry of 1 is skipped
  EXPECT_FALSE(q.pop(5).has_value());

  // A row holding only stale entries reads empty to every reader.
  q.push(3, 6.0);
  q.push(3, 1.0);
  EXPECT_FALSE(q.pop(6).has_value());
  EXPECT_EQ(q.first_nonempty(), 1u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_EQ(q.first_nonempty(), kNone);

  // Re-filed, popped, then filed again where its stale entry still sits:
  // it comes out once.
  q.push(6, 4.0);
  q.push(6, 1.0);
  EXPECT_EQ(q.pop(), 6u);
  EXPECT_TRUE(q.push(6, 4.5));
  EXPECT_EQ(q.pop(4), 6u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST_F(WorkQueueBuckets, CursorRewindsOnLowerPush) {
  q.push(10, 100.0);
  q.push(11, 100.0);
  EXPECT_EQ(q.first_nonempty(), 100u);
  EXPECT_EQ(q.pop(), 10u);
  q.push(1, 2.0);  // below the cursor, which sits at 100 now
  EXPECT_EQ(q.first_nonempty(), 2u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 11u);
}

TEST_F(WorkQueueBuckets, PrepareDropsLeftoversOfEitherOrder) {
  q.push(5, 50.0);
  q.prepare(64, false, 1.0);
  EXPECT_EQ(q.first_nonempty(), kNone);
  EXPECT_TRUE(q.push(5, 0.0));  // no longer pending

  q.prepare(64, false);  // FIFO over a bucketed leftover
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.push(5));
  EXPECT_FALSE(q.push(5));
  q.prepare(64, false, 1.0);  // and back
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.push(5, 9.0));
  EXPECT_EQ(q.pop(), 5u);
}

TEST_F(WorkQueueBuckets, LockedModeUnderConcurrentPushers) {
  // Two pushers (as handler threads run hooks) file every vertex, one at
  // priorities that re-file the other's entries into lower buckets, while
  // this thread pops. Every vertex comes out, never more often than filed.
  constexpr std::uint64_t n = 2000;
  q.prepare(n, /*locked=*/true, 8.0);
  std::vector<std::atomic<int>> filed(n), popped(n);
  std::atomic<int> done{0};
  auto pusher = [&](double offset) {
    for (std::uint64_t li = 0; li < n; ++li)
      if (q.push(li, static_cast<double>(li % 97) + offset)) ++filed[li];
    ++done;
  };
  std::thread a(pusher, 64.0), b(pusher, 0.0);
  const auto drain = [&] {
    while (const auto li = q.pop()) ++popped[*li];
  };
  while (done.load() < 2) drain();
  a.join();
  b.join();
  drain();
  EXPECT_EQ(q.first_nonempty(), kNone);
  for (std::uint64_t li = 0; li < n; ++li) {
    EXPECT_GE(popped[li].load(), 1) << li;
    EXPECT_LE(popped[li].load(), filed[li].load()) << li;
  }
}

}  // namespace
}  // namespace dpg::pattern
