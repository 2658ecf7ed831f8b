// The per-rank work queue behind the queue-driven strategies (§IV-C work
// items, scheduled instead of applied in place). It holds local vertex
// indices of one rank's shard, each pending at most once, in one of two
// orders (docs/runtime.md "fixed_point scheduling", "Bucketed order"):
//
// * FIFO (fixed_point, CC search): a one-byte pending flag per local vertex
//   drops a push whose vertex already waits, so the ring never holds more
//   than the shard and never reallocates after prepare().
// * Δ-bucketed (Δ-stepping): a vertex waits in bucket ⌊priority/Δ⌋, FIFO
//   within a bucket, lowest bucket first. A 32-bit pending-bucket index per
//   local vertex drops a push into the same or a higher bucket; a push into
//   a lower one re-files the vertex and leaves its old entry stale, skipped
//   when it reaches the front of its row. Priorities at or beyond
//   max_buckets·Δ, +∞ and NaN share the last bucket, negative ones bucket 0.
//
// The spinlock is taken only when prepared `locked` (handler threads push
// concurrently with the rank's own thread). The unlocked FIFO push and pop
// test one mode byte and go straight to the ring.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/assert.hpp"
#include "util/spinlock.hpp"

namespace dpg::pattern {

/// Cache-line aligned: one queue per rank sits side by side in the
/// owning action instance, and each is hot on its own rank's thread.
class alignas(64) work_queue {
 public:
  static constexpr std::uint64_t max_buckets = std::uint64_t{1} << 16;
  /// first_nonempty() when no bucket holds a pending vertex.
  static constexpr std::uint64_t none = std::numeric_limits<std::uint64_t>::max();

  /// Throws std::invalid_argument unless Δ > 0 (NaN fails too).
  static void check_width(double delta) {
    if (!(delta > 0.0)) throw std::invalid_argument("Δ-stepping bucket width must be positive");
  }

  /// Readies the queue for a FIFO run over `n` local vertices, dropping any
  /// leftover entries. `locked` makes every operation take the spinlock.
  /// Call before the run's first push, with no concurrent users.
  void prepare(std::uint64_t n, bool locked) {
    clear();
    if (pending_.size() < n) {
      pending_.resize(n, 0);
      ring_.resize(n);
    }
    mode_ = locked ? locked_bit : 0;
  }

  /// As above, for a Δ-bucketed run of width `delta`. Throws (before
  /// changing anything) unless Δ > 0.
  void prepare(std::uint64_t n, bool locked, double delta) {
    check_width(delta);
    clear();
    if (bucket_.size() < n) bucket_.resize(n, idle);
    delta_ = delta;
    mode_ = bucketed_bit | (locked ? locked_bit : 0);
  }

  /// FIFO: files local index `li` unless it is already pending; true if
  /// filed.
  bool push(std::uint64_t li) {
    DPG_DEBUG_ASSERT(!(mode_ & bucketed_bit));
    if (mode_ == 0) return push_fifo(li);
    std::lock_guard<dpg::spinlock> g(mu_);
    return push_fifo(li);
  }

  /// Δ-bucketed: files `li` under bucket_of(priority) unless it is already
  /// pending there or lower; true if filed.
  bool push(std::uint64_t li, double priority) {
    DPG_DEBUG_ASSERT(mode_ & bucketed_bit);
    const std::uint64_t b = bucket_of(priority);
    const auto g = guard();
    return push_bucket(li, b);
  }

  /// Removes the next pending index (the oldest, or the oldest of the
  /// lowest bucket) and clears its mark; nullopt when nothing is pending.
  std::optional<std::uint64_t> pop() {
    if (mode_ == 0) return pop_fifo();
    const auto g = guard();
    return mode_ & bucketed_bit ? pop_bucket(first_live()) : pop_fifo();
  }

  /// Δ-bucketed: pops the oldest live entry of bucket `b`, if any.
  std::optional<std::uint64_t> pop(std::uint64_t b) {
    const auto g = guard();
    return pop_bucket(b);
  }

  /// Δ-bucketed: the lowest bucket holding a pending vertex, or none.
  std::uint64_t first_nonempty() {
    const auto g = guard();
    return first_live();
  }

  /// Δ-bucketed: the bucket a priority files into. Ordered comparisons are
  /// false for NaN, so the cast only ever sees quotients in [1, cap).
  std::uint64_t bucket_of(double priority) const {
    const double q = priority / delta_;
    if (!(q < static_cast<double>(max_buckets))) return max_buckets - 1;
    return q < 1.0 ? 0 : static_cast<std::uint64_t>(q);
  }

 private:
  enum : std::uint8_t { locked_bit = 1, bucketed_bit = 2 };
  /// bucket_ of a vertex that is not pending: above every bucket, so the
  /// dedup test is one comparison.
  static constexpr std::uint32_t idle = std::numeric_limits<std::uint32_t>::max();

  struct row {
    std::vector<std::uint64_t> items;  ///< filed indices, live or stale
    std::size_t head = 0;              ///< items before head are consumed
  };

  std::unique_lock<dpg::spinlock> guard() {
    std::unique_lock<dpg::spinlock> g(mu_, std::defer_lock);
    if (mode_ & locked_bit) g.lock();
    return g;
  }

  void clear() {
    for (; size_ != 0; --size_) {
      pending_[ring_[head_]] = 0;
      head_ = next(head_);
    }
    head_ = 0;
    // Rows keep their capacity across runs: a run re-fills them in place
    // rather than growing them again from empty.
    for (std::uint64_t b = 0; b < nrows_; ++b) {
      row& w = rows_[b];
      for (std::size_t i = w.head; i < w.items.size(); ++i) bucket_[w.items[i]] = idle;
      w.items.clear();
      w.head = 0;
    }
    nrows_ = 0;
    cursor_ = 0;
  }

  std::uint64_t next(std::uint64_t i) const { return i + 1 == ring_.size() ? 0 : i + 1; }

  bool push_fifo(std::uint64_t li) {
    DPG_DEBUG_ASSERT(li < pending_.size());
    if (pending_[li]) return false;
    pending_[li] = 1;
    std::uint64_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = li;
    ++size_;
    return true;
  }

  std::optional<std::uint64_t> pop_fifo() {
    if (size_ == 0) return std::nullopt;
    const std::uint64_t li = ring_[head_];
    head_ = next(head_);
    --size_;
    pending_[li] = 0;
    return li;
  }

  bool push_bucket(std::uint64_t li, std::uint64_t b) {
    DPG_DEBUG_ASSERT(li < bucket_.size());
    if (b >= bucket_[li]) return false;
    bucket_[li] = static_cast<std::uint32_t>(b);
    if (b >= nrows_) {
      nrows_ = b + 1;
      if (nrows_ > rows_.size()) rows_.resize(nrows_);
    }
    rows_[b].items.push_back(li);
    if (b < cursor_) cursor_ = b;
    return true;
  }

  /// Skips stale entries at the front of row b; true if a live one is left.
  bool live_front(std::uint64_t b) {
    if (b >= nrows_) return false;
    row& w = rows_[b];
    while (w.head < w.items.size() && bucket_[w.items[w.head]] != b) ++w.head;
    if (w.head < w.items.size()) return true;
    w.items.clear();
    w.head = 0;
    return false;
  }

  std::optional<std::uint64_t> pop_bucket(std::uint64_t b) {
    if (!live_front(b)) return std::nullopt;
    const std::uint64_t li = rows_[b].items[rows_[b].head++];
    bucket_[li] = idle;
    return li;
  }

  /// Resumes from the cursor: rows below it hold no live entry (a push
  /// lowers it; the scan passes only rows it found empty).
  std::uint64_t first_live() {
    for (; cursor_ < nrows_; ++cursor_)
      if (live_front(cursor_)) return cursor_;
    return none;
  }

  std::vector<std::uint8_t> pending_;  ///< FIFO: one flag per local vertex
  std::vector<std::uint64_t> ring_;    ///< FIFO: pending indices
  std::uint64_t head_ = 0;
  std::uint64_t size_ = 0;
  std::vector<std::uint32_t> bucket_;  ///< bucketed: pending bucket, or idle
  std::vector<row> rows_;              ///< bucketed: one per bucket, kept across runs
  std::uint64_t nrows_ = 0;            ///< bucketed: rows in use this run
  std::uint64_t cursor_ = 0;
  double delta_ = 1.0;
  std::uint8_t mode_ = 0;
  dpg::spinlock mu_;
};

}  // namespace dpg::pattern
