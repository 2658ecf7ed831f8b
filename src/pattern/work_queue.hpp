// The per-rank work queue behind the fixed_point strategy (§IV-C work
// items, scheduled instead of applied in place).
//
// The queue holds local vertex indices of one rank's shard in FIFO order,
// each at most once: a one-byte pending flag per local vertex drops a push
// whose vertex is already waiting. Popping clears the flag, so a vertex
// improved again after it was popped is filed again. Because every index
// is pending at most once, the ring never holds more than the shard size
// and never reallocates after prepare().
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "util/assert.hpp"
#include "util/spinlock.hpp"

namespace dpg::pattern {

/// Cache-line aligned: one queue per rank sits side by side in the
/// owning action instance, and each is hot on its own rank's thread.
class alignas(64) work_queue {
 public:
  /// Readies the queue for a run over `n` local vertices, dropping any
  /// leftover entries. `locked` makes push/pop take the queue's spinlock —
  /// required when dedicated handler threads file work concurrently with
  /// the rank's own thread. Call before the run's first push, with no
  /// concurrent users.
  void prepare(std::uint64_t n, bool locked) {
    for (; size_ != 0; --size_) {
      pending_[ring_[head_]] = 0;
      head_ = next(head_);
    }
    head_ = 0;
    if (pending_.size() < n) {
      pending_.resize(n, 0);
      ring_.resize(n);
    }
    locked_ = locked;
  }

  /// Files local index `li` unless it is already pending; true if filed.
  bool push(std::uint64_t li) {
    if (!locked_) return push_unlocked(li);
    std::lock_guard<dpg::spinlock> g(mu_);
    return push_unlocked(li);
  }

  /// Removes the oldest pending index and clears its flag; nullopt when
  /// the queue is empty.
  std::optional<std::uint64_t> pop() {
    if (!locked_) return pop_unlocked();
    std::lock_guard<dpg::spinlock> g(mu_);
    return pop_unlocked();
  }

 private:
  std::uint64_t next(std::uint64_t i) const { return i + 1 == ring_.size() ? 0 : i + 1; }

  bool push_unlocked(std::uint64_t li) {
    DPG_DEBUG_ASSERT(li < pending_.size());
    if (pending_[li]) return false;
    pending_[li] = 1;
    std::uint64_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = li;
    ++size_;
    return true;
  }

  std::optional<std::uint64_t> pop_unlocked() {
    if (size_ == 0) return std::nullopt;
    const std::uint64_t li = ring_[head_];
    head_ = next(head_);
    --size_;
    pending_[li] = 0;
    return li;
  }

  std::vector<std::uint8_t> pending_;  ///< one flag per local vertex
  std::vector<std::uint64_t> ring_;    ///< FIFO of pending indices
  std::uint64_t head_ = 0;
  std::uint64_t size_ = 0;
  bool locked_ = false;
  dpg::spinlock mu_;
};

}  // namespace dpg::pattern
