// Shared-memory ring-buffer backend: multi-process, single host, one
// process per rank. One POSIX shm segment per (session, channel) holds an
// N×N matrix of SPSC byte rings — ring (s,d) is written only by rank s's
// process and read only by rank d's process, so each ring needs nothing
// stronger than acquire/release on its head/tail counters. Progress is
// poll-based (reader spins with yield); the segment is created by rank 0
// and unlinked by it on teardown.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ampp/backend.hpp"

namespace dpg::ampp::backend {

class shm_ring_backend final : public wire_backend {
 public:
  /// Creates (rank 0) or attaches (other ranks) the session's segment and
  /// waits for all peers to attach. Throws wire_error on timeout or a
  /// format/geometry mismatch with an existing segment.
  shm_ring_backend(const backend_config& cfg, rank_t n_ranks, std::uint32_t channel);
  ~shm_ring_backend() override;

  const char* name() const override { return "shm_ring"; }
  rank_t self() const override { return self_; }
  void send(rank_t dest, const wire_header& h, const std::byte* payload) override;
  std::size_t poll(const frame_sink& sink) override;

  /// Address of ring (src, dest) inside this process's mapping of the
  /// segment — exposed so layout tests can check its alignment.
  const void* ring_address(rank_t src, rank_t dest) const;

 private:
  struct ring;  // layout in shm_ring.cpp

  ring* ring_at(rank_t src, rank_t dest) const;
  /// Initializes (rank 0) or validates (other ranks) the mapped segment,
  /// then waits at the attach barrier. Throws wire_error.
  void join_segment(std::uint32_t channel);
  /// Unmaps the segment; rank 0 also unlinks it.
  void release() noexcept;
  void push_frame(ring& r, const wire_header& h, const std::byte* payload);

  rank_t self_ = 0;
  rank_t n_ranks_ = 0;
  std::uint32_t ring_bytes_ = 0;
  std::uint32_t attach_timeout_ms_ = 0;
  std::string shm_name_;
  bool creator_ = false;
  void* base_ = nullptr;    // mmap'd segment
  std::size_t map_len_ = 0;
  // The rings are SPSC across processes, but one *process* may send from
  // several threads (helper threads flushing lanes); these local mutexes
  // serialize this process's producer side per destination, and the
  // consumer side across concurrent poll() calls.
  std::vector<std::mutex> send_mu_;
  std::mutex poll_mu_;
  std::vector<std::vector<std::byte>> frame_scratch_;  // per-src reassembly
};

}  // namespace dpg::ampp::backend
