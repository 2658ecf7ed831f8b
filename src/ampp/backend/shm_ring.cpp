#include "ampp/backend/shm_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "util/assert.hpp"

namespace dpg::ampp::backend {
namespace {

// Segment layout:
//   [segment_header][ring(0,0)][ring(0,1)]...[ring(N-1,N-1)]
// ring(s,d) occupies sizeof(ring_header) + ring_bytes; only (s != d) rings
// are ever used but the full matrix keeps indexing trivial. The header
// region and the ring stride are both rounded up to kRingAlign so every
// ring_header lands on its declared 64-byte alignment (mmap returns a
// page-aligned base).
//
// Frame encoding inside a ring: [u64 frame_bytes][wire_header][payload],
// the whole record padded to 8 bytes. A frame never wraps: if the tail is
// too close to the end, the producer writes a wrap marker (frame_bytes ==
// kWrapMark) and restarts at offset 0. ring_bytes must therefore exceed
// the largest frame by enough margin; the constructor enforces a floor.

constexpr std::uint64_t kWrapMark = ~0ull;
constexpr std::uint32_t kSegMagic = 0x44504753u;  // "DPGS"

struct segment_header {
  wire_handshake hs;  // magic/version/endian/n_ranks/channel of the creator
  std::uint32_t seg_magic;
  std::uint32_t ring_bytes;
  std::atomic<std::uint32_t> ready;     // creator sets 1 after init
  std::atomic<std::uint32_t> attached;  // each rank increments once
};
static_assert(std::is_trivially_copyable_v<wire_handshake>);

struct alignas(64) ring_header {
  // head: next byte offset the consumer will read; tail: next byte offset
  // the producer will write. Monotonic offsets are NOT used — these are
  // plain positions in [0, ring_bytes) with an "empty when equal" rule,
  // so the usable capacity is ring_bytes - 8.
  std::atomic<std::uint64_t> head;
  char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail;
  char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
};

constexpr std::size_t kRingAlign = alignof(ring_header);
static_assert(kRingAlign == 64);

constexpr std::size_t align_ring(std::size_t n) {
  return (n + kRingAlign - 1) & ~(kRingAlign - 1);
}

constexpr std::size_t kHeaderRegionBytes = align_ring(sizeof(segment_header));

std::size_t ring_slot_bytes(std::uint32_t ring_bytes) {
  return align_ring(sizeof(ring_header) + ring_bytes);
}

std::size_t segment_bytes(rank_t n_ranks, std::uint32_t ring_bytes) {
  return kHeaderRegionBytes +
         static_cast<std::size_t>(n_ranks) * n_ranks * ring_slot_bytes(ring_bytes);
}

std::uint64_t pad8(std::uint64_t n) { return (n + 7) & ~7ull; }

}  // namespace

struct shm_ring_backend::ring {
  ring_header hdr;
  std::byte data[1];  // ring_bytes_ of payload space follows hdr

  std::uint64_t used(std::uint64_t head, std::uint64_t tail, std::uint64_t cap) const {
    return tail >= head ? tail - head : cap - head + tail;
  }
};

shm_ring_backend::ring* shm_ring_backend::ring_at(rank_t src, rank_t dest) const {
  auto* p = static_cast<std::byte*>(base_) + kHeaderRegionBytes +
            (static_cast<std::size_t>(src) * n_ranks_ + dest) * ring_slot_bytes(ring_bytes_);
  return reinterpret_cast<ring*>(p);
}

const void* shm_ring_backend::ring_address(rank_t src, rank_t dest) const {
  DPG_ASSERT_MSG(src < n_ranks_ && dest < n_ranks_, "shm backend: ring index out of range");
  return ring_at(src, dest);
}

shm_ring_backend::shm_ring_backend(const backend_config& cfg, rank_t n_ranks,
                                   std::uint32_t channel)
    : self_(cfg.self_rank),
      n_ranks_(n_ranks),
      ring_bytes_(cfg.ring_bytes),
      attach_timeout_ms_(cfg.attach_timeout_ms),
      shm_name_("/dpg_" + cfg.session + "_c" + std::to_string(channel)),
      send_mu_(n_ranks),
      frame_scratch_(n_ranks) {
  DPG_ASSERT_MSG(self_ < n_ranks_, "shm backend: self_rank out of range");
  DPG_ASSERT_MSG((ring_bytes_ & (ring_bytes_ - 1)) == 0 && ring_bytes_ >= (1u << 14),
                 "shm backend: ring_bytes must be a power of two >= 16KiB");

  const std::size_t len = segment_bytes(n_ranks_, ring_bytes_);
  creator_ = (self_ == 0);

  int fd = -1;
  if (creator_) {
    // A previous crashed run may have left a stale segment behind; a fresh
    // session id is the supported way to run concurrently, so an existing
    // segment with our name is garbage by definition.
    ::shm_unlink(shm_name_.c_str());
    fd = ::shm_open(shm_name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) throw wire_error("shm backend: shm_open(create " + shm_name_ + ") failed");
    if (::ftruncate(fd, static_cast<off_t>(len)) != 0) {
      ::close(fd);
      ::shm_unlink(shm_name_.c_str());
      throw wire_error("shm backend: ftruncate failed (is /dev/shm large enough?)");
    }
  } else {
    // Attach with retry: rank 0 may not have created the segment yet.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(attach_timeout_ms_);
    for (;;) {
      fd = ::shm_open(shm_name_.c_str(), O_RDWR, 0600);
      if (fd >= 0) {
        struct ::stat st{};
        if (::fstat(fd, &st) == 0 && static_cast<std::size_t>(st.st_size) >= len) break;
        ::close(fd);
        fd = -1;
      }
      if (std::chrono::steady_clock::now() > deadline)
        throw wire_error("shm backend: timed out waiting for rank 0 to create " +
                         shm_name_);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  base_ = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    release();
    throw wire_error("shm backend: mmap failed");
  }
  map_len_ = len;
  // The destructor does not run for a constructor that throws, so every
  // failure from here on (misalignment, init or attach timeout, geometry or
  // handshake mismatch) releases the segment itself: no rank leaves its
  // mapping, and rank 0 leaves no name in /dev/shm.
  try {
    join_segment(channel);
  } catch (...) {
    release();
    throw;
  }
}

void shm_ring_backend::join_segment(std::uint32_t channel) {
  // Every ring must sit on its 64-byte alignment: the atomics in
  // ring_header are accessed through a pointer of that type, and a
  // misaligned one is undefined behaviour (and splits cache lines).
  for (rank_t s = 0; s < n_ranks_; ++s)
    for (rank_t d = 0; d < n_ranks_; ++d)
      if (reinterpret_cast<std::uintptr_t>(ring_at(s, d)) % kRingAlign != 0)
        throw wire_error("shm backend: ring (" + std::to_string(s) + "," +
                         std::to_string(d) + ") is not 64-byte aligned in the segment");

  auto* seg = static_cast<segment_header*>(base_);
  if (creator_) {
    std::memset(base_, 0, map_len_);
    seg->hs = wire_handshake{.src_rank = 0, .n_ranks = n_ranks_, .channel = channel};
    seg->seg_magic = kSegMagic;
    seg->ring_bytes = ring_bytes_;
    seg->attached.store(0, std::memory_order_relaxed);
    seg->ready.store(1, std::memory_order_release);
  } else {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(attach_timeout_ms_);
    while (seg->ready.load(std::memory_order_acquire) != 1) {
      if (std::chrono::steady_clock::now() > deadline)
        throw wire_error("shm backend: timed out waiting for segment init");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (seg->seg_magic != kSegMagic || seg->ring_bytes != ring_bytes_)
      throw wire_error("shm backend: segment geometry mismatch (ring_bytes " +
                       std::to_string(seg->ring_bytes) + " vs local " +
                       std::to_string(ring_bytes_) + ")");
    // Same format-version / endianness / rank-count discipline as the TCP
    // handshake, just mediated through the segment header.
    validate_handshake(seg->hs, n_ranks_, channel,
                       "shm backend (segment " + shm_name_ + ")");
  }

  // Barrier: everyone announces attachment; everyone waits for all ranks.
  seg->attached.fetch_add(1, std::memory_order_acq_rel);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(attach_timeout_ms_);
  while (seg->attached.load(std::memory_order_acquire) < n_ranks_) {
    if (std::chrono::steady_clock::now() > deadline)
      throw wire_error("shm backend: timed out waiting for " +
                       std::to_string(n_ranks_) + " ranks to attach (have " +
                       std::to_string(seg->attached.load()) + ")");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

shm_ring_backend::~shm_ring_backend() { release(); }

void shm_ring_backend::release() noexcept {
  if (base_) ::munmap(base_, map_len_);
  base_ = nullptr;
  // The creator unlinks; attached peers keep their mapping valid until
  // their own munmap regardless (POSIX shm semantics).
  if (creator_) ::shm_unlink(shm_name_.c_str());
}

void shm_ring_backend::push_frame(ring& r, const wire_header& h,
                                  const std::byte* payload) {
  const std::uint64_t cap = ring_bytes_;
  const std::uint64_t frame = sizeof(wire_header) + h.payload_bytes;
  const std::uint64_t record = 8 + pad8(frame);
  DPG_ASSERT_MSG(record + 16 < cap,
                 "shm backend: envelope larger than ring capacity");

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(attach_timeout_ms_);
  std::uint64_t tail = r.hdr.tail.load(std::memory_order_relaxed);
  // A frame never straddles the end: if the record doesn't fit contiguously
  // the producer writes a wrap marker, declares [tail, cap) dead, and
  // restarts at 0 — so the wrap case needs (cap - tail) + record bytes of
  // free space, which also guarantees the restarted record cannot cross an
  // unread head. +8 keeps head == tail meaning "empty", never "full".
  const bool wraps = tail + 8 + frame > cap;
  const std::uint64_t need = (wraps ? (cap - tail) + record : record) + 8;
  for (;;) {
    const std::uint64_t head = r.hdr.head.load(std::memory_order_acquire);
    const std::uint64_t used = r.used(head, tail, cap);
    if (cap - used >= need) break;
    if (std::chrono::steady_clock::now() > deadline)
      throw wire_error("shm backend: ring to rank full for " +
                       std::to_string(attach_timeout_ms_) +
                       "ms — peer stalled or exited");
    std::this_thread::yield();
  }

  if (wraps) {
    std::memcpy(r.data + tail, &kWrapMark, 8);
    tail = 0;
  }
  std::uint64_t frame_bytes = frame;
  std::memcpy(r.data + tail + 8, &h, sizeof(wire_header));
  if (h.payload_bytes)
    std::memcpy(r.data + tail + 8 + sizeof(wire_header), payload, h.payload_bytes);
  std::memcpy(r.data + tail, &frame_bytes, 8);
  // The release store publishes the wrap marker, header, and payload
  // together; the consumer acquires them through the tail load.
  r.hdr.tail.store((tail + record) % cap, std::memory_order_release);
}

void shm_ring_backend::send(rank_t dest, const wire_header& h,
                            const std::byte* payload) {
  DPG_ASSERT_MSG(dest < n_ranks_ && dest != self_, "shm backend: bad destination");
  std::lock_guard lk(send_mu_[dest]);
  push_frame(*ring_at(self_, dest), h, payload);
}

std::size_t shm_ring_backend::poll(const frame_sink& sink) {
  std::unique_lock lk(poll_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return 0;  // another thread is already draining
  std::size_t delivered = 0;
  const std::uint64_t cap = ring_bytes_;
  for (rank_t src = 0; src < n_ranks_; ++src) {
    if (src == self_) continue;
    ring& r = *ring_at(src, self_);
    for (;;) {
      std::uint64_t head = r.hdr.head.load(std::memory_order_relaxed);
      const std::uint64_t tail = r.hdr.tail.load(std::memory_order_acquire);
      if (head == tail) break;
      std::uint64_t frame_bytes;
      std::memcpy(&frame_bytes, r.data + head, 8);
      if (frame_bytes == kWrapMark) {
        r.hdr.head.store(0, std::memory_order_release);
        continue;
      }
      if (frame_bytes < sizeof(wire_header) || frame_bytes > cap)
        throw wire_error("shm backend: corrupt frame length in ring");
      // Copy out before publishing the head so the producer can reuse the
      // space while the sink runs.
      auto& scratch = frame_scratch_[src];
      scratch.resize(frame_bytes);
      std::memcpy(scratch.data(), r.data + head + 8, frame_bytes);
      r.hdr.head.store((head + 8 + pad8(frame_bytes)) % cap,
                       std::memory_order_release);
      wire_header h;
      std::memcpy(&h, scratch.data(), sizeof(wire_header));
      validate_header(h, n_ranks_);
      if (sizeof(wire_header) + h.payload_bytes != frame_bytes)
        throw wire_error("shm backend: frame length disagrees with header");
      sink(h, scratch.data() + sizeof(wire_header));
      ++delivered;
    }
  }
  return delivered;
}

}  // namespace dpg::ampp::backend
