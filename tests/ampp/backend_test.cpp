// Unit tests for the wire backends (ISSUE 8): the shm SPSC rings and the
// TCP mesh, driven directly through the wire_backend interface with both
// "rank processes" living in this one test process (explicit channel, two
// threads for the construction rendezvous). The cross-process end-to-end
// matrix lives in tests/sim/backend_sweep_test.cpp; these tests pin the
// mechanics the sweep relies on: ring wraparound, partial TCP reads,
// handshake rejection, peer-disconnect errors, and header validation.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ampp/backend.hpp"
#include "ampp/backend/shm_ring.hpp"
#include "ampp/wire.hpp"

namespace dpg::ampp {
namespace {

// Channels below 1000 could collide with transports constructed elsewhere
// in this process; give every test its own high channel so shm names and
// port blocks never overlap (ports also offset by PID to survive parallel
// ctest invocations and TIME_WAIT from earlier runs).
std::uint32_t next_test_channel() {
  static std::atomic<std::uint32_t> c{1000};
  return c.fetch_add(1);
}

std::uint16_t test_base_port() {
  return static_cast<std::uint16_t>(20000 + (::getpid() % 4096) * 8);
}

backend_config make_cfg(backend_config::kind_t kind, rank_t self,
                        std::uint32_t channel, std::uint32_t ring_bytes = 1u << 16) {
  backend_config cfg;
  cfg.kind = kind;
  cfg.self_rank = self;
  cfg.session = "btest" + std::to_string(::getpid());
  cfg.base_port = test_base_port();
  cfg.ring_bytes = ring_bytes;
  cfg.attach_timeout_ms = 10000;
  cfg.channel = static_cast<std::int32_t>(channel);
  return cfg;
}

/// Constructs a full machine of backends inside this process, one thread
/// per rank (the rendezvous blocks until all ranks arrive).
std::vector<std::unique_ptr<wire_backend>> make_machine(backend_config::kind_t kind,
                                                        rank_t n_ranks,
                                                        std::uint32_t ring_bytes = 1u
                                                                                   << 16) {
  const std::uint32_t channel = next_test_channel();
  std::vector<std::future<std::unique_ptr<wire_backend>>> futs;
  for (rank_t r = 0; r < n_ranks; ++r)
    futs.push_back(std::async(std::launch::async, [=] {
      return make_wire(make_cfg(kind, r, channel, ring_bytes), n_ranks);
    }));
  std::vector<std::unique_ptr<wire_backend>> out;
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

wire_header payload_header(rank_t src, std::uint64_t seq, std::uint32_t bytes) {
  wire_header h;
  h.type_id = 0;
  h.type_hash = wire_name_hash("backend.test");
  h.count = 1;
  h.payload_bytes = bytes;
  h.src = src;
  h.seq = seq;
  return h;
}

std::vector<std::byte> pattern_payload(std::uint32_t bytes, std::uint64_t salt) {
  std::vector<std::byte> p(bytes);
  for (std::uint32_t i = 0; i < bytes; ++i)
    p[i] = static_cast<std::byte>((salt * 131 + i * 7) & 0xff);
  return p;
}

/// A receive-side checker: payload integrity plus per-source ordering via
/// the seq field. Use the sink while sending (a ring smaller than the sent
/// volume deadlocks unless someone drains concurrently), then drain() the
/// remainder.
class frame_checker {
 public:
  explicit frame_checker(wire_backend& b) : b_(&b), next_seq_(64, 0) {}

  wire_backend::frame_sink sink() {
    return [this](const wire_header& h, const std::byte* payload) {
      ASSERT_EQ(h.seq, next_seq_[h.src]) << "frames from rank " << h.src << " reordered";
      ++next_seq_[h.src];
      const auto expect = pattern_payload(h.payload_bytes, h.seq);
      ASSERT_EQ(0, std::memcmp(payload, expect.data(), h.payload_bytes));
      ++got_;
    };
  }

  void pump() { b_->poll(sink()); }

  void drain(std::size_t want) {
    while (got_ < want) {
      pump();
      std::this_thread::yield();
    }
  }

  std::size_t got() const { return got_; }

 private:
  wire_backend* b_;
  std::vector<std::uint64_t> next_seq_;
  std::size_t got_ = 0;
};

void drain_expect(wire_backend& b, std::size_t want) {
  frame_checker chk(b);
  chk.drain(want);
}

// ---- shm ring ------------------------------------------------------------

TEST(ShmRingBackend, WrapAroundPreservesFramesAndOrder) {
  // A 16 KiB ring (the floor) with ~1.5 KiB frames wraps every ~10 sends;
  // pushing 600 exercises the wrap marker path dozens of times, including
  // tails landing exactly at the capacity boundary (varying sizes).
  auto m = make_machine(backend_config::kind_t::shm_ring, 2, 1u << 14);
  constexpr std::size_t kFrames = 600;
  std::thread consumer([&] { drain_expect(*m[1], kFrames); });
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    const std::uint32_t bytes = static_cast<std::uint32_t>(800 + (seq * 97) % 1024);
    const auto payload = pattern_payload(bytes, seq);
    m[0]->send(1, payload_header(0, seq, bytes), payload.data());
  }
  consumer.join();
}

TEST(ShmRingBackend, AllToAllUnderConcurrency) {
  constexpr rank_t kRanks = 4;
  constexpr std::size_t kPerPair = 200;
  auto m = make_machine(backend_config::kind_t::shm_ring, kRanks, 1u << 14);
  std::vector<std::thread> threads;
  for (rank_t r = 0; r < kRanks; ++r)
    threads.emplace_back([&, r] {
      frame_checker chk(*m[r]);
      for (std::uint64_t seq = 0; seq < kPerPair; ++seq) {
        for (rank_t d = 0; d < kRanks; ++d) {
          if (d == r) continue;
          const std::uint32_t bytes = static_cast<std::uint32_t>(64 + seq % 512);
          const auto payload = pattern_payload(bytes, seq);
          m[r]->send(d, payload_header(r, seq, bytes), payload.data());
        }
        // Drain as we go: the aggregate volume far exceeds one ring's
        // capacity, so a send-everything-then-drain schedule would deadlock
        // with every producer waiting on a consumer that never polls.
        chk.pump();
      }
      chk.drain(kPerPair * (kRanks - 1));
    });
  for (auto& t : threads) t.join();
}

TEST(ShmRingBackend, EveryRingIsCacheLineAligned) {
  // The ring headers are alignas(64) atomics addressed inside the mapped
  // segment: the header region and the ring stride must keep every one of
  // them on a 64-byte boundary, at every machine size.
  for (rank_t n = 1; n <= 4; ++n) {
    auto m = make_machine(backend_config::kind_t::shm_ring, n, 1u << 14);
    for (rank_t self = 0; self < n; ++self) {
      const auto* b = dynamic_cast<const backend::shm_ring_backend*>(m[self].get());
      ASSERT_NE(b, nullptr);
      for (rank_t src = 0; src < n; ++src)
        for (rank_t dest = 0; dest < n; ++dest)
          EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b->ring_address(src, dest)) % 64, 0u)
              << "n_ranks=" << n << " ring(" << src << "," << dest << ") in rank " << self;
    }
  }
}

TEST(ShmRingBackend, GeometryMismatchIsRejected) {
  // Rank 1 attaches with a different ring_bytes than the creator: the
  // segment-geometry check must throw rather than mis-index the rings.
  const std::uint32_t channel = next_test_channel();
  backend_config cfg0 = make_cfg(backend_config::kind_t::shm_ring, 0, channel, 1u << 15);
  cfg0.attach_timeout_ms = 1500;  // rank 0 can only fail by attach timeout
  backend_config cfg1 = make_cfg(backend_config::kind_t::shm_ring, 1, channel, 1u << 14);
  auto f0 = std::async(std::launch::async, [&] { return make_wire(cfg0, 2); });
  auto f1 = std::async(std::launch::async, [&] { return make_wire(cfg1, 2); });
  EXPECT_THROW(f1.get(), wire_error);
  // Rank 0 times out waiting for rank 1's attach — also an error, never a
  // half-attached machine.
  EXPECT_THROW(f0.get(), wire_error);
  // Neither failed constructor leaves the segment behind.
  const std::string name = "/dpg_" + cfg0.session + "_c" + std::to_string(channel);
  errno = 0;
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd >= 0) ::close(fd);
  EXPECT_EQ(fd, -1) << name << " outlived both ranks";
  EXPECT_EQ(errno, ENOENT);
}

// ---- TCP -----------------------------------------------------------------

TEST(TcpBackend, LargeFramesSurvivePartialReads) {
  // A 200 KiB payload is far larger than the 16 KiB read chunk AND larger
  // than typical socket buffers: the receiver necessarily observes many
  // partial frames and must reassemble across poll() calls; the sender's
  // nonblocking send path must ride out EAGAIN.
  auto m = make_machine(backend_config::kind_t::tcp, 2);
  constexpr std::uint32_t kBytes = 200 * 1024;
  constexpr std::size_t kFrames = 8;
  std::thread consumer([&] { drain_expect(*m[1], kFrames); });
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    const auto payload = pattern_payload(kBytes, seq);
    m[0]->send(1, payload_header(0, seq, kBytes), payload.data());
  }
  consumer.join();
}

TEST(TcpBackend, FourRankMeshDelivers) {
  constexpr rank_t kRanks = 4;
  constexpr std::size_t kPerPair = 100;
  auto m = make_machine(backend_config::kind_t::tcp, kRanks);
  std::vector<std::thread> threads;
  for (rank_t r = 0; r < kRanks; ++r)
    threads.emplace_back([&, r] {
      frame_checker chk(*m[r]);
      for (std::uint64_t seq = 0; seq < kPerPair; ++seq) {
        for (rank_t d = 0; d < kRanks; ++d) {
          if (d == r) continue;
          const std::uint32_t bytes = static_cast<std::uint32_t>(32 + seq % 256);
          const auto payload = pattern_payload(bytes, seq);
          m[r]->send(d, payload_header(r, seq, bytes), payload.data());
        }
        chk.pump();
      }
      chk.drain(kPerPair * (kRanks - 1));
    });
  for (auto& t : threads) t.join();
}

TEST(TcpBackend, HandshakeVersionMismatchIsRejected) {
  // Pose as rank 1 of a 2-rank machine but speak a future format version:
  // rank 0 must reject the connection during its own construction.
  const std::uint32_t channel = next_test_channel();
  const backend_config cfg0 = make_cfg(backend_config::kind_t::tcp, 0, channel);
  auto f0 = std::async(std::launch::async,
                       [&] { return make_wire(cfg0, 2); });
  const std::uint16_t port =
      static_cast<std::uint16_t>(cfg0.base_port + channel * 2 + 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  int fd = -1;
  for (int tries = 0; tries < 5000; ++tries) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) == 0) break;
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fd, 0) << "could not reach rank 0's listener";
  wire_handshake bogus;
  bogus.version = wire_format_version + 1;
  bogus.src_rank = 1;
  bogus.n_ranks = 2;
  bogus.channel = channel;
  ASSERT_EQ(static_cast<ssize_t>(sizeof(bogus)),
            ::send(fd, &bogus, sizeof(bogus), MSG_NOSIGNAL));
  EXPECT_THROW(f0.get(), wire_error);
  ::close(fd);
}

TEST(TcpBackend, PeerDisconnectFailsLoudly) {
  auto m = make_machine(backend_config::kind_t::tcp, 2);
  m[1].reset();  // rank 1 exits
  // Sends eventually fail (the first few may land in the socket buffer);
  // they must fail with wire_error, not SIGPIPE or silent loss.
  const auto payload = pattern_payload(1024, 0);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i)
          m[0]->send(1, payload_header(0, static_cast<std::uint64_t>(i), 1024),
                     payload.data());
      },
      wire_error);
}

// ---- wire format ---------------------------------------------------------

TEST(WireFormat, HeaderValidationCatchesCorruption) {
  wire_header h;
  h.src = 1;
  EXPECT_NO_THROW(validate_header(h, 4));
  wire_header bad_magic = h;
  bad_magic.magic ^= 1;
  EXPECT_THROW(validate_header(bad_magic, 4), wire_error);
  wire_header bad_version = h;
  bad_version.version = wire_format_version + 1;
  EXPECT_THROW(validate_header(bad_version, 4), wire_error);
  wire_header bad_endian = h;
  bad_endian.endian = h.endian == wire_endian_little ? wire_endian_big
                                                     : wire_endian_little;
  EXPECT_THROW(validate_header(bad_endian, 4), wire_error);
  wire_header bad_src = h;
  bad_src.src = 4;
  EXPECT_THROW(validate_header(bad_src, 4), wire_error);
}

TEST(WireFormat, HandshakeValidationNamesTheMismatch) {
  wire_handshake ok;
  ok.src_rank = 1;
  ok.n_ranks = 4;
  ok.channel = 7;
  EXPECT_NO_THROW(validate_handshake(ok, 4, 7, "test"));
  wire_handshake wrong_ranks = ok;
  wrong_ranks.n_ranks = 8;
  EXPECT_THROW(validate_handshake(wrong_ranks, 4, 7, "test"), wire_error);
  wire_handshake wrong_channel = ok;
  wrong_channel.channel = 8;
  EXPECT_THROW(validate_handshake(wrong_channel, 4, 7, "test"), wire_error);
}

TEST(WireFormat, NameHashIsStable) {
  // The FNV-1a constant vector: registration-order divergence detection
  // depends on both sides computing the identical hash.
  static_assert(wire_name_hash("") == 2166136261u);
  static_assert(wire_name_hash("dpg.td.report") == wire_name_hash("dpg.td.report"));
  static_assert(wire_name_hash("sssp.relax") != wire_name_hash("cc.search"));
  static_assert(sizeof(wire_header) == 56);
  static_assert(sizeof(wire_handshake) == 24);
  SUCCEED();
}

}  // namespace
}  // namespace dpg::ampp
