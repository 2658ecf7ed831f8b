// Robustness fuzzing of the wire format's validators: random, bit-flipped
// and truncated wire_header / wire_handshake images must either validate or
// throw wire_error — never crash, and never accept a frame whose checked
// fields are wrong. The second half feeds whole frame streams to the TCP
// backend's receive path over loopback: valid streams split at random
// byte boundaries, streams truncated mid-frame, and bit-flipped streams.
// Run under the asan preset for the memory half.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ampp/backend.hpp"
#include "ampp/wire.hpp"
#include "util/rng.hpp"

namespace dpg::ampp {
namespace {

constexpr std::uint32_t kRanks = 4;
constexpr std::uint32_t kChannel = 3;

/// Rebuilds a T from the first `len` bytes of `image`, the rest zero — the
/// value a receiver that trusted a short read would decode.
template <class T>
T from_bytes(const unsigned char* image, std::size_t len) {
  unsigned char bytes[sizeof(T)] = {};
  std::memcpy(bytes, image, std::min(len, sizeof(T)));
  T out;
  std::memcpy(&out, bytes, sizeof(T));
  return out;
}

/// validate_header either throws wire_error or accepts a header whose
/// checked fields all hold.
void header_must_be_graceful(const wire_header& h) {
  try {
    validate_header(h, kRanks);
  } catch (const wire_error&) {
    return;
  }
  EXPECT_EQ(h.magic, wire_magic);
  EXPECT_EQ(h.version, wire_format_version);
  EXPECT_EQ(h.endian, wire_native_endian());
  EXPECT_LT(h.src, kRanks);
}

void handshake_must_be_graceful(const wire_handshake& hs) {
  try {
    validate_handshake(hs, kRanks, kChannel, "fuzz");
  } catch (const wire_error&) {
    return;
  }
  EXPECT_EQ(hs.magic, wire_magic);
  EXPECT_EQ(hs.version, wire_format_version);
  EXPECT_EQ(hs.endian, wire_native_endian());
  EXPECT_EQ(hs.n_ranks, kRanks);
  EXPECT_EQ(hs.channel, kChannel);
}

wire_header valid_header() {
  wire_header h;
  h.type_id = 2;
  h.type_hash = wire_name_hash("cc.search.claim");
  h.count = 17;
  h.payload_bytes = 17 * 16;
  h.src = 1;
  h.seq = 99;
  return h;
}

wire_handshake valid_handshake() {
  wire_handshake hs;
  hs.src_rank = 2;
  hs.n_ranks = kRanks;
  hs.channel = kChannel;
  return hs;
}

TEST(WireFuzz, SeedImagesAreValid) {
  EXPECT_NO_THROW(validate_header(valid_header(), kRanks));
  EXPECT_NO_THROW(validate_handshake(valid_handshake(), kRanks, kChannel, "fuzz"));
}

TEST(WireFuzz, TruncationsNeverCrash) {
  const wire_header h = valid_header();
  const wire_handshake hs = valid_handshake();
  unsigned char himg[sizeof(wire_header)];
  unsigned char simg[sizeof(wire_handshake)];
  std::memcpy(himg, &h, sizeof himg);
  std::memcpy(simg, &hs, sizeof simg);
  for (std::size_t len = 0; len <= sizeof himg; ++len) {
    const wire_header cut = from_bytes<wire_header>(himg, len);
    header_must_be_graceful(cut);
    // Cut inside the checked prefix: the zeroed magic must be rejected.
    if (len < sizeof(std::uint32_t)) {
      EXPECT_THROW(validate_header(cut, kRanks), wire_error);
    }
  }
  for (std::size_t len = 0; len <= sizeof simg; ++len) {
    const wire_handshake cut = from_bytes<wire_handshake>(simg, len);
    handshake_must_be_graceful(cut);
    if (len <= offsetof(wire_handshake, channel)) {
      EXPECT_THROW(validate_handshake(cut, kRanks, kChannel, "fuzz"), wire_error);
    }
  }
}

TEST(WireFuzz, BitFlipsNeverCrash) {
  xoshiro256ss rng(0x3172);
  for (int trial = 0; trial < 4000; ++trial) {
    wire_header h = valid_header();
    wire_handshake hs = valid_handshake();
    auto* hb = reinterpret_cast<unsigned char*>(&h);
    auto* sb = reinterpret_cast<unsigned char*>(&hs);
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      hb[rng.below(sizeof h)] ^= static_cast<unsigned char>(1u << rng.below(8));
      sb[rng.below(sizeof hs)] ^= static_cast<unsigned char>(1u << rng.below(8));
    }
    header_must_be_graceful(h);
    handshake_must_be_graceful(hs);
  }
}

TEST(WireFuzz, RandomImagesNeverCrash) {
  xoshiro256ss rng(0x77e1);
  for (int trial = 0; trial < 4000; ++trial) {
    unsigned char img[sizeof(wire_header)];
    for (unsigned char& b : img) b = static_cast<unsigned char>(rng.below(256));
    const std::size_t len = rng.below(sizeof img + 1);
    header_must_be_graceful(from_bytes<wire_header>(img, len));
    handshake_must_be_graceful(from_bytes<wire_handshake>(img, len));
  }
}

// ---- TCP reassembly over loopback -----------------------------------------

/// A real TCP backend as rank 0 of a two-rank machine, and this test as its
/// rank 1: a raw socket that completed the handshake and then writes
/// arbitrary bytes into rank 0's receive path.
struct tcp_peer {
  std::unique_ptr<wire_backend> rank0;
  int fd = -1;

  tcp_peer() = default;
  tcp_peer(const tcp_peer&) = delete;
  tcp_peer& operator=(const tcp_peer&) = delete;
  ~tcp_peer() { hang_up(); }

  void write(const std::byte* p, std::size_t n) {
    while (n != 0) {
      const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
      ASSERT_GT(put, 0) << "loopback send failed";
      p += put;
      n -= static_cast<std::size_t>(put);
    }
  }
  void hang_up() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

/// Port block of this process (offset by PID so parallel test runs do not
/// collide; a block still in use moves on to the next channel).
std::uint16_t fuzz_base_port() {
  return static_cast<std::uint16_t>(30000 + (::getpid() % 2048) * 8);
}

/// Builds rank 0 on a fresh channel and connects to it as rank 1.
void connect_peer(tcp_peer& out) {
  static std::atomic<std::uint32_t> next_channel{0};
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint32_t channel = next_channel.fetch_add(1);
    backend_config cfg;
    cfg.kind = backend_config::kind_t::tcp;
    cfg.self_rank = 0;
    cfg.session = "wfuzz" + std::to_string(::getpid());
    cfg.base_port = fuzz_base_port();
    cfg.attach_timeout_ms = 10000;
    cfg.channel = static_cast<std::int32_t>(channel);
    auto f0 = std::async(std::launch::async, [cfg] { return make_wire(cfg, 2); });
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg.base_port + channel * 2));
    ASSERT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
    int fd = -1;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline &&
           f0.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) == 0) break;
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) {
      try {
        (void)f0.get();  // rank 0 could not listen on this channel's port
      } catch (const wire_error&) {
      }
      continue;
    }
    const wire_handshake ours{.src_rank = 1, .n_ranks = 2, .channel = channel};
    wire_handshake theirs{};
    const bool shaken =
        ::send(fd, &ours, sizeof(ours), MSG_NOSIGNAL) == static_cast<ssize_t>(sizeof(ours)) &&
        ::recv(fd, &theirs, sizeof(theirs), MSG_WAITALL) == static_cast<ssize_t>(sizeof(theirs));
    try {
      out.rank0 = f0.get();
    } catch (const wire_error&) {
      ::close(fd);
      continue;
    }
    // The framing step's length rule, with make_stream's 16-byte records.
    out.rank0->set_frame_check([](const wire_header& h) { validate_length(h, 16); });
    ASSERT_TRUE(shaken);
    out.fd = fd;
    return;
  }
  FAIL() << "no free loopback port block for the TCP fuzz peer";
}

/// A stream of valid frames from rank 1, with the frames it encodes.
struct frame_stream {
  std::vector<std::byte> bytes;
  std::vector<wire_header> headers;
  std::vector<std::vector<std::byte>> payloads;
  std::vector<std::size_t> ends;  ///< stream offset just past each frame
};

frame_stream make_stream(xoshiro256ss& rng, int frames) {
  frame_stream fs;
  for (int i = 0; i < frames; ++i) {
    const auto records = static_cast<std::uint32_t>(rng.below(20));  // 0 = header-only frame
    wire_header h;
    h.type_id = static_cast<std::uint32_t>(rng.below(8));
    h.type_hash = wire_name_hash("fuzz.type" + std::to_string(h.type_id));
    h.count = records;
    h.payload_bytes = records * 16;
    h.src = 1;
    h.seq = static_cast<std::uint64_t>(i);
    std::vector<std::byte> payload(h.payload_bytes);
    for (std::byte& b : payload) b = static_cast<std::byte>(rng.below(256));
    const auto* hb = reinterpret_cast<const std::byte*>(&h);
    fs.bytes.insert(fs.bytes.end(), hb, hb + sizeof(h));
    fs.bytes.insert(fs.bytes.end(), payload.begin(), payload.end());
    fs.headers.push_back(h);
    fs.payloads.push_back(std::move(payload));
    fs.ends.push_back(fs.bytes.size());
  }
  return fs;
}

/// What rank 0 handed its sink, and whether it raised a wire_error.
struct received {
  std::vector<wire_header> headers;
  std::vector<std::vector<std::byte>> payloads;
  bool error = false;
};

/// One poll of rank 0, recording delivered frames; a delivered frame's
/// checked fields must all be valid.
void poll_into(tcp_peer& p, received& got) {
  if (got.error) return;
  try {
    p.rank0->poll([&](const wire_header& h, const std::byte* payload) {
      EXPECT_EQ(h.magic, wire_magic);
      EXPECT_EQ(h.version, wire_format_version);
      EXPECT_EQ(h.endian, wire_native_endian());
      EXPECT_LT(h.src, 2u);
      got.headers.push_back(h);
      got.payloads.emplace_back(payload, payload + h.payload_bytes);
    });
  } catch (const wire_error&) {
    got.error = true;
  }
}

/// Writes `bytes` in chunks of random length (1..max_chunk) with a poll
/// after each, so rank 0 reassembles frames across partial reads.
void write_in_chunks(tcp_peer& p, xoshiro256ss& rng, const std::vector<std::byte>& bytes,
                     std::size_t max_chunk, received& got) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t n = std::min(bytes.size() - off, 1 + rng.below(max_chunk));
    p.write(bytes.data() + off, n);
    off += n;
    poll_into(p, got);
  }
}

/// Polls until rank 0 has delivered `frames` frames or raised a
/// wire_error, or `wait` passes (a hang fails the caller's checks).
void settle(tcp_peer& p, received& got, std::size_t frames,
            std::chrono::milliseconds wait = std::chrono::milliseconds(2000)) {
  const auto deadline = std::chrono::steady_clock::now() + wait;
  while (!got.error && got.headers.size() < frames &&
         std::chrono::steady_clock::now() < deadline) {
    poll_into(p, got);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // A few more polls: anything that arrives late must be graceful too.
  for (int i = 0; i < 5; ++i) poll_into(p, got);
}

void expect_frames(const frame_stream& fs, const received& got, std::size_t frames) {
  ASSERT_EQ(got.headers.size(), frames);
  for (std::size_t i = 0; i < frames; ++i) {
    EXPECT_EQ(0, std::memcmp(&got.headers[i], &fs.headers[i], sizeof(wire_header)))
        << "frame " << i;
    EXPECT_EQ(got.payloads[i], fs.payloads[i]) << "frame " << i;
  }
}

TEST(WireFuzz, TcpReassemblesStreamsSplitAtRandomBoundaries) {
  xoshiro256ss rng(0x5b11);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    tcp_peer p;
    ASSERT_NO_FATAL_FAILURE(connect_peer(p));
    const frame_stream fs = make_stream(rng, 8);
    received got;
    write_in_chunks(p, rng, fs.bytes, trial % 2 == 0 ? 7 : 97, got);
    settle(p, got, fs.headers.size());
    EXPECT_FALSE(got.error);
    expect_frames(fs, got, fs.headers.size());
    // A clean hang-up at a frame boundary is not an error.
    p.hang_up();
    settle(p, got, fs.headers.size() + 1, std::chrono::milliseconds(20));
    EXPECT_FALSE(got.error);
    EXPECT_EQ(got.headers.size(), fs.headers.size());
  }
}

TEST(WireFuzz, TcpStreamTruncatedMidFrameIsAWireError) {
  xoshiro256ss rng(0x7c02);
  const frame_stream fs = make_stream(rng, 5);
  // Cuts at, just before and just after every frame boundary, inside the
  // first header, and at random offsets.
  std::vector<std::size_t> cuts = {0, 1, 3, sizeof(wire_header) - 1, sizeof(wire_header)};
  for (const std::size_t end : fs.ends) {
    cuts.push_back(end - 1);
    cuts.push_back(end);
    cuts.push_back(end + 1);
  }
  for (int i = 0; i < 6; ++i) cuts.push_back(rng.below(fs.bytes.size()));
  for (const std::size_t cut : cuts) {
    if (cut > fs.bytes.size()) continue;
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    tcp_peer p;
    ASSERT_NO_FATAL_FAILURE(connect_peer(p));
    received got;
    const std::vector<std::byte> prefix(fs.bytes.begin(),
                                        fs.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    write_in_chunks(p, rng, prefix, 64, got);
    p.hang_up();
    const std::size_t whole = static_cast<std::size_t>(
        std::upper_bound(fs.ends.begin(), fs.ends.end(), cut) - fs.ends.begin());
    const bool at_boundary = cut == 0 || (whole > 0 && fs.ends[whole - 1] == cut);
    if (at_boundary) {
      settle(p, got, whole + 1, std::chrono::milliseconds(20));
      EXPECT_FALSE(got.error);
    } else {
      settle(p, got, fs.headers.size() + 1);  // runs until the error
      EXPECT_TRUE(got.error) << "a frame cut short by a hang-up must fail loudly";
    }
    expect_frames(fs, got, whole);
  }
}

TEST(WireFuzz, TcpBitFlippedStreamsAreGraceful) {
  // Flipped bits either fail a header or length check (wire_error), or
  // land in a payload or an unchecked field and are delivered; every
  // delivered frame's checked fields are valid (poll_into checks them).
  xoshiro256ss rng(0x6e3f);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    tcp_peer p;
    ASSERT_NO_FATAL_FAILURE(connect_peer(p));
    frame_stream fs = make_stream(rng, 6);
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f)
      fs.bytes[rng.below(fs.bytes.size())] ^= static_cast<std::byte>(1u << rng.below(8));
    received got;
    write_in_chunks(p, rng, fs.bytes, 50, got);
    p.hang_up();
    settle(p, got, fs.headers.size() + 1, std::chrono::milliseconds(50));
    EXPECT_LE(got.headers.size(), fs.headers.size() + fs.bytes.size() / sizeof(wire_header));
  }
}

TEST(WireFuzz, TcpFlippedLengthPrefixFromALivePeerIsAWireError) {
  // Bit 30 of a frame's length prefix flipped, then a valid frame, from a
  // peer that stays connected: the prefix disagrees with count x stride,
  // so rank 0 must fail at once instead of awaiting a gigabyte that never
  // comes and swallowing every later frame into it. The same for an
  // out-of-band frame, whose bound is the exchange's.
  xoshiro256ss rng(0x1e70);
  for (const bool oob : {false, true}) {
    SCOPED_TRACE(oob ? "out-of-band frame" : "typed frame");
    tcp_peer p;
    ASSERT_NO_FATAL_FAILURE(connect_peer(p));
    frame_stream fs = make_stream(rng, 2);
    wire_header bad = fs.headers[0];
    if (oob) {
      bad.flags = wire_flag_oob;
      bad.type_id = 0;
      bad.type_hash = 0;
      bad.count = 0;
    }
    bad.payload_bytes ^= std::uint32_t{1} << 30;
    std::memcpy(fs.bytes.data(), &bad, sizeof(bad));
    received got;
    p.write(fs.bytes.data(), fs.bytes.size());
    const auto start = std::chrono::steady_clock::now();
    settle(p, got, fs.headers.size());
    EXPECT_TRUE(got.error) << "a corrupt length prefix must fail loudly, not stall";
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(1500));
    EXPECT_TRUE(got.headers.empty()) << "no frame may be delivered past the corrupt prefix";
  }
}

}  // namespace
}  // namespace dpg::ampp
