// Robustness fuzzing of the wire format's validators: random, bit-flipped
// and truncated wire_header / wire_handshake images must either validate or
// throw wire_error — never crash, and never accept a frame whose checked
// fields are wrong. Run under the asan preset for the memory half.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>

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

}  // namespace
}  // namespace dpg::ampp
