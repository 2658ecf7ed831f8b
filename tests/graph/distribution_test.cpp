// Property tests for vertex distributions: owner/local_index/global must
// form a consistent bijection for every scheme, vertex count, and rank
// count.
#include "graph/distribution.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

namespace dpg::graph {
namespace {

using params = std::tuple<int /*kind*/, vertex_id /*n*/, rank_t /*ranks*/>;

class DistributionProperty : public ::testing::TestWithParam<params> {
 protected:
  distribution make() const {
    auto [kind, n, ranks] = GetParam();
    switch (kind) {
      case 0: return distribution::block(n, ranks);
      case 1: return distribution::cyclic(n, ranks);
      default: return distribution::hashed(n, ranks, 0xfeed);
    }
  }
};

TEST_P(DistributionProperty, OwnerInRange) {
  const auto d = make();
  for (vertex_id v = 0; v < d.num_vertices(); ++v)
    ASSERT_LT(d.owner(v), d.num_ranks()) << "v=" << v;
}

TEST_P(DistributionProperty, CountsSumToN) {
  const auto d = make();
  std::uint64_t total = 0;
  for (rank_t r = 0; r < d.num_ranks(); ++r) total += d.count(r);
  EXPECT_EQ(total, d.num_vertices());
}

TEST_P(DistributionProperty, LocalIndexIsDenseAndInvertible) {
  const auto d = make();
  std::vector<std::vector<bool>> seen(d.num_ranks());
  for (rank_t r = 0; r < d.num_ranks(); ++r) seen[r].assign(d.count(r), false);
  for (vertex_id v = 0; v < d.num_vertices(); ++v) {
    const rank_t r = d.owner(v);
    const std::uint64_t li = d.local_index(v);
    ASSERT_LT(li, d.count(r)) << "v=" << v;
    ASSERT_FALSE(seen[r][li]) << "local index collision at v=" << v;
    seen[r][li] = true;
    ASSERT_EQ(d.global(r, li), v) << "global() must invert local_index()";
  }
}

std::string scheme_name(int kind) {
  switch (kind) {
    case 0: return "block";
    case 1: return "cyclic";
    default: return "hashed";
  }
}

std::string param_name(const ::testing::TestParamInfo<params>& info) {
  return scheme_name(std::get<0>(info.param)) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_r" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DistributionProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<vertex_id>(1, 2, 7, 64, 100, 1000),
                       ::testing::Values<rank_t>(1, 2, 3, 4, 5, 7, 8, 16)),
    param_name);

TEST(Distribution, BlockAndCyclicMatchDivisionFormulas) {
  // Block and cyclic resolve their divisor once (shift and mask for a
  // power of two, exact division otherwise); every id must still map by
  // the plain / and % formulas, including ids past 2^32 and near 2^40
  // and vertex counts the rank count does not divide.
  const vertex_id p32 = vertex_id{1} << 32, p40 = vertex_id{1} << 40;
  for (const vertex_id n : {p32 + 3, p40 + 5, p40 + 4096, 3 * p32}) {
    for (const rank_t ranks : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " ranks=" + std::to_string(ranks));
      const distribution b = distribution::block(n, ranks);
      const distribution c = distribution::cyclic(n, ranks);
      const vertex_id chunk = (n + ranks - 1) / ranks;
      std::vector<vertex_id> ids = {0, 1, ranks - 1u, ranks, chunk - 1, chunk, n - 1};
      for (const vertex_id base : {p32, p40})
        for (vertex_id d = 0; d < 5; ++d) {
          if (base - 2 + d < n) ids.push_back(base - 2 + d);
        }
      for (const vertex_id v : ids) {
        if (v >= n) continue;
        ASSERT_EQ(b.owner(v), static_cast<rank_t>(v / chunk)) << "block v=" << v;
        ASSERT_EQ(b.local_index(v), v % chunk) << "block v=" << v;
        ASSERT_EQ(b.global(b.owner(v), b.local_index(v)), v) << "block v=" << v;
        ASSERT_EQ(c.owner(v), static_cast<rank_t>(v % ranks)) << "cyclic v=" << v;
        ASSERT_EQ(c.local_index(v), v / ranks) << "cyclic v=" << v;
        ASSERT_EQ(c.global(c.owner(v), c.local_index(v)), v) << "cyclic v=" << v;
      }
      std::uint64_t total_b = 0, total_c = 0;
      for (rank_t r = 0; r < ranks; ++r) {
        total_b += b.count(r);
        total_c += c.count(r);
      }
      EXPECT_EQ(total_b, n);
      EXPECT_EQ(total_c, n);
    }
  }
}

TEST(Distribution, OneRankIsTheIdentity) {
  for (const vertex_id n : {vertex_id{1}, vertex_id{7}, vertex_id{64}, vertex_id{1000}}) {
    for (const distribution& d : {distribution::block(n, 1), distribution::cyclic(n, 1)}) {
      for (vertex_id v = 0; v < n; ++v) {
        ASSERT_EQ(d.owner(v), 0u);
        ASSERT_EQ(d.local_index(v), v);
        ASSERT_EQ(d.global(0, v), v);
      }
    }
  }
}

TEST(Distribution, BlockIsContiguous) {
  const auto d = distribution::block(100, 4);
  // ceil(100/4) = 25 per rank.
  EXPECT_EQ(d.owner(0), 0u);
  EXPECT_EQ(d.owner(24), 0u);
  EXPECT_EQ(d.owner(25), 1u);
  EXPECT_EQ(d.owner(99), 3u);
  EXPECT_EQ(d.count(0), 25u);
}

TEST(Distribution, CyclicRoundRobins) {
  const auto d = distribution::cyclic(10, 3);
  EXPECT_EQ(d.owner(0), 0u);
  EXPECT_EQ(d.owner(1), 1u);
  EXPECT_EQ(d.owner(2), 2u);
  EXPECT_EQ(d.owner(3), 0u);
  EXPECT_EQ(d.count(0), 4u);  // 0,3,6,9
  EXPECT_EQ(d.count(1), 3u);
  EXPECT_EQ(d.count(2), 3u);
}

TEST(Distribution, HashedSpreadsLoad) {
  const auto d = distribution::hashed(10000, 8);
  for (rank_t r = 0; r < 8; ++r) {
    EXPECT_GT(d.count(r), 1000u);  // within ~±20% of 1250
    EXPECT_LT(d.count(r), 1500u);
  }
}

TEST(Distribution, HashedDependsOnSeed) {
  const auto a = distribution::hashed(1000, 4, 1);
  const auto b = distribution::hashed(1000, 4, 2);
  int differ = 0;
  for (vertex_id v = 0; v < 1000; ++v)
    if (a.owner(v) != b.owner(v)) ++differ;
  EXPECT_GT(differ, 500);
}

TEST(Distribution, MoreRanksThanVerticesLeavesEmptyRanks) {
  const auto d = distribution::block(3, 8);
  std::uint64_t total = 0;
  for (rank_t r = 0; r < 8; ++r) total += d.count(r);
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace dpg::graph
