// Vertex-to-rank distributions.
//
// The paper's basic assumption (§I): "it is not predictable which parts of
// the graph are colocated" — the framework must work for any distribution.
// We provide the three classic ones; the pattern runtime is parameterized
// over this class only through owner()/local_index(), so algorithms are
// distribution-oblivious.
//
// Addressing is resolved once, at construction: block and cyclic split a
// vertex id by a shift and a mask when their divisor (the chunk, or the
// rank count) is a power of two, and by exact division otherwise; one rank
// is the identity. owner/local_index/global inline into the record loops;
// only the hashed scheme's table search is an out-of-line call.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "ampp/types.hpp"
#include "graph/ids.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dpg::graph {

using ampp::rank_t;

/// Maps every vertex id in [0, n) to an owning rank and a dense local index
/// on that rank. Value type; cheap to copy for block/cyclic, shared-state
/// for hashed.
class distribution {
 public:
  enum class kind { block, cyclic, hashed };

  /// Contiguous chunks of ceil(n/ranks) vertices per rank.
  static distribution block(vertex_id n, rank_t ranks) {
    return distribution(kind::block, n, ranks, 0);
  }

  /// Round-robin: owner(v) = v mod ranks.
  static distribution cyclic(vertex_id n, rank_t ranks) {
    return distribution(kind::cyclic, n, ranks, 0);
  }

  /// Pseudo-random assignment by a mixing hash of the vertex id; the local
  /// index is the vertex's rank among the vertices its owner holds
  /// (resolved by binary search over a per-rank sorted table).
  static distribution hashed(vertex_id n, rank_t ranks, std::uint64_t seed = 0x5eed) {
    return distribution(kind::hashed, n, ranks, seed);
  }

  /// Forced inline for the same reason as local_index: the PageRank
  /// scatter and the fused generator call it per edge.
  [[gnu::always_inline]] rank_t owner(vertex_id v) const {
    DPG_DEBUG_ASSERT(v < n_);
    if (kind_ == kind::hashed) [[unlikely]]
      return static_cast<rank_t>(mix(v) % ranks_);
    const split_t s = split(v);
    return static_cast<rank_t>(owner_is_q_ ? s.q : s.m);
  }

  /// Dense index of v within its owner's shard, in [0, count(owner(v))).
  /// Forced inline: every compiled record commit resolves its slot here,
  /// and left to the inliner's budget it became a call in the relax loop.
  [[gnu::always_inline]] std::uint64_t local_index(vertex_id v) const {
    DPG_DEBUG_ASSERT(v < n_);
    if (kind_ == kind::hashed) [[unlikely]]
      return hashed_local_index(v);
    const split_t s = split(v);
    return owner_is_q_ ? s.m : s.q;
  }

  /// Inverse of local_index: the global id of rank r's li-th vertex.
  vertex_id global(rank_t r, std::uint64_t li) const {
    DPG_DEBUG_ASSERT(r < ranks_ && li < count(r));
    if (kind_ == kind::hashed) [[unlikely]]
      return tables_->owned[r][li];
    return owner_is_q_ ? join(r, li) : join(li, r);
  }

  /// Number of vertices rank r owns.
  std::uint64_t count(rank_t r) const {
    DPG_DEBUG_ASSERT(r < ranks_);
    switch (kind_) {
      case kind::block: {
        if (static_cast<vertex_id>(r) * chunk_ >= n_) return 0;
        return std::min<std::uint64_t>(chunk_, n_ - static_cast<vertex_id>(r) * chunk_);
      }
      case kind::cyclic: return n_ / ranks_ + (r < n_ % ranks_ ? 1 : 0);
      case kind::hashed: return tables_->owned[r].size();
    }
    return 0;
  }

  vertex_id num_vertices() const noexcept { return n_; }
  rank_t num_ranks() const noexcept { return ranks_; }
  kind which() const noexcept { return kind_; }

 private:
  distribution(kind k, vertex_id n, rank_t ranks, std::uint64_t seed)
      : kind_(k), n_(n), ranks_(ranks), seed_(seed) {
    DPG_ASSERT_MSG(ranks >= 1, "distribution needs at least one rank");
    DPG_ASSERT_MSG(n >= 1, "distribution needs at least one vertex");
    chunk_ = (n + ranks - 1) / ranks;
    // Block and cyclic both split v = q * div_ + m: block owns by the
    // quotient (div_ = chunk), cyclic by the remainder (div_ = ranks). One
    // rank is the identity either way, so block at one rank takes the
    // cyclic form, whose divisor 1 is a power of two for every n.
    if (kind_ != kind::hashed) {
      owner_is_q_ = kind_ == kind::block && ranks > 1;
      div_ = owner_is_q_ ? chunk_ : ranks;
      if (std::has_single_bit(div_)) {
        shift_ = static_cast<unsigned>(std::countr_zero(div_));
        mask_ = div_ - 1;
      }
    }
    if (kind_ == kind::hashed) {
      auto tables = std::make_shared<hash_tables>();
      tables->owned.resize(ranks);
      for (vertex_id v = 0; v < n; ++v)
        tables->owned[static_cast<rank_t>(mix(v) % ranks_)].push_back(v);
      // Vertices are enumerated in increasing order, so each table is
      // already sorted; keep the invariant explicit for safety.
      for (auto& t : tables->owned) DPG_ASSERT(std::is_sorted(t.begin(), t.end()));
      tables_ = std::move(tables);
    }
  }

  std::uint64_t mix(vertex_id v) const {
    return splitmix64(v ^ seed_).next();
  }

  /// v = q * div_ + m, by shift and mask when div_ is a power of two.
  struct split_t {
    std::uint64_t q, m;
  };
  split_t split(vertex_id v) const {
    if (shift_ != kNoShift) [[likely]]
      return {v >> shift_, v & mask_};
    const std::uint64_t q = v / div_;
    return {q, v - q * div_};
  }
  vertex_id join(std::uint64_t q, std::uint64_t m) const {
    return shift_ != kNoShift ? (q << shift_) | m : q * div_ + m;
  }

  /// The hashed local index: a binary search of the owner's sorted table.
  /// Out of line and cold so that owner()/local_index() stay small enough
  /// to inline into the hot loops of the block and cyclic schemes.
  [[gnu::cold, gnu::noinline]] std::uint64_t hashed_local_index(vertex_id v) const;

  static constexpr unsigned kNoShift = 64;

  struct hash_tables {
    std::vector<std::vector<vertex_id>> owned;
  };

  kind kind_;
  vertex_id n_;
  rank_t ranks_;
  std::uint64_t seed_;
  std::uint64_t chunk_ = 0;
  std::uint64_t div_ = 1;       ///< block: chunk_, cyclic (and one rank): ranks
  unsigned shift_ = kNoShift;   ///< log2(div_) when div_ is a power of two
  std::uint64_t mask_ = 0;      ///< div_ - 1 when div_ is a power of two
  bool owner_is_q_ = false;     ///< block: the owner is the quotient
  std::shared_ptr<const hash_tables> tables_;
};

}  // namespace dpg::graph
