// The distributed, vertex-centric graph of §III-A: every rank stores a
// portion of the vertices and their outgoing edges; a "bidirectional"
// graph additionally stores incoming edges with each vertex ("bidirectional
// describes the storage model rather than a property of the graph").
//
// Access discipline: out_edges(v) / in_edges(v) / adjacency may only be
// enumerated on the rank that owns v. Inside ampp::transport::run this is
// enforced with assertions; outside a run (test inspection, sequential
// baselines) access is unrestricted.
//
// Mutable topology (the non-morphing boundary, footnote 1): the paper's
// patterns never change graph structure, so mutation happens *between*
// runs. The graph carries a monotonically increasing topology version and a
// per-rank delta-CSR overlay: apply_edges() appends edges in place (outside
// any transport::run — enforced at runtime), assigning stable ids from the
// per-rank delta base (graph/ids.hpp); compact() folds the overlay back
// into the base CSR, renumbering edge ids exactly as a from-scratch
// rebuild would. Every enumeration (out_edges / in_edges / adjacent /
// degrees) transparently walks base + overlay, which keeps the pattern
// layer and compiled plans mutation-oblivious. Property maps subscribe to
// version() and grow lazily (pmap/vertex_map.hpp, pmap/edge_map.hpp).
//
// Deletions (the streaming half of the mutation story): remove_edges()
// *tombstones* edges in place. Base-CSR slots are marked in a lazily
// allocated per-shard dead bitset (mirrored on the in-CSR for
// bidirectional storage); overlay edges are unlinked from their
// per-vertex slot lists, which preserves the append order of the
// survivors. No edge id is ever renumbered by a removal, so property maps
// stay index-stable until compact() reclaims the dead slots. The range
// iterators skip tombstoned slots; a shard that has never seen a removal
// keeps a null dead pointer, so the skip costs one pointer test — zero
// extra memory and no per-edge branch on the value path — until the first
// tombstone exists.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "ampp/types.hpp"
#include "graph/distribution.hpp"
#include "graph/ids.hpp"
#include "util/assert.hpp"

namespace dpg::ampp {
struct transport_stats;  // obs counter sink (ampp/stats.hpp)
}

namespace dpg::graph {

class distributed_graph {
  struct shard;  // per-rank storage, defined below

 public:
  /// Builds the distributed representation from a global edge list.
  /// Self-loops are kept; parallel edges are kept (they get distinct edge
  /// ids). With `bidirectional` set, per-vertex in-edge lists are also
  /// built so the `in_edges` generator is available.
  distributed_graph(vertex_id n, std::span<const edge> edges, distribution dist,
                    bool bidirectional = false);

  const distribution& dist() const noexcept { return dist_; }
  vertex_id num_vertices() const noexcept { return dist_.num_vertices(); }
  std::uint64_t num_edges() const noexcept { return num_edges_; }
  bool bidirectional() const noexcept { return bidirectional_; }
  rank_t num_ranks() const noexcept { return dist_.num_ranks(); }

  /// Forced inline like distribution::owner: the fused generator calls it
  /// per edge, and a call to this wrapper would undo that one.
  [[gnu::always_inline]] rank_t owner(vertex_id v) const { return dist_.owner(v); }

  // ---- topology versioning -------------------------------------------------

  /// Monotonically increasing topology version: bumped by every
  /// apply_edges() and every compact(). Property maps subscribe to it.
  std::uint64_t version() const noexcept { return version_; }
  /// Bumped only when edge ids are renumbered (compact()): maps that index
  /// by edge id must be rebuilt past a structure change, not merely grown.
  std::uint64_t structure_version() const noexcept { return structure_version_; }

  /// Appends `extra` edges in place at the non-morphing boundary. Must be
  /// called outside any transport::run / epoch (the paper's footnote-1
  /// guarantee, enforced at runtime). Each edge joins the delta overlay of
  /// owner(src) — and owner(dst)'s in-overlay for bidirectional storage —
  /// with a fresh stable id from the per-rank delta base. O(|extra|);
  /// existing edge ids, property maps, transports and compiled plans stay
  /// valid (maps grow lazily on next access).
  void apply_edges(std::span<const edge> extra);

  /// Tombstones the named edges at the non-morphing boundary (outside any
  /// transport::run, like apply_edges). Each id may name a base-CSR edge or
  /// a live overlay edge; degrees, num_edges() and every range iterator
  /// reflect the removal immediately, the in-mirror is tombstoned alongside
  /// for bidirectional storage, and *no surviving edge id changes* — edge
  /// property maps stay index-stable until compact(). Removing an id twice
  /// (or an id that never existed) dies loudly. O(sum of the endpoints'
  /// degrees) in the worst case (mirror lookup); bumps version().
  void remove_edges(std::span<const std::uint64_t> eids);

  /// Resolves each (src,dst) pair to the id of one live matching edge —
  /// the ingest-pipeline front half of remove_edges() for callers that
  /// speak endpoints (serve::server). Pairs repeated in `victims` resolve
  /// to distinct parallel edges. Dies if any pair has no live match left.
  std::vector<std::uint64_t> resolve_edges(std::span<const edge> victims) const;

  /// Folds the delta overlay back into the base CSR and reclaims every
  /// tombstoned slot, renumbering edge ids exactly as a from-scratch
  /// rebuild over the live edge list would (the equivalence the oracle
  /// test asserts). Outside-run only. No-op on a graph with an empty
  /// overlay and no tombstones. Edge property maps observe the structure
  /// change and re-derive from their pure init function (maps without one
  /// must be rebuilt by the caller).
  void compact();

  /// Attaches an obs counter sink: subsequent apply_edges()/remove_edges()
  /// calls bump graph_mutations / delta_edges / tombstoned_edges (surfaced
  /// in the epoch summary).
  void attach_stats(ampp::transport_stats& st) noexcept { stats_ = &st; }

  /// Total live overlay edges across all ranks (0 after compact()).
  std::uint64_t total_delta_edges() const noexcept { return delta_total_; }
  /// Tombstoned-but-unreclaimed edges across all ranks (0 after compact()).
  std::uint64_t total_tombstoned_edges() const noexcept { return tombstoned_total_; }

  /// Bytes held by the delta overlay (slot arrays + per-vertex slot lists)
  /// and by the tombstone bitsets/counts — the idle memory overhead the
  /// streaming benchmark reports (iPregel's discipline: both go to ~0 after
  /// compact()).
  std::uint64_t overlay_bytes() const noexcept;
  std::uint64_t tombstone_bytes() const noexcept;

  // ---- per-rank storage accounting ----------------------------------------

  /// First global edge id assigned to rank r's base out-edges.
  std::uint64_t edge_base(rank_t r) const { return shards_[r].edge_base; }
  /// Number of base (CSR) out-edges stored on rank r.
  std::uint64_t edge_count(rank_t r) const {
    return shards_[r].out_dst.size();
  }
  /// Number of base in-edges stored on rank r (bidirectional graphs).
  std::uint64_t in_edge_count(rank_t r) const { return shards_[r].in_src.size(); }
  /// Number of overlay out-edge *slots* appended on rank r since the last
  /// compact — physical, so it includes tombstoned slots: property-map
  /// growth indexes by delta slot and must stay index-stable across
  /// removals.
  std::uint64_t delta_edge_count(rank_t r) const { return shards_[r].delta_dst.size(); }
  /// Number of overlay in-edges on rank r (bidirectional graphs).
  std::uint64_t delta_in_edge_count(rank_t r) const {
    return shards_[r].delta_in_src.size();
  }

  /// Handle of rank r's j-th overlay out-edge (for property-map growth).
  edge_handle delta_out_edge(rank_t r, std::uint64_t j) const {
    const shard& s = shards_[r];
    return edge_handle{s.delta_src[j], s.delta_dst[j], make_delta_eid(r, j),
                       static_cast<std::uint64_t>(-1)};
  }
  /// Handle of rank r's j-th overlay in-edge (mirror slot tagged delta).
  edge_handle delta_in_edge(rank_t r, std::uint64_t j) const {
    const shard& s = shards_[r];
    return edge_handle{s.delta_in_src[j], s.delta_in_dst[j], s.delta_in_eid[j],
                       delta_edge_flag | j};
  }

  std::uint64_t out_degree(vertex_id v) const {
    const shard& s = owner_shard(v);
    const std::uint64_t li = dist_.local_index(v);
    return s.out_offsets[li + 1] - s.out_offsets[li] - s.out_dead_deg(li) +
           s.delta_deg(li);
  }

  std::uint64_t in_degree(vertex_id v) const {
    DPG_ASSERT_MSG(bidirectional_, "in_degree requires bidirectional storage");
    const shard& s = owner_shard(v);
    const std::uint64_t li = dist_.local_index(v);
    return s.in_offsets[li + 1] - s.in_offsets[li] - s.in_dead_deg(li) +
           s.delta_in_deg(li);
  }

  /// Forward iteration over v's out-edges as edge_handles: the live base
  /// CSR segment first (tombstoned slots skipped), then the live delta
  /// overlay in append order (exactly the per-vertex order a
  /// compact()/rebuild preserves). Owner-only. Overlay slot lists hold only
  /// live edges (remove_edges unlinks), so only base positions ever skip;
  /// `dead_` is null until the shard's first tombstone, making the
  /// no-deletions case a single pointer test.
  class out_edge_range {
   public:
    class iterator {
     public:
      using value_type = edge_handle;
      using iterator_category = std::forward_iterator_tag;
      using difference_type = std::int64_t;
      using pointer = void;
      using reference = edge_handle;
      [[gnu::always_inline]] edge_handle operator*() const {
        const std::uint64_t base_n = r_->last_ - r_->first_;
        if (pos_ < base_n) {
          const std::uint64_t p = r_->first_ + pos_;
          return edge_handle{src_, r_->s_->out_dst[p], r_->s_->edge_base + p,
                             static_cast<std::uint64_t>(-1)};
        }
        const std::uint32_t j = (*r_->dadj_)[pos_ - base_n];
        return edge_handle{src_, r_->s_->delta_dst[j], make_delta_eid(r_->rank_, j),
                           static_cast<std::uint64_t>(-1)};
      }
      iterator& operator++() {
        ++pos_;
        skip_dead();
        return *this;
      }
      bool operator!=(const iterator& o) const { return pos_ != o.pos_; }
      bool operator==(const iterator& o) const { return pos_ == o.pos_; }

     private:
      friend class out_edge_range;
      iterator(const out_edge_range* r, vertex_id src, std::uint64_t pos)
          : r_(r), src_(src), pos_(pos) {
        skip_dead();
      }
      void skip_dead() {
        if (r_->dead_ == nullptr) return;
        const std::uint64_t base_n = r_->last_ - r_->first_;
        while (pos_ < base_n && r_->dead_[r_->first_ + pos_]) ++pos_;
      }
      const out_edge_range* r_;
      vertex_id src_;
      std::uint64_t pos_;
    };

    iterator begin() const { return iterator(this, src_, 0); }
    /// end() sits at the *physical* position past the last slot (where
    /// skip_dead is a no-op), so pos_ comparison stays exact.
    iterator end() const { return iterator(this, src_, physical_size()); }
    std::uint64_t size() const { return physical_size() - base_dead_; }
    bool empty() const { return size() == 0; }

   private:
    friend class distributed_graph;
    std::uint64_t physical_size() const {
      return (last_ - first_) + (dadj_ != nullptr ? dadj_->size() : 0);
    }
    out_edge_range(const shard* s, rank_t rank, vertex_id src, std::uint64_t first,
                   std::uint64_t last, const std::vector<std::uint32_t>* dadj,
                   const std::uint8_t* dead, std::uint64_t base_dead)
        : s_(s), rank_(rank), src_(src), first_(first), last_(last), dadj_(dadj),
          dead_(dead), base_dead_(base_dead) {}
    const shard* s_;
    rank_t rank_;
    vertex_id src_;
    std::uint64_t first_, last_;
    const std::vector<std::uint32_t>* dadj_;  ///< live overlay slots, or nullptr
    const std::uint8_t* dead_;                ///< shard-wide dead bitset, or nullptr
    std::uint64_t base_dead_;                 ///< tombstones inside [first_, last_)
  };

  /// Forward iteration over v's in-edges as edge_handles (mirror slots set;
  /// overlay in-edges carry delta-tagged mirror slots).
  class in_edge_range {
   public:
    class iterator {
     public:
      using value_type = edge_handle;
      using iterator_category = std::forward_iterator_tag;
      using difference_type = std::int64_t;
      using pointer = void;
      using reference = edge_handle;
      [[gnu::always_inline]] edge_handle operator*() const {
        const std::uint64_t base_n = r_->last_ - r_->first_;
        if (pos_ < base_n) {
          const std::uint64_t p = r_->first_ + pos_;
          return edge_handle{r_->s_->in_src[p], dst_, r_->s_->in_eid[p], p};
        }
        const std::uint32_t j = (*r_->dadj_)[pos_ - base_n];
        return edge_handle{r_->s_->delta_in_src[j], dst_, r_->s_->delta_in_eid[j],
                           delta_edge_flag | j};
      }
      iterator& operator++() {
        ++pos_;
        skip_dead();
        return *this;
      }
      bool operator!=(const iterator& o) const { return pos_ != o.pos_; }
      bool operator==(const iterator& o) const { return pos_ == o.pos_; }

     private:
      friend class in_edge_range;
      iterator(const in_edge_range* r, vertex_id dst, std::uint64_t pos)
          : r_(r), dst_(dst), pos_(pos) {
        skip_dead();
      }
      void skip_dead() {
        if (r_->dead_ == nullptr) return;
        const std::uint64_t base_n = r_->last_ - r_->first_;
        while (pos_ < base_n && r_->dead_[r_->first_ + pos_]) ++pos_;
      }
      const in_edge_range* r_;
      vertex_id dst_;
      std::uint64_t pos_;
    };

    iterator begin() const { return iterator(this, dst_, 0); }
    iterator end() const { return iterator(this, dst_, physical_size()); }
    std::uint64_t size() const { return physical_size() - base_dead_; }
    bool empty() const { return size() == 0; }

   private:
    friend class distributed_graph;
    std::uint64_t physical_size() const {
      return (last_ - first_) + (dadj_ != nullptr ? dadj_->size() : 0);
    }
    in_edge_range(const shard* s, vertex_id dst, std::uint64_t first,
                  std::uint64_t last, const std::vector<std::uint32_t>* dadj,
                  const std::uint8_t* dead, std::uint64_t base_dead)
        : s_(s), dst_(dst), first_(first), last_(last), dadj_(dadj), dead_(dead),
          base_dead_(base_dead) {}
    const shard* s_;
    vertex_id dst_;
    std::uint64_t first_, last_;
    const std::vector<std::uint32_t>* dadj_;
    const std::uint8_t* dead_;   ///< shard-wide in-CSR dead bitset, or nullptr
    std::uint64_t base_dead_;    ///< tombstones inside [first_, last_)
  };

  /// Out-neighbour targets of v (the `adj` generator view): the base CSR
  /// span followed by overlay targets. Owner-only.
  class adjacency_range {
   public:
    class iterator {
     public:
      using value_type = vertex_id;
      using iterator_category = std::forward_iterator_tag;
      using difference_type = std::int64_t;
      using pointer = void;
      using reference = vertex_id;
      vertex_id operator*() const {
        if (pos_ < r_->base_.size()) return r_->base_[pos_];
        return r_->s_->delta_dst[(*r_->dadj_)[pos_ - r_->base_.size()]];
      }
      iterator& operator++() {
        ++pos_;
        skip_dead();
        return *this;
      }
      bool operator!=(const iterator& o) const { return pos_ != o.pos_; }
      bool operator==(const iterator& o) const { return pos_ == o.pos_; }

     private:
      friend class adjacency_range;
      iterator(const adjacency_range* r, std::uint64_t pos) : r_(r), pos_(pos) {
        skip_dead();
      }
      void skip_dead() {
        if (r_->dead_ == nullptr) return;
        while (pos_ < r_->base_.size() && r_->dead_[pos_]) ++pos_;
      }
      const adjacency_range* r_;
      std::uint64_t pos_;
    };

    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, physical_size()); }
    std::uint64_t size() const { return physical_size() - base_dead_; }
    bool empty() const { return size() == 0; }
    /// The contiguous base-CSR prefix (no overlay entries). Only meaningful
    /// while no slot in the prefix is tombstoned — asserted, because a span
    /// cannot skip.
    std::span<const vertex_id> base() const {
      DPG_ASSERT_MSG(base_dead_ == 0,
                     "adjacency_range::base() on a vertex with tombstoned "
                     "base edges; iterate the range instead");
      return base_;
    }

   private:
    friend class distributed_graph;
    std::uint64_t physical_size() const {
      return base_.size() + (dadj_ != nullptr ? dadj_->size() : 0);
    }
    adjacency_range(const shard* s, std::span<const vertex_id> base,
                    const std::vector<std::uint32_t>* dadj,
                    const std::uint8_t* dead, std::uint64_t base_dead)
        : s_(s), base_(base), dadj_(dadj), dead_(dead), base_dead_(base_dead) {}
    const shard* s_;
    std::span<const vertex_id> base_;
    const std::vector<std::uint32_t>* dadj_;
    const std::uint8_t* dead_;  ///< aligned with base_ (not the whole shard)
    std::uint64_t base_dead_;
  };

  out_edge_range out_edges(vertex_id v) const {
    const rank_t r = checked_owner(v);
    const shard& s = shards_[r];
    const std::uint64_t li = dist_.local_index(v);
    return out_edge_range(&s, r, v, s.out_offsets[li], s.out_offsets[li + 1],
                          s.delta_slots(li), s.out_dead_bits(), s.out_dead_deg(li));
  }

  in_edge_range in_edges(vertex_id v) const {
    DPG_ASSERT_MSG(bidirectional_, "in_edges requires bidirectional storage");
    const shard& s = owner_shard(v);
    const std::uint64_t li = dist_.local_index(v);
    return in_edge_range(&s, v, s.in_offsets[li], s.in_offsets[li + 1],
                         s.delta_in_slots(li), s.in_dead_bits(), s.in_dead_deg(li));
  }

  adjacency_range adjacent(vertex_id v) const {
    const shard& s = owner_shard(v);
    const std::uint64_t li = dist_.local_index(v);
    const std::uint8_t* dead = s.out_dead_bits();
    return adjacency_range(
        &s,
        std::span<const vertex_id>(s.out_dst.data() + s.out_offsets[li],
                                   s.out_offsets[li + 1] - s.out_offsets[li]),
        s.delta_slots(li), dead == nullptr ? nullptr : dead + s.out_offsets[li],
        s.out_dead_deg(li));
  }

 private:
  struct shard {
    std::uint64_t edge_base = 0;
    std::vector<std::uint64_t> out_offsets;  // CSR over local vertices
    std::vector<vertex_id> out_dst;
    std::vector<std::uint64_t> in_offsets;   // CSR over local vertices
    std::vector<vertex_id> in_src;
    std::vector<std::uint64_t> in_eid;       // the out-numbering id of each in-edge

    // ---- delta overlay (apply_edges appends; compact() clears) ------------
    // Arrays indexed by the per-rank delta index (the stable id suffix):
    std::vector<vertex_id> delta_src;
    std::vector<vertex_id> delta_dst;
    // Per-local-vertex slot lists, allocated lazily on the first append:
    std::vector<std::vector<std::uint32_t>> delta_adj;
    // In-overlay of bidirectional storage, same layout keyed by dst:
    std::vector<vertex_id> delta_in_src;
    std::vector<vertex_id> delta_in_dst;
    std::vector<std::uint64_t> delta_in_eid;  // out-numbering (delta) id
    std::vector<std::vector<std::uint32_t>> delta_in_adj;

    // ---- tombstones (remove_edges marks; compact() reclaims) --------------
    // Base-CSR dead flags per physical slot plus a per-local-vertex count so
    // out_degree/size() stay O(1). All four stay empty (the iterators carry
    // a null pointer) until the shard's first removal. Overlay edges need no
    // flags on the iteration path — their slot-list entry is unlinked — but
    // delta_dead keeps remove_edges honest about double-removals and lets
    // resolve_edges/property growth see which delta indices still live.
    std::vector<std::uint8_t> out_dead;
    std::vector<std::uint32_t> out_dead_cnt;   // per local vertex
    std::vector<std::uint8_t> in_dead;
    std::vector<std::uint32_t> in_dead_cnt;    // per local vertex
    std::vector<std::uint8_t> delta_dead;      // per delta slot, accounting only

    const std::uint8_t* out_dead_bits() const {
      return out_dead.empty() ? nullptr : out_dead.data();
    }
    const std::uint8_t* in_dead_bits() const {
      return in_dead.empty() ? nullptr : in_dead.data();
    }
    std::uint64_t out_dead_deg(std::uint64_t li) const {
      return out_dead_cnt.empty() ? 0 : out_dead_cnt[li];
    }
    std::uint64_t in_dead_deg(std::uint64_t li) const {
      return in_dead_cnt.empty() ? 0 : in_dead_cnt[li];
    }

    const std::vector<std::uint32_t>* delta_slots(std::uint64_t li) const {
      return delta_adj.empty() || delta_adj[li].empty() ? nullptr : &delta_adj[li];
    }
    const std::vector<std::uint32_t>* delta_in_slots(std::uint64_t li) const {
      return delta_in_adj.empty() || delta_in_adj[li].empty() ? nullptr
                                                              : &delta_in_adj[li];
    }
    std::uint64_t delta_deg(std::uint64_t li) const {
      return delta_adj.empty() ? 0 : delta_adj[li].size();
    }
    std::uint64_t delta_in_deg(std::uint64_t li) const {
      return delta_in_adj.empty() ? 0 : delta_in_adj[li].size();
    }
  };

  rank_t checked_owner(vertex_id v) const {
    const rank_t o = dist_.owner(v);
    const rank_t cur = ampp::current_rank();
    DPG_ASSERT_MSG(cur == ampp::invalid_rank || cur == o,
                   "graph topology accessed on a rank that does not own the vertex");
    return o;
  }
  const shard& owner_shard(vertex_id v) const { return shards_[checked_owner(v)]; }

  /// Builds the base CSR shards from a global edge list (constructor body;
  /// compact() reuses it after folding the overlay).
  void build_shards(std::span<const edge> edges);

  distribution dist_;
  bool bidirectional_;
  std::uint64_t num_edges_ = 0;
  std::vector<shard> shards_;
  std::uint64_t version_ = 1;
  std::uint64_t structure_version_ = 1;
  std::uint64_t delta_total_ = 0;
  std::uint64_t tombstoned_total_ = 0;
  ampp::transport_stats* stats_ = nullptr;
};

/// Recovers the live edge list of a distributed graph (in edge-id order for
/// the base CSR; overlay edges follow their vertex's base edges, which is
/// the order compact() and a rebuild both preserve; tombstoned edges are
/// absent). Call outside transport::run.
std::vector<edge> edge_list_of(const distributed_graph& g);

/// The legacy whole-world mutation path: builds a *new* graph with `extra`
/// edges appended, preserving the distribution. Prefer apply_edges() +
/// compact(), which mutate in place and keep property maps, transports and
/// compiled plans alive. By default the rebuilt graph keeps g's storage
/// model (bidirectional graphs stay bidirectional); pass an explicit flag
/// to change it.
distributed_graph with_added_edges(const distributed_graph& g, std::span<const edge> extra,
                                   std::optional<bool> bidirectional = std::nullopt);

/// Appends the reverse of every edge, producing the symmetric directed
/// representation of an undirected graph (the CC algorithms assume this).
std::vector<edge> symmetrize(std::span<const edge> edges);

/// Removes duplicate edges and self-loops (useful for generator output).
std::vector<edge> simplify(std::vector<edge> edges);

}  // namespace dpg::graph
