// Edge property maps (§III-B). The authoritative copy of an edge's value
// lives with the edge, i.e. on owner(src) — the rank that stores the
// out-edge (§IV). For bidirectional graphs a read-only mirror is kept at
// owner(dst), aligned with the in-edge lists, so that patterns using the
// `in_edges` generator still see edge values at the action's input vertex
// (Definition 1 assigns such accesses the locality of the input vertex).
//
// Mirrors are filled at construction from the same pure function as the
// primary copy; runtime writes go to the primary only (none of the paper's
// algorithms write edge properties after construction).
//
// Topology versioning: the map subscribes to its graph's version() and
// grows lazily on the first access after apply_edges(). Base (CSR) edges
// are indexed by `eid - edge_base`; overlay edges carry delta-tagged ids
// (graph/ids.hpp) and live in per-rank delta shards, so growth appends
// without disturbing base values. How delta values materialize depends on
// how the map was built:
//   * pure init function  — evaluated for each new edge (mirrors included),
//   * uniform fill        — new edges take the fill value,
//   * from_edge_values    — frozen: there is no recipe for unseen edges, so
//     any post-mutation access fails loudly, naming both versions.
// compact() renumbers edge ids (a structure change): maps with an init
// function re-derive all storage; fill/frozen maps cannot and fail loudly.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ampp/types.hpp"
#include "graph/distributed_graph.hpp"
#include "util/assert.hpp"

namespace dpg::pmap {

using ampp::rank_t;
using graph::edge_handle;
using graph::vertex_id;

template <class T>
class edge_property_map {
 public:
  using value_type = T;

  /// Uniform initialization. Overlay edges added later take `init` too.
  edge_property_map(const graph::distributed_graph& g, T init = T{})
      : g_(&g), growth_(growth::fill), fill_(init) {
    allocate(init);
    seen_version_.store(g.version(), std::memory_order_release);
    seen_structure_ = g.structure_version();
  }

  /// Fill from a pure function of the edge. `f` must be deterministic in
  /// (src, dst, eid) so primary and mirror copies agree. The function is
  /// retained: overlay edges appended by apply_edges() are filled from it
  /// lazily, and compact() re-derives the whole map through it.
  template <class F>
    requires std::invocable<F&, const edge_handle&>
  edge_property_map(const graph::distributed_graph& g, F f)
      : g_(&g), growth_(growth::fn), init_fn_(std::move(f)) {
    allocate(T{});
    DPG_ASSERT_MSG(ampp::current_rank() == ampp::invalid_rank,
                   "construct edge maps before entering transport::run");
    fill_from_fn();
    seen_version_.store(g.version(), std::memory_order_release);
    seen_structure_ = g.structure_version();
  }

  edge_property_map(const edge_property_map& o)
      : g_(o.g_), growth_(o.growth_), fill_(o.fill_), init_fn_(o.init_fn_),
        primary_(o.primary_), mirror_(o.mirror_), delta_primary_(o.delta_primary_),
        delta_mirror_(o.delta_mirror_), seen_structure_(o.seen_structure_) {
    seen_version_.store(o.seen_version_.load(std::memory_order_acquire),
                        std::memory_order_release);
  }
  edge_property_map(edge_property_map&& o) noexcept
      : g_(o.g_), growth_(o.growth_), fill_(std::move(o.fill_)),
        init_fn_(std::move(o.init_fn_)), primary_(std::move(o.primary_)),
        mirror_(std::move(o.mirror_)), delta_primary_(std::move(o.delta_primary_)),
        delta_mirror_(std::move(o.delta_mirror_)), seen_structure_(o.seen_structure_) {
    seen_version_.store(o.seen_version_.load(std::memory_order_acquire),
                        std::memory_order_release);
  }
  edge_property_map& operator=(const edge_property_map& o) {
    if (this == &o) return *this;
    g_ = o.g_;
    growth_ = o.growth_;
    fill_ = o.fill_;
    init_fn_ = o.init_fn_;
    primary_ = o.primary_;
    mirror_ = o.mirror_;
    delta_primary_ = o.delta_primary_;
    delta_mirror_ = o.delta_mirror_;
    seen_structure_ = o.seen_structure_;
    seen_version_.store(o.seen_version_.load(std::memory_order_acquire),
                        std::memory_order_release);
    return *this;
  }
  edge_property_map& operator=(edge_property_map&& o) noexcept {
    if (this == &o) return *this;
    g_ = o.g_;
    growth_ = o.growth_;
    fill_ = std::move(o.fill_);
    init_fn_ = std::move(o.init_fn_);
    primary_ = std::move(o.primary_);
    mirror_ = std::move(o.mirror_);
    delta_primary_ = std::move(o.delta_primary_);
    delta_mirror_ = std::move(o.delta_mirror_);
    seen_structure_ = o.seen_structure_;
    seen_version_.store(o.seen_version_.load(std::memory_order_acquire),
                        std::memory_order_release);
    return *this;
  }

  /// Authoritative (writable) value; valid only on owner(src(e)).
  T& operator[](const edge_handle& e) {
    sync();
    const rank_t o = checked_src_owner(e);
    if (graph::is_delta_edge(e.eid))
      return delta_primary_[graph::delta_edge_rank(e.eid)][graph::delta_edge_index(e.eid)];
    return primary_[o][e.eid - g_->edge_base(o)];
  }
  const T& operator[](const edge_handle& e) const {
    sync();
    const rank_t o = checked_src_owner(e);
    if (graph::is_delta_edge(e.eid))
      return delta_primary_[graph::delta_edge_rank(e.eid)][graph::delta_edge_index(e.eid)];
    return primary_[o][e.eid - g_->edge_base(o)];
  }

  /// Locality-aware read: on owner(src) reads the primary copy; on
  /// owner(dst) reads the mirror (requires an in-edge handle from a
  /// bidirectional graph). This is what the pattern executor calls.
  const T& read(const edge_handle& e) const {
    sync();
    const rank_t cur = ampp::current_rank();
    const rank_t so = g_->owner(e.src);
    if (cur == ampp::invalid_rank || cur == so) {
      if (graph::is_delta_edge(e.eid))
        return delta_primary_[graph::delta_edge_rank(e.eid)]
                             [graph::delta_edge_index(e.eid)];
      return primary_[so][e.eid - g_->edge_base(so)];
    }
    const rank_t to = g_->owner(e.dst);
    DPG_ASSERT_MSG(cur == to, "edge property read on a rank owning neither endpoint");
    DPG_ASSERT_MSG(e.mirror_slot != static_cast<std::uint64_t>(-1),
                   "mirror read requires an in-edge handle");
    if ((e.mirror_slot & graph::delta_edge_flag) != 0)
      return delta_mirror_[to][e.mirror_slot & ~graph::delta_edge_flag];
    return mirror_[to][e.mirror_slot];
  }

  /// One rank's edge values, resolved once per action application: the
  /// pattern fast path reads every generated edge of a vertex the rank owns
  /// through it, without read()'s owner lookup and rank check per edge.
  /// Valid until the graph next mutates (mutation happens between runs).
  struct rank_view {
    const T* base = nullptr;   ///< the rank's primary (or mirror) values
    const T* delta = nullptr;  ///< the rank's overlay primary (or mirror) values
    std::uint64_t first = 0;   ///< edge id of base[0]: edge_base(r), 0 for a mirror

    /// The value of an out-edge of a vertex the rank owns (primary view).
    const T& out(const edge_handle& e) const {
      return graph::is_delta_edge(e.eid) ? delta[graph::delta_edge_index(e.eid)]
                                         : base[e.eid - first];
    }
    /// The value of an in-edge of a vertex the rank owns (mirror view).
    const T& in(const edge_handle& e) const {
      return (e.mirror_slot & graph::delta_edge_flag) != 0
                 ? delta[e.mirror_slot & ~graph::delta_edge_flag]
                 : base[e.mirror_slot];
    }
  };

  /// Rank r's primary copy: the edges whose source r owns (out-edges).
  /// Overlay edges of those sources live in r's own delta shard.
  rank_view primary_view(rank_t r) const {
    sync();
    check_rank(r);
    return {primary_[r].data(), delta_primary_[r].data(), g_->edge_base(r)};
  }
  /// Rank r's mirror copy: the in-edges of the vertices r owns.
  rank_view mirror_view(rank_t r) const {
    sync();
    check_rank(r);
    DPG_ASSERT_MSG(g_->bidirectional(), "mirror view of a graph without in-edges");
    return {mirror_[r].data(), delta_mirror_[r].data(), 0};
  }

  /// The graph version this map has synced to (tests observe the lazy
  /// subscription through it).
  std::uint64_t observed_version() const {
    return seen_version_.load(std::memory_order_acquire);
  }

  /// Builds an edge map from values parallel to the *input edge list* the
  /// graph was constructed from (e.g. weights read from a file, including
  /// distinct values on parallel edges). The builder assigns edge ids in
  /// per-source-vertex input order, which this replays exactly; mirrors of
  /// bidirectional graphs are filled consistently. The result is *frozen*:
  /// there is no recipe for edges the graph did not have, so the graph must
  /// carry no delta overlay, and any access after a later mutation fails.
  static edge_property_map from_edge_values(const graph::distributed_graph& g,
                                            std::span<const graph::edge> edges,
                                            std::span<const T> values) {
    DPG_ASSERT_MSG(edges.size() == values.size(), "one value per input edge required");
    DPG_ASSERT_MSG(g.total_delta_edges() == 0,
                   "from_edge_values replays the base CSR numbering; compact() the "
                   "graph's delta overlay first");
    DPG_ASSERT_MSG(edges.size() == g.num_edges(), "edge list does not match the graph");
    DPG_ASSERT_MSG(ampp::current_rank() == ampp::invalid_rank,
                   "construct edge maps before entering transport::run");
    edge_property_map out(g, T{});
    out.growth_ = growth::frozen;
    const auto& dist = g.dist();
    // Replay the builder's stable counting sort: per source vertex, edge
    // ids follow input order.
    std::vector<std::vector<std::uint64_t>> cursor(g.num_ranks());
    for (rank_t r = 0; r < g.num_ranks(); ++r) {
      cursor[r].resize(dist.count(r));
      for (std::uint64_t li = 0; li < dist.count(r); ++li) {
        const vertex_id v = dist.global(r, li);
        const auto range = g.out_edges(v);
        cursor[r][li] = range.empty() ? 0 : (*range.begin()).eid;
      }
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const rank_t r = dist.owner(edges[i].src);
      const std::uint64_t li = dist.local_index(edges[i].src);
      const std::uint64_t eid = cursor[r][li]++;
      out.primary_[r][eid - g.edge_base(r)] = values[i];
    }
    if (g.bidirectional()) {
      // Mirrors copy the primary value of the same global edge id.
      for (rank_t r = 0; r < g.num_ranks(); ++r) {
        for (std::uint64_t li = 0; li < dist.count(r); ++li) {
          const vertex_id v = dist.global(r, li);
          for (const edge_handle e : g.in_edges(v)) {
            const rank_t so = g.owner(e.src);
            out.mirror_[r][e.mirror_slot] = out.primary_[so][e.eid - g.edge_base(so)];
          }
        }
      }
    }
    return out;
  }

 private:
  enum class growth : std::uint8_t {
    fill,   ///< overlay edges take the stored fill value
    fn,     ///< overlay edges evaluate the stored pure init function
    frozen  ///< no recipe for new edges: post-mutation access is an error
  };

  void allocate(const T& init) {
    primary_.resize(g_->num_ranks());
    for (rank_t r = 0; r < g_->num_ranks(); ++r)
      primary_[r].assign(g_->edge_count(r), init);
    if (g_->bidirectional()) {
      mirror_.resize(g_->num_ranks());
      for (rank_t r = 0; r < g_->num_ranks(); ++r)
        mirror_[r].assign(g_->in_edge_count(r), init);
    }
    delta_primary_.assign(g_->num_ranks(), {});
    delta_mirror_.assign(g_->num_ranks(), {});
    for (rank_t r = 0; r < g_->num_ranks(); ++r) {
      grow_rank_primary(r);
      if (g_->bidirectional()) grow_rank_mirror(r);
    }
  }

  /// Evaluates the stored init function over every base edge (and mirror).
  void fill_from_fn() {
    const auto& dist = g_->dist();
    for (rank_t r = 0; r < g_->num_ranks(); ++r) {
      for (std::uint64_t li = 0; li < dist.count(r); ++li) {
        const vertex_id v = dist.global(r, li);
        for (const edge_handle e : g_->out_edges(v))
          if (!graph::is_delta_edge(e.eid)) primary_[r][e.eid - g_->edge_base(r)] = init_fn_(e);
        if (g_->bidirectional())
          for (const edge_handle e : g_->in_edges(v))
            if ((e.mirror_slot & graph::delta_edge_flag) == 0)
              mirror_[r][e.mirror_slot] = init_fn_(e);
      }
    }
  }

  /// Brings rank r's delta-primary shard up to the graph's overlay size.
  void grow_rank_primary(rank_t r) {
    auto& dp = delta_primary_[r];
    const std::uint64_t want = g_->delta_edge_count(r);
    for (std::uint64_t j = dp.size(); j < want; ++j)
      dp.push_back(growth_ == growth::fn ? init_fn_(g_->delta_out_edge(r, j)) : fill_);
  }
  void grow_rank_mirror(rank_t r) {
    auto& dm = delta_mirror_[r];
    const std::uint64_t want = g_->delta_in_edge_count(r);
    for (std::uint64_t j = dm.size(); j < want; ++j)
      dm.push_back(growth_ == growth::fn ? init_fn_(g_->delta_in_edge(r, j)) : fill_);
  }

  /// Lazy version sync (double-checked): the fast path is one acquire load
  /// and a compare; the slow path runs at most once per mutation under the
  /// growth mutex, then publishes with a release store so every later
  /// reader sees the grown shards.
  void sync() const {
    if (seen_version_.load(std::memory_order_acquire) == g_->version()) return;
    auto* self = const_cast<edge_property_map*>(this);
    std::lock_guard<std::mutex> lk(self->grow_mu_);
    if (seen_version_.load(std::memory_order_relaxed) == g_->version()) return;
    if (growth_ == growth::frozen) self->fail_stale("mutated");
    if (seen_structure_ != g_->structure_version()) {
      // compact() renumbered edge ids: only a pure init function can
      // re-derive the values for the new numbering.
      if (growth_ != growth::fn) self->fail_stale("compacted");
      self->allocate(T{});
      self->fill_from_fn();
    } else {
      for (rank_t r = 0; r < g_->num_ranks(); ++r) {
        self->grow_rank_primary(r);
        if (g_->bidirectional()) self->grow_rank_mirror(r);
      }
    }
    self->seen_structure_ = g_->structure_version();
    seen_version_.store(g_->version(), std::memory_order_release);
  }

  [[noreturn]] void fail_stale(const char* what) const {
    const std::string msg =
        std::string("stale edge property map: the graph was ") + what +
        " (map synced at graph version " +
        std::to_string(seen_version_.load(std::memory_order_relaxed)) +
        ", graph is now at version " + std::to_string(g_->version()) +
        ") and this map has no pure init function to grow from - rebuild it";
    dpg::assert_fail("edge map version == graph version", __FILE__, __LINE__,
                     msg.c_str());
  }

  void check_rank(rank_t r) const {
    const rank_t cur = ampp::current_rank();
    DPG_ASSERT_MSG(cur == ampp::invalid_rank || cur == r, "edge shard accessed from a foreign rank");
  }

  rank_t checked_src_owner(const edge_handle& e) const {
    const rank_t o = g_->owner(e.src);
    const rank_t cur = ampp::current_rank();
    DPG_ASSERT_MSG(cur == ampp::invalid_rank || cur == o,
                   "edge property accessed on a rank that does not own the edge");
    return o;
  }

  const graph::distributed_graph* g_;
  growth growth_;
  T fill_{};                                      ///< growth::fill value
  std::function<T(const edge_handle&)> init_fn_;  ///< growth::fn recipe
  std::vector<std::vector<T>> primary_;
  std::vector<std::vector<T>> mirror_;
  std::vector<std::vector<T>> delta_primary_;  ///< per-rank overlay values
  std::vector<std::vector<T>> delta_mirror_;   ///< per-rank overlay mirrors
  mutable std::atomic<std::uint64_t> seen_version_{0};
  std::uint64_t seen_structure_ = 0;
  std::mutex grow_mu_;
};

}  // namespace dpg::pmap
