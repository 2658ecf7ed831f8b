// Connected components by parallel search (§II-B, Fig. 3 of the paper).
//
// Phase 1 — parallel search. Every rank sweeps its local vertices; each
// still-unassigned vertex becomes the root of a new search (pnt[v] = v;
// cc_search(v); epoch_flush()). The search action spreads the root label
// along out-edges; when two searches collide, the invading root is inserted
// into the collision vertex's conflict set (the paper's `chg` recording, a
// set-valued modification because all modifications of one action share a
// locality). It compiles to the claim record (pattern::detail::claim_shape):
// exact repeats are dropped before the wire, owned targets are claimed in
// place, and a claimed vertex waits in its owner's work queue.
//
// Phase 2 — conflict resolution "on the component labels alone": every
// rank (or rank process) holds the small list of distinct colliding root
// pairs, and a union-find over it gives each root its component's smallest
// root, chg[r].
//
// Phase 3 — rewrite, the paper's cc_jump (Fig. 3 lines 14–17): pnt[v]
// jumps to chg[pnt[v]] when that is better — a pointer-chase pattern
// (v → pnt[v] → back to v). The paper loops `once` until nothing changes;
// here chg already maps every root to its final label, so one `once`
// reaches the fixed point (see resolve_and_rewrite).
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "pattern/action.hpp"
#include "strategy/strategies.hpp"

namespace dpg::algo {

using graph::vertex_id;

class cc_solver {
 public:
  /// The input graph should be symmetric (use graph::symmetrize) — the CC
  /// problem is defined on undirected graphs (§II-B). `pool` (optional)
  /// shares an envelope pool with other transports — under the serving
  /// layer, with every concurrent session context.
  cc_solver(const graph::distributed_graph& g, ampp::transport_config cfg,
            std::shared_ptr<ampp::wire_pool> pool = nullptr)
      : g_(&g),
        tp_(cfg, std::move(pool)),
        pnt_(g, graph::invalid_vertex),
        chg_(g, 0),
        conf_(g),
        locks_(g.dist(), pmap::lock_scheme::per_vertex) {
    using namespace pattern;
    property P(pnt_);
    property C(chg_);
    property F(conf_);
    search_ = instantiate(
        tp_, g, locks_,
        make_action("cc.search", out_edges_gen{},
                    // Unclaimed neighbour: extend this search's component.
                    when(P(trg(e_)) == lit(graph::invalid_vertex), assign(P(trg(e_)), P(v_))),
                    // Claimed by another search: record the collision (else-if,
                    // so this only fires for a *different* root).
                    when(P(trg(e_)) != P(v_), insert(F(trg(e_)), P(v_)))));
    jump_ = instantiate(tp_, g, locks_,
                        make_action("cc.jump", no_generator{},
                                    when(C(P(v_)) < P(v_), assign(P(v_), C(P(v_))))));
  }

  /// Runs the full pipeline. `flush_between_seeds` reproduces the
  /// epoch_flush of Fig. 3 line 11 (give running searches a chance to
  /// spread before seeding the next root); disabling it is the Q6 ablation.
  void solve(bool flush_between_seeds = true) {
    run_search_phase(flush_between_seeds);
    resolve_and_rewrite(collect_conflict_pairs());
  }

  /// Component labels (equal label <=> same component) after solve().
  pmap::vertex_property_map<vertex_id>& components() { return pnt_; }
  const pmap::vertex_property_map<vertex_id>& components() const { return pnt_; }

  // Diagnostics for tests and the benchmark harness.
  std::uint64_t searches_seeded() const { return seeds_; }
  /// Distinct root pairs the searches recorded colliding.
  std::uint64_t conflict_pairs() const { return conflicts_; }
  /// Rounds of the rewrite that changed a label: 1, or 0 when no two
  /// searches met.
  int jump_rounds() const { return jump_rounds_; }
  std::uint64_t search_messages() const { return search_stats_.core.messages_sent; }
  /// Transport counters of the last search phase.
  const obs::stats_snapshot& search_stats() const { return search_stats_; }
  /// Per vertex, the other roots whose searches reached it.
  const pmap::vertex_property_map<std::vector<vertex_id>>& collisions() const { return conf_; }
  ampp::transport& transport() { return tp_; }
  const ampp::transport& transport() const { return tp_; }

 private:
  void run_search_phase(bool flush_between_seeds) {
    // Reset state so solve() can be called repeatedly.
    for (ampp::rank_t r = 0; r < tp_.size(); ++r) {
      for (auto& x : pnt_.local(r)) x = graph::invalid_vertex;
      for (auto& s : conf_.local(r)) s.clear();
    }
    obs::stats_scope sc(tp_.obs());
    std::atomic<std::uint64_t> seeded{0};
    tp_.run([&](ampp::transport_context& ctx) {
      const ampp::rank_t r = ctx.rank();
      const graph::distribution& d = g_->dist();
      // As in strategy::fixed_point: the hook files a claimed vertex with
      // its owner, and the owner's thread searches on from it.
      pattern::work_queue& q = strategy::queue_dependents(ctx, *search_);
      const auto drain = [&] {  // true if it applied anything
        bool any = false;
        for (; const auto li = q.pop(); any = true) (*search_)(ctx, d.global(r, *li));
        return any;
      };
      ampp::epoch ep(ctx);
      strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
        // Handler threads may claim v for another search concurrently; the
        // claim commit CASes from the sentinel, so the seed does too.
        vertex_id unclaimed = graph::invalid_vertex;
        if (!std::atomic_ref<vertex_id>(pnt_[v]).compare_exchange_strong(
                unclaimed, v, std::memory_order_relaxed))
          return;
        ++seeded;
        (*search_)(ctx, v);
        // "the system tries to perform as much work as possible ...
        // before starting the next search" (Fig. 3 line 11). A search from
        // an isolated vertex made no work, so there is nothing to flush.
        if (flush_between_seeds && g_->out_degree(v) != 0) do ep.flush(); while (drain());
      });
      // fixed_point's epoch loop: every push follows a counted receipt or a
      // local commit made on this thread, which the loop pops.
      strategy::detail::drain(ctx, ep, *search_, [&q] { return q.pop(); });
    });
    seeds_ = seeded.load();
    search_stats_ = sc.finish();
  }

  /// Distinct (smaller, larger) root pairs over `conf_`, sorted. The raw
  /// records repeat a few dozen pairs thousands of times, so a
  /// direct-mapped filter drops most repeats before the sort.
  std::vector<graph::edge> collect_conflict_pairs() {
    std::array<graph::edge, 1024> recent{};
    std::vector<graph::edge> pairs;
    const auto pairs_of = [&](ampp::rank_t r) {
      const auto labels = pnt_.local(r);
      const auto sets = conf_.local(r);
      for (std::size_t li = 0; li < sets.size(); ++li)
        for (const vertex_id other : sets[li]) {
          const graph::edge e{std::min(labels[li], other), std::max(labels[li], other)};
          graph::edge& seen = recent[(e.src * 0x9e3779b97f4a7c15ULL ^ e.dst) % recent.size()];
          if (seen != e) pairs.push_back(seen = e);
        }
    };
    if (!tp_.cross_process()) {
      // Every shard lives in this process: read them all directly.
      for (ampp::rank_t r = 0; r < tp_.size(); ++r) pairs_of(r);
    } else {
      // Cross-process only the owned shard is authoritative here; the
      // sibling rank processes hold the rest. Collect owned pairs, allgather
      // the byte images over the wire, and rebuild the global list — sorted
      // below, so every process derives the identical list.
      static_assert(std::is_trivially_copyable_v<graph::edge>);
      pairs_of(tp_.self_rank());
      std::vector<std::byte> mine(pairs.size() * sizeof(graph::edge));
      if (!mine.empty()) std::memcpy(mine.data(), pairs.data(), mine.size());
      pairs.clear();
      for (const std::vector<std::byte>& blob : tp_.exchange_blobs(mine)) {
        const std::size_t off = pairs.size();
        pairs.resize(off + blob.size() / sizeof(graph::edge));
        if (!blob.empty()) std::memcpy(pairs.data() + off, blob.data(), blob.size());
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const graph::edge& a, const graph::edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return pairs;
  }

  /// Union-find over the root pairs, kept in chg_ itself (chg[x] = x for
  /// every vertex no pair names): each union links the larger root under
  /// the smaller, so every root ends labelled with its set's smallest root.
  /// Then the rewrite, Fig. 3 lines 14-17: cc_jump with `once`.
  void resolve_and_rewrite(const std::vector<graph::edge>& pairs) {
    conflicts_ = pairs.size();
    for (vertex_id x = 0; x < g_->num_vertices(); ++x) chg_[x] = x;
    const auto find = [this](vertex_id x) {
      while (chg_[x] != x) x = chg_[x] = chg_[chg_[x]];  // path halving
      return x;
    };
    for (const graph::edge& e : pairs) {
      const vertex_id a = find(e.src), b = find(e.dst);
      if (a != b) chg_[std::max(a, b)] = std::min(a, b);
    }
    for (const graph::edge& e : pairs) chg_[e.src] = find(e.src), chg_[e.dst] = find(e.dst);

    // One round is the fixed point. After the final pass above, chg_ maps
    // every named root straight to its set's root f, and chg_[f] == f
    // (chg_[x] == x for every other vertex). Every pnt[v] is a search
    // root r, so the jump sets pnt[v] = chg[r] = f, and a second round
    // would read chg[f] == f, which is not below f: it cannot change pnt.
    // The paper's loop (once_until_quiet) would only confirm the first
    // round.
    std::atomic<int> rounds{0};
    tp_.run([&](ampp::transport_context& ctx) {
      std::vector<vertex_id> mine;
      strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) { mine.push_back(v); });
      const strategy::result jr = strategy::once(ctx, *jump_, mine);
      if (ctx.rank() == 0) rounds = jr.changed() ? 1 : 0;
    });
    jump_rounds_ = rounds.load();
  }

  const graph::distributed_graph* g_;
  ampp::transport tp_;
  pmap::vertex_property_map<vertex_id> pnt_;
  pmap::vertex_property_map<vertex_id> chg_;
  pmap::vertex_property_map<std::vector<vertex_id>> conf_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> search_;
  std::unique_ptr<pattern::action_instance> jump_;

  std::uint64_t seeds_ = 0;
  std::uint64_t conflicts_ = 0;
  obs::stats_snapshot search_stats_{};
  int jump_rounds_ = 0;
};

}  // namespace dpg::algo
