// Connected components by parallel search (§II-B, Fig. 3 of the paper).
//
// Phase 1 — parallel search. Every rank sweeps its local vertices; each
// still-unassigned vertex becomes the root of a new search (pnt[v] = v;
// cc_search(v); epoch_flush()). The declarative search action spreads the
// root label along out-edges; when two searches collide, the invading root
// is recorded in a conflict list at the collision vertex (the `chg`
// recording of the paper, realized as a set-valued modification because our
// planner requires all modifications of one action to share a locality).
//
// Phase 2 — conflict resolution. The recorded collisions induce a graph
// over search roots. The paper resolves root equivalences on "the component
// labels alone" (rewriting "does not require traversing the graph"); we do
// the same: min-label propagation — the same relax-shaped pattern again —
// over the (small) conflict graph computes each root's final label chg[r].
// (Pure min-hooking + pointer jumping alone is not confluent: a root that
// collides with two smaller roots keeps only one link, so the other branch
// would be lost; propagation over the conflict graph is the fixed-point
// closure of exactly those links.)
//
// Phase 3 — rewrite, the paper's cc_jump applied with the `once` strategy
// in a loop (Fig. 3 lines 14–17): pnt[v] jumps to chg[pnt[v]] while that
// is better — a pointer-chase pattern (v → pnt[v] → back to v).
#pragma once

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
  /// shares an envelope pool across both internal transports — and, under
  /// the serving layer, across every concurrent session context.
  cc_solver(const graph::distributed_graph& g, ampp::transport_config cfg,
            std::shared_ptr<ampp::wire_pool> pool = nullptr,
            pattern::compile_options copts = {})
      : g_(&g),
        cfg_(cfg),
        pool_(std::move(pool)),
        copts_(copts),
        tp_(cfg_, pool_),
        pnt_(g, graph::invalid_vertex),
        conf_(g),
        locks_(g.dist(), pmap::lock_scheme::per_vertex) {
    using namespace pattern;
    property P(pnt_);
    property F(conf_);
    search_ = instantiate(
        tp_, g, locks_,
        make_action(
            "cc.search", out_edges_gen{},
            // Unclaimed neighbour: extend this search's component.
            when(P(trg(e_)) == lit(graph::invalid_vertex), assign(P(trg(e_)), P(v_))),
            // Claimed by another search: record the collision (else-if, so
            // this only fires for a *different* root).
            when(P(trg(e_)) != P(v_),
                 modify(F(trg(e_)),
                        [](std::vector<vertex_id>& roots, vertex_id r) {
                          roots.push_back(r);
                        },
                        P(v_)))),
        copts_);
  }

  /// Runs the full pipeline. `flush_between_seeds` reproduces the
  /// epoch_flush of Fig. 3 line 11 (give running searches a chance to
  /// spread before seeding the next root); disabling it is the Q6 ablation.
  void solve(bool flush_between_seeds = true) {
    run_search_phase(flush_between_seeds);
    const auto pairs = collect_conflict_pairs();
    resolve_and_rewrite(pairs);
  }

  /// Component labels (equal label <=> same component) after solve().
  pmap::vertex_property_map<vertex_id>& components() { return pnt_; }
  const pmap::vertex_property_map<vertex_id>& components() const { return pnt_; }

  // Diagnostics for tests and the benchmark harness.
  std::uint64_t searches_seeded() const { return seeds_; }
  std::uint64_t conflict_pairs() const { return conflicts_; }
  int jump_rounds() const { return jump_rounds_; }
  std::uint64_t search_messages() const { return search_messages_; }
  ampp::transport& transport() { return tp_; }
  const ampp::transport& transport() const { return tp_; }

 private:
  void run_search_phase(bool flush_between_seeds) {
    // Reset state so solve() can be called repeatedly.
    for (ampp::rank_t r = 0; r < tp_.size(); ++r) {
      for (auto& x : pnt_.local(r)) x = graph::invalid_vertex;
      for (auto& s : conf_.local(r)) s.clear();
    }
    seeds_ = 0;
    obs::stats_scope sc(tp_.obs());
    std::atomic<std::uint64_t> seeded{0};
    tp_.run([&](ampp::transport_context& ctx) {
      strategy::install_hook_collective(
          ctx, *search_,
          [this](ampp::transport_context& c, vertex_id dep) { (*search_)(c, dep); });
      ampp::epoch ep(ctx);
      strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) {
        // Handler threads may claim v for another search concurrently;
        // they write pnt_ atomically under v's lock, so test-and-claim
        // the same way.
        bool root = false;
        {
          auto guard = locks_.guard(v);
          std::atomic_ref<vertex_id> p(pnt_[v]);
          if (p.load(std::memory_order_relaxed) == graph::invalid_vertex) {
            p.store(v, std::memory_order_relaxed);  // new search root
            root = true;
          }
        }
        if (root) {
          ++seeded;
          (*search_)(ctx, v);
          // "the system tries to perform as much work as possible ...
          // before starting the next search" (Fig. 3 line 11).
          if (flush_between_seeds) ep.flush();
        }
      });
    });
    seeds_ = seeded.load();
    search_messages_ = sc.finish().core.messages_sent;
  }

  std::vector<graph::edge> collect_conflict_pairs() {
    std::vector<graph::edge> pairs;
    const auto pairs_of = [&](vertex_id v) {
      for (const vertex_id other_root : conf_[v])
        if (pnt_[v] != other_root) pairs.push_back(graph::edge{pnt_[v], other_root});
    };
    if (!tp_.cross_process()) {
      // Every shard lives in this process: read them all directly.
      for (vertex_id v = 0; v < g_->num_vertices(); ++v) pairs_of(v);
      return graph::simplify(graph::symmetrize(pairs));
    }
    // Cross-process only the owned shard is authoritative here; the sibling
    // rank processes hold the rest. Collect owned pairs, allgather the byte
    // images over the wire, and rebuild the global list — simplify sorts,
    // so every process derives the identical conflict graph.
    static_assert(std::is_trivially_copyable_v<graph::edge>);
    const auto& d = g_->dist();
    const ampp::rank_t self = tp_.self_rank();
    const std::uint64_t cnt = d.count(self);
    for (std::uint64_t li = 0; li < cnt; ++li) pairs_of(d.global(self, li));
    std::vector<std::byte> mine(pairs.size() * sizeof(graph::edge));
    if (!mine.empty()) std::memcpy(mine.data(), pairs.data(), mine.size());
    std::vector<graph::edge> all;
    for (const std::vector<std::byte>& blob : tp_.exchange_blobs(mine)) {
      const std::size_t n = blob.size() / sizeof(graph::edge);
      const std::size_t off = all.size();
      all.resize(off + n);
      if (n != 0) std::memcpy(all.data() + off, blob.data(), blob.size());
    }
    return graph::simplify(graph::symmetrize(all));
  }

  void resolve_and_rewrite(const std::vector<graph::edge>& pairs) {
    conflicts_ = pairs.size() / 2;
    using namespace pattern;
    // The conflict graph lives on the same vertex space and distribution,
    // so locality and addressing agree with the data graph's maps.
    graph::distributed_graph cg(g_->num_vertices(), pairs, g_->dist());
    pmap::vertex_property_map<vertex_id> chg(cg, 0);
    for (ampp::rank_t r = 0; r < tp_.size(); ++r) {
      auto span = chg.local(r);
      for (std::size_t li = 0; li < span.size(); ++li) span[li] = chg.global_id(r, li);
    }
    pmap::lock_map cg_locks(cg.dist(), pmap::lock_scheme::per_vertex);

    // A fresh transport for phase 2: its message types depend on the
    // conflict graph, which exists only now. (AM++ registers message types
    // between epochs; our simulator registers them between runs.)
    ampp::transport tp2(cfg_, pool_);
    property C(chg);
    property P(pnt_);
    auto propagate = instantiate(tp2, cg, cg_locks,
                                 make_action("cc.propagate", out_edges_gen{},
                                             when(C(trg(e_)) > C(v_),
                                                  assign(C(trg(e_)), C(v_)))),
                                 copts_);
    auto jump = instantiate(tp2, *g_, locks_,
                            make_action("cc.jump", no_generator{},
                                        when(C(P(v_)) < P(v_), assign(P(v_), C(P(v_))))),
                            copts_);
    std::atomic<int> rounds{0};
    tp2.run([&](ampp::transport_context& ctx) {
      // Min-label propagation over the conflict graph (fixed point).
      std::vector<vertex_id> seeds;
      strategy::for_each_local_vertex(ctx, cg, [&](vertex_id v) {
        if (cg.out_degree(v) > 0) seeds.push_back(v);
      });
      strategy::fixed_point(ctx, *propagate, seeds);
      // Fig. 3 lines 14-17: apply cc_jump with `once` until nothing changes.
      std::vector<vertex_id> mine;
      strategy::for_each_local_vertex(ctx, *g_, [&](vertex_id v) { mine.push_back(v); });
      const strategy::result jr = strategy::once_until_quiet(ctx, *jump, mine);
      if (ctx.rank() == 0) rounds = static_cast<int>(jr.rounds);
    });
    jump_rounds_ = rounds.load();
  }

  const graph::distributed_graph* g_;
  ampp::transport_config cfg_;
  std::shared_ptr<ampp::wire_pool> pool_;
  pattern::compile_options copts_;
  ampp::transport tp_;
  pmap::vertex_property_map<vertex_id> pnt_;
  pmap::vertex_property_map<std::vector<vertex_id>> conf_;
  pmap::lock_map locks_;
  std::unique_ptr<pattern::action_instance> search_;

  std::uint64_t seeds_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t search_messages_ = 0;
  int jump_rounds_ = 0;
};

}  // namespace dpg::algo
