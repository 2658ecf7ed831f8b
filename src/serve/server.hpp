// The multi-tenant serving front end: admission, merging, caching, and
// mutation over one shared graph.
//
// This is ROADMAP item 2 ("production-scale serving"): the process holds
// one big distributed_graph and answers a stream of read queries
// interleaved with mutations. The server composes the pieces this PR
// introduces —
//
//   graph::snapshot_view   results attributable to one topology version
//   solver_session pool    warm per-query contexts (serve/pool.hpp)
//   result_cache           (version, algorithm, params) → shared result
//   obs::rollup            per-context + per-tenant accounting
//
// — behind two calls: query() and apply_edges().
//
// Admission discipline (the interesting part):
//   1. A query first probes the cache under the live topology version; a
//      hit is lock-free of any solver machinery.
//   2. On a miss, identical in-flight queries *merge*: the first requester
//      becomes the leader and solves; followers wait on the leader's entry
//      and share its result. N tenants asking the same question cost one
//      solve.
//   3. The leader checks a session out of the warm pool, runs it inside a
//      shared (reader) topology lock, inserts the result, and wakes the
//      followers.
// Mutations take the exclusive side of the topology lock: apply_mutation()
// (and its apply_edges/remove_edges shorthands) waits out in-flight solves,
// mutates (bumping the version), invalidates stale cache entries, and
// records the batch — added and removed edges plus its base version — so
// repair_query() can warm-restart instead of re-solving.
//
// Groundwork: step 3 is also where multi-pattern fusion will plug into
// serving — distinct-source (or distinct-algorithm) leaders over one
// snapshot batched behind a single pattern::fuse solve instead of one
// session each; see the fused-plan hook note at server::solve.
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "algo/sessions.hpp"
#include "serve/cache.hpp"
#include "serve/pool.hpp"

namespace dpg::serve {

struct server_config {
  ampp::machine_config machine{};  ///< rank/thread topology of every session
  ampp::tuning_config tuning{};    ///< runtime knobs shared by every session
  std::size_t max_warm_sessions = 2;  ///< warm pool depth per algorithm
  std::size_t cache_capacity = 1024;
  pattern::compile_options copts{};
  strategy::options sopts{};
};

class server {
 public:
  /// `g` and `weights` are the shared state being served; they must outlive
  /// the server. All topology mutation must go through apply_mutation() and
  /// friends below — the server's topology lock is what keeps mutation at
  /// the non-morphing boundary while queries are in flight. Edges added
  /// later take their weight from the map's own fill value / init function
  /// (pmap/edge_map.hpp), so build `weights` with the growth recipe you
  /// want served.
  server(graph::distributed_graph& g, pmap::edge_property_map<double>& weights,
         server_config cfg = {});
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Serves one query: cache hit, merge onto an identical in-flight query,
  /// or a fresh solve on a pooled session. Thread-safe; blocks while a
  /// mutation holds the topology lock. The result is immutable and shared.
  /// Throws std::invalid_argument, before admitting the query anywhere,
  /// for a source outside the graph or a NaN, infinite or negative delta.
  std::shared_ptr<const session_result> query(const serve::query& q);

  /// Like query(), but a miss warm-repairs from the most recent mutation
  /// batch instead of solving from scratch (transparently falls back to a
  /// full solve when the leased session can't repair soundly). Validates
  /// the query like query().
  std::shared_ptr<const session_result> repair_query(const serve::query& q);

  /// One streaming ingest step at the non-morphing boundary: waits out
  /// in-flight solves, appends `added` then tombstones `removed` (resolved
  /// to live edge ids), drops now-stale cache entries, and records the
  /// batch for repair. Throws std::invalid_argument, before changing
  /// anything, for an endpoint outside the graph or a removal with no live
  /// edge left once the batch's own additions are counted.
  void apply_mutation(std::span<const graph::edge> added,
                      std::span<const graph::edge> removed,
                      std::uint64_t tenant = 0);

  /// apply_mutation with an empty removal set.
  void apply_edges(std::span<const graph::edge> extra, std::uint64_t tenant = 0);

  /// apply_mutation with an empty addition set.
  void remove_edges(std::span<const graph::edge> victims,
                    std::uint64_t tenant = 0);

  /// The live topology version queries are currently keyed on.
  std::uint64_t version() const;

  // ---- introspection -------------------------------------------------------

  result_cache& cache() noexcept { return cache_; }
  session_pool& pool() noexcept { return *pool_; }
  obs::rollup& obs() noexcept { return rollup_; }
  const std::shared_ptr<ampp::wire_pool>& envelope_pool() const noexcept {
    return wire_pool_;
  }

  /// The combined per-context / per-tenant epoch summary (drains the warm
  /// pool first so live sessions' counters are included).
  std::string serving_summary();

 private:
  struct inflight;

  std::shared_ptr<const session_result> serve_one(const serve::query& q,
                                                  bool try_repair);
  std::shared_ptr<const session_result> solve(const serve::query& q,
                                              const cache_key& key,
                                              bool try_repair);

  graph::distributed_graph* g_;
  pmap::edge_property_map<double>* weights_;
  server_config cfg_;

  std::shared_ptr<ampp::wire_pool> wire_pool_;
  obs::rollup rollup_;
  result_cache cache_;
  std::unique_ptr<session_pool> pool_;

  /// Readers = queries (shared), writers = apply_mutation (exclusive).
  mutable std::shared_mutex topo_mu_;
  /// The newest mutation batch, recorded for warm repair. Its base_version
  /// is the topology version *before* the batch was applied: a session can
  /// only warm-repair from it if its own state is pinned to exactly that
  /// version — the batch covers the newest mutation only. Guarded by
  /// topo_mu_.
  mutation_batch last_batch_;

  std::mutex inflight_mu_;
  std::unordered_map<cache_key, std::shared_ptr<inflight>, cache_key::hasher>
      inflight_;
};

}  // namespace dpg::serve
