#include "serve/server.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace dpg::serve {

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Rejects a query no solver can run. Called before the query touches the
/// cache, the in-flight table or a session, so a bad request leaves no
/// trace in the server.
void validate(const serve::query& q, graph::vertex_id n) {
  // algorithm::pagerank is the last enumerator; a value past it would
  // reach the session pool's slot assert and abort every tenant.
  if (q.algo > algorithm::pagerank)
    throw std::invalid_argument("serve: algorithm " +
                                std::to_string(static_cast<unsigned>(q.algo)) +
                                " is not a serve::algorithm");
  if (q.params.source >= n)
    throw std::invalid_argument("serve: source " + std::to_string(q.params.source) +
                                " out of range for a graph of " + std::to_string(n) +
                                " vertices");
  if (!std::isfinite(q.params.delta) || q.params.delta < 0.0)
    throw std::invalid_argument("serve: delta must be finite and non-negative, got " +
                                std::to_string(q.params.delta));
}

std::string edge_text(const graph::edge& e) {
  return std::to_string(e.src) + " -> " + std::to_string(e.dst);
}

/// Rejects a mutation batch naming a vertex outside the graph. Needs no
/// topology state, so it runs before the topology lock is taken.
void validate_endpoints(std::span<const graph::edge> edges, graph::vertex_id n,
                        const char* side) {
  for (const graph::edge& e : edges)
    if (e.src >= n || e.dst >= n)
      throw std::invalid_argument(std::string("serve: ") + side + " edge " + edge_text(e) +
                                  " out of range for a graph of " + std::to_string(n) +
                                  " vertices");
}

/// Rejects a batch whose removals cannot all be resolved: every removed
/// (src, dst) pair needs a live edge, counting the batch's own additions
/// (which apply first), for each time it is named. Reads the live
/// topology, so the caller holds the topology lock — but nothing has
/// changed yet when it throws.
void validate_removals(const graph::distributed_graph& g,
                       std::span<const graph::edge> added,
                       std::span<const graph::edge> removed) {
  std::map<std::pair<graph::vertex_id, graph::vertex_id>, std::uint64_t> demand;
  for (const graph::edge& e : removed) ++demand[{e.src, e.dst}];
  for (const auto& [pair, wanted] : demand) {
    std::uint64_t live = 0;
    for (const graph::edge_handle h : g.out_edges(pair.first)) live += h.dst == pair.second;
    for (const graph::edge& e : added) live += e.src == pair.first && e.dst == pair.second;
    if (live < wanted)
      throw std::invalid_argument(
          "serve: removal of " + edge_text({pair.first, pair.second}) + " named " +
          std::to_string(wanted) + " time(s) but only " + std::to_string(live) +
          " live instance(s) exist, counting this batch's additions");
  }
}

}  // namespace

/// One in-flight solve followers merge onto: the leader fills `result` and
/// flips `done`; followers wait on `cv`.
struct server::inflight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  std::shared_ptr<const session_result> result;
};

server::server(graph::distributed_graph& g,
               pmap::edge_property_map<double>& weights, server_config cfg)
    : g_(&g),
      weights_(&weights),
      cfg_(cfg),
      wire_pool_(std::make_shared<ampp::wire_pool>(cfg.machine.n_ranks)),
      cache_(cfg.cache_capacity) {
  // The serving layer's topology gate (topo_mu_) and snapshot_view::refresh
  // assume a mutation is visible process-wide the moment apply_edges
  // releases the exclusive lock — true only when every rank lives in this
  // process. Cross-process serving needs a single-writer topology protocol
  // (the envelope header's version/structure-version stamp is the enforcing
  // half; see docs/runtime.md "Transport backends"), which the server does
  // not yet implement — so refuse loudly instead of serving stale shards.
  DPG_ASSERT_MSG(!cfg_.machine.backend.cross_process(),
                 "serve::server requires the in-process backend: its topology gate "
                 "assumes process-wide visibility of mutations");
  algo::session_env env;
  env.g = g_;
  env.weights = weights_;
  env.machine = cfg_.machine;
  env.tuning = cfg_.tuning;
  env.pool = wire_pool_;
  env.copts = cfg_.copts;
  env.sopts = cfg_.sopts;
  pool_ = std::make_unique<session_pool>(
      [env](algorithm a) { return algo::make_solver_session(a, env); },
      cfg_.max_warm_sessions, &rollup_);
}

server::~server() { pool_->drain(); }

std::uint64_t server::version() const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return g_->version();
}

std::shared_ptr<const session_result> server::query(const serve::query& q) {
  return serve_one(q, /*try_repair=*/false);
}

std::shared_ptr<const session_result> server::repair_query(
    const serve::query& q) {
  return serve_one(q, /*try_repair=*/true);
}

std::shared_ptr<const session_result> server::serve_one(const serve::query& q,
                                                        bool try_repair) {
  validate(q, g_->num_vertices());
  const std::uint64_t t0 = now_us();
  // The shared topology lock spans the whole serve: the version the result
  // is keyed on cannot move underneath the solve, and mutations queue
  // behind every in-flight query (the non-morphing boundary).
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  const cache_key key{g_->version(), q.algo, q.params};

  if (auto hit = cache_.lookup(key)) {
    rollup_.note_query(q.tenant, /*cache_hit=*/true, /*merged=*/false,
                       now_us() - t0);
    return hit;
  }

  // Admission: the first requester of (version, algo, params) leads and
  // solves; everyone else merges onto its in-flight entry.
  std::shared_ptr<inflight> entry;
  bool leader = false;
  {
    std::lock_guard<std::mutex> g(inflight_mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      entry = std::make_shared<inflight>();
      inflight_.emplace(key, entry);
      leader = true;
    } else {
      entry = it->second;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> l(entry->mu);
    entry->cv.wait(l, [&] { return entry->done; });
    if (!entry->failed && entry->result != nullptr) {
      rollup_.note_query(q.tenant, /*cache_hit=*/false, /*merged=*/true,
                         now_us() - t0);
      return entry->result;
    }
    l.unlock();
    // The leader failed: solve independently rather than cascading the
    // failure to every merged follower.
    auto res = solve(q, key, try_repair);
    cache_.insert(key, res);
    rollup_.note_query(q.tenant, false, false, now_us() - t0);
    return res;
  }

  // Leadership double-check: miss → register is not atomic, so the previous
  // leader may have cached this key and left in the gap. Re-probing here
  // makes "N identical queries cost one solve" a guarantee, not a likelihood.
  if (auto hit = cache_.lookup(key)) {
    {
      std::lock_guard<std::mutex> g(inflight_mu_);
      inflight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> l(entry->mu);
      entry->result = hit;
      entry->done = true;
    }
    entry->cv.notify_all();
    rollup_.note_query(q.tenant, /*cache_hit=*/true, /*merged=*/false,
                       now_us() - t0);
    return hit;
  }

  std::shared_ptr<const session_result> res;
  try {
    res = solve(q, key, try_repair);
  } catch (...) {
    {
      std::lock_guard<std::mutex> g(inflight_mu_);
      inflight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> l(entry->mu);
      entry->failed = true;
      entry->done = true;
    }
    entry->cv.notify_all();
    throw;
  }

  cache_.insert(key, res);
  {
    // Erase after the cache insert so a request arriving in between finds
    // one or the other — never a gap that would duplicate the solve.
    std::lock_guard<std::mutex> g(inflight_mu_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> l(entry->mu);
    entry->result = res;
    entry->done = true;
  }
  entry->cv.notify_all();

  if (res->warm_repair)
    rollup_.note_repair(q.tenant);
  else
    rollup_.note_solve(q.tenant);
  rollup_.note_query(q.tenant, /*cache_hit=*/false, /*merged=*/false,
                     now_us() - t0);
  return res;
}

std::shared_ptr<const session_result> server::solve(const serve::query& q,
                                                    const cache_key& key,
                                                    bool try_repair) {
  // Fused-plan hook point. Admission currently merges only *identical*
  // queries (same version/algo/params, via inflight_ above); each leader
  // checks out one single-algorithm session here. pattern::fuse (see
  // algo::fused_triple_solver) makes the stronger batching legal: leaders
  // for *distinct* sources — or distinct member algorithms over the same
  // snapshot — could be grouped behind one fused solve, since per-member
  // sources need not coincide and idle members self-reject on the wire.
  // Plumbing that in means a fused session kind in the pool keyed on the
  // member set plus a small admission window to gather co-resident
  // leaders; the solve below is the single point such a batch would
  // replace.
  session_pool::lease lease = pool_->checkout(q.algo);
  session_result r = (try_repair && !last_batch_.empty())
                         ? lease->repair(q.params, last_batch_)
                         : lease->run(q.params);
  DPG_ASSERT_MSG(r.graph_version == key.version,
                 "session produced a result for the wrong topology version");
  return std::make_shared<const session_result>(std::move(r));
}

void server::apply_mutation(std::span<const graph::edge> added,
                            std::span<const graph::edge> removed,
                            std::uint64_t tenant) {
  // A bad batch throws before anything changes: version, cache and
  // last_batch_ stay as they were, and the server keeps serving.
  validate_endpoints(added, g_->num_vertices(), "added");
  validate_endpoints(removed, g_->num_vertices(), "removed");
  std::unique_lock<std::shared_mutex> topo(topo_mu_);
  validate_removals(*g_, added, removed);
  // The batch repairs *from* the pre-mutation version; additions apply
  // before removals so a batch may remove an edge it just added.
  last_batch_.base_version = g_->version();
  if (!added.empty()) g_->apply_edges(added);
  if (!removed.empty()) g_->remove_edges(g_->resolve_edges(removed));
  cache_.invalidate_stale(g_->version());
  last_batch_.added.assign(added.begin(), added.end());
  last_batch_.removed.assign(removed.begin(), removed.end());
  rollup_.note_mutation(tenant);
}

void server::apply_edges(std::span<const graph::edge> extra,
                         std::uint64_t tenant) {
  apply_mutation(extra, {}, tenant);
}

void server::remove_edges(std::span<const graph::edge> victims,
                          std::uint64_t tenant) {
  apply_mutation({}, victims, tenant);
}

std::string server::serving_summary() {
  // Retire the warm sessions so their registries are folded into the
  // rollup exactly once, then re-open the pool (subsequent queries rebuild
  // warmth). Outstanding leases fold in whenever they retire.
  pool_->drain();
  pool_->reopen();
  return rollup_.summary();
}

}  // namespace dpg::serve
