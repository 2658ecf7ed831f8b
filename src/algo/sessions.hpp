// Concrete solver sessions: the algorithm side of the serving layer's
// uniform session interface (serve/session.hpp).
//
// Each wrapper bundles what used to be assembled by hand at every call
// site — a transport, a solver with its compiled plan and property maps,
// and the strategy/compile options — into one warm object pinned to a
// graph::snapshot_view. Construction is the expensive step (plan
// compilation, full-size maps, a transport's rank states); run()/repair()
// are then pure query execution, which is what makes pooling profitable.
//
// All session transports share one ampp::wire_pool (the process-wide
// envelope pool) while keeping lanes, counters, and termination-detection
// state per-context — the transport carve-up this PR introduces.
#pragma once

#include <memory>
#include <utility>

#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/kcore.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "algo/streaming.hpp"
#include "serve/session.hpp"

namespace dpg::algo {

/// Everything a session factory needs: the shared graph and weights, the
/// split transport knobs (machine topology vs tuning), the shared envelope
/// pool, and the strategy options applied to every session.
struct session_env {
  const graph::distributed_graph* g = nullptr;
  pmap::edge_property_map<double>* weights = nullptr;  ///< sssp only
  ampp::machine_config machine{};
  ampp::tuning_config tuning{};
  std::shared_ptr<ampp::wire_pool> pool;  ///< may be null (per-session pools)
  strategy::options sopts{};
};

namespace detail {

/// Shared result assembly: strategy counters + snapshot pin + convergence.
inline serve::session_result make_result(serve::algorithm a,
                                         const graph::snapshot_view& snap,
                                         const strategy::result& res,
                                         const strategy::options& sopts,
                                         bool warm_repair) {
  serve::session_result out;
  out.algo = a;
  out.graph_version = snap.version();
  out.converged = res.rounds < static_cast<std::uint64_t>(sopts.max_rounds);
  out.warm_repair = warm_repair;
  out.rounds = res.rounds;
  out.modifications = res.modifications;
  out.stats_delta = res.stats_delta;
  return out;
}

}  // namespace detail

/// SSSP session: delta > 0 selects Δ-stepping, otherwise the chaotic
/// fixed-point schedule. Values are distance doubles as bit patterns.
/// repair() absorbs one mutation batch warm: pure additions re-relax
/// monotonically from the added edges' sources; any deletion first runs
/// the solver's decremental invalidation (support-closure walk at the
/// boundary) and re-relaxes from the returned frontier plus the addition
/// seeds. Sound only when this session's previous run solved the same
/// params at the batch's base version (checked; falls back to run()).
class sssp_session final : public serve::solver_session {
 public:
  explicit sssp_session(const session_env& env)
      : solver_session(serve::algorithm::sssp, graph::snapshot_view(*env.g)),
        env_(env),
        tp_(env.machine, env.tuning, env.pool),
        solver_(tp_, *env.g, *env.weights) {}

  serve::session_result run(const serve::query_params& p) override {
    snap_.refresh();
    strategy::result res{};
    // Measure the whole quiescent run, not the strategy's inner window: a
    // fault injected inside the strategy can be recovered during epoch
    // teardown, and only the quiescent delta satisfies the conservation
    // laws the sim harness asserts (drops == retries, sent == handled).
    obs::stats_scope sc(tp_.obs());
    tp_.run([&](ampp::transport_context& ctx) {
      const strategy::result r =
          p.delta > 0.0 ? solver_.run_delta(ctx, p.source, p.delta, env_.sopts)
                        : solver_.run_fixed_point(ctx, p.source, env_.sopts);
      if (ctx.rank() == 0) res = r;
    });
    res.stats_delta = sc.finish();
    last_ = p;
    last_version_ = snap_.version();
    has_state_ = true;
    return pack(res, false);
  }

  serve::session_result repair(const serve::query_params& p,
                               const serve::mutation_batch& m) override {
    // Sound only on top of *this* session's state for the same query, and
    // only when that state is exactly at the batch's base version. The
    // batch covers one mutation only: a pooled session whose last run
    // predates an *earlier* mutation would replay the newest edges but
    // never relax the older ones, producing too-large distances stamped
    // with the live version. Any mismatch falls back to a full solve, so a
    // pool can still hand any session to a repair request.
    if (!has_state_ || !(last_ == p) || p.delta > 0.0 ||
        last_version_ != m.base_version)
      return run(p);
    snap_.refresh();
    std::vector<graph::vertex_id> seeds;
    // Deletions invalidate before anything re-relaxes: the support-closure
    // walk is a boundary operation (it predates the collective run below).
    if (!m.removed.empty()) seeds = solver_.invalidate_unsupported();
    for (const graph::edge& e : m.added) seeds.push_back(e.src);
    strategy::result res{};
    obs::stats_scope sc(tp_.obs());
    tp_.run([&](ampp::transport_context& ctx) {
      const strategy::result r = solver_.repair(ctx, seeds, env_.sopts);
      if (ctx.rank() == 0) res = r;
    });
    res.stats_delta = sc.finish();
    last_version_ = snap_.version();
    return pack(res, true);
  }

  const obs::registry& obs() const override { return tp_.obs(); }
  sssp_solver& solver() { return solver_; }

 private:
  serve::session_result pack(const strategy::result& res, bool warm) {
    serve::session_result out =
        detail::make_result(algo(), snap_, res, env_.sopts, warm);
    const graph::vertex_id n = snap_.num_vertices();
    out.values.resize(n);
    auto& d = solver_.dist();
    for (graph::vertex_id v = 0; v < n; ++v)
      out.values[v] = std::bit_cast<std::uint64_t>(d[v]);
    return out;
  }

  session_env env_;
  ampp::transport tp_;
  sssp_solver solver_;
  serve::query_params last_{};
  std::uint64_t last_version_ = 0;
  bool has_state_ = false;
};

/// BFS session: delta > 0 selects the level-synchronous schedule (bucket
/// per level), otherwise chaotic fixed point. Values are depths.
class bfs_session final : public serve::solver_session {
 public:
  explicit bfs_session(const session_env& env)
      : solver_session(serve::algorithm::bfs, graph::snapshot_view(*env.g)),
        env_(env),
        tp_(env.machine, env.tuning, env.pool),
        solver_(tp_, *env.g) {}

  serve::session_result run(const serve::query_params& p) override {
    snap_.refresh();
    strategy::result res{};
    obs::stats_scope sc(tp_.obs());
    tp_.run([&](ampp::transport_context& ctx) {
      const strategy::result r =
          p.delta > 0.0 ? solver_.run_level_sync(ctx, p.source, env_.sopts)
                        : solver_.run_fixed_point(ctx, p.source, env_.sopts);
      if (ctx.rank() == 0) res = r;
    });
    res.stats_delta = sc.finish();
    serve::session_result out =
        detail::make_result(algo(), snap_, res, env_.sopts, false);
    const graph::vertex_id n = snap_.num_vertices();
    out.values.resize(n);
    auto& d = solver_.depth();
    for (graph::vertex_id v = 0; v < n; ++v) out.values[v] = d[v];
    return out;
  }

  const obs::registry& obs() const override { return tp_.obs(); }
  bfs_solver& solver() { return solver_; }

 private:
  session_env env_;
  ampp::transport tp_;
  bfs_solver solver_;
};

/// CC session: whole-graph, so query_params are ignored (every CC query
/// with any params is the same query — the cache key still distinguishes
/// them, which is harmless). Values are *canonical* component labels (the
/// minimum member id), so the cold distributed solve and the warm
/// union-find repair below are bit-identical — the solver's raw labels are
/// schedule-dependent representatives, canonicalized here after solve().
/// repair() rides the cc_maintainer: additions union, deletions recompute
/// only the affected components.
class cc_session final : public serve::solver_session {
 public:
  explicit cc_session(const session_env& env)
      : solver_session(serve::algorithm::cc, graph::snapshot_view(*env.g)),
        g_(env.g),
        solver_(*env.g,
                ampp::transport_config::join(env.machine, env.tuning),
                env.pool) {}

  serve::session_result run(const serve::query_params&) override {
    snap_.refresh();
    obs::stats_scope sc(solver_.transport().obs());
    solver_.solve();
    serve::session_result out;
    out.algo = algo();
    out.graph_version = snap_.version();
    out.converged = true;  // solve() runs all three phases to completion
    out.rounds = static_cast<std::uint64_t>(solver_.jump_rounds());
    out.modifications = solver_.searches_seeded();
    out.stats_delta = sc.finish();
    const graph::vertex_id n = snap_.num_vertices();
    out.values.resize(n);
    auto& c = solver_.components();
    // Canonicalize: map every solver label to its class's minimum member.
    std::vector<graph::vertex_id> min_of(n, graph::invalid_vertex);
    for (graph::vertex_id v = 0; v < n; ++v)
      if (v < min_of[c[v]]) min_of[c[v]] = v;
    for (graph::vertex_id v = 0; v < n; ++v) out.values[v] = min_of[c[v]];
    // Sync the ride-along maintainer to the just-solved live topology so a
    // later repair can start from it (sequential O(n+m) — noise next to
    // the distributed solve above).
    if (maint_ == nullptr)
      maint_ = std::make_unique<cc_maintainer>(*g_);
    else
      maint_->rebuild();
    maint_version_ = snap_.version();
    return out;
  }

  serve::session_result repair(const serve::query_params& p,
                               const serve::mutation_batch& m) override {
    if (maint_ == nullptr || maint_version_ != m.base_version) return run(p);
    snap_.refresh();
    maint_->apply(m.added, m.removed);
    maint_version_ = snap_.version();
    serve::session_result out;
    out.algo = algo();
    out.graph_version = snap_.version();
    out.converged = true;
    out.warm_repair = true;
    const graph::vertex_id n = snap_.num_vertices();
    out.values.resize(n);
    for (graph::vertex_id v = 0; v < n; ++v) out.values[v] = maint_->label(v);
    return out;
  }

  const obs::registry& obs() const override { return solver_.transport().obs(); }
  cc_solver& solver() { return solver_; }

 private:
  const graph::distributed_graph* g_;
  cc_solver solver_;
  std::unique_ptr<cc_maintainer> maint_;
  std::uint64_t maint_version_ = 0;
};

/// k-core session: whole-graph (params ignored). Values are coreness.
/// Requires a simple symmetric graph — the domain on which the distributed
/// wave peel, the sequential peel, and the streaming maintainer all agree
/// on standard coreness. repair() rides the kcore_maintainer's
/// peel-frontier re-activation (one structural edge at a time).
class kcore_session final : public serve::solver_session {
 public:
  explicit kcore_session(const session_env& env)
      : solver_session(serve::algorithm::kcore, graph::snapshot_view(*env.g)),
        g_(env.g),
        tp_(env.machine, env.tuning, env.pool),
        solver_(tp_, *env.g) {}

  serve::session_result run(const serve::query_params&) override {
    snap_.refresh();
    obs::stats_scope sc(tp_.obs());
    std::uint64_t degeneracy = 0;
    tp_.run([&](ampp::transport_context& ctx) {
      const std::uint64_t d = solver_.run(ctx);
      if (ctx.rank() == 0) degeneracy = d;
    });
    serve::session_result out;
    out.algo = algo();
    out.graph_version = snap_.version();
    out.converged = true;
    out.rounds = degeneracy;  // the peel loop's outer threshold count
    out.stats_delta = sc.finish();
    const graph::vertex_id n = snap_.num_vertices();
    out.values.resize(n);
    auto& c = solver_.coreness();
    for (graph::vertex_id v = 0; v < n; ++v) out.values[v] = c[v];
    if (maint_ == nullptr)
      maint_ = std::make_unique<kcore_maintainer>(*g_);
    else
      maint_->rebuild();
    maint_version_ = snap_.version();
    return out;
  }

  serve::session_result repair(const serve::query_params& p,
                               const serve::mutation_batch& m) override {
    if (maint_ == nullptr || maint_version_ != m.base_version) return run(p);
    snap_.refresh();
    maint_->apply(m.added, m.removed);
    maint_version_ = snap_.version();
    serve::session_result out;
    out.algo = algo();
    out.graph_version = snap_.version();
    out.converged = true;
    out.warm_repair = true;
    const graph::vertex_id n = snap_.num_vertices();
    out.values.resize(n);
    const auto& c = maint_->cores();
    for (graph::vertex_id v = 0; v < n; ++v) out.values[v] = c[v];
    return out;
  }

  const obs::registry& obs() const override { return tp_.obs(); }
  kcore_solver& solver() { return solver_; }

 private:
  const graph::distributed_graph* g_;
  ampp::transport tp_;
  kcore_solver solver_;
  std::unique_ptr<kcore_maintainer> maint_;
  std::uint64_t maint_version_ = 0;
};

/// PageRank session: power iteration, run/rebind only — rank mass has no
/// incremental repair here, so streaming correctness comes from the base
/// class's repair-as-full-solve fallback. `delta` in (0,1) selects the
/// damping factor (default 0.85); values are rank doubles as bit patterns.
class pagerank_session final : public serve::solver_session {
 public:
  static constexpr int kIterations = 20;

  explicit pagerank_session(const session_env& env)
      : solver_session(serve::algorithm::pagerank, graph::snapshot_view(*env.g)),
        tp_(env.machine, env.tuning, env.pool),
        solver_(tp_, *env.g) {}

  serve::session_result run(const serve::query_params& p) override {
    snap_.refresh();
    const double damping = (p.delta > 0.0 && p.delta < 1.0) ? p.delta : 0.85;
    obs::stats_scope sc(tp_.obs());
    tp_.run([&](ampp::transport_context& ctx) {
      solver_.run(ctx, damping, kIterations);
    });
    serve::session_result out;
    out.algo = algo();
    out.graph_version = snap_.version();
    out.converged = true;  // fixed iteration count, always completes
    out.rounds = kIterations;
    out.stats_delta = sc.finish();
    const graph::vertex_id n = snap_.num_vertices();
    out.values.resize(n);
    auto& r = solver_.ranks();
    for (graph::vertex_id v = 0; v < n; ++v)
      out.values[v] = std::bit_cast<std::uint64_t>(r[v]);
    return out;
  }

  const obs::registry& obs() const override { return tp_.obs(); }
  pagerank_solver& solver() { return solver_; }

 private:
  ampp::transport tp_;
  pagerank_solver solver_;
};

/// The session factory the pool and server construct through. Extend here
/// (and in serve::algorithm + serve::session_pool::kAlgos) to front a new
/// algorithm.
inline std::unique_ptr<serve::solver_session> make_solver_session(
    serve::algorithm a, const session_env& env) {
  switch (a) {
    case serve::algorithm::sssp: return std::make_unique<sssp_session>(env);
    case serve::algorithm::bfs: return std::make_unique<bfs_session>(env);
    case serve::algorithm::cc: return std::make_unique<cc_session>(env);
    case serve::algorithm::kcore: return std::make_unique<kcore_session>(env);
    case serve::algorithm::pagerank:
      return std::make_unique<pagerank_session>(env);
  }
  return nullptr;
}

}  // namespace dpg::algo
