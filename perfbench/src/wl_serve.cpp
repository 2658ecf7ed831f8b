// Workload serve-mixed: R-MAT scale 13, symmetrized and simplified, behind
// one serve::server with 2-rank sessions, driven as a closed loop by 2
// client threads (each sends its next request when the previous returns).
//
//   reads   query() from distinct sources of the giant component, 80% SSSP
//           and 20% BFS, so the result cache never answers;
//   writes  client 0, every 25th op: apply_mutation() deleting 8 and adding
//           8 undirected pairs, then repair_query() for a standing CC and a
//           standing k-core query (both must repair warm).
//
// Every served result is fingerprinted and checked after the run against
// the oracle recomputed on the edge set of the version it is pinned to.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "algo/baselines.hpp"
#include "algo/sessions.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace ampp = dpg::ampp;
namespace graph = dpg::graph;
namespace pmap = dpg::pmap;
namespace algo = dpg::algo;
namespace serve = dpg::serve;
using graph::vertex_id;

constexpr ampp::rank_t kRanks = 2;
constexpr int kClients = 2;
constexpr std::uint64_t kWriteEvery = 25;  ///< client 0's every 25th op writes
constexpr int kPairsPerWrite = 8;          ///< deleted and added undirected pairs
constexpr std::uint64_t kBfsPercent = 20;

using pair_set = std::set<std::pair<vertex_id, vertex_id>>;

pmap::edge_property_map<double> make_weights(const graph::distributed_graph& g,
                                             std::uint64_t ws) {
  return pmap::edge_property_map<double>(g, [ws](const graph::edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, ws, 100.0);
  });
}

/// Both directed halves of every undirected pair.
std::vector<graph::edge> edges_of(const pair_set& pairs) {
  std::vector<graph::edge> out;
  out.reserve(pairs.size() * 2);
  for (const auto& [u, v] : pairs) {
    out.push_back({u, v});
    out.push_back({v, u});
  }
  return out;
}

/// Seeded mutation stream over a simple symmetric graph: each batch deletes
/// present pairs and adds absent ones, so the graph stays simple and
/// symmetric (the k-core maintainer's domain).
struct edge_stream {
  vertex_id n;
  std::vector<std::pair<vertex_id, vertex_id>> pairs;
  pair_set present;
  dpg::xoshiro256ss rng;

  edge_stream(vertex_id n_, const pair_set& base, std::uint64_t seed)
      : n(n_), pairs(base.begin(), base.end()), present(base), rng(seed) {}

  void next(std::vector<graph::edge>& adds, std::vector<graph::edge>& dels) {
    adds.clear();
    dels.clear();
    for (int i = 0; i < kPairsPerWrite; ++i) {
      const std::size_t idx = static_cast<std::size_t>(rng.below(pairs.size()));
      const auto [u, v] = pairs[idx];
      pairs[idx] = pairs.back();
      pairs.pop_back();
      present.erase({u, v});
      dels.push_back({u, v});
      dels.push_back({v, u});
    }
    for (int i = 0; i < kPairsPerWrite; ++i) {
      vertex_id u = 0, v = 0;
      do {
        u = rng.below(n);
        v = rng.below(n);
        if (u > v) std::swap(u, v);
      } while (u == v || present.contains({u, v}));
      present.insert({u, v});
      pairs.push_back({u, v});
      adds.push_back({u, v});
      adds.push_back({v, u});
    }
  }
};

struct inputs {
  vertex_id n = 0;
  std::uint64_t weight_seed = 0;
  pair_set base;
  std::unique_ptr<graph::distributed_graph> g;
  std::unique_ptr<pmap::edge_property_map<double>> w;
  std::unique_ptr<serve::server> srv;
  std::vector<vertex_id> sources;  ///< giant-component vertices, shuffled
  double generate_s = 0, build_s = 0;
};

const serve::query kStandingCc{.algo = serve::algorithm::cc};
const serve::query kStandingKcore{.algo = serve::algorithm::kcore};

std::unique_ptr<inputs> set_up(std::uint64_t seed, unsigned scale, outcome& out) {
  auto in = std::make_unique<inputs>();
  in->n = vertex_id{1} << scale;
  in->weight_seed = dpg::substream_seed(seed, 2);
  std::vector<graph::edge> edges;
  in->generate_s = time_s([&] {
    span s("graph.generate");
    graph::rmat_params p;
    p.scale = scale;
    p.edge_factor = 8;
    edges = graph::simplify(graph::symmetrize(graph::rmat(p, dpg::substream_seed(seed, 1))));
    for (const graph::edge& e : edges)
      if (e.src < e.dst) in->base.insert({e.src, e.dst});
  });
  in->build_s = time_s([&] {
    span s("graph.build");
    in->g = std::make_unique<graph::distributed_graph>(
        in->n, edges, graph::distribution::cyclic(in->n, kRanks));
  });
  {
    span s("pattern.pmap");
    in->w = std::make_unique<pmap::edge_property_map<double>>(
        make_weights(*in->g, in->weight_seed));
  }
  {
    span s("serve.server");
    in->srv = std::make_unique<serve::server>(
        *in->g, *in->w, serve::server_config{.machine = {.n_ranks = kRanks}});
  }
  // Cold solves pin the standing queries' sessions, so every later write
  // can repair warm; the CC labels give the giant component.
  std::shared_ptr<const serve::session_result> cc;
  {
    span s("serve.query");
    cc = in->srv->query(kStandingCc);
    in->srv->query(kStandingKcore);
  }
  std::map<std::uint64_t, std::size_t> sizes;
  for (const std::uint64_t label : cc->values) ++sizes[label];
  std::uint64_t giant = 0;
  for (const auto& [label, size] : sizes)
    if (size > sizes[giant]) giant = label;
  for (vertex_id v = 0; v < in->n; ++v)
    if (cc->values[v] == giant) in->sources.push_back(v);
  dpg::xoshiro256ss rng(dpg::substream_seed(seed, 4));
  for (std::size_t i = in->sources.size(); i > 1; --i)
    std::swap(in->sources[i - 1], in->sources[rng.below(i)]);
  out.check(in->sources.size() > 1, "giant component has more than one vertex");
  return in;
}

/// One served result, kept as a fingerprint for the after-run oracle check.
struct served {
  std::uint64_t version;
  serve::algorithm algo;
  vertex_id source;
  std::uint64_t fp;
};

struct mutation_record {
  std::uint64_t version_after;
  std::vector<graph::edge> adds, dels;
};

/// What one client thread measured.
struct client_log {
  std::vector<double> read_ms, sssp_ms, bfs_ms, mutation_ms, repair_ms;
  std::vector<served> results;
  std::vector<std::string> failures;
  std::uint64_t ops = 0, repairs = 0, warm = 0;
};

/// The closed-loop clients. Both share the source cursor; only
/// client 0 mutates, so it owns the stream and the mutation log.
struct closed_loop {
  inputs& in;
  edge_stream stream;
  std::vector<mutation_record> log;
  std::atomic<std::uint64_t> next_source{0};
  std::uint64_t seed;

  closed_loop(inputs& i, std::uint64_t s)
      : in(i), stream(i.n, i.base, dpg::substream_seed(s, 5)), seed(s) {}

  /// Runs both clients; each stops after `max_ops[c]` ops or once
  /// `budget_s` has passed. Returns the loop's wall time.
  double run(std::vector<client_log>& logs, const std::vector<std::uint64_t>& max_ops,
             double budget_s, std::uint64_t min_ops) {
    const auto t0 = clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] { client(c, logs[c], max_ops[c], budget_s, min_ops, t0); });
    for (std::thread& t : threads) t.join();
    return seconds_since(t0);
  }

  void client(int c, client_log& lg, std::uint64_t max_ops, double budget_s,
              std::uint64_t min_ops, clock::time_point t0) {
    span root("bench.client");
    dpg::xoshiro256ss rng(dpg::substream_seed(seed, 10 + static_cast<std::uint64_t>(c)) +
                          lg.ops);
    const auto tenant = static_cast<std::uint64_t>(c);
    std::vector<graph::edge> adds, dels;
    for (std::uint64_t i = lg.ops; i < max_ops; ++i) {
      if (i >= min_ops && seconds_since(t0) >= budget_s) break;
      try {
        if (c == 0 && i % kWriteEvery == kWriteEvery - 1)
          write(lg, adds, dels, tenant);
        else
          read(lg, rng, tenant);
      } catch (const std::exception& e) {
        lg.failures.push_back(std::string("client op: ") + e.what());
      }
      lg.ops = i + 1;
    }
  }

  void read(client_log& lg, dpg::xoshiro256ss& rng, std::uint64_t tenant) {
    const vertex_id src = in.sources[next_source.fetch_add(1) % in.sources.size()];
    const serve::algorithm a =
        rng.below(100) < kBfsPercent ? serve::algorithm::bfs : serve::algorithm::sssp;
    std::shared_ptr<const serve::session_result> r;
    const double ms = 1e3 * time_s([&] {
      span s("serve.query");
      r = in.srv->query({.algo = a, .params = {.source = src}, .tenant = tenant});
    });
    lg.read_ms.push_back(ms);
    (a == serve::algorithm::sssp ? lg.sssp_ms : lg.bfs_ms).push_back(ms);
    lg.results.push_back({r->graph_version, a, src, fingerprint(r->values)});
  }

  void write(client_log& lg, std::vector<graph::edge>& adds, std::vector<graph::edge>& dels,
             std::uint64_t tenant) {
    stream.next(adds, dels);
    lg.mutation_ms.push_back(1e3 * time_s([&] {
      span s("serve.apply_mutation");
      in.srv->apply_mutation(adds, dels, tenant);
    }));
    log.push_back({in.srv->version(), adds, dels});
    for (const serve::query& q : {kStandingCc, kStandingKcore}) {
      std::shared_ptr<const serve::session_result> r;
      lg.repair_ms.push_back(1e3 * time_s([&] {
        span s("serve.repair_query");
        r = in.srv->repair_query(q);
      }));
      ++lg.repairs;
      lg.warm += r->warm_repair ? 1 : 0;
      if (!r->warm_repair)
        lg.failures.push_back(std::string(serve::algorithm_name(q.algo)) +
                              " repair fell back to a cold solve");
      lg.results.push_back({r->graph_version, q.algo, 0, fingerprint(r->values)});
    }
  }
};

/// The oracle fingerprint of one query on a graph.
std::uint64_t oracle(const graph::distributed_graph& g, const pmap::edge_property_map<double>& w,
                     serve::algorithm a, vertex_id src) {
  const vertex_id n = g.num_vertices();
  std::vector<std::uint64_t> words(n);
  switch (a) {
    case serve::algorithm::sssp: {
      const auto d = algo::dijkstra(g, w, src);
      for (vertex_id v = 0; v < n; ++v) words[v] = std::bit_cast<std::uint64_t>(d[v]);
      break;
    }
    case serve::algorithm::bfs: {
      const auto lv = algo::bfs_levels(g, src);
      for (vertex_id v = 0; v < n; ++v)
        words[v] = lv[v] < 0 ? n : static_cast<std::uint64_t>(lv[v]);
      break;
    }
    case serve::algorithm::cc: {
      const auto labels = algo::cc_union_find(g);
      for (vertex_id v = 0; v < n; ++v) words[v] = labels[v];
      break;
    }
    case serve::algorithm::kcore: {
      words = algo::kcore_peel(g);
      break;
    }
    case serve::algorithm::pagerank: return 0;
  }
  return fingerprint(words);
}

/// Replays the mutation log and checks every served result against the
/// oracle on the edge set of the version it is pinned to. Returns the
/// wall time of every sequential Dijkstra it ran: the denominator of the
/// served COST ratio, one sample per served SSSP query.
std::vector<double> verify(const inputs& in, std::uint64_t v0,
                           const std::vector<mutation_record>& log,
                           std::vector<served>& results, outcome& out) {
  span root("bench.verify");
  span s("verify.served");
  std::sort(results.begin(), results.end(),
            [](const served& a, const served& b) { return a.version < b.version; });
  pair_set pairs = in.base;
  std::size_t applied = 0;
  std::unique_ptr<graph::distributed_graph> g;
  std::unique_ptr<pmap::edge_property_map<double>> w;
  std::uint64_t built = static_cast<std::uint64_t>(-1);
  std::vector<double> dijkstra_s;
  for (const served& r : results) {
    if (r.version != built) {
      if (r.version < v0) {
        out.fail("result pinned to a version before the run");
        continue;
      }
      while (applied < log.size() && log[applied].version_after <= r.version) {
        for (const graph::edge& e : log[applied].adds)
          if (e.src < e.dst) pairs.insert({e.src, e.dst});
        for (const graph::edge& e : log[applied].dels)
          if (e.src < e.dst) pairs.erase({e.src, e.dst});
        ++applied;
      }
      w.reset();
      g = std::make_unique<graph::distributed_graph>(in.n, edges_of(pairs),
                                                     graph::distribution::cyclic(in.n, 1));
      w = std::make_unique<pmap::edge_property_map<double>>(make_weights(*g, in.weight_seed));
      built = r.version;
    }
    std::uint64_t expected = 0;
    const double oracle_s = time_s([&] { expected = oracle(*g, *w, r.algo, r.source); });
    if (r.algo == serve::algorithm::sssp) dijkstra_s.push_back(oracle_s);
    if (expected != r.fp)
      out.fail(std::string("served ") + serve::algorithm_name(r.algo) + " from " +
               std::to_string(r.source) + " differs from the oracle at version " +
               std::to_string(r.version));
  }
  return dijkstra_s;
}

/// Cold session construction + solve against a warm pool checkout + solve,
/// at this workload's scale, through the public session API. Results are
/// checked against Dijkstra on the live graph.
struct session_probe {
  std::vector<double> cold_ms, warm_ms, construct_ms;
};

session_probe probe_sessions(inputs& in, int reps, outcome& out) {
  span root("bench.probe");
  session_probe p;
  algo::session_env env;
  env.g = in.g.get();
  env.weights = in.w.get();
  env.machine = {.n_ranks = kRanks};
  env.pool = std::make_shared<ampp::wire_pool>(kRanks);
  const vertex_id src = in.sources.front();
  std::vector<std::uint64_t> ref(in.n);
  {
    span s("verify.oracle");
    const auto d = algo::dijkstra(*in.g, *in.w, src);
    for (vertex_id v = 0; v < in.n; ++v) ref[v] = std::bit_cast<std::uint64_t>(d[v]);
  }
  const auto check = [&](const serve::session_result& r, const char* what) {
    span s("verify.compare");
    out.check(r.values == ref, std::string(what) + " session result differs from dijkstra");
  };
  for (int i = 0; i < reps; ++i) {
    std::unique_ptr<serve::solver_session> s;
    serve::session_result r;
    const double construct = time_s([&] {
      span sp("pattern.instantiate");
      s = algo::make_solver_session(serve::algorithm::sssp, env);
    });
    const double solve = time_s([&] {
      span sp("serve.session_run");
      r = s->run({.source = src});
    });
    p.construct_ms.push_back(construct * 1e3);
    p.cold_ms.push_back((construct + solve) * 1e3);
    check(r, "cold");
  }
  serve::session_pool pool(
      [&env](serve::algorithm a) { return algo::make_solver_session(a, env); }, 1);
  pool.checkout(serve::algorithm::sssp);  // warms the pool
  for (int i = 0; i < reps; ++i) {
    serve::session_result r;
    p.warm_ms.push_back(1e3 * time_s([&] {
      span sp("serve.session_run");
      auto lease = pool.checkout(serve::algorithm::sssp);
      r = lease->run({.source = src});
    }));
    check(r, "warm");
  }
  return p;
}

std::vector<double> concat(const std::vector<client_log>& logs,
                           std::vector<double> client_log::*field) {
  std::vector<double> out;
  for (const client_log& lg : logs) out.insert(out.end(), (lg.*field).begin(), (lg.*field).end());
  return out;
}

}  // namespace

void run_serve_mixed(const options& opt, outcome& out) {
  const unsigned scale = opt.smoke ? 9 : 13;
  print_provenance(opt, scale);
  tracer& tr = global_tracer();
  tr.enable(opt.trace);

  const int setups = opt.trace || opt.smoke ? 1 : 5;
  std::vector<double> setup_times;
  std::unique_ptr<inputs> in;
  for (int i = 0; i < setups; ++i) {
    in.reset();
    setup_times.push_back(time_s([&] {
      span root("bench.setup");
      in = set_up(opt.seed, scale, out);
    }));
  }
  serve::server& srv = *in->srv;
  const std::uint64_t v0 = srv.version();
  const std::uint64_t created0 = srv.pool().created();

  closed_loop clients(*in, opt.seed);
  std::vector<client_log> logs(kClients);
  const std::uint64_t min_ops = opt.smoke ? kWriteEvery : 2 * kWriteEvery;
  const std::vector<std::uint64_t> unbounded(kClients, static_cast<std::uint64_t>(-1));
  double untraced_s = 0, traced_s = 0;
  if (!opt.trace) {
    untraced_s = clients.run(logs, unbounded, opt.seconds, min_ops);
  } else {
    // The same op counts untraced, then traced; per-layer latencies come
    // from the traced pass.
    tr.enable(false);
    untraced_s = clients.run(logs, unbounded, opt.seconds / 2, min_ops);
    std::vector<std::uint64_t> counts;
    for (client_log& lg : logs) {
      counts.push_back(2 * lg.ops);
      lg.read_ms.clear();
      lg.sssp_ms.clear();
      lg.bfs_ms.clear();
      lg.mutation_ms.clear();
      lg.repair_ms.clear();
    }
    tr.enable(true);
    traced_s = clients.run(logs, counts, 1e9, 0);
  }

  std::vector<served> results;
  std::uint64_t ops = 0, repairs = 0, warm = 0;
  for (const client_log& lg : logs) {
    results.insert(results.end(), lg.results.begin(), lg.results.end());
    ops += lg.ops;
    repairs += lg.repairs;
    warm += lg.warm;
  }
  out.attempted += ops + repairs;
  for (const client_log& lg : logs)
    for (const std::string& f : lg.failures) out.fail(f);
  const std::vector<double> read_ms = concat(logs, &client_log::read_ms);
  const std::vector<double> repair_ms = concat(logs, &client_log::repair_ms);

  session_probe probe;
  if (opt.trace) probe = probe_sessions(*in, opt.smoke ? 2 : 10, out);
  const std::vector<double> dijkstra_s = verify(*in, v0, clients.log, results, out);

  if (!opt.trace) {
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("primary_ms", median(read_ms), "ms");
    out.add("ops_per_s", static_cast<double>(ops + repairs) / untraced_s, "1/s");
    return;
  }

  // Per-context epoch time: the sessions' registries fold into the rollup
  // when the pool retires them.
  srv.serving_summary();
  double sssp_solve_ms = 0, bfs_solve_ms = 0;
  std::uint64_t sssp_queries = 0, bfs_queries = 0;
  for (const client_log& lg : logs)
    for (const served& r : lg.results) {
      sssp_queries += r.algo == serve::algorithm::sssp ? 1 : 0;
      bfs_queries += r.algo == serve::algorithm::bfs ? 1 : 0;
    }
  for (const auto& row : srv.obs().contexts()) {
    if (row.label == "sssp" && sssp_queries > 0)
      sssp_solve_ms = static_cast<double>(row.wall_us) / 1e3 / static_cast<double>(sssp_queries);
    if (row.label == "bfs" && bfs_queries > 0)
      bfs_solve_ms = static_cast<double>(row.wall_us) / 1e3 / static_cast<double>(bfs_queries);
  }
  std::uint64_t merged = 0;
  for (int c = 0; c < kClients; ++c) merged += srv.obs().tenant(static_cast<std::uint64_t>(c)).merged;

  out.add("graph.generate_s", in->generate_s, "s");
  out.add("graph.build_s", in->build_s, "s");
  out.add("graph.overlay_bytes", static_cast<double>(in->g->overlay_bytes()), "bytes");
  out.add("graph.tombstone_bytes", static_cast<double>(in->g->tombstone_bytes()), "bytes");
  out.add("pattern.instantiate_ms", median(probe.construct_ms), "ms");
  out.add("algo.dijkstra_s", median(dijkstra_s), "s");
  out.add("algo.cost_x",
          median(concat(logs, &client_log::sssp_ms)) / (median(dijkstra_s) * 1e3), "x");
  out.add("serve.solve_ms.sssp", sssp_solve_ms, "ms");
  out.add("serve.solve_ms.bfs", bfs_solve_ms, "ms");
  out.add("serve.query_p99_ms", quantile(read_ms, 0.99), "ms");
  out.add("serve.repair_ms", median(repair_ms), "ms");
  out.add("serve.mutation_p50_ms", median(concat(logs, &client_log::mutation_ms)), "ms");
  out.add("serve.warm_repair_frac",
          repairs == 0 ? 0.0 : static_cast<double>(warm) / static_cast<double>(repairs),
          "frac");
  out.add("serve.sessions_created", static_cast<double>(srv.pool().created() - created0), "count");
  out.add("serve.merged", static_cast<double>(merged), "count");
  out.add("serve.session_cold_ms", median(probe.cold_ms), "ms");
  out.add("serve.session_warm_ms", median(probe.warm_ms), "ms");
  out.add("serve.cache_hit_frac", srv.cache().hit_rate(), "frac");
  add_transport_probes(out, opt.smoke ? 20 : 200);
  add_trace_metrics(out, untraced_s, traced_s);
}

}  // namespace perfbench
