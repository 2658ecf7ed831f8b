// Workload rmat17-dense: the rmat17 generator, symmetrized. Each round runs
// parallel-search CC and 20-iteration PageRank (damping 0.85) at 4 ranks
// against cc_union_find and the sequential pagerank, which walk the same
// graph object (so both sides of the COST ratio see one memory layout):
// every edge carries a
// message every PageRank iteration, with no min-reduction and no relax
// fast path. CC labels must equal union-find's canonical labels; PageRank
// must stay within 1e-12 of the sequential ranks.
#include <cmath>
#include <memory>

#include "algo/baselines.hpp"
#include "algo/cc.hpp"
#include "algo/pagerank.hpp"
#include "graph/generators.hpp"
#include "solve.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace ampp = dpg::ampp;
namespace graph = dpg::graph;
namespace algo = dpg::algo;
using graph::vertex_id;

constexpr double kDamping = 0.85;
constexpr int kIterations = 20;
constexpr double kRankTolerance = 1e-12;

struct inputs {
  std::unique_ptr<graph::distributed_graph> g4;
  std::unique_ptr<ampp::transport> tp4;
  std::unique_ptr<algo::cc_solver> cc;
  std::unique_ptr<algo::pagerank_solver> pr;
  double generate_s = 0, build_s = 0, instantiate_s = 0;
};

std::unique_ptr<inputs> set_up(std::uint64_t seed, unsigned scale) {
  auto in = std::make_unique<inputs>();
  std::vector<graph::edge> edges;
  in->generate_s = time_s([&] {
    span s("graph.generate");
    graph::rmat_params p;
    p.scale = scale;
    p.edge_factor = 8;
    edges = graph::symmetrize(graph::rmat(p, dpg::substream_seed(seed, 1)));
  });
  const vertex_id n = vertex_id{1} << scale;
  in->build_s = time_s([&] {
    span s("graph.build");
    in->g4 = std::make_unique<graph::distributed_graph>(n, edges,
                                                        graph::distribution::cyclic(n, 4));
  });
  {
    span s("ampp.transport");
    in->tp4 = std::make_unique<ampp::transport>(ampp::machine_config{.n_ranks = 4},
                                                ampp::tuning_config{});
  }
  in->instantiate_s = time_s([&] {
    span s("pattern.instantiate");
    in->cc = std::make_unique<algo::cc_solver>(*in->g4, ampp::transport_config{.n_ranks = 4});
    in->pr = std::make_unique<algo::pagerank_solver>(*in->tp4, *in->g4);
  });
  return in;
}

struct pass {
  std::vector<double> cc, pr, uf, pr_seq;
  std::vector<double> cost;  ///< per round: PageRank r4 / sequential, adjacent in time
  std::vector<double> td_rounds, epochs;
  std::uint64_t pr_msgs = 0, pr_wire = 0, pr_envs = 0, pr_handled = 0, pr_batch = 0;
  std::uint64_t pr_hits = 0, pr_evictions = 0, pr_edge_passes = 0;
  std::size_t rounds = 0;
  double wall_s = 0;
};

void run_round(inputs& in, pass& p, outcome& out) {
  span root("bench.round");
  const vertex_id n = in.g4->num_vertices();

  guarded(out, "cc r4", [&] {
    obs_scope sc(in.cc->transport().obs());
    p.cc.push_back(time_s([&] {
      span s("algo.cc_solver");
      in.cc->solve();
    }));
    const dpg::obs::stats_snapshot d = sc.finish();
    p.td_rounds.push_back(static_cast<double>(d.core.td_rounds));
    p.epochs.push_back(static_cast<double>(d.core.epochs));
    std::vector<vertex_id> ref;
    p.uf.push_back(time_s([&] {
      span s("algo.cc_union_find");
      ref = algo::cc_union_find(*in.g4);
    }));
    span v("verify.compare");
    // Canonicalize the solver's representatives to each class's minimum
    // member, the union-find label convention.
    auto& comp = in.cc->components();
    std::vector<vertex_id> min_of(n, graph::invalid_vertex);
    for (vertex_id x = 0; x < n; ++x) min_of[comp[x]] = std::min(min_of[comp[x]], x);
    bool same = true;
    for (vertex_id x = 0; x < n && same; ++x) same = min_of[comp[x]] == ref[x];
    out.check(same, "cc labels differ from cc_union_find");
  });

  guarded(out, "pagerank r4", [&] {
    const solve_sample r =
        timed_run(*in.tp4, "strategy.pagerank", [&](ampp::transport_context& ctx) {
          in.pr->run(ctx, kDamping, kIterations);
          return dpg::strategy::result{};
        });
    p.pr.push_back(r.wall_s);
    const auto& c = r.delta.core;
    p.pr_msgs += c.messages_sent;
    p.pr_wire += c.wire_bytes_sent;
    p.pr_envs += c.envelopes_sent;
    p.pr_handled += c.handler_invocations;
    p.pr_batch += c.batch_records;
    p.pr_hits += c.cache_hits;
    p.pr_evictions += c.cache_evictions;
    p.pr_edge_passes += in.g4->num_edges() * kIterations;
    std::vector<double> ref;
    const double seq_s = time_s([&] {
      span s("algo.pagerank");
      ref = algo::pagerank(*in.g4, kDamping, kIterations);
    });
    p.pr_seq.push_back(seq_s);
    p.cost.push_back(r.wall_s / seq_s);
    span v("verify.compare");
    auto& ranks = in.pr->ranks();
    bool close = true;
    for (vertex_id x = 0; x < n && close; ++x)
      close = std::abs(ranks[x] - ref[x]) <= kRankTolerance;
    out.check(close, "pagerank differs from sequential pagerank by more than 1e-12");
  });
}

}  // namespace

void run_rmat_dense(const options& opt, outcome& out) {
  const unsigned scale = opt.smoke ? 11 : 17;
  print_provenance(opt, scale);
  tracer& tr = global_tracer();
  tr.enable(opt.trace);

  const int setups = opt.trace || opt.smoke ? 1 : 3;
  std::vector<double> setup_times;
  std::unique_ptr<inputs> in;
  for (int i = 0; i < setups; ++i) {
    in.reset();
    setup_times.push_back(time_s([&] {
      span root("bench.setup");
      in = set_up(opt.seed, scale);
    }));
  }

  const std::size_t min_rounds = opt.smoke ? 1 : 3;
  const auto run_pass = [&](std::size_t max_rounds, double budget_s) {
    pass p;
    const auto t0 = clock::now();
    while (p.rounds < max_rounds && (p.rounds < min_rounds || seconds_since(t0) < budget_s)) {
      run_round(*in, p, out);
      ++p.rounds;
    }
    p.wall_s = seconds_since(t0);
    return p;
  };

  if (!opt.trace) {
    const pass p = run_pass(static_cast<std::size_t>(-1), opt.seconds);
    const double pr = median(p.pr);
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("primary_ms", pr * 1e3, "ms");
    out.add("ops_per_s",
            static_cast<double>(p.pr.size() + p.cc.size()) / (sum(p.pr) + sum(p.cc)), "1/s");
    return;
  }

  tr.enable(false);
  const pass a = run_pass(static_cast<std::size_t>(-1), opt.seconds / 2);
  tr.enable(true);
  const pass p = run_pass(a.rounds, 1e9);
  add_transport_probes(out, opt.smoke ? 20 : 200);

  out.add("graph.generate_s", in->generate_s, "s");
  out.add("graph.build_s", in->build_s, "s");
  out.add("graph.overlay_bytes", static_cast<double>(in->g4->overlay_bytes()), "bytes");
  out.add("graph.tombstone_bytes", static_cast<double>(in->g4->tombstone_bytes()), "bytes");
  out.add("pattern.instantiate_ms", in->instantiate_s * 1e3, "ms");
  out.add("pattern.relax_per_edge", ratio(p.pr_handled, p.pr_edge_passes), "1/edge");
  out.add("pattern.batch_record_frac", ratio(p.pr_batch, p.pr_handled), "frac");
  out.add("ampp.msgs_per_edge", ratio(p.pr_msgs, p.pr_edge_passes), "1/edge");
  out.add("ampp.wire_bytes_per_edge", ratio(p.pr_wire, p.pr_edge_passes), "B/edge");
  out.add("ampp.records_per_envelope", ratio(p.pr_msgs, p.pr_envs), "1/env");
  out.add("ampp.reduction_hit_frac", ratio(p.pr_hits, p.pr_hits + p.pr_evictions), "frac");
  out.add("ampp.td_rounds", median(p.td_rounds), "count");
  out.add("ampp.epochs", median(p.epochs), "count");
  out.add("algo.pagerank_seq_s", median(p.pr_seq), "s");
  out.add("algo.cc_union_find_s", median(p.uf), "s");
  out.add("algo.cc_r4_s", median(p.cc), "s");
  out.add("algo.cost_x", median(p.cost), "x");
  add_trace_metrics(out, a.wall_s, p.wall_s);
}

}  // namespace perfbench
