// Workload rmat17-sssp: R-MAT scale 17, edge factor 8, hashed weights in
// [1,100], cyclic distribution. Each round takes the next source of a
// seeded list and runs pattern SSSP fixed point at 1 and 4 ranks,
// Δ-stepping (Δ=50) at 4 ranks, the fused SSSP+widest+BFS triple at 4
// ranks, and sequential Dijkstra, checking every distributed result
// against Dijkstra / bfs_levels bit for bit.
#include <cstdio>
#include <memory>

#include "algo/baselines.hpp"
#include "algo/fused.hpp"
#include "algo/sssp.hpp"
#include "graph/generators.hpp"
#include "solve.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace ampp = dpg::ampp;
namespace graph = dpg::graph;
namespace pmap = dpg::pmap;
namespace algo = dpg::algo;
using graph::vertex_id;

constexpr double kDelta = 50.0;
/// Sources: the highest out-degree vertices, in a seeded order, cycled for
/// as many rounds as the run has time for. The chaotic fixed point's work
/// depends on its source; a small pool of top hubs keeps that work about
/// the same from one seed to the next.
constexpr std::size_t kSources = 8;

/// Everything one set-up builds, in dependency order (destroyed in reverse).
struct inputs {
  std::unique_ptr<graph::distributed_graph> g1, g4;
  std::unique_ptr<pmap::edge_property_map<double>> w1, w4, cap4;
  std::unique_ptr<ampp::transport> tp1, tp4, tpf;
  std::unique_ptr<algo::sssp_solver> s1, s4;
  std::unique_ptr<algo::fused_triple_solver> fused;
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
    edges = graph::rmat(p, dpg::substream_seed(seed, 1));
  });
  const vertex_id n = vertex_id{1} << scale;
  in->build_s = time_s([&] {
    span s("graph.build");
    in->g1 = std::make_unique<graph::distributed_graph>(n, edges,
                                                        graph::distribution::cyclic(n, 1));
    in->g4 = std::make_unique<graph::distributed_graph>(n, edges,
                                                        graph::distribution::cyclic(n, 4));
  });
  {
    span s("pattern.pmap");
    const std::uint64_t ws = dpg::substream_seed(seed, 2);
    const std::uint64_t cs = dpg::substream_seed(seed, 3);
    const auto weight = [ws](const graph::edge_handle& e) {
      return graph::edge_weight(e.src, e.dst, ws, 100.0);
    };
    in->w1 = std::make_unique<pmap::edge_property_map<double>>(*in->g1, weight);
    in->w4 = std::make_unique<pmap::edge_property_map<double>>(*in->g4, weight);
    in->cap4 = std::make_unique<pmap::edge_property_map<double>>(
        *in->g4,
        [cs](const graph::edge_handle& e) { return graph::edge_weight(e.src, e.dst, cs, 50.0); });
  }
  {
    span s("ampp.transport");
    in->tp1 = std::make_unique<ampp::transport>(ampp::machine_config{.n_ranks = 1},
                                                ampp::tuning_config{});
    in->tp4 = std::make_unique<ampp::transport>(ampp::machine_config{.n_ranks = 4},
                                                ampp::tuning_config{});
    in->tpf = std::make_unique<ampp::transport>(ampp::machine_config{.n_ranks = 4},
                                                ampp::tuning_config{});
  }
  in->instantiate_s = time_s([&] {
    span s("pattern.instantiate");
    in->s1 = std::make_unique<algo::sssp_solver>(*in->tp1, *in->g1, *in->w1);
    in->s4 = std::make_unique<algo::sssp_solver>(*in->tp4, *in->g4, *in->w4);
    in->fused = std::make_unique<algo::fused_triple_solver>(*in->tpf, *in->g4, *in->w4,
                                                            *in->cap4);
  });
  return in;
}

std::vector<vertex_id> pick_sources(const graph::distributed_graph& g, std::uint64_t seed) {
  std::vector<vertex_id> hubs(g.num_vertices());
  for (vertex_id v = 0; v < hubs.size(); ++v) hubs[v] = v;
  std::stable_sort(hubs.begin(), hubs.end(), [&](vertex_id a, vertex_id b) {
    return g.out_degree(a) > g.out_degree(b);
  });
  hubs.resize(std::min(hubs.size(), kSources));
  dpg::xoshiro256ss rng(dpg::substream_seed(seed, 4));
  for (std::size_t i = hubs.size(); i > 1; --i) std::swap(hubs[i - 1], hubs[rng.below(i)]);
  return hubs;
}

/// Per-pass accumulators: one entry per round for times, sums for counts.
struct pass {
  std::vector<double> fp1, fp4, dl4, fu4, dij;
  std::vector<double> cost;  ///< per round: fp r1 / Dijkstra, adjacent in time
  std::vector<double> td_rounds, epochs, delta_epochs, strategy_rounds;
  std::uint64_t fp_handled = 0, fp_mods = 0, fp_reached = 0, fp_batch = 0;
  std::uint64_t fp_hits = 0, fp_evictions = 0, fp_edges = 0;
  std::uint64_t r4_msgs = 0, r4_wire = 0, r4_envs = 0, r4_edges = 0;
  std::size_t rounds = 0;
  double wall_s = 0;
};

void run_round(inputs& in, vertex_id src, pass& p, outcome& out) {
  span root("bench.round");
  const std::uint64_t m = in.g1->num_edges();
  std::vector<double> ref;
  const double dijkstra_s = time_s([&] {
    span s("algo.dijkstra");
    ref = algo::dijkstra(*in.g1, *in.w1, src);
  });
  p.dij.push_back(dijkstra_s);
  std::vector<std::int64_t> levels;
  std::uint64_t reached = 0;
  {
    span s("verify.oracle");
    levels = algo::bfs_levels(*in.g1, src);
    for (const double d : ref) reached += d != algo::sssp_solver::infinity ? 1 : 0;
  }
  const std::string tag = " (source " + std::to_string(src) + ")";

  const auto fixed_point = [&](ampp::transport& tp, algo::sssp_solver& s, const char* name,
                               std::vector<double>& times) {
    const solve_sample r = timed_run(tp, "strategy.fixed_point", [&](ampp::transport_context& ctx) {
      return s.run_fixed_point(ctx, src);
    });
    times.push_back(r.wall_s);
    const auto& c = r.delta.core;
    p.fp_handled += c.handler_invocations;
    p.fp_mods += r.res.modifications;
    p.fp_reached += reached;
    p.fp_batch += c.batch_records;
    p.fp_hits += c.cache_hits;
    p.fp_evictions += c.cache_evictions;
    p.fp_edges += m;
    span v("verify.compare");
    out.check(same_bits(s.dist(), ref), std::string(name) + " differs from dijkstra" + tag);
    return r;
  };

  guarded(out, "sssp fixed point r1" + tag, [&] {
    const solve_sample r = fixed_point(*in.tp1, *in.s1, "fp r1", p.fp1);
    p.cost.push_back(r.wall_s / dijkstra_s);
  });
  guarded(out, "sssp fixed point r4" + tag, [&] {
    const solve_sample r = fixed_point(*in.tp4, *in.s4, "fp r4", p.fp4);
    p.r4_msgs += r.delta.core.messages_sent;
    p.r4_wire += r.delta.core.wire_bytes_sent;
    p.r4_envs += r.delta.core.envelopes_sent;
    p.r4_edges += m;
  });
  guarded(out, "sssp delta r4" + tag, [&] {
    const solve_sample r = timed_run(*in.tp4, "strategy.delta_stepping",
                                     [&](ampp::transport_context& ctx) {
                                       return in.s4->run_delta(ctx, src, kDelta);
                                     });
    p.dl4.push_back(r.wall_s);
    p.td_rounds.push_back(static_cast<double>(r.delta.core.td_rounds));
    p.epochs.push_back(static_cast<double>(r.delta.core.epochs));
    p.delta_epochs.push_back(static_cast<double>(in.s4->delta_epochs()));
    p.strategy_rounds.push_back(static_cast<double>(r.res.rounds));
    span v("verify.compare");
    out.check(same_bits(in.s4->dist(), ref), "delta r4 differs from dijkstra" + tag);
  });
  guarded(out, "fused triple r4" + tag, [&] {
    const solve_sample r =
        timed_run(*in.tpf, "strategy.fused", [&](ampp::transport_context& ctx) {
          return in.fused->run(ctx, {.sssp = src, .widest = src, .bfs = src});
        });
    p.fu4.push_back(r.wall_s);
    span v("verify.compare");
    out.check(same_bits(in.fused->dist(), ref), "fused sssp member differs from dijkstra" + tag);
    auto& depth = in.fused->depth();
    const std::uint64_t unreachable = in.fused->unreachable_depth();
    bool same = true;
    for (vertex_id v = 0; v < levels.size() && same; ++v)
      same = depth[v] == (levels[v] < 0 ? unreachable : static_cast<std::uint64_t>(levels[v]));
    out.check(same, "fused bfs member differs from bfs_levels" + tag);
  });
}

}  // namespace

void run_rmat_sssp(const options& opt, outcome& out) {
  const unsigned scale = opt.smoke ? 11 : 17;
  print_provenance(opt, scale);
  tracer& tr = global_tracer();
  tr.enable(opt.trace);

  // Set-up is repeated (untraced runs) and reported as its median, so work
  // moved into set-up shows against its own bound.
  const int setups = opt.trace || opt.smoke ? 1 : 5;
  std::vector<double> setup_times;
  std::unique_ptr<inputs> in;
  for (int i = 0; i < setups; ++i) {
    in.reset();
    setup_times.push_back(time_s([&] {
      span root("bench.setup");
      in = set_up(opt.seed, scale);
    }));
  }
  const std::vector<vertex_id> sources = pick_sources(*in->g1, opt.seed);
  if (sources.empty()) throw std::runtime_error("graph has no vertices");

  const std::size_t min_rounds = opt.smoke ? 1 : 3;
  const auto run_pass = [&](std::size_t max_rounds, double budget_s) {
    pass p;
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < max_rounds; ++i) {
      if (i >= min_rounds && seconds_since(t0) >= budget_s) break;
      run_round(*in, sources[i % sources.size()], p, out);
      ++p.rounds;
    }
    p.wall_s = seconds_since(t0);
    return p;
  };

  if (!opt.trace) {
    const pass p = run_pass(static_cast<std::size_t>(-1), opt.seconds);
    // The 4-rank solve, not the 1-rank one, is primary: the 1-rank fixed
    // point and Dijkstra each run on one core and, on a shared 4-core VM,
    // their run medians move 11-16% with the load on that core; the 4-rank
    // solve spreads over every core and moves about 6%.
    const double fp4 = median(p.fp4);
    const double solves = static_cast<double>(p.fp1.size() + p.fp4.size() + p.dl4.size() +
                                              p.fu4.size());
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("primary_ms", fp4 * 1e3, "ms");
    out.add("ops_per_s", solves / (sum(p.fp1) + sum(p.fp4) + sum(p.dl4) + sum(p.fu4)), "1/s");
    return;
  }

  // Traced run: the same rounds untraced, then traced; per-layer numbers
  // come from the traced pass.
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
  out.add("pattern.relax_per_edge", ratio(p.fp_handled, p.fp_edges), "1/edge");
  out.add("pattern.useful_relax_frac", ratio(p.fp_reached, p.fp_mods), "frac");
  out.add("pattern.batch_record_frac", ratio(p.fp_batch, p.fp_handled), "frac");
  out.add("ampp.msgs_per_edge", ratio(p.r4_msgs, p.r4_edges), "1/edge");
  out.add("ampp.wire_bytes_per_edge", ratio(p.r4_wire, p.r4_edges), "B/edge");
  out.add("ampp.records_per_envelope", ratio(p.r4_msgs, p.r4_envs), "1/env");
  out.add("ampp.reduction_hit_frac", ratio(p.fp_hits, p.fp_hits + p.fp_evictions), "frac");
  out.add("ampp.td_rounds", median(p.td_rounds), "count");
  out.add("ampp.epochs", median(p.epochs), "count");
  out.add("strategy.delta_epochs", median(p.delta_epochs), "count");
  out.add("strategy.rounds", median(p.strategy_rounds), "count");
  out.add("strategy.fp_r1_s", median(p.fp1), "s");
  out.add("strategy.delta_r4_s", median(p.dl4), "s");
  out.add("strategy.fused3_r4_s", median(p.fu4), "s");
  out.add("algo.dijkstra_s", median(p.dij), "s");
  out.add("algo.cost_x", median(p.cost), "x");
  add_trace_metrics(out, a.wall_s, p.wall_s);
}

}  // namespace perfbench
