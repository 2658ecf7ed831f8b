// The pattern translator front-end as a command-line tool: reads a pattern
// source file (the §III grammar), checks it, and prints the communication
// the framework would synthesize for each action (localities, gather hops,
// merging, synchronization, dependencies) — the paper's planned
// "translator for patterns", analysis half.
//
// Usage: pattern_explain <file.pat>
//        pattern_explain --demo      (runs on the built-in SSSP + CC text)
//        pattern_explain --measure   (instantiates the demo patterns, runs
//                                     them, and prints each plan's MEASURED
//                                     message chain from the obs registry)
//        pattern_explain --fuse      (fuses sssp+widest+bfs-tree into one
//                                     message family, prints the fused wire
//                                     layout — shared addressing bytes,
//                                     per-member live slots, per-hop fused
//                                     payload — then runs the fused fixed
//                                     point and prints the measured chain)
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "algo/fused.hpp"
#include "graph/generators.hpp"
#include "pattern/action.hpp"
#include "pattern/parse.hpp"
#include "strategy/strategies.hpp"

namespace {

constexpr const char* kDemo = R"(
// SSSP (paper Fig. 2) and CC (paper Fig. 4) patterns.
pattern Demo {
  vertex_property<double> dist;
  edge_property<double> weight;
  vertex_property<vertex> pnt;
  vertex_property<vertex> chg;
  vertex_property<vertex_list> conf;

  action relax(v) {
    generator e : out_edges;
    alias d = dist[v] + weight[e];
    when (dist[trg(e)] > d) {
      dist[trg(e)] = d;
    }
  }

  action cc_search(v) {
    generator e : out_edges;
    when (pnt[trg(e)] == null_vertex) {
      pnt[trg(e)] = pnt[v];
    }
    when (pnt[trg(e)] != pnt[v]) {
      conf[trg(e)].insert(pnt[v]);
    }
  }

  action cc_jump(v) {
    when (chg[pnt[v]] < chg[v]) {
      chg[v] = chg[pnt[v]];
    }
  }
}
)";

// Instantiates the demo relax (Fig. 2) and cc_jump (Fig. 4) actions on a
// small graph, runs one strategy round of each, and prints the message
// chain each plan *actually* produced: the per-type sent/handled/bytes
// counters the obs registry attributed to the synthesized gather/evaluate
// message types.
int run_measure() {
  using namespace dpg;
  using namespace dpg::pattern;
  using graph::vertex_id;

  const vertex_id n = 64;
  const auto edges = graph::symmetrize(graph::path_graph(n));
  graph::distributed_graph g(n, edges, graph::distribution::cyclic(n, 4));
  pmap::vertex_property_map<double> dist_map(g, 1e100);
  pmap::edge_property_map<double> weight_map(g, 1.0);
  pmap::vertex_property_map<vertex_id> pnt_map(g, 0);
  pmap::vertex_property_map<vertex_id> chg_map(g, 0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 4});

  property dist(dist_map);
  property weight(weight_map);
  property P(pnt_map);
  property C(chg_map);
  auto relax = instantiate(tp, g, locks,
                           make_action("relax", out_edges_gen{},
                                       when(dist(trg(e_)) > dist(v_) + weight(e_),
                                            assign(dist(trg(e_)), dist(v_) + weight(e_)))));
  auto jump = instantiate(tp, g, locks,
                          make_action("cc_jump", no_generator{},
                                      when(C(P(v_)) < C(v_), assign(C(v_), C(P(v_))))));

  dist_map[0] = 0.0;
  for (vertex_id v = 0; v < n; ++v) {
    pnt_map[v] = v == 0 ? 0 : v - 1;
    chg_map[v] = v;
  }
  tp.run([&](ampp::transport_context& ctx) {
    std::vector<vertex_id> seeds;
    if (g.owner(0) == ctx.rank()) seeds.push_back(0);
    strategy::fixed_point(ctx, *relax, seeds);
    std::vector<vertex_id> mine;
    for (vertex_id v = 0; v < n; ++v)
      if (g.owner(v) == ctx.rank()) mine.push_back(v);
    strategy::once(ctx, *jump, mine);
  });

  std::fputs(explain("relax", relax->plan()).c_str(), stdout);
  std::fputs(explain("cc_jump", jump->plan()).c_str(), stdout);
  std::printf("\nmeasured message chain (per synthesized message type):\n");
  std::printf("  %-20s %10s %10s %12s %12s\n", "type", "sent", "handled", "bytes",
              "wire_bytes");
  const obs::registry& reg = tp.obs();
  for (std::size_t i = 0; i < reg.num_types(); ++i) {
    if (reg.type_internal(i)) continue;  // control plane (TD, collectives)
    std::printf("  %-20s %10llu %10llu %12llu %12llu\n", reg.type_name(i).c_str(),
                static_cast<unsigned long long>(reg.type_sent(i)),
                static_cast<unsigned long long>(reg.type_handled(i)),
                static_cast<unsigned long long>(reg.type_bytes(i)),
                static_cast<unsigned long long>(reg.type_wire_bytes(i)));
  }
  return 0;
}

// Fuses the sssp+widest+bfs-tree triple (the bench_fusion workload) on a
// small graph, prints the fused plan — the packed wire layout plus the
// group-dispatch/fixed-point summary — runs it, and prints the measured
// per-type chain so the fused lane and each member's own relax lane are
// visible side by side.
int run_fuse() {
  using namespace dpg;
  using graph::vertex_id;

  const vertex_id n = 64;
  const auto edges = graph::symmetrize(graph::path_graph(n));
  graph::distributed_graph g(n, edges, graph::distribution::cyclic(n, 4));
  pmap::edge_property_map<double> weight_map(g, 1.0);
  pmap::edge_property_map<double> cap_map(g, 2.0);
  ampp::transport tp(ampp::transport_config{.n_ranks = 4});
  algo::fused_triple_solver fused(tp, g, weight_map, cap_map);

  std::fputs(pattern::explain_fused(fused.action()).c_str(), stdout);

  tp.run([&](ampp::transport_context& ctx) {
    fused.run(ctx, {.sssp = 0, .widest = 0, .bfs = 0});
  });

  std::printf("\nmeasured message chain (per synthesized message type):\n");
  std::printf("  %-34s %10s %10s %12s %12s\n", "type", "sent", "handled", "bytes",
              "wire_bytes");
  const obs::registry& reg = tp.obs();
  for (std::size_t i = 0; i < reg.num_types(); ++i) {
    if (reg.type_internal(i)) continue;  // control plane (TD, collectives)
    std::printf("  %-34s %10llu %10llu %12llu %12llu\n", reg.type_name(i).c_str(),
                static_cast<unsigned long long>(reg.type_sent(i)),
                static_cast<unsigned long long>(reg.type_handled(i)),
                static_cast<unsigned long long>(reg.type_bytes(i)),
                static_cast<unsigned long long>(reg.type_wire_bytes(i)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source;
  if (argc == 2 && std::string(argv[1]) == "--measure") {
    return run_measure();
  } else if (argc == 2 && std::string(argv[1]) == "--fuse") {
    return run_fuse();
  } else if (argc == 2 && std::string(argv[1]) == "--demo") {
    source = kDemo;
  } else if (argc == 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    std::fprintf(stderr, "usage: %s <file.pat> | --demo | --measure | --fuse\n", argv[0]);
    return 1;
  }

  try {
    std::fputs(dpg::pattern::text::explain_source(source).c_str(), stdout);
  } catch (const dpg::pattern::text::parse_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
