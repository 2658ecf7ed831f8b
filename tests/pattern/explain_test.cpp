// Tests of the plan introspection ("explain") facility — the textual
// reproduction of the paper's Figs. 5/6 communication diagrams.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "pattern/action.hpp"
#include "pattern/fuse.hpp"

namespace dpg::pattern {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::vertex_id;

struct world {
  distributed_graph g;
  pmap::vertex_property_map<double> dist;
  pmap::edge_property_map<double> weight;
  pmap::vertex_property_map<vertex_id> pnt, chg;
  pmap::lock_map locks;
  ampp::transport tp;

  world()
      : g(8, graph::path_graph(8), distribution::cyclic(8, 2)),
        dist(g, 1e100),
        weight(g, 1.0),
        pnt(g, 0),
        chg(g, 0),
        locks(g.dist(), pmap::lock_scheme::per_vertex),
        tp(ampp::transport_config{.n_ranks = 2}) {}
};

TEST(Explain, SsspPlanReadsLikeFigureSix) {
  world w;
  property d(w.dist);
  property wt(w.weight);
  auto relax = instantiate(w.tp, w.g, w.locks,
                           make_action("relax", out_edges_gen{},
                                       when(d(trg(e_)) > d(v_) + wt(e_),
                                            assign(d(trg(e_)), d(v_) + wt(e_)))));
  const std::string text = explain(relax->name(), relax->plan());
  EXPECT_NE(text.find("action relax"), std::string::npos);
  EXPECT_NE(text.find("hop 0 at v (invocation site): 2 read(s)"), std::string::npos);
  EXPECT_NE(text.find("final at trg(e)"), std::string::npos);
  EXPECT_NE(text.find("atomic compare-and-update"), std::string::npos);
  EXPECT_NE(text.find("dependencies: yes"), std::string::npos);
  EXPECT_NE(text.find("messages per application: 1"), std::string::npos);
}

TEST(Explain, PointerChasePlanShowsTheChain) {
  world w;
  property P(w.pnt);
  property C(w.chg);
  auto jump = instantiate(w.tp, w.g, w.locks,
                          make_action("jump", no_generator{},
                                      when(C(P(v_)) < C(v_), assign(C(v_), C(P(v_))))));
  const std::string text = explain(jump->name(), jump->plan());
  EXPECT_NE(text.find("hop 0 at v"), std::string::npos);
  EXPECT_NE(text.find("hop 1 at chase (gather message)"), std::string::npos);
  EXPECT_NE(text.find("final at v (evaluate+modify message)"), std::string::npos);
  EXPECT_NE(text.find("messages per application: 2"), std::string::npos);
}

TEST(Explain, LocalPlanShowsMergeAndNoMessages) {
  world w;
  property d(w.dist);
  auto local = instantiate(w.tp, w.g, w.locks,
                           make_action("bump", no_generator{},
                                       when(d(v_) < lit(1.0), assign(d(v_), lit(1.0)))));
  const std::string text = explain(local->name(), local->plan());
  EXPECT_NE(text.find("merged into the last gather hop"), std::string::npos);
  EXPECT_NE(text.find("messages per application: 0"), std::string::npos);
  EXPECT_NE(text.find("dependencies: yes"), std::string::npos);  // reads+writes d
}

TEST(Explain, NoDependencyWhenWrittenMapNeverRead) {
  world w;
  property d(w.dist);
  property c(w.chg);
  auto act = instantiate(w.tp, w.g, w.locks,
                         make_action("mark", no_generator{},
                                     when(d(v_) < lit(1.0),
                                          assign(c(v_), lit<vertex_id>(7)))));
  EXPECT_FALSE(act->plan().has_dependencies);
  const std::string text = explain(act->name(), act->plan());
  EXPECT_NE(text.find("dependencies: none"), std::string::npos);
}

TEST(Explain, CompiledPlanShowsWireBytesCseAndFastPath) {
  // The compilation pass is introspectable: explain() must print the wire
  // footprint of every synthesized message, the gather-read CSE count, and
  // whether the single-locality fast kernel engaged.
  world w;
  property d(w.dist);
  property wt(w.weight);
  auto relax = instantiate(w.tp, w.g, w.locks,
                           make_action("relax", out_edges_gen{},
                                       when(d(trg(e_)) > d(v_) + wt(e_),
                                            assign(d(trg(e_)), d(v_) + wt(e_)))));
  const std::string fast = explain("relax", relax->plan());
  EXPECT_NE(fast.find("compiled wire payloads: relax=16B"), std::string::npos);
  EXPECT_NE(fast.find("(full gather_state = 96B)"), std::string::npos);
  EXPECT_NE(fast.find("gather read CSE: 2 shared slot(s)"), std::string::npos);
  EXPECT_NE(fast.find("fast path: compiled single-locality relax kernel"),
            std::string::npos);
  EXPECT_NE(fast.find("sender reduction: combining cache on the relax lane"),
            std::string::npos);

  // A second assign (sssp_tree's parent) leaves the record shape: the
  // general plan ships the compact evaluate message — src(e), trg(e),
  // dist(v) and weight(e), 32 of gather_state's 96 bytes — with no sender
  // reduction.
  pmap::vertex_property_map<vertex_id> parent(w.g, graph::invalid_vertex);
  property par(parent);
  auto tree = instantiate(w.tp, w.g, w.locks,
                          make_action("tree", out_edges_gen{},
                                      when(d(trg(e_)) > d(v_) + wt(e_),
                                           assign(d(trg(e_)), d(v_) + wt(e_)),
                                           assign(par(trg(e_)), src(e_)))));
  const std::string general = explain("tree", tree->plan());
  EXPECT_NE(general.find("compiled wire payloads: eval=32B"), std::string::npos);
  EXPECT_NE(general.find("fast path: off"), std::string::npos);
  EXPECT_NE(general.find("sender reduction: off"), std::string::npos);
}

TEST(Explain, FullyLocalPlanHasNoWirePayloads) {
  world w;
  property d(w.dist);
  auto local = instantiate(w.tp, w.g, w.locks,
                           make_action("bump", no_generator{},
                                       when(d(v_) < lit(1.0), assign(d(v_), lit(1.0)))));
  const std::string text = explain(local->name(), local->plan());
  EXPECT_NE(text.find("compiled wire payloads: none (fully local)"), std::string::npos);
}

TEST(Explain, ScatterPlanLabelsTheScatterRecord) {
  // An unconditional modify compiles to the scatter kernel: explain names
  // its 16-byte payload `scatter`, not `relax`.
  world w;
  property d(w.dist);
  auto scatter = instantiate(
      w.tp, w.g, w.locks,
      make_action("pr.scatter", out_edges_gen{},
                  when(lit(true), modify(d(trg(e_)), [](double& acc, double x) { acc += x; },
                                         d(v_)))));
  const std::string fast = explain("pr.scatter", scatter->plan());
  EXPECT_NE(fast.find("compiled wire payloads: scatter=16B"), std::string::npos);
  EXPECT_NE(fast.find("fast path: compiled single-locality scatter kernel"),
            std::string::npos);
  EXPECT_NE(fast.find("synchronization: lock map"), std::string::npos);
  EXPECT_NE(fast.find("sender reduction: off"), std::string::npos);
  EXPECT_NE(fast.find("dependencies: yes"), std::string::npos);  // reads+writes d
}

TEST(Explain, FusedPlanShowsWireLayoutAndGroupDispatch) {
  // The fusion analogue of explain(): the packed fused wire layout —
  // shared addressing bytes, each member's live slot, the per-hop fused
  // payload vs the separate-record sum — plus the group-dispatch and
  // shared-fixed-point summary.
  world w;
  pmap::vertex_property_map<double> width(w.g, 0.0);
  pmap::vertex_property_map<std::uint64_t> depth(w.g, 8);
  pmap::edge_property_map<double> cap(w.g, 2.0);
  property d(w.dist);
  property wt(w.weight);
  property wd(width);
  property dep(depth);
  property cp(cap);
  auto fused = fuse(
      w.tp, w.g,
      make_action("sssp.relax", out_edges_gen{},
                  when(d(trg(e_)) > d(v_) + wt(e_),
                       assign(d(trg(e_)), d(v_) + wt(e_)))),
      make_action("widest.relax", out_edges_gen{},
                  when(wd(trg(e_)) < min_(wd(v_), cp(e_)),
                       assign(wd(trg(e_)), min_(wd(v_), cp(e_))))),
      make_action("bfs.explore", out_edges_gen{},
                  when(dep(trg(e_)) > dep(v_) + lit<std::uint64_t>(1),
                       assign(dep(trg(e_)), dep(v_) + lit<std::uint64_t>(1)))));
  const std::string text = explain_fused(*fused);
  EXPECT_NE(text.find("fused family sssp.relax+widest.relax+bfs.explore"),
            std::string::npos);
  EXPECT_NE(text.find("members: 3 single-locality relax patterns"), std::string::npos);
  EXPECT_NE(text.find("shared addressing: 8B (target vertex, sent once per record)"),
            std::string::npos);
  EXPECT_NE(text.find("member 0 sssp.relax: live slot @8B +8B f64 min-update"),
            std::string::npos);
  EXPECT_NE(text.find("member 1 widest.relax: live slot @16B +8B f64 max-update"),
            std::string::npos);
  EXPECT_NE(text.find("member 2 bfs.explore: live slot @24B +8B u64 min-update"),
            std::string::npos);
  EXPECT_NE(text.find("per-hop fused payload: 32B (vs 48B as separate records)"),
            std::string::npos);
  EXPECT_NE(text.find("group dispatch: fused lane for multi-member waves"),
            std::string::npos);
  EXPECT_NE(text.find("sender reduction: elementwise combining cache on the fused lane"),
            std::string::npos);
  EXPECT_NE(text.find("fixed point: one epoch loop, one termination detection "
                      "for 3 members"),
            std::string::npos);

  // The plan_info mirrors the fused shape: the fused family IS the fast
  // path, one condition per member, wire bytes for the fused record plus
  // each member's solo lane.
  const plan_info& p = fused->plan();
  EXPECT_TRUE(p.fast_path);
  EXPECT_TRUE(p.atomic_path);
  EXPECT_EQ(p.conditions, 3);
  EXPECT_TRUE(p.has_dependencies);
  ASSERT_EQ(p.wire_bytes.size(), 4u);
  EXPECT_EQ(p.wire_bytes[0], 32u);
  EXPECT_EQ(p.wire_bytes[1], 16u);
  EXPECT_EQ(p.wire_bytes[2], 16u);
  EXPECT_EQ(p.wire_bytes[3], 16u);
  EXPECT_TRUE(p.fast_reduction);
}

TEST(Explain, PlanInfoCountsConditions) {
  world w;
  property d(w.dist);
  auto act = instantiate(
      w.tp, w.g, w.locks,
      make_action("two_arm", out_edges_gen{},
                  when(d(trg(e_)) > d(v_), assign(d(trg(e_)), d(v_))),
                  when(d(trg(e_)) < lit(0.0), assign(d(trg(e_)), lit(0.0)))));
  EXPECT_EQ(act->plan().conditions, 2);
}

}  // namespace
}  // namespace dpg::pattern
