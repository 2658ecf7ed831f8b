// The textual pattern front-end: parsing, semantic checking, and — the key
// property — agreement between the parser's plan analysis and the EDSL
// instantiation's plan for the same pattern.
#include "pattern/parse.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "graph/generators.hpp"
#include "pattern/action.hpp"

namespace dpg::pattern::text {
namespace {

constexpr const char* kSsspSource = R"(
// The paper's Fig. 2 SSSP pattern.
pattern SSSP {
  vertex_property<double> dist;
  edge_property<double> weight;

  action relax(v) {
    generator e : out_edges;
    alias d = dist[v] + weight[e];
    when (dist[trg(e)] > d) {
      dist[trg(e)] = d;
    }
  }
}
)";

constexpr const char* kCcSource = R"(
pattern CC {
  vertex_property<vertex> pnt;
  vertex_property<vertex> chg;
  vertex_property<vertex_list> conf;

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

TEST(Parse, SsspStructure) {
  const auto p = parse_pattern(kSsspSource);
  EXPECT_EQ(p.name, "SSSP");
  ASSERT_EQ(p.properties.size(), 2u);
  EXPECT_TRUE(p.properties[0].on_vertices);
  EXPECT_FALSE(p.properties[1].on_vertices);
  EXPECT_EQ(p.properties[0].type, value_kind::real);
  ASSERT_EQ(p.actions.size(), 1u);
  const auto& relax = p.actions[0];
  EXPECT_EQ(relax.name, "relax");
  EXPECT_EQ(relax.vertex_param, "v");
  EXPECT_EQ(relax.gen, generator_type::out_edges);
  EXPECT_EQ(relax.aliases.size(), 1u);
  ASSERT_EQ(relax.conditions.size(), 1u);
  EXPECT_EQ(relax.conditions[0].mods.size(), 1u);
}

TEST(Parse, SsspPlanMatchesFigureSix) {
  const auto analyzed = analyze(parse_pattern(kSsspSource));
  ASSERT_EQ(analyzed.actions.size(), 1u);
  const auto& a = analyzed.actions[0];
  EXPECT_EQ(a.gather_hops, 1);
  EXPECT_FALSE(a.final_merged);
  EXPECT_TRUE(a.atomic_path);
  EXPECT_EQ(a.final_reads, 1);
  EXPECT_EQ(a.arena_bytes, 24u);
  EXPECT_TRUE(a.has_dependencies);
  EXPECT_EQ(a.messages_per_application(), 1);
  EXPECT_EQ(a.final_locality, "trg(e)");
}

TEST(Parse, ParserPlanEqualsEdslPlan) {
  // Build the same SSSP pattern through the EDSL and compare every plan
  // field the two front-ends share.
  const auto analyzed = analyze(parse_pattern(kSsspSource)).actions[0];

  graph::distributed_graph g(8, graph::path_graph(8),
                             graph::distribution::cyclic(8, 2));
  pmap::vertex_property_map<double> dist_map(g, 1e100);
  pmap::edge_property_map<double> weight_map(g, 1.0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property dist(dist_map);
  property weight(weight_map);
  auto relax = instantiate(tp, g, locks,
                           make_action("relax", out_edges_gen{},
                                       when(dist(trg(e_)) > dist(v_) + weight(e_),
                                            assign(dist(trg(e_)), dist(v_) + weight(e_)))));
  const plan_info& edsl = relax->plan();
  EXPECT_EQ(analyzed.gather_hops, edsl.gather_hops);
  EXPECT_EQ(analyzed.final_merged, edsl.final_merged);
  EXPECT_EQ(analyzed.atomic_path, edsl.atomic_path);
  EXPECT_EQ(analyzed.final_reads, edsl.final_reads);
  EXPECT_EQ(analyzed.arena_bytes, edsl.arena_bytes);
  EXPECT_EQ(analyzed.has_dependencies, edsl.has_dependencies);
  EXPECT_EQ(analyzed.hop_localities, edsl.hop_localities);
  EXPECT_EQ(analyzed.final_locality, edsl.final_locality);
  EXPECT_EQ(analyzed.fast_path, edsl.fast_path);
  EXPECT_EQ(analyzed.fast_reduction, edsl.fast_reduction);
  EXPECT_EQ(explain(analyzed), pattern::explain("relax", edsl));
}

TEST(Parse, CcPatternAnalyzes) {
  const auto analyzed = analyze(parse_pattern(kCcSource));
  ASSERT_EQ(analyzed.actions.size(), 2u);
  const auto& search = analyzed.actions[0];
  EXPECT_EQ(search.conditions, 2);
  EXPECT_TRUE(search.has_dependencies);      // pnt read & written
  EXPECT_FALSE(search.atomic_path);          // two arms
  EXPECT_EQ(search.messages_per_application(), 1);
  // The two arms compile to the claim record, with exact-repeat suppression.
  EXPECT_TRUE(search.fast_path);
  EXPECT_TRUE(search.claim);
  EXPECT_TRUE(search.fast_reduction);
  EXPECT_EQ(search.wire_bytes, std::vector<std::size_t>{16});

  // The EDSL's cc.search (algo/cc.hpp) plans the same, field for field.
  graph::distributed_graph g(8, graph::path_graph(8), graph::distribution::cyclic(8, 2));
  pmap::vertex_property_map<vertex_id> pnt_map(g, graph::invalid_vertex);
  pmap::vertex_property_map<std::vector<vertex_id>> conf_map(g);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property pnt(pnt_map);
  property conf(conf_map);
  auto edsl_search = instantiate(
      tp, g, locks,
      make_action("cc_search", out_edges_gen{},
                  when(pnt(trg(e_)) == lit(graph::invalid_vertex),
                       assign(pnt(trg(e_)), pnt(v_))),
                  when(pnt(trg(e_)) != pnt(v_), insert(conf(trg(e_)), pnt(v_)))));
  const plan_info& edsl = edsl_search->plan();
  EXPECT_EQ(search.fast_path, edsl.fast_path);
  EXPECT_EQ(search.claim, edsl.claim);
  EXPECT_EQ(search.fast_reduction, edsl.fast_reduction);
  EXPECT_EQ(search.wire_bytes, edsl.wire_bytes);
  EXPECT_EQ(explain(search), pattern::explain("cc_search", edsl));

  // An opaque second arm is not known to be idempotent: the general path.
  const auto opaque = analyze(parse_pattern(R"(pattern CC {
    vertex_property<vertex> pnt;
    vertex_property<vertex_list> conf;
    action cc_search(v) {
      generator e : out_edges;
      when (pnt[trg(e)] == null_vertex) { pnt[trg(e)] = pnt[v]; }
      when (pnt[trg(e)] != pnt[v]) { conf[trg(e)].push(pnt[v]); }
    }
  })")).actions[0];
  EXPECT_FALSE(opaque.fast_path);
  EXPECT_FALSE(opaque.claim);
  EXPECT_FALSE(opaque.fast_reduction);
  auto edsl_opaque = instantiate(
      tp, g, locks,
      make_action("cc_search", out_edges_gen{},
                  when(pnt(trg(e_)) == lit(graph::invalid_vertex),
                       assign(pnt(trg(e_)), pnt(v_))),
                  when(pnt(trg(e_)) != pnt(v_),
                       modify(conf(trg(e_)),
                              [](std::vector<vertex_id>& s, vertex_id r) { s.push_back(r); },
                              pnt(v_)))));
  EXPECT_FALSE(edsl_opaque->plan().fast_path);
  EXPECT_EQ(explain(opaque), pattern::explain("cc_search", edsl_opaque->plan()));

  const auto& jump = analyzed.actions[1];
  EXPECT_EQ(jump.gather_hops, 2);            // v -> chase
  EXPECT_EQ(jump.final_locality, "v");
  EXPECT_EQ(jump.messages_per_application(), 2);
  EXPECT_TRUE(jump.atomic_path);
}

TEST(Parse, ExplainSourceRendersEverything) {
  const std::string text = explain_source(kCcSource);
  EXPECT_NE(text.find("pattern CC"), std::string::npos);
  EXPECT_NE(text.find("action cc_search"), std::string::npos);
  EXPECT_NE(text.find("action cc_jump"), std::string::npos);
  EXPECT_NE(text.find("hop 1 at chase"), std::string::npos);
}

TEST(Parse, CommentsAndAliasSubstitution) {
  const auto p = parse_pattern(R"(
pattern P {
  vertex_property<double> x;
  action a(v) {
    alias two_x = x[v] + x[v];
    when (two_x > 1.0) { x[v] = two_x; }  // trailing comment? no: line comment
  }
}
)");
  const auto an = analyze(p);
  EXPECT_EQ(an.actions[0].gather_hops, 1);
  EXPECT_TRUE(an.actions[0].final_merged);  // everything at v
  EXPECT_EQ(an.actions[0].messages_per_application(), 0);
}


TEST(Parse, MinMaxIntrinsics) {
  // Widest path in the textual grammar: the min/max intrinsics.
  const auto analyzed = analyze(parse_pattern(R"(
pattern Widest {
  vertex_property<double> width;
  edge_property<double> cap;
  action relax(v) {
    generator e : out_edges;
    when (width[trg(e)] < min(width[v], cap[e])) {
      width[trg(e)] = min(width[v], cap[e]);
    }
  }
}
)"));
  const auto& a = analyzed.actions[0];
  EXPECT_EQ(a.gather_hops, 1);
  EXPECT_TRUE(a.atomic_path);  // max-update shape
  EXPECT_EQ(a.messages_per_application(), 1);
  EXPECT_TRUE(a.has_dependencies);
}

TEST(Parse, ScatterPlanEqualsEdslPlan) {
  // PageRank's unconditional scatter: the parser must recognise the
  // scatter kernel exactly where the EDSL does (fast path, 16-byte
  // records) and render the identical explain text. `.add` is the EDSL's
  // `add`, a sum, so both front ends report the combining scatter.
  const auto analyzed = analyze(parse_pattern(R"(
pattern PageRank {
  vertex_property<double> next;
  vertex_property<double> share;
  action scatter(v) {
    generator e : out_edges;
    when (true) {
      next[trg(e)].add(share[v]);
    }
  }
}
)")).actions[0];
  EXPECT_TRUE(analyzed.fast_path);
  EXPECT_FALSE(analyzed.atomic_path);
  EXPECT_TRUE(analyzed.fast_reduction);
  EXPECT_EQ(analyzed.wire_bytes, std::vector<std::size_t>{16});
  EXPECT_EQ(analyzed.messages_per_application(), 1);

  graph::distributed_graph g(8, graph::path_graph(8), graph::distribution::cyclic(8, 2));
  pmap::vertex_property_map<double> next_map(g, 0.0), share_map(g, 0.0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property next(next_map);
  property share(share_map);
  auto scatter = instantiate(
      tp, g, locks,
      make_action("scatter", out_edges_gen{}, when(lit(true), add(next(trg(e_)), share(v_)))));
  const plan_info& edsl = scatter->plan();
  EXPECT_EQ(analyzed.gather_hops, edsl.gather_hops);
  EXPECT_EQ(analyzed.final_merged, edsl.final_merged);
  EXPECT_EQ(analyzed.atomic_path, edsl.atomic_path);
  EXPECT_EQ(analyzed.final_reads, edsl.final_reads);
  EXPECT_EQ(analyzed.arena_bytes, edsl.arena_bytes);
  EXPECT_EQ(analyzed.has_dependencies, edsl.has_dependencies);
  EXPECT_EQ(analyzed.hop_localities, edsl.hop_localities);
  EXPECT_EQ(analyzed.final_locality, edsl.final_locality);
  EXPECT_EQ(analyzed.fast_path, edsl.fast_path);
  EXPECT_EQ(analyzed.fast_reduction, edsl.fast_reduction);
  EXPECT_EQ(analyzed.wire_bytes, edsl.wire_bytes);
  EXPECT_EQ(explain(analyzed), pattern::explain("scatter", edsl));

  // A guard that is not the literal `true`, or an argument read at the
  // target, keeps the general path in both front ends.
  const auto guarded = analyze(parse_pattern(R"(
pattern P {
  vertex_property<double> next;
  vertex_property<double> share;
  action a(v) {
    generator e : out_edges;
    when (share[v] > 0.0) { next[trg(e)].add(share[v]); }
  }
  action b(v) {
    generator e : out_edges;
    when (true) { next[trg(e)].add(share[trg(e)]); }
  }
}
)"));
  EXPECT_FALSE(guarded.actions[0].fast_path);
  EXPECT_FALSE(guarded.actions[1].fast_path);

  // Any other method is an opaque update: still the scatter kernel, never
  // combined — in the text and in the EDSL's lambda `modify`.
  const auto scaled = analyze(parse_pattern(R"(
pattern PageRank {
  vertex_property<double> next;
  vertex_property<double> share;
  action scatter(v) {
    generator e : out_edges;
    when (true) {
      next[trg(e)].scale(share[v]);
    }
  }
}
)")).actions[0];
  auto scale = instantiate(
      tp, g, locks,
      make_action("scatter", out_edges_gen{},
                  when(lit(true), modify(next(trg(e_)),
                                         [](double& acc, double x) { acc *= x; },
                                         share(v_)))));
  EXPECT_TRUE(scaled.fast_path);
  EXPECT_FALSE(scaled.fast_reduction);
  EXPECT_EQ(scaled.fast_path, scale->plan().fast_path);
  EXPECT_EQ(scaled.fast_reduction, scale->plan().fast_reduction);
  EXPECT_EQ(explain(scaled), pattern::explain("scatter", scale->plan()));
}

std::string read_pattern_file(const std::string& name) {
  std::ifstream in(std::string(DPG_SOURCE_DIR) + "/examples/patterns/" + name);
  EXPECT_TRUE(in) << "cannot open " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Parse, ShippedPatternsMatchTheirEdslTwins) {
  // Every action in examples/patterns/ renders the same plan as its EDSL
  // twin: the chase of cc_jump, the claim of cc_search, the merged final
  // stage of pull_relax, the relax and the combining scatter.
  graph::distributed_graph g(8, graph::path_graph(8), graph::distribution::cyclic(8, 2));
  pmap::vertex_property_map<double> dist_map(g, 1e100), next_map(g, 0.0), share_map(g, 0.0);
  pmap::edge_property_map<double> weight_map(g, 1.0);
  pmap::vertex_property_map<vertex_id> pnt_map(g, graph::invalid_vertex), chg_map(g, 0);
  pmap::vertex_property_map<std::vector<vertex_id>> conf_map(g);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property dist(dist_map);
  property weight(weight_map);
  property next(next_map);
  property share(share_map);
  property pnt(pnt_map);
  property chg(chg_map);
  property conf(conf_map);
  const auto plan_of = [&](auto def) { return instantiate(tp, g, locks, std::move(def))->plan(); };
  const std::map<std::string, plan_info> twins = {
      {"relax", plan_of(make_action("relax", out_edges_gen{},
                                    when(dist(trg(e_)) > dist(v_) + weight(e_),
                                         assign(dist(trg(e_)), dist(v_) + weight(e_)))))},
      {"cc_search",
       plan_of(make_action("cc_search", out_edges_gen{},
                           when(pnt(trg(e_)) == lit(graph::invalid_vertex),
                                assign(pnt(trg(e_)), pnt(v_))),
                           when(pnt(trg(e_)) != pnt(v_), insert(conf(trg(e_)), pnt(v_)))))},
      {"cc_jump", plan_of(make_action("cc_jump", no_generator{},
                                      when(chg(pnt(v_)) < chg(v_),
                                           assign(chg(v_), chg(pnt(v_))))))},
      {"pull_relax", plan_of(make_action("pull_relax", out_edges_gen{},
                                         when(dist(v_) > dist(trg(e_)) + weight(e_),
                                              assign(dist(v_), dist(trg(e_)) + weight(e_)))))},
      {"scatter", plan_of(make_action("scatter", out_edges_gen{},
                                      when(lit(true), add(next(trg(e_)), share(v_)))))},
  };
  std::size_t checked = 0;
  for (const char* file : {"sssp.pat", "cc.pat", "pull_pagerank.pat"}) {
    for (const analyzed_action& a : analyze(parse_pattern(read_pattern_file(file))).actions) {
      SCOPED_TRACE(std::string(file) + ": " + a.name);
      ASSERT_EQ(twins.count(a.name), 1u);
      EXPECT_EQ(explain(a), pattern::explain(a.name, twins.at(a.name)));
      ++checked;
    }
  }
  EXPECT_EQ(checked, twins.size());
}

TEST(Parse, CornerShapesPlanLikeTheEdsl) {
  // Only the first modification registers a chased locality, and each one
  // reads the target index: two modifications share the slot 3 times. An
  // edge-property target takes the lock path, not atomics.
  const auto an = analyze(parse_pattern(R"(pattern P {
    vertex_property<vertex> p; vertex_property<double> x; vertex_property<double> y;
    edge_property<double> w;
    action a(v) { when (x[p[v]] < 1.0) { x[p[v]] = 1.0; y[p[v]] = 2.0; } }
    action b(v) { generator e : out_edges; when (w[e] > 1.0) { w[e] = 1.0; } } })"));
  graph::distributed_graph g(8, graph::path_graph(8), graph::distribution::cyclic(8, 2));
  pmap::vertex_property_map<vertex_id> p_map(g, 0);
  pmap::vertex_property_map<double> x_map(g, 0.0), y_map(g, 0.0);
  pmap::edge_property_map<double> w_map(g, 0.0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property p(p_map);
  property x(x_map);
  property y(y_map);
  property w(w_map);
  auto a = instantiate(tp, g, locks,
                       make_action("a", no_generator{},
                                   when(x(p(v_)) < lit(1.0), assign(x(p(v_)), lit(1.0)),
                                        assign(y(p(v_)), lit(2.0)))));
  auto b = instantiate(tp, g, locks,
                       make_action("b", out_edges_gen{},
                                   when(w(e_) > lit(1.0), assign(w(e_), lit(1.0)))));
  EXPECT_EQ(an.actions[0].cse_hits, 3u);
  EXPECT_EQ(explain(an.actions[0]), pattern::explain("a", a->plan()));
  EXPECT_FALSE(an.actions[1].atomic_path);
  EXPECT_EQ(explain(an.actions[1]), pattern::explain("b", b->plan()));
}

// ---------------------------------------------------------------------------
// error cases
// ---------------------------------------------------------------------------

void expect_error(const char* src, const char* needle) {
  try {
    analyze(parse_pattern(src));
    FAIL() << "expected parse_error containing '" << needle << "'";
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual: " << e.what();
  }
}

TEST(ParseErrors, UnknownIdentifier) {
  expect_error(R"(pattern P { vertex_property<double> x;
    action a(v) { when (y[v] > 1.0) { x[v] = 1.0; } } })",
               "unknown identifier 'y'");
}

TEST(ParseErrors, TwoGenerators) {
  expect_error(R"(pattern P { vertex_property<double> x;
    action a(v) { generator e : out_edges; generator f : out_edges;
      when (x[v] > 1.0) { x[v] = 1.0; } } })",
               "only one generator");
}

TEST(ParseErrors, EdgeMapIndexedByVertex) {
  expect_error(R"(pattern P { edge_property<double> w; vertex_property<double> x;
    action a(v) { generator e : out_edges;
      when (w[v] > 1.0) { x[v] = 1.0; } } })",
               "indexed by non-edge");
}

TEST(ParseErrors, VertexMapIndexedByEdge) {
  expect_error(R"(pattern P { vertex_property<double> x;
    action a(v) { generator e : out_edges;
      when (x[e] > 1.0) { x[v] = 1.0; } } })",
               "indexed by non-vertex");
}

TEST(ParseErrors, ModificationsAtDifferentLocalities) {
  expect_error(R"(pattern P { vertex_property<double> x;
    action a(v) { generator e : out_edges;
      when (x[trg(e)] > 1.0) { x[trg(e)] = 1.0; x[v] = 2.0; } } })",
               "share one locality");
}

TEST(ParseErrors, NonBooleanGuard) {
  expect_error(R"(pattern P { vertex_property<double> x;
    action a(v) { when (x[v] + 1.0) { x[v] = 1.0; } } })",
               "guard must be boolean");
}

TEST(ParseErrors, ChaseOfChase) {
  expect_error(R"(pattern P { vertex_property<vertex> p; vertex_property<double> x;
    action a(v) { when (x[p[p[v]]] > 1.0) { x[v] = 1.0; } } })",
               "one level of chasing");
}

TEST(ParseErrors, OpaqueValuesCannotTravel) {
  expect_error(R"(pattern P { vertex_property<vertex_list> s; vertex_property<double> x;
    action a(v) { generator e : out_edges;
      when (s[v] == s[v]) { x[trg(e)] = 1.0; } } })",
               "cannot travel");
}

TEST(ParseErrors, ConditionWithoutModification) {
  expect_error(R"(pattern P { vertex_property<double> x;
    action a(v) { when (x[v] > 1.0) { } } })",
               "at least one modification");
}

TEST(ParseErrors, SrcWithoutEdgeGenerator) {
  expect_error(R"(pattern P { vertex_property<double> x;
    action a(v) { generator u : adj;
      when (x[src(u)] > 1.0) { x[v] = 1.0; } } })",
               "src/trg");
}

TEST(ParseErrors, ReportsLineNumbers) {
  try {
    parse_pattern("pattern P {\n  vertex_property<double> x;\n  nonsense\n}");
    FAIL();
  } catch (const parse_error& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

}  // namespace
}  // namespace dpg::pattern::text
