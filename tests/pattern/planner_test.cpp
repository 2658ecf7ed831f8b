// Tests of the locality planner on multi-hop patterns: pointer chases
// (Fig. 5's general gather chains), pull-style actions, local-only actions,
// and the modify() general modification statement.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ampp/epoch.hpp"
#include "ampp/transport.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "pattern/action.hpp"

namespace dpg::pattern {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::vertex_id;

TEST(Planner, PointerChaseBuildsThreeLocalityChain) {
  // cc_jump-style: modify chg(v) after reading chg(pnt(v)) at a remote
  // vertex. Chain: v (gather pnt(v)) -> pnt(v) (gather chg(pnt(v))) ->
  // back to v (evaluate + modify). Two messages per application.
  const vertex_id n = 12;
  const auto edges = graph::path_graph(n);
  distributed_graph g(n, edges, distribution::cyclic(n, 3));
  pmap::vertex_property_map<vertex_id> pnt(g, graph::invalid_vertex);
  pmap::vertex_property_map<vertex_id> chg(g, graph::invalid_vertex);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});

  property P(pnt), C(chg);
  auto jump = instantiate(tp, g, locks,
                          make_action("jump", no_generator{},
                                      when(C(P(v_)) < C(v_),
                                           assign(C(v_), C(P(v_))))));
  const plan_info& p = jump->plan();
  EXPECT_EQ(p.gather_hops, 2);   // v, then the chased vertex
  EXPECT_FALSE(p.final_merged);  // eval+modify returns to v
  // The chase value is gathered; the final step is still a single-value
  // min-update of chg(v), so the atomic fast path applies.
  EXPECT_TRUE(p.atomic_path);
  EXPECT_EQ(p.messages_per_application(), 2);

  // Semantics: one pointer-jump round. pnt(v) = v-1 (a chain), chg holds
  // "labels"; after applying jump at every vertex once, each chg(v) takes
  // its predecessor's (smaller) label when smaller.
  for (vertex_id v = 0; v < n; ++v) {
    pnt[v] = v == 0 ? 0 : v - 1;
    chg[v] = v;
  }
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    for (vertex_id v = 0; v < n; ++v)
      if (g.owner(v) == ctx.rank()) (*jump)(ctx, v);
  });
  // Every vertex v>0 saw chg(pnt(v)) at some state; at minimum it became
  // strictly smaller than v, and chg(0) stayed 0.
  EXPECT_EQ(chg[0], 0u);
  for (vertex_id v = 1; v < n; ++v) EXPECT_LT(chg[v], v);
}

TEST(Planner, RepeatedJumpRoundsConvergeToRoot) {
  // Applying the jump action until quiescence implements full pointer
  // jumping: all labels collapse to 0 in O(log n)-ish rounds.
  const vertex_id n = 33;
  const auto edges = graph::path_graph(n);
  distributed_graph g(n, edges, distribution::block(n, 4));
  pmap::vertex_property_map<vertex_id> pnt(g, 0);
  pmap::vertex_property_map<vertex_id> chg(g, 0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 4});
  property P(pnt), C(chg);
  auto jump = instantiate(tp, g, locks,
                          make_action("jump", no_generator{},
                                      when(C(P(v_)) < C(v_), assign(C(v_), C(P(v_))))));
  for (vertex_id v = 0; v < n; ++v) {
    pnt[v] = v == 0 ? 0 : v - 1;
    chg[v] = v;
  }
  tp.run([&](ampp::transport_context& ctx) {
    for (int round = 0; round < 64; ++round) {
      const std::uint64_t before = jump->modifications();
      {
        ampp::epoch ep(ctx);
        for (vertex_id v = 0; v < n; ++v)
          if (g.owner(v) == ctx.rank()) (*jump)(ctx, v);
      }
      // modifications() is globally consistent after the epoch ended.
      if (jump->modifications() == before) break;
    }
  });
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(chg[v], 0u) << "v=" << v;
}

TEST(Planner, PullPatternGathersAtGeneratorTarget) {
  // Pull-style SSSP: read dist at the neighbour, modify at v. The
  // generator end is a gather hop; the final hop returns to v.
  const vertex_id n = 10;
  const auto edges = graph::symmetrize(graph::path_graph(n));
  distributed_graph g(n, edges, distribution::cyclic(n, 2));
  pmap::vertex_property_map<double> dmap(g, 1e18);
  pmap::edge_property_map<double> wmap(g, 1.0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property dist(dmap);
  property weight(wmap);
  auto pull = instantiate(
      tp, g, locks,
      make_action("pull", out_edges_gen{},
                  when(dist(v_) > dist(trg(e_)) + weight(e_),
                       assign(dist(v_), dist(trg(e_)) + weight(e_)))));
  EXPECT_EQ(pull->plan().gather_hops, 2);  // v (weight), then trg (dist)
  EXPECT_EQ(pull->plan().messages_per_application(), 2);

  dmap[0] = 0.0;
  tp.run([&](ampp::transport_context& ctx) {
    // Two pull sweeps propagate distance 2 hops down the path.
    for (int sweep = 0; sweep < 2; ++sweep) {
      ampp::epoch ep(ctx);
      for (vertex_id v = 0; v < n; ++v)
        if (g.owner(v) == ctx.rank()) (*pull)(ctx, v);
    }
  });
  EXPECT_DOUBLE_EQ(dmap[1], 1.0);
  EXPECT_DOUBLE_EQ(dmap[2], 2.0);
}

TEST(Planner, FullyLocalActionSendsNoMessages) {
  // Modify at v from values at v: everything runs inline (merged final).
  const vertex_id n = 16;
  distributed_graph g(n, graph::path_graph(n), distribution::block(n, 2));
  pmap::vertex_property_map<std::uint64_t> a(g, 3), b(g, 0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property A(a), B(b);
  auto local = instantiate(tp, g, locks,
                           make_action("double_it", no_generator{},
                                       when(B(v_) < A(v_) * lit<std::uint64_t>(2),
                                            assign(B(v_), A(v_) * lit<std::uint64_t>(2)))));
  EXPECT_EQ(local->plan().gather_hops, 1);
  EXPECT_TRUE(local->plan().final_merged);
  EXPECT_EQ(local->plan().messages_per_application(), 0);

  obs::stats_scope sc(tp.obs());
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    for (vertex_id v = 0; v < n; ++v)
      if (g.owner(v) == ctx.rank()) (*local)(ctx, v);
  });
  const obs::stats_snapshot& delta = sc.finish();
  EXPECT_EQ(delta.core.messages_sent, 0u);
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(b[v], 6u);
}

TEST(Planner, ModifyStatementAccumulatesSets) {
  // preds[trg(e)].insert(src) — the grammar's general modification. The
  // set-valued map is modified at the owner; only vertex ids travel.
  const vertex_id n = 6;
  distributed_graph g(n, graph::star_graph(n), distribution::cyclic(n, 3));
  pmap::vertex_property_map<std::vector<vertex_id>> preds(g);
  pmap::vertex_property_map<int> mark(g, 0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});
  property M(mark);
  property P(preds);
  auto record = instantiate(
      tp, g, locks,
      make_action("record", out_edges_gen{},
                  when(M(trg(e_)) == lit(0),
                       modify(P(trg(e_)),
                              [](std::vector<vertex_id>& set, vertex_id u) {
                                set.push_back(u);
                              },
                              src(e_)))));
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    if (g.owner(0) == ctx.rank()) (*record)(ctx, 0);
  });
  for (vertex_id v = 1; v < n; ++v) {
    ASSERT_EQ(preds[v].size(), 1u) << "v=" << v;
    EXPECT_EQ(preds[v][0], 0u);
  }
  EXPECT_TRUE(preds[0].empty());
}

TEST(Planner, UnconditionalScatterCompilesToSixteenByteRecord) {
  // PageRank's scatter: when(true, next[trg(e)] += share[v]). The argument
  // is read at v, the target is the generated edge's far end, so each edge
  // sends one {target, share} record instead of a gather_state.
  const vertex_id n = 10;
  distributed_graph g(n, graph::symmetrize(graph::path_graph(n)),
                      distribution::cyclic(n, 3));
  pmap::vertex_property_map<double> next_map(g, 0.0), share_map(g, 1.0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});
  property next(next_map), share(share_map);
  auto fast = instantiate(
      tp, g, locks,
      make_action("scatter", out_edges_gen{},
                  when(lit(true), modify(next(trg(e_)), [](double& acc, double x) { acc += x; },
                                         share(v_)))));
  const plan_info& p = fast->plan();
  EXPECT_TRUE(p.fast_path);
  EXPECT_FALSE(p.atomic_path);
  EXPECT_FALSE(p.fast_reduction);
  EXPECT_FALSE(p.has_dependencies);
  EXPECT_EQ(p.wire_bytes, std::vector<std::size_t>{16});
  EXPECT_EQ(p.messages_per_application(), 1);
  const std::string text = explain("scatter", p);
  EXPECT_NE(text.find("compiled wire payloads: scatter=16B"), std::string::npos);
  EXPECT_NE(text.find("fast path: compiled single-locality scatter kernel"),
            std::string::npos);

  obs::stats_scope sc(tp.obs());
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    for (vertex_id v = 0; v < n; ++v)
      if (g.owner(v) == ctx.rank()) (*fast)(ctx, v);
  });
  const obs::stats_snapshot& delta = sc.finish();
  // One message per edge; every application fires (the guard is true).
  EXPECT_EQ(delta.core.messages_sent, g.num_edges());
  // The fast lane's envelope loop counts every scatter record it consumes.
  EXPECT_EQ(delta.core.batch_records, g.num_edges());
  EXPECT_LE(delta.core.batch_kernels_run, delta.core.batch_records);
  for (vertex_id v = 0; v < n; ++v)
    EXPECT_DOUBLE_EQ(next_map[v], v == 0 || v == n - 1 ? 1.0 : 2.0) << "v=" << v;
  EXPECT_EQ(fast->modifications(), g.num_edges());
}

/// R-MAT scale 10 plus a hub every vertex points at: the hub's in-edges
/// from each rank fold into one record per rank.
distributed_graph hub_and_rmat(ampp::rank_t ranks,
                               distribution::kind kind = distribution::kind::cyclic) {
  graph::rmat_params p;
  p.scale = 10;
  p.edge_factor = 8;
  std::vector<graph::edge> e = graph::rmat(p, 31);
  const vertex_id n = vertex_id{1} << p.scale;
  for (vertex_id v = 1; v < n; ++v) e.push_back({v, 0});
  switch (kind) {
    case distribution::kind::block: return distributed_graph(n, e, distribution::block(n, ranks));
    case distribution::kind::hashed:
      return distributed_graph(n, e, distribution::hashed(n, ranks));
    case distribution::kind::cyclic: break;
  }
  return distributed_graph(n, e, distribution::cyclic(n, ranks));
}

const char* kind_name(distribution::kind k) {
  switch (k) {
    case distribution::kind::block: return "block";
    case distribution::kind::cyclic: return "cyclic";
    case distribution::kind::hashed: return "hashed";
  }
  return "?";
}

/// What one scatter sweep over the out-edges of the picked vertices must
/// cost: edges whose target the source's owner holds, the rest, and the
/// distinct (sending rank, remote target) pairs among those, plus the
/// summed contributions.
struct scatter_oracle {
  std::uint64_t local = 0, remote = 0, pairs = 0;
  std::vector<double> sums;
};

template <class Pick>
scatter_oracle scatter_counts(const distributed_graph& g, const std::vector<double>& share,
                              Pick pick) {
  scatter_oracle o;
  o.sums.assign(g.num_vertices(), 0.0);
  std::set<std::pair<ampp::rank_t, vertex_id>> pairs;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (!pick(v)) continue;
    for (const graph::edge_handle e : g.out_edges(v)) {
      o.sums[e.dst] += share[v];
      if (g.owner(e.dst) == g.owner(v)) {
        ++o.local;
      } else {
        ++o.remote;
        pairs.insert({g.owner(v), e.dst});
      }
    }
  }
  o.pairs = pairs.size();
  return o;
}

TEST(Planner, AddScatterSendsOneRecordPerRemoteTarget) {
  // `add` declares the scatter's update a sum: each rank folds what it
  // would send into one record per distinct remote target, drained when
  // the epoch's termination detection flushes the rank. Owned targets
  // still commit in place. Every contribution is either sent, folded or
  // applied locally; the sums match the lambda `modify` twin, which is
  // uncombined by shape (F is opaque, so it is not known to be a sum).
  // Local applies are tallied per rank and published at the drain, so
  // they are exact at epoch end, at power-of-two rank counts and others,
  // under every distribution.
  for (const ampp::rank_t ranks : {2u, 3u, 4u}) {
    for (const auto kind : {distribution::kind::cyclic, distribution::kind::block,
                            distribution::kind::hashed}) {
      for (const unsigned threads : {0u, 1u, 2u}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks) + " " + kind_name(kind) +
                     " threads=" + std::to_string(threads));
        const distributed_graph g = hub_and_rmat(ranks, kind);
        const vertex_id n = g.num_vertices();
        std::vector<double> shares(n);
        pmap::vertex_property_map<double> share_map(g, 0.0);
        for (vertex_id v = 0; v < n; ++v) share_map[v] = shares[v] = 1.0 / (3.0 + v);
        const scatter_oracle o = scatter_counts(g, shares, [](vertex_id) { return true; });
        ASSERT_EQ(o.local + o.remote, g.num_edges());
        ASSERT_LT(o.pairs, o.remote);  // the hub alone folds n/ranks edges per rank

        pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
        ampp::transport tp(ampp::transport_config{.n_ranks = ranks, .handler_threads = threads});
        property share(share_map);
        std::vector<pmap::vertex_property_map<double>> next(2, pmap::vertex_property_map<double>(g, 0.0));
        property n0(next[0]), n1(next[1]);
        const auto sum = [](double& acc, double x) { acc += x; };
        auto combined = instantiate(
            tp, g, locks, make_action("sum", out_edges_gen{}, when(lit(true), add(n0(trg(e_)), share(v_)))));
        auto uncombined = instantiate(
            tp, g, locks,
            make_action("lambda", out_edges_gen{}, when(lit(true), modify(n1(trg(e_)), sum, share(v_)))));
        EXPECT_TRUE(combined->plan().fast_reduction);
        EXPECT_NE(explain("sum", combined->plan())
                      .find("sender reduction: per-target sum accumulator on the scatter lane"),
                  std::string::npos);
        EXPECT_FALSE(uncombined->plan().fast_reduction);
        EXPECT_TRUE(uncombined->plan().fast_path);

        const auto sweep = [&](action_instance& act) {
          obs::stats_scope sc(tp.obs());
          tp.run([&](ampp::transport_context& ctx) {
            ampp::epoch ep(ctx);
            for (vertex_id v = 0; v < n; ++v)
              if (g.owner(v) == ctx.rank()) act(ctx, v);
          });
          return sc.finish().core;
        };
        // Twice: the accumulator is empty after each drain and kept for the
        // next run, so the second sweep costs exactly what the first did.
        for (int run = 0; run < 2; ++run) {
          next[0].fill(0.0);
          const auto c = sweep(*combined);
          EXPECT_EQ(c.messages_sent, o.pairs);
          EXPECT_EQ(c.cache_hits, o.remote - o.pairs);
          EXPECT_EQ(c.local_applies, o.local);
          EXPECT_EQ(c.messages_sent + c.cache_hits + c.local_applies, g.num_edges());
        }
        const auto u = sweep(*uncombined);
        EXPECT_EQ(u.messages_sent, o.remote);
        EXPECT_EQ(u.cache_hits, 0u);
        EXPECT_EQ(u.local_applies, o.local);
        EXPECT_EQ(u.messages_sent + u.cache_hits + u.local_applies, g.num_edges());
        // One application per vertex per sweep; a folded contribution is
        // still a firing of the action.
        EXPECT_EQ(combined->invocations(), 2 * n);
        EXPECT_EQ(uncombined->invocations(), n);
        EXPECT_EQ(combined->modifications(), 2 * g.num_edges());
        EXPECT_EQ(uncombined->modifications(), g.num_edges());
        for (vertex_id v = 0; v < n; ++v)
          for (int k = 0; k < 2; ++k)
            ASSERT_NEAR(next[k][v], o.sums[v], 1e-12) << "v=" << v << " variant " << k;
      }
    }
  }
}

TEST(Planner, AddScatterInsideHandlerSendsDirectly) {
  // An application made inside a delivered handler sends its records at
  // once: the accumulator is drained at the start of a flush, so a fold
  // made in a TD round's dispatch loop would miss that round's report.
  // Even vertices are applied from the rank's own thread (folded), odd
  // ones from a handler (one record per remote edge); every contribution
  // has landed when the epoch ends, with and without handler threads.
  for (const ampp::rank_t ranks : {2u, 4u}) {
    for (const unsigned threads : {0u, 1u, 2u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " threads=" + std::to_string(threads));
      const distributed_graph g = hub_and_rmat(ranks);
      const vertex_id n = g.num_vertices();
      std::vector<double> shares(n);
      pmap::vertex_property_map<double> share_map(g, 0.0), next_map(g, 0.0);
      for (vertex_id v = 0; v < n; ++v) share_map[v] = shares[v] = 1.0 / (3.0 + v);
      const scatter_oracle even =
          scatter_counts(g, shares, [](vertex_id v) { return v % 2 == 0; });
      const scatter_oracle odd = scatter_counts(g, shares, [](vertex_id v) { return v % 2 == 1; });

      pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
      ampp::transport tp(ampp::transport_config{.n_ranks = ranks, .handler_threads = threads});
      property share(share_map), next(next_map);
      auto act = instantiate(
          tp, g, locks, make_action("sum", out_edges_gen{}, when(lit(true), add(next(trg(e_)), share(v_)))));
      auto& poke = tp.make_message_type<vertex_id>(
          "poke", [&](ampp::transport_context& ctx, const vertex_id& v) { (*act)(ctx, v); },
          [&g](const vertex_id& v) { return g.owner(v); });
      obs::stats_scope sc(tp.obs());
      tp.run([&](ampp::transport_context& ctx) {
        ampp::epoch ep(ctx);
        for (vertex_id v = 0; v < n; ++v) {
          if (g.owner(v) != ctx.rank()) continue;
          if (v % 2 == 0)
            (*act)(ctx, v);
          else
            poke.send(ctx, v);
        }
      });
      const auto c = sc.finish().core;
      const std::uint64_t pokes = n / 2;
      EXPECT_EQ(c.messages_sent, pokes + even.pairs + odd.remote);
      EXPECT_EQ(c.cache_hits, even.remote - even.pairs);
      EXPECT_EQ(c.local_applies, even.local + odd.local);
      for (vertex_id v = 0; v < n; ++v)
        ASSERT_NEAR(next_map[v], even.sums[v] + odd.sums[v], 1e-12) << "v=" << v;
    }
  }
}

TEST(Planner, ScatterOverChasedIndexStaysGeneral) {
  // An unconditional modify whose target is a pointer chase cannot know
  // its destination at the invocation site: it keeps the gather chain.
  const vertex_id n = 12;
  distributed_graph g(n, graph::path_graph(n), distribution::cyclic(n, 3));
  pmap::vertex_property_map<vertex_id> pnt(g, 0);
  pmap::vertex_property_map<std::uint64_t> hits(g, 0), one(g, 1);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 3});
  property P(pnt), H(hits), O(one);
  auto bump = instantiate(
      tp, g, locks,
      make_action("bump_root", no_generator{},
                  when(lit(true), modify(H(P(v_)),
                                         [](std::uint64_t& h, std::uint64_t x) { h += x; },
                                         O(v_)))));
  EXPECT_FALSE(bump->plan().fast_path);
  EXPECT_EQ(bump->plan().final_locality, "chase");
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    for (vertex_id v = 0; v < n; ++v)
      if (g.owner(v) == ctx.rank()) (*bump)(ctx, v);
  });
  EXPECT_EQ(hits[0], n);  // every vertex points at 0
  for (vertex_id v = 1; v < n; ++v) EXPECT_EQ(hits[v], 0u) << "v=" << v;
}

TEST(Planner, FalseGuardScatterNeverFires) {
  // The scatter shape matches lit(false) by type; the kernel must not
  // engage for it, and the general path never fires the arm.
  const vertex_id n = 6;
  distributed_graph g(n, graph::star_graph(n), distribution::cyclic(n, 2));
  pmap::vertex_property_map<double> acc_map(g, 0.0), x_map(g, 1.0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property A(acc_map), X(x_map);
  auto never = instantiate(
      tp, g, locks,
      make_action("never", out_edges_gen{},
                  when(lit(false), modify(A(trg(e_)),
                                          [](double& a, double x) { a += x; }, X(v_)))));
  EXPECT_FALSE(never->plan().fast_path);
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    if (g.owner(0) == ctx.rank()) (*never)(ctx, 0);
  });
  EXPECT_EQ(never->modifications(), 0u);
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(acc_map[v], 0.0);
}

TEST(Planner, InEdgesGeneratorReadsMirrorWeights) {
  // Pull over in_edges: weight(e) for an in-edge is read at v through the
  // mirror copy; dist at the remote source is a final... no — modify at v,
  // read dist(src(e)) at the generator end.
  const vertex_id n = 8;
  const auto edges = graph::path_graph(n);  // v-1 -> v
  distributed_graph g(n, edges, distribution::cyclic(n, 2), /*bidirectional=*/true);
  pmap::vertex_property_map<double> dmap(g, 1e18);
  pmap::edge_property_map<double> wmap(g, 2.0);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 2});
  property dist(dmap);
  property weight(wmap);
  auto pull = instantiate(
      tp, g, locks,
      make_action("pull_in", in_edges_gen{},
                  when(dist(v_) > dist(src(e_)) + weight(e_),
                       assign(dist(v_), dist(src(e_)) + weight(e_)))));
  dmap[0] = 0.0;
  tp.run([&](ampp::transport_context& ctx) {
    ampp::epoch ep(ctx);
    for (vertex_id v = 0; v < n; ++v)
      if (g.owner(v) == ctx.rank()) (*pull)(ctx, v);
  });
  EXPECT_DOUBLE_EQ(dmap[1], 2.0);  // one sweep pulls one hop
}

TEST(Planner, ArenaOverflowIsDetected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const vertex_id n = 4;
  distributed_graph g(n, graph::path_graph(n), distribution::block(n, 1));
  struct fat {
    double x[5];
    bool operator<(const fat& o) const { return x[0] < o.x[0]; }
  };
  pmap::vertex_property_map<fat> a(g), b(g), c(g);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  auto build = [&] {
    ampp::transport tp(ampp::transport_config{.n_ranks = 1});
    property A(a), B(b), C(c);
    // 3 * 40 bytes of gathered state exceeds the 48-byte arena.
    auto act = instantiate(tp, g, locks,
                           make_action("fat", no_generator{},
                                       when(A(v_) < B(v_), assign(C(v_), B(v_)))));
  };
  // The plan-build diagnostic must name the offending action and both byte
  // counts, so the failure is actionable without a debugger.
  EXPECT_DEATH(build(), "arena overflow compiling action 'fat'");
  EXPECT_DEATH(build(), "80 bytes but gather_state::arena_bytes is 48");
}

TEST(Planner, ArenaExactlyFullCompiles) {
  // The boundary case: gathered reads summing to exactly arena_bytes (48)
  // must compile — overflow means strictly greater, not equal.
  const vertex_id n = 4;
  distributed_graph g(n, graph::path_graph(n), distribution::block(n, 1));
  struct trio {
    double x[2];
    bool operator<(const trio& o) const { return x[0] < o.x[0]; }
  };
  pmap::vertex_property_map<trio> a(g), b(g), c(g);
  pmap::lock_map locks(g.dist(), pmap::lock_scheme::per_vertex);
  ampp::transport tp(ampp::transport_config{.n_ranks = 1});
  property A(a), B(b), C(c);
  // Three distinct 16-byte reads fill the 48-byte arena to the brim.
  auto act = instantiate(tp, g, locks,
                         make_action("brim", no_generator{},
                                     when(A(v_) < B(v_), assign(A(v_), C(v_)))));
  ASSERT_NE(act, nullptr);
  EXPECT_EQ(act->plan().arena_bytes, 48u);
}

}  // namespace
}  // namespace dpg::pattern
