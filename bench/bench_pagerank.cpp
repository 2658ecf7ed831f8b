// Supplementary experiment: PageRank via the scatter pattern vs a
// hand-written AM++-style scatter and the sequential power-iteration
// baseline — bounds the cost of expressing an accumulate-style algorithm
// declaratively. Both send 16-byte {target, share} records, but the
// pattern's scatter is an `add`, so each rank folds its contributions and
// sends one record per distinct remote target per sweep, where the
// hand-rolled loop sends one per remote edge. BM_PageRankHandFolded is
// the fair hand-written reference: it commits owned targets in place and
// folds remote ones, sending one record per touched target, as the
// pattern does. BM_PageRankPattern reports `records_per_edge` (records
// sent / (edges x sweeps)); scripts/ci.sh guards it and the pattern's
// time ratios to the hand-rolled and hand-folded loops.
#include <benchmark/benchmark.h>

#include <vector>

#include "algo/baselines.hpp"
#include "algo/pagerank.hpp"
#include "common.hpp"
#include "obs/obs.hpp"
#include "strategy/strategies.hpp"

namespace dpg::bench {
namespace {

constexpr int kIters = 10;
constexpr double kDamping = 0.85;

const workload& wl() {
  static workload w = workload::rmat(10, 8);
  return w;
}

void BM_PageRankPattern(benchmark::State& state) {
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  auto g = wl().build(ranks);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  algo::pagerank_solver pr(tp, g);
  obs::stats_scope sc(tp.obs());
  for (auto _ : state) {
    tp.run([&](ampp::transport_context& ctx) { pr.run(ctx, kDamping, kIters); });
  }
  const double sweeps = static_cast<double>(state.iterations()) * kIters;
  state.counters["iters"] = kIters;
  state.counters["records_per_edge"] =
      static_cast<double>(sc.finish().core.messages_sent) /
      (static_cast<double>(g.num_edges()) * sweeps);
}
BENCHMARK(BM_PageRankPattern)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PageRankHandRolled(benchmark::State& state) {
  // Hand-written AM++-style PageRank (the generated-vs-hand-written
  // comparison iPregel and StarDist make): one scatter message type
  // carrying {target, share}, whose handler adds the share into the
  // target's accumulator, and the same prologue/epilogue as the pattern
  // solver. No lock: with polling progress only the owner's thread runs
  // its handlers.
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  auto g = wl().build(ranks);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  const vertex_id n = g.num_vertices();
  std::vector<double> rank(n), next(n), share(n);
  struct contribution {
    vertex_id loc;
    double val;
  };
  auto& mt = tp.make_message_type<contribution>(
      "pr.hand", [&](ampp::transport_context&, const contribution& c) {
        next[c.loc] += c.val;
      });
  for (auto _ : state) {
    tp.run([&](ampp::transport_context& ctx) {
      const auto dn = static_cast<double>(n);
      for (vertex_id v = 0; v < n; ++v)
        if (g.owner(v) == ctx.rank()) rank[v] = 1.0 / dn;
      ctx.barrier();
      for (int it = 0; it < kIters; ++it) {
        double local_sink = 0.0;
        for (vertex_id v = 0; v < n; ++v) {
          if (g.owner(v) != ctx.rank()) continue;
          next[v] = 0.0;
          const std::uint64_t deg = g.out_degree(v);
          if (deg == 0)
            local_sink += rank[v];
          else
            share[v] = rank[v] / static_cast<double>(deg);
        }
        const double sink = ctx.allreduce_sum(local_sink);
        {
          ampp::epoch ep(ctx);
          strategy::for_each_local_vertex(ctx, g, [&](vertex_id v) {
            const double s = share[v];
            for (const auto e : g.out_edges(v))
              mt.send(ctx, g.owner(e.dst), contribution{e.dst, s});
          });
        }
        const double base = (1.0 - kDamping) / dn + kDamping * sink / dn;
        for (vertex_id v = 0; v < n; ++v)
          if (g.owner(v) == ctx.rank()) rank[v] = base + kDamping * next[v];
        ctx.barrier();
      }
    });
  }
  state.counters["iters"] = kIters;
}
BENCHMARK(BM_PageRankHandRolled)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PageRankHandFolded(benchmark::State& state) {
  // The hand-written loop the pattern's combining scatter competes with:
  // a contribution to a target the rank owns is added in place, one to a
  // remote target is folded into the rank's pending sum for it, and the
  // rank sends one {target, sum} record per touched remote target before
  // the sweep's epoch ends. Same prologue/epilogue as the pattern solver;
  // no lock (polling progress: only the owner's thread runs its handlers).
  const auto ranks = static_cast<ampp::rank_t>(state.range(0));
  auto g = wl().build(ranks);
  ampp::transport tp(ampp::transport_config{.n_ranks = ranks});
  const vertex_id n = g.num_vertices();
  std::vector<double> rank(n), next(n), share(n);
  struct contribution {
    vertex_id loc;
    double val;
  };
  /// One rank's pending sums, indexed by global vertex id; only that
  /// rank's thread touches them.
  struct pending {
    std::vector<double> sum;
    std::vector<std::uint8_t> touched;
    std::vector<vertex_id> order;
  };
  std::vector<pending> acc(ranks);
  for (pending& p : acc) {
    p.sum.assign(n, 0.0);
    p.touched.assign(n, 0);
  }
  auto& mt = tp.make_message_type<contribution>(
      "pr.folded", [&](ampp::transport_context&, const contribution& c) {
        next[c.loc] += c.val;
      });
  for (auto _ : state) {
    tp.run([&](ampp::transport_context& ctx) {
      const ampp::rank_t r = ctx.rank();
      pending& mine = acc[r];
      const auto dn = static_cast<double>(n);
      for (vertex_id v = 0; v < n; ++v)
        if (g.owner(v) == r) rank[v] = 1.0 / dn;
      ctx.barrier();
      for (int it = 0; it < kIters; ++it) {
        double local_sink = 0.0;
        for (vertex_id v = 0; v < n; ++v) {
          if (g.owner(v) != r) continue;
          next[v] = 0.0;
          const std::uint64_t deg = g.out_degree(v);
          if (deg == 0)
            local_sink += rank[v];
          else
            share[v] = rank[v] / static_cast<double>(deg);
        }
        const double sink = ctx.allreduce_sum(local_sink);
        {
          ampp::epoch ep(ctx);
          strategy::for_each_local_vertex(ctx, g, [&](vertex_id v) {
            const double s = share[v];
            for (const auto e : g.out_edges(v)) {
              const vertex_id t = e.dst;
              if (g.owner(t) == r) {
                next[t] += s;
              } else if (mine.touched[t]) {
                mine.sum[t] += s;
              } else {
                mine.touched[t] = 1;
                mine.sum[t] = s;
                mine.order.push_back(t);
              }
            }
          });
          for (const vertex_id t : mine.order) {
            mine.touched[t] = 0;
            mt.send(ctx, g.owner(t), contribution{t, mine.sum[t]});
          }
          mine.order.clear();
        }
        const double base = (1.0 - kDamping) / dn + kDamping * sink / dn;
        for (vertex_id v = 0; v < n; ++v)
          if (g.owner(v) == r) rank[v] = base + kDamping * next[v];
        ctx.barrier();
      }
    });
  }
  state.counters["iters"] = kIters;
}
BENCHMARK(BM_PageRankHandFolded)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PageRankBaseline(benchmark::State& state) {
  auto g = wl().build(1);
  for (auto _ : state) {
    auto r = algo::pagerank(g, kDamping, kIters);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PageRankBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dpg::bench

BENCHMARK_MAIN();
