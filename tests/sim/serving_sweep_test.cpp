// The serving-layer determinism sweep: concurrent solver sessions sharing
// one process (and one envelope pool) must be *bit-identical* to a solo
// session run with the same tuning — across the full fault-plan × seed
// grid. This is what makes the multi-tenant server trustworthy: admission,
// pooling and the shared wire pool may change timing, but never answers.
//
// SSSP distances and BFS depths are fixed points of monotone relaxations,
// so their values are schedule-independent — equality here is exact 64-bit
// equality, never an epsilon (doubles travel as bit patterns).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "algo/sessions.hpp"
#include "graph/generators.hpp"
#include "sim_harness.hpp"

namespace dpg::sim {
namespace {

using graph::distributed_graph;
using graph::distribution;
using graph::vertex_id;

constexpr vertex_id kN = 120;
constexpr int kConcurrent = 3;

struct world {
  distributed_graph g;
  pmap::edge_property_map<double> w;

  explicit world(std::uint64_t seed)
      : g(kN, graph::erdos_renyi(kN, 600, substream_seed(seed, 1)),
          distribution::cyclic(kN, 2)),
        w(g, [seed](const graph::edge_handle& e) {
          return graph::edge_weight(e.src, e.dst, substream_seed(seed, 4), 10.0);
        }) {}

  /// The session environment for one grid point; every session built from
  /// it gets the same machine/tuning (hence the same fault decisions) and
  /// shares `pool`.
  algo::session_env env(std::uint64_t seed, const plan_spec& ps,
                        const std::shared_ptr<ampp::wire_pool>& pool) {
    const ampp::transport_config cfg = sim_config(2, seed, ps);
    algo::session_env e;
    e.g = &g;
    e.weights = &w;
    e.machine = cfg.machine();
    e.tuning = cfg.tuning();
    e.pool = pool;
    return e;
  }
};

void run_grid_point(std::uint64_t seed, const plan_spec& ps,
                    std::uint64_t& events) {
  world wd(seed);

  // Solo baselines: one session per algorithm, run alone.
  auto solo_env = wd.env(seed, ps, std::make_shared<ampp::wire_pool>(2));
  auto solo_sssp = algo::make_solver_session(serve::algorithm::sssp, solo_env);
  auto solo_bfs = algo::make_solver_session(serve::algorithm::bfs, solo_env);
  const serve::session_result base_sssp = solo_sssp->run({.source = 0});
  const serve::session_result base_bfs = solo_bfs->run({.source = 0});
  assert_fault_consistency(base_sssp.stats_delta);
  assert_fault_consistency(base_bfs.stats_delta);
  events += fault_events(base_sssp.stats_delta);
  events += fault_events(base_bfs.stats_delta);

  // Concurrent: kConcurrent sessions of each algorithm, all running at
  // once, sharing one envelope pool (the serving-layer configuration).
  auto shared_pool = std::make_shared<ampp::wire_pool>(2);
  auto env = wd.env(seed, ps, shared_pool);
  std::vector<serve::session_result> got_sssp(kConcurrent), got_bfs(kConcurrent);
  {
    std::vector<std::jthread> workers;
    for (int i = 0; i < kConcurrent; ++i) {
      workers.emplace_back([&, i] {
        auto s = algo::make_solver_session(serve::algorithm::sssp, env);
        got_sssp[i] = s->run({.source = 0});
      });
      workers.emplace_back([&, i] {
        auto s = algo::make_solver_session(serve::algorithm::bfs, env);
        got_bfs[i] = s->run({.source = 0});
      });
    }
  }

  for (int i = 0; i < kConcurrent; ++i) {
    EXPECT_EQ(got_sssp[i].values, base_sssp.values) << "sssp session " << i;
    EXPECT_EQ(got_bfs[i].values, base_bfs.values) << "bfs session " << i;
    assert_fault_consistency(got_sssp[i].stats_delta);
    assert_fault_consistency(got_bfs[i].stats_delta);
    events += fault_events(got_sssp[i].stats_delta);
  }
}

TEST(ServingSweep, ConcurrentSessionsBitIdenticalToSoloUnderFaults) {
  std::uint64_t events = 0;
  for (const plan_spec& ps : fault_plans()) {
    for (const std::uint64_t seed : sweep_seeds()) {
      SCOPED_TRACE(repro("serving", ps.name, 2, seed));
      run_grid_point(seed, ps, events);
    }
  }
  // The sweep must actually have exercised the fault layer.
  EXPECT_GT(events, 0u) << "no fault events fired across the whole grid";
}

}  // namespace
}  // namespace dpg::sim
