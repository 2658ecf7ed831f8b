// Shared workload builders for the benchmark harness. Each benchmark
// binary regenerates one experiment row of DESIGN.md §4; the graphs are
// sized for a single machine (the abstractions under test are
// size-independent; see DESIGN.md §2).
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/distributed_graph.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "pmap/edge_map.hpp"

namespace dpg::bench {

using graph::distributed_graph;
using graph::distribution;
using graph::edge_handle;
using graph::vertex_id;

/// Graph500-flavoured workload: R-MAT with hashed edge weights in [1, maxw].
struct workload {
  vertex_id n;
  std::vector<graph::edge> edges;
  std::uint64_t weight_seed;
  double max_weight;

  static workload rmat(unsigned scale, unsigned edge_factor = 8,
                       std::uint64_t seed = 42, double max_weight = 100.0) {
    graph::rmat_params p;
    p.scale = scale;
    p.edge_factor = edge_factor;
    return workload{vertex_id{1} << scale, graph::rmat(p, seed), seed ^ 0x77, max_weight};
  }

  static workload erdos_renyi(vertex_id n, std::uint64_t m, std::uint64_t seed = 42,
                              double max_weight = 100.0) {
    return workload{n, graph::erdos_renyi(n, m, seed), seed ^ 0x77, max_weight};
  }

  distributed_graph build(ampp::rank_t ranks, bool bidirectional = false) const {
    return distributed_graph(n, edges, distribution::cyclic(n, ranks), bidirectional);
  }

  distributed_graph build_symmetric(ampp::rank_t ranks) const {
    return distributed_graph(n, graph::symmetrize(edges),
                             distribution::cyclic(n, ranks));
  }

  pmap::edge_property_map<double> weights(const distributed_graph& g) const {
    const std::uint64_t s = weight_seed;
    const double mw = max_weight;
    return pmap::edge_property_map<double>(
        g, [s, mw](const edge_handle& e) { return graph::edge_weight(e.src, e.dst, s, mw); });
  }
};

/// Publishes an obs::stats_scope delta as benchmark counters (optionally
/// namespaced by `prefix` for multi-phase benchmarks). The standard way for
/// bench binaries to report message economy per measured region.
inline void report_stats(benchmark::State& state, const obs::stats_snapshot& d,
                         const std::string& prefix = "") {
  state.counters[prefix + "messages"] = static_cast<double>(d.core.messages_sent);
  state.counters[prefix + "local_applies"] = static_cast<double>(d.core.local_applies);
  state.counters[prefix + "envelopes"] = static_cast<double>(d.core.envelopes_sent);
  state.counters[prefix + "bytes"] = static_cast<double>(d.core.bytes_sent);
  state.counters[prefix + "wire_bytes"] = static_cast<double>(d.core.wire_bytes_sent);
  state.counters[prefix + "td_rounds"] = static_cast<double>(d.core.td_rounds);
  state.counters[prefix + "cache_hits"] = static_cast<double>(d.core.cache_hits);
  state.counters[prefix + "cache_evictions"] = static_cast<double>(d.core.cache_evictions);
  state.counters[prefix + "dropped"] = static_cast<double>(d.core.envelopes_dropped);
  state.counters[prefix + "retried"] = static_cast<double>(d.core.envelopes_retried);
  state.counters[prefix + "duplicated"] = static_cast<double>(d.core.envelopes_duplicated);
  state.counters[prefix + "delayed"] = static_cast<double>(d.core.envelopes_delayed);
  state.counters[prefix + "dup_suppressed"] =
      static_cast<double>(d.core.duplicates_suppressed);
  state.counters[prefix + "lane_visits"] = static_cast<double>(d.core.flush_lane_visits);
  state.counters[prefix + "lane_skips"] = static_cast<double>(d.core.flush_lane_skips);
  state.counters[prefix + "pool_reuses"] = static_cast<double>(d.core.pool_reuses);
  state.counters[prefix + "batch_records"] = static_cast<double>(d.core.batch_records);
  state.counters[prefix + "batch_kernels"] =
      static_cast<double>(d.core.batch_kernels_run);
  state.counters[prefix + "graph_mutations"] = static_cast<double>(d.core.graph_mutations);
  state.counters[prefix + "delta_edges"] = static_cast<double>(d.core.delta_edges);
  state.counters[prefix + "tombstoned_edges"] =
      static_cast<double>(d.core.tombstoned_edges);
}

}  // namespace dpg::bench
