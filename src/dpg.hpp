// Umbrella header: the full public API of the dpg library.
//
// dpg reproduces "Declarative Patterns for Imperative Distributed Graph
// Algorithms" (Zalewski, Edmonds, Lumsdaine; IPDPS Workshops 2015).
// See README.md for orientation, docs/pattern-language.md for the DSL
// reference, and docs/runtime.md for the execution model.
#pragma once

#define DPG_VERSION_MAJOR 1
#define DPG_VERSION_MINOR 0
#define DPG_VERSION_PATCH 0
#define DPG_VERSION_STRING "1.0.0"

// Observability: counter registry, stats scopes, span tracing.
#include "obs/obs.hpp"

// Active-message runtime (simulated distributed machine).
#include "ampp/epoch.hpp"
#include "ampp/stats.hpp"
#include "ampp/transport.hpp"
#include "ampp/types.hpp"

// Distributed graph substrate.
#include "graph/distributed_graph.hpp"
#include "graph/distribution.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"

// Property maps and the lock map.
#include "pmap/edge_map.hpp"
#include "pmap/lock_map.hpp"
#include "pmap/vertex_map.hpp"

// The pattern language: EDSL, planner, actions, textual front-end.
#include "pattern/action.hpp"
#include "pattern/expr.hpp"
#include "pattern/parse.hpp"
#include "pattern/pattern.hpp"
#include "pattern/planner.hpp"

// Strategies.
#include "strategy/delta_stepping.hpp"
#include "strategy/strategies.hpp"

// Algorithms and baselines.
#include "algo/baselines.hpp"
#include "algo/betweenness.hpp"
#include "algo/bfs.hpp"
#include "algo/bfs_dir_opt.hpp"
#include "algo/cc.hpp"
#include "algo/coloring.hpp"
#include "algo/kcore.hpp"
#include "algo/mis.hpp"
#include "algo/pagerank.hpp"
#include "algo/sssp.hpp"
#include "algo/sssp_tree.hpp"
#include "algo/streaming.hpp"
#include "algo/widest_path.hpp"

// Serving layer: warm solver sessions, result cache, multi-tenant front end.
#include "algo/sessions.hpp"
#include "serve/cache.hpp"
#include "serve/pool.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
