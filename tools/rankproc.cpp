// One rank process of a cross-process machine.
//
// rankproc hosts exactly one rank of an N-rank machine over a real wire
// backend (shm ring or TCP), runs one algorithm on the shared sim-suite
// graph recipe, and prints a canonical result hash. Launch N of these with
// scripts/run_ranks.sh; tests/sim/backend_sweep_test.cpp forks the full
// matrix and compares hashes bit-for-bit against the in-process oracle
// (`--backend inproc`, which runs the classic N-threads-one-process
// machine through the same hashing path, so the comparison exercises one
// code path end to end). Any backend may run under a fault plan (`--plan`).
//
// The graph is the sim suite's: erdos_renyi(96, 480) from substream 1 of
// the seed, cyclic distribution, deterministic edge weights. Identical
// inputs on every rank process are the SPMD contract the wire backends
// assume; everything downstream (message-type registration order, channel
// assignment, collective generations) follows from it.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/sssp.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace dpg;
using graph::distributed_graph;
using graph::distribution;
using graph::vertex_id;

constexpr vertex_id kN = 96;
constexpr std::uint64_t kM = 480;

struct options {
  ampp::backend_config::kind_t kind = ampp::backend_config::kind_t::inproc;
  ampp::rank_t ranks = 2;
  ampp::rank_t rank = 0;
  std::string session = "dpg";
  std::uint16_t base_port = 29700;
  std::string algo = "sssp";
  std::uint64_t seed = 1;
  std::string plan = "none";  // fault plan name
  double delta = 0;           // sssp: Δ-stepping width; 0 runs the fixed point
};

[[noreturn]] void usage(const char* msg) {
  if (msg) std::cerr << "rankproc: " << msg << "\n";
  std::cerr << "usage: rankproc --backend inproc|shm|tcp --ranks N [--rank R]\n"
               "                [--session S] [--base-port P] [--plan NAME]\n"
               "                --algo sssp|bfs|cc [--seed X] [--delta D]\n"
               "  --plan: none|scramble|lossy|chaos|control_chaos\n"
               "  --delta (sssp only): solve by coordinated Δ-stepping of width D\n";
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--backend") {
      const std::string v = need(i);
      if (v == "inproc")
        o.kind = ampp::backend_config::kind_t::inproc;
      else if (v == "shm")
        o.kind = ampp::backend_config::kind_t::shm_ring;
      else if (v == "tcp")
        o.kind = ampp::backend_config::kind_t::tcp;
      else
        usage("unknown backend");
    } else if (a == "--ranks") {
      o.ranks = static_cast<ampp::rank_t>(std::stoul(need(i)));
    } else if (a == "--rank") {
      o.rank = static_cast<ampp::rank_t>(std::stoul(need(i)));
    } else if (a == "--session") {
      o.session = need(i);
    } else if (a == "--base-port") {
      o.base_port = static_cast<std::uint16_t>(std::stoul(need(i)));
    } else if (a == "--algo") {
      o.algo = need(i);
    } else if (a == "--seed") {
      o.seed = std::stoull(need(i));
    } else if (a == "--plan") {
      o.plan = need(i);
    } else if (a == "--delta") {
      o.delta = std::stod(need(i));
      if (!(o.delta > 0.0)) usage("--delta must be positive");
    } else {
      usage(("unknown flag '" + a + "'").c_str());
    }
  }
  if (o.ranks < 1) usage("--ranks must be >= 1");
  if (o.rank >= o.ranks) usage("--rank out of range");
  if (o.algo != "sssp" && o.algo != "bfs" && o.algo != "cc") usage("unknown --algo");
  if (o.delta != 0 && o.algo != "sssp") usage("--delta applies to --algo sssp");
  return o;
}

ampp::fault_plan make_plan(const std::string& name, std::uint64_t seed) {
  const std::uint64_t s = substream_seed(seed, 2);  // the sim harness substream
  if (name == "none") return ampp::fault_plan::none();
  if (name == "scramble") return ampp::fault_plan::scramble(s);
  if (name == "lossy") return ampp::fault_plan::lossy(s);
  if (name == "chaos") return ampp::fault_plan::chaos(s);
  if (name == "control_chaos") return ampp::fault_plan::control_chaos(s);
  usage("unknown --plan");
}

ampp::transport_config make_config(const options& o) {
  ampp::backend_config bc;
  bc.kind = o.kind;
  bc.self_rank = o.rank;
  bc.session = o.session;
  bc.base_port = o.base_port;
  // The sim-suite workload is tiny; small rings keep a 4-rank machine's
  // shm footprint near 1 MiB per channel so CI containers with a modest
  // /dev/shm never thrash.
  bc.ring_bytes = 1u << 16;
  return ampp::transport_config{.n_ranks = o.ranks,
                                .coalescing_size = 8,
                                .seed = substream_seed(o.seed, 3),
                                .faults = make_plan(o.plan, o.seed),
                                .handler_threads = 0,
                                .backend = bc};
}

std::uint64_t fnv1a64(const std::vector<std::uint64_t>& vals) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t v : vals)
    for (unsigned b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

/// Assembles the full per-vertex value array from per-rank shards. In
/// process: read every shard directly (they all live here). Cross-process:
/// allgather the owned shard's values over the wire; SPMD program order
/// makes this collective line up across the rank processes.
template <class Map>
std::vector<std::uint64_t> gather_values(ampp::transport& tp,
                                         const distributed_graph& g, Map& map,
                                         std::uint64_t (*encode)(
                                             typename Map::value_type)) {
  const auto& d = g.dist();
  std::vector<std::uint64_t> vals(kN, 0);
  if (!tp.cross_process()) {
    for (vertex_id v = 0; v < kN; ++v) vals[v] = encode(map[v]);
    return vals;
  }
  const ampp::rank_t self = tp.self_rank();
  const std::uint64_t cnt = d.count(self);
  std::vector<std::byte> mine(cnt * 8);
  for (std::uint64_t li = 0; li < cnt; ++li) {
    const std::uint64_t enc = encode(map[d.global(self, li)]);
    std::memcpy(mine.data() + li * 8, &enc, 8);
  }
  const auto blobs = tp.exchange_blobs(mine);
  for (ampp::rank_t src = 0; src < tp.size(); ++src) {
    const std::uint64_t n = blobs[src].size() / 8;
    if (n != d.count(src))
      throw ampp::wire_error("rankproc: shard size mismatch from rank " +
                             std::to_string(src));
    for (std::uint64_t li = 0; li < n; ++li) {
      std::uint64_t enc;
      std::memcpy(&enc, blobs[src].data() + li * 8, 8);
      vals[d.global(src, li)] = enc;
    }
  }
  return vals;
}

std::uint64_t encode_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}
std::uint64_t encode_u64(std::uint64_t v) { return v; }
std::uint64_t encode_vid(vertex_id v) { return static_cast<std::uint64_t>(v); }

/// Component labels are representative-dependent (which vertex becomes a
/// search root is a race); the partition is not. Relabel every class by
/// its minimum member so any valid CC run of the same graph hashes
/// identically.
void canonicalize_labels(std::vector<std::uint64_t>& vals) {
  std::vector<std::uint64_t> minrep(kN, ~0ull);
  for (vertex_id v = 0; v < kN; ++v) {
    std::uint64_t& m = minrep[vals[v]];
    if (v < m) m = v;
  }
  for (vertex_id v = 0; v < kN; ++v) vals[v] = minrep[vals[v]];
}

std::vector<std::uint64_t> run_algo(const options& o) {
  const ampp::transport_config cfg = make_config(o);
  const bool symmetric = o.algo == "cc";
  auto edges = graph::erdos_renyi(kN, kM, substream_seed(o.seed, 1));
  if (symmetric) edges = graph::symmetrize(edges);
  distributed_graph g(kN, edges, distribution::cyclic(kN, o.ranks));

  if (o.algo == "cc") {
    algo::cc_solver cc(g, cfg);
    cc.transport().set_topology_stamp(g.version(), g.structure_version());
    cc.solve();
    auto vals = gather_values(cc.transport(), g, cc.components(), encode_vid);
    canonicalize_labels(vals);
    return vals;
  }

  ampp::transport tp(cfg);
  tp.set_topology_stamp(g.version(), g.structure_version());
  if (o.algo == "bfs") {
    algo::bfs_solver bfs(tp, g);
    tp.run([&](ampp::transport_context& ctx) { bfs.run_fixed_point(ctx, 0); });
    return gather_values(tp, g, bfs.depth(), encode_u64);
  }
  auto weight = pmap::edge_property_map<double>(g, [](const graph::edge_handle& e) {
    return graph::edge_weight(e.src, e.dst, 17, 8.0);
  });
  algo::sssp_solver solver(tp, g, weight);
  tp.run([&](ampp::transport_context& ctx) {
    if (o.delta > 0)
      solver.run_delta(ctx, 0, o.delta);
    else
      solver.run_fixed_point(ctx, 0);
  });
  return gather_values(tp, g, solver.dist(), encode_double);
}

const char* backend_name(const options& o) {
  switch (o.kind) {
    case ampp::backend_config::kind_t::shm_ring: return "shm_ring";
    case ampp::backend_config::kind_t::tcp: return "tcp";
    default: return "inproc";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  try {
    const std::vector<std::uint64_t> vals = run_algo(o);
    const std::uint64_t hash = fnv1a64(vals);
    // Every process computes the full array (the gather is an allgather),
    // so every process could print; rank 0 owns the report line.
    if (o.rank == 0) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(hash));
      std::cout << "RESULT algo=" << o.algo << " seed=" << o.seed
                << " ranks=" << static_cast<unsigned>(o.ranks)
                << " backend=" << backend_name(o) << " plan=" << o.plan
                << " hash=" << hex << std::endl;
    }
  } catch (const std::exception& e) {
    std::cerr << "rankproc[rank " << static_cast<unsigned>(o.rank)
              << "]: " << e.what() << std::endl;
    return 1;
  }
  return 0;
}
