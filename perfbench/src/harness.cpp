#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "ampp/transport.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::uint64_t fingerprint(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : words)
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  return h;
}

// ---- tracing -----------------------------------------------------------------

namespace {
thread_local tracer::span_id tl_current = tracer::none;
}  // namespace

tracer::span_id tracer::open(const char* name, span_id parent) {
  if (!on_) return none;
  const auto now = clock::now();
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(record{name, parent, now, now});
  return static_cast<span_id>(spans_.size() - 1);
}

void tracer::close(span_id id) {
  if (id == none) return;
  const auto now = clock::now();
  std::lock_guard<std::mutex> g(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::vector<tracer::record> tracer::records() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_;
}

tracer& global_tracer() {
  static tracer t;
  return t;
}

span::span(const char* name) : span(name, tl_current) {}

span::span(const char* name, tracer::span_id parent)
    : id_(global_tracer().open(name, parent)), saved_(tl_current) {
  if (id_ != tracer::none) tl_current = id_;
}

span::~span() {
  global_tracer().close(id_);
  tl_current = saved_;
}

namespace {

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

double overlap_s(const tracer::record& a, const tracer::record& b) {
  const auto lo = std::max(a.start, b.start);
  const auto hi = std::min(a.end, b.end);
  return hi > lo ? std::chrono::duration<double>(hi - lo).count() : 0.0;
}

/// Per-layer self time and the wall time the root spans cover.
struct layer_split {
  std::map<std::string, double> self_s;  ///< layer -> seconds
  double wall_s = 0;     ///< sum of root-span durations (one root per thread)
  double covered_s = 0;  ///< self time of every layer except the root "bench"
};

layer_split split_by_layer(const std::vector<tracer::record>& spans) {
  std::vector<double> covered_by_children(spans.size(), 0.0);
  for (const tracer::record& s : spans)
    if (s.parent != tracer::none) {
      const auto p = static_cast<std::size_t>(s.parent);
      covered_by_children[p] += overlap_s(s, spans[p]);
    }
  layer_split out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = std::chrono::duration<double>(spans[i].end - spans[i].start).count();
    out.self_s[layer_of(spans[i].name)] += std::max(0.0, dur - covered_by_children[i]);
    if (spans[i].parent == tracer::none) out.wall_s += dur;
  }
  for (const auto& [layer, s] : out.self_s)
    if (layer != "bench") out.covered_s += s;
  return out;
}

}  // namespace

// ---- outcome -----------------------------------------------------------------

void outcome::check(bool good, const std::string& what) {
  ++attempted;
  if (!good) fail(what);
}

void outcome::fail(const std::string& what) {
  ++failed;
  if (failed <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void outcome::add(const std::string& name, double value, const std::string& unit) {
  for (metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back(metric{name, value, unit});
}

obs_scope::obs_scope(const dpg::obs::registry& reg) : reg_(&reg) {
  span s("obs.snapshot");
  begin_ = reg.snapshot();
}

dpg::obs::stats_snapshot obs_scope::finish() {
  span s("obs.snapshot");
  return reg_->snapshot() - begin_;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- fixed-cost probes -------------------------------------------------------

namespace {

struct fixed_costs {
  double empty_run_us = 0;
  double barrier_us = 0;
};

fixed_costs probe_transport(dpg::ampp::rank_t ranks, int reps) {
  namespace ampp = dpg::ampp;
  ampp::transport tp(ampp::machine_config{.n_ranks = ranks}, ampp::tuning_config{});
  constexpr int kWarm = 5;
  constexpr int kBarriersPerRun = 50;
  std::vector<double> runs, barriers;
  for (int i = 0; i < kWarm + reps; ++i) {
    const double t = time_s([&] { tp.run([](ampp::transport_context&) {}); });
    if (i >= kWarm) runs.push_back(t * 1e6);
  }
  for (int i = 0; i < reps; ++i) {
    double per_barrier_us = 0;
    tp.run([&](ampp::transport_context& ctx) {
      ctx.barrier();
      const auto t0 = clock::now();
      for (int b = 0; b < kBarriersPerRun; ++b) ctx.barrier();
      if (ctx.rank() == 0) per_barrier_us = seconds_since(t0) * 1e6 / kBarriersPerRun;
    });
    barriers.push_back(per_barrier_us);
  }
  return {median(runs), median(barriers)};
}

}  // namespace

void add_transport_probes(outcome& out, int reps) {
  span root("bench.probe");
  span s("ampp.probe");
  for (const dpg::ampp::rank_t r : {2u, 4u}) {
    const fixed_costs c = probe_transport(r, reps);
    const std::string suffix = ".r" + std::to_string(r);
    out.add("ampp.empty_run_us" + suffix, c.empty_run_us, "us");
    out.add("ampp.barrier_us" + suffix, c.barrier_us, "us");
  }
}

// ---- trace metrics -----------------------------------------------------------

namespace {

/// Every layer a span name can start with; each gets a self-time metric.
constexpr const char* kLayers[] = {"graph", "pattern", "ampp", "strategy", "algo",
                                   "serve", "obs",     "verify", "bench"};

/// Every per-layer metric a traced run prints, with its unit (mirrors the
/// per_layer list of BENCHMARK.json at the repository root).
const std::vector<std::pair<const char*, const char*>>& layer_metric_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"graph.generate_s", "s"},
      {"graph.build_s", "s"},
      {"graph.overlay_bytes", "bytes"},
      {"graph.tombstone_bytes", "bytes"},
      {"pattern.instantiate_ms", "ms"},
      {"pattern.relax_per_edge", "1/edge"},
      {"pattern.useful_relax_frac", "frac"},
      {"pattern.batch_record_frac", "frac"},
      {"ampp.msgs_per_edge", "1/edge"},
      {"ampp.wire_bytes_per_edge", "B/edge"},
      {"ampp.records_per_envelope", "1/env"},
      {"ampp.reduction_hit_frac", "frac"},
      {"ampp.td_rounds", "count"},
      {"ampp.epochs", "count"},
      {"ampp.empty_run_us.r2", "us"},
      {"ampp.empty_run_us.r4", "us"},
      {"ampp.barrier_us.r2", "us"},
      {"ampp.barrier_us.r4", "us"},
      {"strategy.delta_epochs", "count"},
      {"strategy.rounds", "count"},
      {"strategy.fp_r1_s", "s"},
      {"strategy.delta_r4_s", "s"},
      {"strategy.fused3_r4_s", "s"},
      {"algo.dijkstra_s", "s"},
      {"algo.pagerank_seq_s", "s"},
      {"algo.cc_union_find_s", "s"},
      {"algo.cc_r4_s", "s"},
      {"algo.cost_x", "x"},
      {"serve.solve_ms.sssp", "ms"},
      {"serve.solve_ms.bfs", "ms"},
      {"serve.query_p99_ms", "ms"},
      {"serve.repair_ms", "ms"},
      {"serve.mutation_p50_ms", "ms"},
      {"serve.warm_repair_frac", "frac"},
      {"serve.sessions_created", "count"},
      {"serve.merged", "count"},
      {"serve.session_cold_ms", "ms"},
      {"serve.session_warm_ms", "ms"},
      {"serve.cache_hit_frac", "frac"},
      {"obs.trace_overhead_frac", "frac"},
      {"obs.span_coverage_frac", "frac"},
      {"obs.trace_wall_s", "s"},
      {"graph.self_s", "s"},
      {"pattern.self_s", "s"},
      {"ampp.self_s", "s"},
      {"strategy.self_s", "s"},
      {"algo.self_s", "s"},
      {"serve.self_s", "s"},
      {"obs.self_s", "s"},
      {"verify.self_s", "s"},
      {"bench.self_s", "s"},
  };
  return names;
}

}  // namespace

void add_trace_metrics(outcome& out, double untraced_s, double traced_s) {
  layer_split split = split_by_layer(global_tracer().records());
  double layer_sum = 0.0;
  for (const char* layer : kLayers) {
    const double s = split.self_s[layer];
    out.add(std::string(layer) + ".self_s", s, "s");
    layer_sum += s;
  }
  const double coverage = split.wall_s > 0 ? split.covered_s / split.wall_s : 0.0;
  out.add("obs.trace_wall_s", split.wall_s, "s");
  out.add("obs.span_coverage_frac", coverage, "frac");
  out.add("obs.trace_overhead_frac", untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0,
          "frac");
  // The layer split must add up: every span belongs to one listed layer,
  // and the named layers (everything but the benchmark's own glue) must
  // cover at least 90% of the traced wall time.
  out.check(std::abs(layer_sum - split.wall_s) <= 0.1 * split.wall_s && coverage >= 0.9,
            "layer self times sum to " + std::to_string(layer_sum) + " s, named layers cover " +
                std::to_string(coverage) + " of " + std::to_string(split.wall_s) + " s wall");
}

// ---- output ------------------------------------------------------------------

namespace {

const char* cpu_simd_tier() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("sse4.2")) return "sse4";
#endif
  return "scalar";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

void print_provenance(const options& opt, unsigned scale) {
#ifdef __OPTIMIZE__
  constexpr bool optimized = true;
#else
  constexpr bool optimized = false;
#endif
  const char* forced = std::getenv("DPG_SIMD_LEVEL");
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"scale\": %u, "
      "\"smoke\": %s, \"trace\": %s, \"build_type\": \"%s\", \"optimized\": %s, "
      "\"compiler\": \"%s\", \"nproc\": %u, \"git_sha\": \"%s\", "
      "\"simd_detected\": \"%s\", \"simd_forced\": \"%s\"}}\n",
      json_escape(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed), scale,
      opt.smoke ? "true" : "false", opt.trace ? "true" : "false", PERFBENCH_BUILD_TYPE,
      optimized ? "true" : "false", json_escape(__VERSION__).c_str(),
      std::thread::hardware_concurrency(), json_escape(opt.git_sha).c_str(), cpu_simd_tier(),
      forced != nullptr ? json_escape(forced).c_str() : "auto");
  if (!optimized)
    std::fprintf(stderr,
                 "perfbench: WARNING: this build is NOT optimized (build type %s); "
                 "its timings are not comparable with optimized runs\n",
                 PERFBENCH_BUILD_TYPE);
}

void print_result(const options& opt, outcome& out) {
  if (opt.trace) {
    for (const auto& [name, unit] : layer_metric_names()) {
      bool present = false;
      for (const metric& m : out.metrics) present = present || m.name == name;
      if (!present) out.add(name, 0.0, unit);
    }
  }
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i != 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
