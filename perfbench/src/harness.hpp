// Shared machinery of the end-to-end benchmark: options, the in-memory span
// tracer, outcome/metric bookkeeping, and small timing/statistics helpers.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each library layer (graph, pattern, ampp, strategy, algo, serve,
// obs). A span's layer is the part of its name before the first '.'; a
// layer's self time is its spans' durations minus the time their child
// spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace perfbench {

using clock = std::chrono::steady_clock;

inline double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Runs `f` and returns its wall time in seconds.
template <class F>
double time_s(F&& f) {
  const auto t0 = clock::now();
  f();
  return seconds_since(t0);
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< small inputs and minimal round counts
  std::string git_sha = "unknown";
};

// ---- statistics --------------------------------------------------------------

/// Quantile (q in [0,1]) of a sample, interpolating between the closest
/// ranks; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v);

/// a / b for counters, 0 when nothing was counted.
inline double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// FNV-1a over 64-bit words: the result fingerprint checked against the
/// oracle's.
std::uint64_t fingerprint(const std::vector<std::uint64_t>& words);

// ---- tracing -----------------------------------------------------------------

class tracer {
 public:
  using span_id = std::int64_t;
  static constexpr span_id none = -1;

  struct record {
    const char* name;
    span_id parent;
    clock::time_point start;
    clock::time_point end;
  };

  void enable(bool on) { on_ = on; }

  span_id open(const char* name, span_id parent);
  void close(span_id id);
  std::vector<record> records() const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<record> spans_;
};

tracer& global_tracer();

/// RAII span. Without an explicit parent it nests under the innermost span
/// open on this thread; pass a parent to attach work done on another
/// thread (the rank-0 strategy call under its ampp.run span).
class span {
 public:
  explicit span(const char* name);
  span(const char* name, tracer::span_id parent);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  tracer::span_id id() const { return id_; }

 private:
  tracer::span_id id_;
  tracer::span_id saved_;
};

// ---- outcome -----------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

/// Attempted/failed operation counts plus the metrics one run reports.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;

  /// Counts one attempted operation that failed when `good` is false.
  void check(bool good, const std::string& what);
  /// Counts a failure of an operation already counted as attempted.
  void fail(const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
};

/// Runs `op`; an escaping exception fails the operation it belongs to.
template <class F>
void guarded(outcome& out, const std::string& what, F&& op) {
  try {
    op();
  } catch (const std::exception& e) {
    out.fail(what + ": " + e.what());
  }
}

/// A counter-delta capture wrapped in obs spans (the benchmark's calls
/// into the obs layer).
class obs_scope {
 public:
  explicit obs_scope(const dpg::obs::registry& reg);
  dpg::obs::stats_snapshot finish();

 private:
  const dpg::obs::registry* reg_;
  dpg::obs::stats_snapshot begin_;
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Adds the fixed-cost probes, through public calls only, as ampp.*
/// per-layer metrics: an empty transport::run and one ctx.barrier() at 2
/// and 4 ranks, medians in microseconds.
void add_transport_probes(outcome& out, int reps);

/// Adds per-layer self times, span coverage and trace overhead from the
/// recorded spans, and checks that the layers add up to the wall time.
/// `untraced_s` / `traced_s` are the walls of the same work measured
/// without and with tracing.
void add_trace_metrics(outcome& out, double untraced_s, double traced_s);

/// Prints one line of provenance JSON (build, compiler, host, seed, scale)
/// and warns on stderr when the build is not optimized.
void print_provenance(const options& opt, unsigned scale);

/// Prints the final result line: {"correct", "attempted", "failed", "metrics"}.
/// A traced run first gets every per-layer metric it did not measure, as 0.
void print_result(const options& opt, outcome& out);

// ---- workloads ---------------------------------------------------------------

void run_rmat_sssp(const options& opt, outcome& out);
void run_rmat_dense(const options& opt, outcome& out);
void run_serve_mixed(const options& opt, outcome& out);

}  // namespace perfbench
