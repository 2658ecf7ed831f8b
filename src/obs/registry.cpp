#include "obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/log.hpp"

namespace dpg::obs {

// ---------------------------------------------------------------------------
// snapshots
// ---------------------------------------------------------------------------

stats_snapshot stats_snapshot::operator-(const stats_snapshot& o) const {
  stats_snapshot d;
  d.core = core - o.core;
  d.per_type.reserve(per_type.size());
  for (std::size_t i = 0; i < per_type.size(); ++i) {
    type_counters t = per_type[i];
    if (i < o.per_type.size()) {
      t.sent -= o.per_type[i].sent;
      t.handled -= o.per_type[i].handled;
      t.bytes -= o.per_type[i].bytes;
      t.envelopes -= o.per_type[i].envelopes;
      t.wire_bytes -= o.per_type[i].wire_bytes;
      // max_env_bytes is a gauge: the later snapshot's value stands.
    }
    d.per_type.push_back(std::move(t));
  }
  return d;
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

registry::registry() {
  if (const char* path = std::getenv("DPG_TRACE"); path != nullptr && *path != '\0') {
    trace_path_ = path;
    tracer_.enable();
  }
  if (const char* s = std::getenv("DPG_OBS_SUMMARY"); s != nullptr && *s != '\0' &&
                                                      std::strcmp(s, "0") != 0) {
    summary_on_destroy_ = true;
  }
}

registry::~registry() {
  if (!trace_path_.empty() && tracer_.recorded() > 0) {
    // Each transport in the process gets its own file: the first takes the
    // configured path verbatim, later ones append .1, .2, …
    static std::atomic<unsigned> seq{0};
    const unsigned n = seq.fetch_add(1, std::memory_order_relaxed);
    std::string path = trace_path_;
    if (n > 0) {
      path += '.';
      path += std::to_string(n);
    }
    if (export_trace(path))
      DPG_INFO("wrote Chrome trace to '%s' (%zu events, %llu dropped)", path.c_str(),
               tracer_.recorded(), static_cast<unsigned long long>(tracer_.dropped()));
  }
  if (summary_on_destroy_ && epochs_recorded() > 0)
    std::fputs(epoch_summary().c_str(), stderr);
}

std::size_t registry::add_type(std::string name) {
  types_.emplace_back();
  types_.back().name = std::move(name);
  return types_.size() - 1;
}

void registry::mark_internal(std::size_t id) { types_[id].internal = true; }

stats_snapshot registry::snapshot() const {
  stats_snapshot s;
  s.core = core_.snap();
  s.per_type.reserve(types_.size());
  for (const type_row& t : types_) {
    s.per_type.push_back(type_counters{t.name, t.internal,
                                       t.sent.load(std::memory_order_relaxed),
                                       t.handled.load(std::memory_order_relaxed),
                                       t.bytes.load(std::memory_order_relaxed),
                                       t.envelopes.load(std::memory_order_relaxed),
                                       t.wire_bytes.load(std::memory_order_relaxed),
                                       t.max_env_bytes.load(std::memory_order_relaxed)});
  }
  return s;
}

// ---------------------------------------------------------------------------
// per-epoch records
// ---------------------------------------------------------------------------

void registry::epoch_begin() {
  std::lock_guard<std::mutex> g(epochs_mu_);
  if (epoch_depth_++ != 0) {
    // A window is already open: keep the outer one (overwriting its start
    // snapshot would corrupt the record) and count the overlap instead of
    // assuming a single writer.
    ++epoch_overlaps_;
    return;
  }
  epoch_start_us_ = tracer_.now_us();
  epoch_at_begin_ = snapshot();
}

void registry::epoch_end() {
  std::lock_guard<std::mutex> g(epochs_mu_);
  if (epoch_depth_ == 0) return;  // epoch began before this registry was watching
  if (--epoch_depth_ != 0) return;  // overlapping windows merge into one record
  epoch_record rec;
  rec.index = epochs_.size();
  rec.start_us = epoch_start_us_;
  rec.dur_us = tracer_.now_us() - epoch_start_us_;
  rec.delta = snapshot() - epoch_at_begin_;
  epochs_.push_back(std::move(rec));
}

std::uint64_t registry::epoch_overlaps() const {
  std::lock_guard<std::mutex> g(epochs_mu_);
  return epoch_overlaps_;
}

std::uint64_t registry::epoch_wall_us() const {
  std::lock_guard<std::mutex> g(epochs_mu_);
  std::uint64_t us = 0;
  for (const epoch_record& e : epochs_) us += e.dur_us;
  return us;
}

std::vector<epoch_record> registry::epoch_records() const {
  std::lock_guard<std::mutex> g(epochs_mu_);
  return epochs_;
}

std::size_t registry::epochs_recorded() const {
  std::lock_guard<std::mutex> g(epochs_mu_);
  return epochs_.size();
}

std::string registry::epoch_summary() const {
  const std::vector<epoch_record> eps = epoch_records();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "%5s %9s %10s %10s %9s %12s %12s %9s %9s %10s %8s %8s %9s %9s %9s %9s "
                "%5s %8s %8s\n",
                "epoch", "wall_ms", "msgs", "local", "envs", "bytes", "wire_b", "handlers",
                "td_rnds", "cache_hit", "drops", "retries", "ln_visit", "ln_skip",
                "batch_rec", "batch_krn", "muts", "delta_e", "tomb_e");
  out += line;
  counters tot{};
  std::uint64_t tot_us = 0;
  for (const epoch_record& e : eps) {
    const counters& d = e.delta.core;
    std::snprintf(line, sizeof line,
                  "%5llu %9.3f %10llu %10llu %9llu %12llu %12llu %9llu %9llu %10llu %8llu "
                  "%8llu %9llu %9llu %9llu %9llu %5llu %8llu %8llu\n",
                  static_cast<unsigned long long>(e.index), e.dur_us / 1e3,
                  static_cast<unsigned long long>(d.messages_sent),
                  static_cast<unsigned long long>(d.local_applies),
                  static_cast<unsigned long long>(d.envelopes_sent),
                  static_cast<unsigned long long>(d.bytes_sent),
                  static_cast<unsigned long long>(d.wire_bytes_sent),
                  static_cast<unsigned long long>(d.handler_invocations),
                  static_cast<unsigned long long>(d.td_rounds),
                  static_cast<unsigned long long>(d.cache_hits),
                  static_cast<unsigned long long>(d.envelopes_dropped),
                  static_cast<unsigned long long>(d.envelopes_retried),
                  static_cast<unsigned long long>(d.flush_lane_visits),
                  static_cast<unsigned long long>(d.flush_lane_skips),
                  static_cast<unsigned long long>(d.batch_records),
                  static_cast<unsigned long long>(d.batch_kernels_run),
                  static_cast<unsigned long long>(d.graph_mutations),
                  static_cast<unsigned long long>(d.delta_edges),
                  static_cast<unsigned long long>(d.tombstoned_edges));
    out += line;
    tot = tot + d;
    tot_us += e.dur_us;
  }
  // Topology mutation is only legal *between* runs, so every per-epoch
  // delta is zero for these three; the totals row reports the cumulative
  // counts instead of the (empty) sum of epoch deltas.
  {
    const counters cum = core_.snap();
    tot.graph_mutations = cum.graph_mutations;
    tot.delta_edges = cum.delta_edges;
    tot.tombstoned_edges = cum.tombstoned_edges;
  }
  std::snprintf(line, sizeof line,
                "%5s %9.3f %10llu %10llu %9llu %12llu %12llu %9llu %9llu %10llu %8llu "
                "%8llu %9llu %9llu %9llu %9llu %5llu %8llu %8llu\n",
                "total", tot_us / 1e3, static_cast<unsigned long long>(tot.messages_sent),
                static_cast<unsigned long long>(tot.local_applies),
                static_cast<unsigned long long>(tot.envelopes_sent),
                static_cast<unsigned long long>(tot.bytes_sent),
                static_cast<unsigned long long>(tot.wire_bytes_sent),
                static_cast<unsigned long long>(tot.handler_invocations),
                static_cast<unsigned long long>(tot.td_rounds),
                static_cast<unsigned long long>(tot.cache_hits),
                static_cast<unsigned long long>(tot.envelopes_dropped),
                static_cast<unsigned long long>(tot.envelopes_retried),
                static_cast<unsigned long long>(tot.flush_lane_visits),
                static_cast<unsigned long long>(tot.flush_lane_skips),
                static_cast<unsigned long long>(tot.batch_records),
                static_cast<unsigned long long>(tot.batch_kernels_run),
                static_cast<unsigned long long>(tot.graph_mutations),
                static_cast<unsigned long long>(tot.delta_edges),
                static_cast<unsigned long long>(tot.tombstoned_edges));
  out += line;

  out += "per-type totals (cumulative):\n";
  for (std::size_t i = 0; i < num_types(); ++i) {
    std::snprintf(line, sizeof line,
                  "  %-32s %10llu sent %10llu handled %12llu bytes %8llu envs "
                  "%12llu wire%s\n",
                  types_[i].name.c_str(),
                  static_cast<unsigned long long>(type_sent(i)),
                  static_cast<unsigned long long>(type_handled(i)),
                  static_cast<unsigned long long>(type_bytes(i)),
                  static_cast<unsigned long long>(type_envelopes(i)),
                  static_cast<unsigned long long>(type_wire_bytes(i)),
                  types_[i].internal ? "  [control]" : "");
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// cross-registry aggregation (rollup)
// ---------------------------------------------------------------------------

void merge(stats_snapshot& a, const stats_snapshot& b) {
  a.core = a.core + b.core;
  for (const type_counters& t : b.per_type) {
    type_counters* row = nullptr;
    for (type_counters& existing : a.per_type)
      if (existing.name == t.name) {
        row = &existing;
        break;
      }
    if (row == nullptr) {
      a.per_type.push_back(t);
      continue;
    }
    row->sent += t.sent;
    row->handled += t.handled;
    row->bytes += t.bytes;
    row->envelopes += t.envelopes;
    row->wire_bytes += t.wire_bytes;
    row->max_env_bytes = std::max(row->max_env_bytes, t.max_env_bytes);
  }
}

void rollup::absorb(const std::string& label, const stats_snapshot& totals,
                    std::uint64_t epochs, std::uint64_t wall_us) {
  std::lock_guard<std::mutex> g(mu_);
  context_row* row = nullptr;
  for (context_row& r : rows_)
    if (r.label == label) {
      row = &r;
      break;
    }
  if (row == nullptr) {
    rows_.push_back(context_row{});
    row = &rows_.back();
    row->label = label;
  }
  merge(row->totals, totals);
  row->epochs += epochs;
  row->wall_us += wall_us;
  ++row->contexts;
}

void rollup::absorb(const std::string& label, const registry& reg) {
  absorb(label, reg.snapshot(), reg.epochs_recorded(), reg.epoch_wall_us());
}

void rollup::note_query(std::uint64_t tenant, bool cache_hit, bool merged,
                        std::uint64_t latency_us) {
  std::lock_guard<std::mutex> g(mu_);
  tenant_row& t = tenants_[tenant];
  ++t.queries;
  if (cache_hit) ++t.cache_hits;
  if (merged) ++t.merged;
  t.latency_us_sum += latency_us;
  t.latency_us_max = std::max(t.latency_us_max, latency_us);
}

void rollup::note_solve(std::uint64_t tenant) {
  std::lock_guard<std::mutex> g(mu_);
  ++tenants_[tenant].solves;
}

void rollup::note_repair(std::uint64_t tenant) {
  std::lock_guard<std::mutex> g(mu_);
  ++tenants_[tenant].repairs;
}

void rollup::note_mutation(std::uint64_t tenant) {
  std::lock_guard<std::mutex> g(mu_);
  ++tenants_[tenant].mutations;
}

std::vector<rollup::context_row> rollup::contexts() const {
  std::lock_guard<std::mutex> g(mu_);
  return rows_;
}

rollup::tenant_row rollup::tenant(std::uint64_t id) const {
  std::lock_guard<std::mutex> g(mu_);
  const auto it = tenants_.find(id);
  return it != tenants_.end() ? it->second : tenant_row{};
}

std::size_t rollup::tenants_seen() const {
  std::lock_guard<std::mutex> g(mu_);
  return tenants_.size();
}

stats_snapshot rollup::total() const {
  std::lock_guard<std::mutex> g(mu_);
  stats_snapshot s;
  for (const context_row& r : rows_) merge(s, r.totals);
  return s;
}

std::string rollup::summary() const {
  std::lock_guard<std::mutex> g(mu_);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-20s %5s %6s %9s %10s %9s %12s %12s %10s\n",
                "context", "ctxs", "epochs", "wall_ms", "msgs", "envs", "bytes",
                "wire_b", "cache_hit");
  out += line;
  stats_snapshot tot;
  std::uint64_t tot_epochs = 0, tot_wall = 0, tot_ctxs = 0;
  for (const context_row& r : rows_) {
    const counters& c = r.totals.core;
    std::snprintf(line, sizeof line,
                  "%-20s %5llu %6llu %9.3f %10llu %9llu %12llu %12llu %10llu\n",
                  r.label.c_str(), static_cast<unsigned long long>(r.contexts),
                  static_cast<unsigned long long>(r.epochs), r.wall_us / 1e3,
                  static_cast<unsigned long long>(c.messages_sent),
                  static_cast<unsigned long long>(c.envelopes_sent),
                  static_cast<unsigned long long>(c.bytes_sent),
                  static_cast<unsigned long long>(c.wire_bytes_sent),
                  static_cast<unsigned long long>(c.cache_hits));
    out += line;
    merge(tot, r.totals);
    tot_epochs += r.epochs;
    tot_wall += r.wall_us;
    tot_ctxs += r.contexts;
  }
  {
    const counters& c = tot.core;
    std::snprintf(line, sizeof line,
                  "%-20s %5llu %6llu %9.3f %10llu %9llu %12llu %12llu %10llu\n", "total",
                  static_cast<unsigned long long>(tot_ctxs),
                  static_cast<unsigned long long>(tot_epochs), tot_wall / 1e3,
                  static_cast<unsigned long long>(c.messages_sent),
                  static_cast<unsigned long long>(c.envelopes_sent),
                  static_cast<unsigned long long>(c.bytes_sent),
                  static_cast<unsigned long long>(c.wire_bytes_sent),
                  static_cast<unsigned long long>(c.cache_hits));
    out += line;
  }
  if (!tenants_.empty()) {
    out += "per-tenant serving counters:\n";
    std::snprintf(line, sizeof line, "  %-8s %8s %9s %7s %7s %8s %5s %10s %10s\n",
                  "tenant", "queries", "cache_hit", "merged", "solves", "repairs",
                  "muts", "lat_avg_us", "lat_max_us");
    out += line;
    for (const auto& [id, t] : tenants_) {
      const double avg =
          t.queries != 0 ? static_cast<double>(t.latency_us_sum) / t.queries : 0.0;
      std::snprintf(line, sizeof line,
                    "  %-8llu %8llu %9llu %7llu %7llu %8llu %5llu %10.1f %10llu\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(t.queries),
                    static_cast<unsigned long long>(t.cache_hits),
                    static_cast<unsigned long long>(t.merged),
                    static_cast<unsigned long long>(t.solves),
                    static_cast<unsigned long long>(t.repairs),
                    static_cast<unsigned long long>(t.mutations), avg,
                    static_cast<unsigned long long>(t.latency_us_max));
      out += line;
    }
  }
  return out;
}

void rollup::clear() {
  std::lock_guard<std::mutex> g(mu_);
  rows_.clear();
  tenants_.clear();
}

// ---------------------------------------------------------------------------
// trace export helpers
// ---------------------------------------------------------------------------

std::vector<trace_event> registry::type_counter_events() const {
  std::vector<trace_event> out;
  const std::uint64_t ts = tracer_.now_us();
  for (std::size_t i = 0; i < num_types(); ++i) {
    if (type_sent(i) == 0 && type_handled(i) == 0) continue;
    trace_event ev;
    ev.set_name(("msg:" + types_[i].name).c_str());
    ev.cat = "counter";
    ev.ts_us = ts;
    ev.dur_us = 0;
    ev.tid = 0;
    ev.n_args = 4;
    ev.args[0] = {"sent", type_sent(i)};
    ev.args[1] = {"handled", type_handled(i)};
    ev.args[2] = {"bytes", type_bytes(i)};
    ev.args[3] = {"wire_bytes", type_wire_bytes(i)};
    out.push_back(ev);
  }
  return out;
}

}  // namespace dpg::obs
