// One timed distributed solve: transport::run around a strategy call, with
// the counter delta it consumed and the spans the traced pass records
// (ampp.run on the calling thread, the strategy call on rank 0 under it).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "ampp/transport.hpp"
#include "harness.hpp"
#include "pmap/vertex_map.hpp"
#include "strategy/strategies.hpp"

namespace perfbench {

struct solve_sample {
  double wall_s = 0;
  dpg::obs::stats_snapshot delta;
  dpg::strategy::result res;
};

/// `body(ctx)` runs on every rank and returns the strategy result; rank 0's
/// is kept. The wall time spans exactly the transport::run call.
template <class F>
solve_sample timed_run(dpg::ampp::transport& tp, const char* strategy_span, F&& body) {
  solve_sample s;
  obs_scope sc(tp.obs());
  const auto t0 = clock::now();
  {
    span run("ampp.run");
    const tracer::span_id parent = run.id();
    tp.run([&](dpg::ampp::transport_context& ctx) {
      if (ctx.rank() == 0) {
        span st(strategy_span, parent);
        s.res = body(ctx);
      } else {
        body(ctx);
      }
    });
  }
  s.wall_s = seconds_since(t0);
  s.delta = sc.finish();
  return s;
}

/// Bit-for-bit equality of a distributed distance map with an oracle.
inline bool same_bits(const dpg::pmap::vertex_property_map<double>& d,
                      const std::vector<double>& ref) {
  for (std::uint64_t v = 0; v < ref.size(); ++v)
    if (std::bit_cast<std::uint64_t>(d[v]) != std::bit_cast<std::uint64_t>(ref[v]))
      return false;
  return true;
}

}  // namespace perfbench
