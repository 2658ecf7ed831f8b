// Fundamental identifiers for the active-message runtime.
#pragma once

#include <cstdint>

namespace dpg::ampp {

/// Rank identifier (a "node" of the simulated distributed machine).
using rank_t = std::uint32_t;

/// Message-type identifier assigned at registration time.
using msg_type_id = std::uint32_t;

inline constexpr rank_t invalid_rank = static_cast<rank_t>(-1);

namespace detail {
/// The calling thread's rank and handler flag, set by transport::run and
/// its dispatch loop. Inline constant-initialized thread-locals, so the
/// readers below compile to one TLS load: property maps and sends check
/// them on every access.
inline constinit thread_local rank_t tl_current_rank = invalid_rank;
inline constinit thread_local bool tl_in_handler = false;
}  // namespace detail

/// Rank of the calling thread inside transport::run, or invalid_rank
/// outside. Property maps and graph accessors use this to enforce the
/// owner-computes discipline the paper assumes (§III-A / §IV).
inline rank_t current_rank() noexcept { return detail::tl_current_rank; }

/// True while the calling thread dispatches a delivered envelope's
/// handler (on the rank's own thread or a handler thread). Work done
/// there is sent at once: a sender-side accumulator is drained only at the
/// start of a flush, and a fold made inside the drain-and-dispatch loop of
/// a termination-detection round would miss that round's report.
inline bool in_handler() noexcept { return detail::tl_in_handler; }

namespace detail {
/// Set by transport::run for each SPMD thread. RAII so nested runs
/// (not supported) fail loudly rather than corrupt state.
class current_rank_scope {
 public:
  explicit current_rank_scope(rank_t r) noexcept;
  ~current_rank_scope();
  current_rank_scope(const current_rank_scope&) = delete;
  current_rank_scope& operator=(const current_rank_scope&) = delete;
};
}  // namespace detail

}  // namespace dpg::ampp
