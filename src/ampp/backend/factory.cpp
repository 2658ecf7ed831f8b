#include <atomic>

#include "ampp/backend.hpp"
#include "ampp/backend/shm_ring.hpp"
#include "ampp/backend/tcp.hpp"

namespace dpg::ampp {
namespace {

// Automatic channel assignment: the SPMD model runs the same program in
// every rank process, so transports are constructed in the same order
// everywhere and a per-process counter yields matching channel ids (the
// handshake verifies this instead of trusting it). Deliberately never
// reset — a second transport in the same process (an example's second
// solver, serving sessions) gets a fresh shm segment / port block.
std::atomic<std::uint32_t> next_channel{0};

}  // namespace

std::unique_ptr<wire_backend> make_backend(const backend_config& cfg, rank_t n_ranks) {
  if (cfg.kind == backend_config::kind_t::inproc) return nullptr;
  const std::uint32_t channel =
      cfg.channel >= 0 ? static_cast<std::uint32_t>(cfg.channel)
                       : next_channel.fetch_add(1, std::memory_order_relaxed);
  switch (cfg.kind) {
    case backend_config::kind_t::shm_ring:
      return std::make_unique<backend::shm_ring_backend>(cfg, n_ranks, channel);
    case backend_config::kind_t::tcp:
      return std::make_unique<backend::tcp_backend>(cfg, n_ranks, channel);
    case backend_config::kind_t::inproc:
      break;
  }
  return nullptr;
}

}  // namespace dpg::ampp
