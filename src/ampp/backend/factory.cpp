#include <atomic>
#include <stdexcept>
#include <thread>

#include "ampp/backend.hpp"
#include "ampp/backend/shm_ring.hpp"
#include "ampp/backend/tcp.hpp"
#include "ampp/transport.hpp"

namespace dpg::ampp {
namespace {

// Automatic channel assignment: SPMD rank processes construct their
// transports in the same order, so a per-process counter yields matching
// channel ids (the handshake verifies it). Never reset: a second transport
// in one process gets a fresh shm segment / port block.
std::atomic<std::uint32_t> next_channel{0};

/// Every rank is a thread of this process: send() moves the envelope into
/// the destination inbox.
class inproc_backend final : public envelope_backend {
 public:
  explicit inproc_backend(detail::inbox_set& sink) : sink_(sink) {}
  const char* name() const override { return "inproc"; }
  void send(rank_t, rank_t dest, detail::envelope&& env) override {
    sink_[dest].push(std::move(env));
  }
  void poll(rank_t) override {}

 private:
  detail::inbox_set& sink_;
};

/// This process hosts one rank: envelopes to other ranks become frames on
/// a byte pipe, arriving frames are validated and become envelopes of the
/// hosted rank.
class wire_link final : public envelope_backend {
 public:
  wire_link(const backend_host& host, detail::inbox_set& sink, bool ordered)
      : host_(host),
        sink_(sink),
        ordered_(ordered),
        self_(host.cfg.backend.self_rank),
        pipe_(make_wire(host.cfg.backend, host.cfg.n_ranks)),
        expect_(host.cfg.n_ranks, 0),
        oob_in_(host.cfg.n_ranks) {
    pipe_->set_frame_check([this](const wire_header& h) { check(h); });
  }

  const char* name() const override { return pipe_->name(); }

  void send(rank_t src, rank_t dest, detail::envelope&& env) override {
    DPG_ASSERT_MSG(src == self_, "cross-process send from a foreign rank");
    if (dest == self_) {
      sink_[dest].push(std::move(env));
      return;
    }
    wire_header h;
    h.type_id = env.vt->self->id();
    h.type_hash = env.vt->self->wire_hash();
    h.count = env.count;
    h.payload_bytes = static_cast<std::uint32_t>(env.bytes.size());
    h.src = src;
    h.seq = env.seq;
    h.topo_version = host_.stamp.version;
    h.structure_version = host_.stamp.structure_version;
    pipe_->send(dest, h, env.bytes.data());
    host_.pool.release(src, std::move(env.bytes));
  }

  void poll(rank_t) override {
    pipe_->poll([this](const wire_header& h, const std::byte* payload) { accept(h, payload); });
  }

  void reset() override { std::fill(expect_.begin(), expect_.end(), 0); }

  std::vector<std::vector<std::byte>> exchange_blobs(const std::vector<std::byte>& mine) override;

 private:
  /// The pipe's frame check, run on each header before its payload is
  /// awaited: the type must be registered under the same name here, and
  /// the length prefix must be what the type's stride (or, out of band,
  /// the exchange's bound) allows.
  void check(const wire_header& h) const {
    if (h.flags & wire_flag_oob) return validate_length(h, 0);
    const auto& types = host_.types;
    if (h.type_id >= types.size())
      throw wire_error("wire frame: unknown message type id " + std::to_string(h.type_id) +
                       " (registry has " + std::to_string(types.size()) + " types)");
    const detail::message_type_base& mt = *types[h.type_id];
    if (h.type_hash != mt.wire_hash())
      throw wire_error("wire frame: type hash mismatch for id " + std::to_string(h.type_id) +
                       " (local type '" + mt.name() +
                       "') — processes registered message types in different orders");
    validate_length(h, mt.wire_stride_bytes());
  }

  /// The pipe already ran validate_header (magic/version/endian/src) and
  /// check (registry, length); here the frame meets the local process:
  /// topology and ordering.
  void accept(const wire_header& h, const std::byte* payload) {
    if (h.flags & wire_flag_oob) {
      std::lock_guard<std::mutex> g(oob_mu_);
      oob_in_[h.src].emplace_back(h.seq,
                                  std::vector<std::byte>(payload, payload + h.payload_bytes));
      return;
    }
    detail::message_type_base* mt = host_.types[h.type_id].get();
    const topology_stamp& s = host_.stamp;
    if (h.topo_version != s.version || h.structure_version != s.structure_version)
      throw wire_error(
          "wire frame: stale topology stamp (frame v" + std::to_string(h.topo_version) + "/s" +
          std::to_string(h.structure_version) + ", local v" + std::to_string(s.version) + "/s" +
          std::to_string(s.structure_version) +
          ") — cross-process runs require single-writer topology; see docs/runtime.md");
    if (ordered_ && h.seq != expect_[h.src])
      throw wire_error("wire frame: sequence gap from rank " + std::to_string(h.src) +
                       " (got " + std::to_string(h.seq) + ", expected " +
                       std::to_string(expect_[h.src]) +
                       ") — the backend pipe is supposed to be reliable and ordered");
    ++expect_[h.src];
    detail::envelope env;
    env.vt = mt->wire_vtable();
    env.count = h.count;
    env.bytes = host_.pool.acquire(self_);
    env.bytes.assign(payload, payload + h.payload_bytes);
    env.src = h.src;
    env.seq = h.seq;
    sink_[self_].push(std::move(env));
  }

  backend_host host_;
  detail::inbox_set& sink_;
  const bool ordered_;
  const rank_t self_;
  std::unique_ptr<wire_backend> pipe_;
  /// Next expected frame sequence per source. Written only inside the
  /// pipe's serialized poll, so plain integers suffice.
  std::vector<std::uint64_t> expect_;
  /// Out-of-band blob stash: (generation, bytes) per source rank.
  std::mutex oob_mu_;
  std::vector<std::deque<std::pair<std::uint64_t, std::vector<std::byte>>>> oob_in_;
  std::uint64_t oob_gen_ = 0;  ///< exchange_blobs call counter (SPMD order)
};

std::vector<std::vector<std::byte>> wire_link::exchange_blobs(
    const std::vector<std::byte>& mine) {
  if (mine.size() > wire_max_blob_bytes)
    throw std::length_error("exchange_blobs: a blob of " + std::to_string(mine.size()) +
                            " bytes exceeds the " + std::to_string(wire_max_blob_bytes) +
                            "-byte frame bound");
  const std::uint64_t gen = ++oob_gen_;
  const rank_t n = host_.cfg.n_ranks;
  wire_header h;
  h.flags = wire_flag_oob;
  h.payload_bytes = static_cast<std::uint32_t>(mine.size());
  h.src = self_;
  h.seq = gen;  // OOB frames use the exchange generation, not the envelope seq
  h.topo_version = host_.stamp.version;
  h.structure_version = host_.stamp.structure_version;
  for (rank_t d = 0; d < n; ++d)
    if (d != self_) pipe_->send(d, h, mine.data());

  std::vector<std::vector<std::byte>> out(n);
  out[self_] = mine;
  for (rank_t src = 0; src < n; ++src) {
    if (src == self_) continue;
    for (;;) {
      {
        std::lock_guard<std::mutex> g(oob_mu_);
        auto& q = oob_in_[src];
        if (!q.empty()) {
          // SPMD program order makes generations lockstep per source; a
          // mismatch means the processes diverged.
          if (q.front().first != gen)
            throw wire_error("exchange_blobs: generation mismatch from rank " +
                             std::to_string(src) + " (got " + std::to_string(q.front().first) +
                             ", expected " + std::to_string(gen) + ")");
          out[src] = std::move(q.front().second);
          q.pop_front();
          break;
        }
      }
      poll(self_);
      std::this_thread::yield();
    }
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::byte>> envelope_backend::exchange_blobs(
    const std::vector<std::byte>&) {
  DPG_ASSERT_MSG(false, "exchange_blobs is the cross-process gather; in-process code "
                        "reads sibling shards directly");
  return {};
}

std::unique_ptr<wire_backend> make_wire(const backend_config& cfg, rank_t n_ranks) {
  const std::uint32_t channel =
      cfg.channel >= 0 ? static_cast<std::uint32_t>(cfg.channel)
                       : next_channel.fetch_add(1, std::memory_order_relaxed);
  if (cfg.kind == backend_config::kind_t::tcp)
    return std::make_unique<backend::tcp_backend>(cfg, n_ranks, channel);
  DPG_ASSERT_MSG(cfg.kind == backend_config::kind_t::shm_ring, "make_wire: not a wire kind");
  return std::make_unique<backend::shm_ring_backend>(cfg, n_ranks, channel);
}

std::unique_ptr<envelope_backend> detail::make_delivery(const backend_host& host,
                                                        inbox_set& sink, bool ordered) {
  if (!host.cfg.backend.cross_process()) return std::make_unique<inproc_backend>(sink);
  DPG_ASSERT_MSG(host.cfg.n_ranks >= 2, "a cross-process machine needs at least two ranks");
  return std::make_unique<wire_link>(host, sink, ordered);
}

std::unique_ptr<envelope_backend> make_backend(const backend_host& host) {
  if (host.cfg.faults.active()) return detail::make_faulty(host);
  return detail::make_delivery(host, host.inboxes, /*ordered=*/true);
}

}  // namespace dpg::ampp
