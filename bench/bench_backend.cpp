// Wire-backend microbenchmarks (ISSUE 8): per-frame cost of the shm SPSC
// ring and the TCP loopback mesh, both ends hosted in this process with an
// explicit channel (the same trick tests/ampp/backend_test.cpp uses). The
// numbers bound what a cross-process machine pays per envelope on top of
// the in-process inbox push, per payload size.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "ampp/backend.hpp"

namespace {

using namespace dpg;

std::uint32_t next_channel() {
  static std::atomic<std::uint32_t> c{5000};  // clear of any transport's channels
  return c.fetch_add(1);
}

ampp::backend_config bench_cfg(ampp::backend_config::kind_t kind, ampp::rank_t self,
                               std::uint32_t channel) {
  ampp::backend_config cfg;
  cfg.kind = kind;
  cfg.self_rank = self;
  cfg.session = "bench" + std::to_string(::getpid());
  cfg.base_port = static_cast<std::uint16_t>(21000 + (::getpid() % 2048) * 16);
  cfg.ring_bytes = 1u << 20;
  cfg.channel = static_cast<std::int32_t>(channel);
  return cfg;
}

/// A 2-rank machine, both backends in this process.
struct pair_machine {
  std::unique_ptr<ampp::wire_backend> a, b;

  explicit pair_machine(ampp::backend_config::kind_t kind) {
    const std::uint32_t channel = next_channel();
    auto fa = std::async(std::launch::async,
                         [&] { return ampp::make_wire(bench_cfg(kind, 0, channel), 2); });
    auto fb = std::async(std::launch::async,
                         [&] { return ampp::make_wire(bench_cfg(kind, 1, channel), 2); });
    a = fa.get();
    b = fb.get();
  }
};

void send_drain_loop(benchmark::State& state, ampp::backend_config::kind_t kind) {
  const std::uint32_t payload_bytes = static_cast<std::uint32_t>(state.range(0));
  pair_machine m(kind);
  std::vector<std::byte> payload(payload_bytes, std::byte{0x5a});
  ampp::wire_header h;
  h.type_hash = ampp::wire_name_hash("bench.frame");
  h.count = 1;
  h.payload_bytes = payload_bytes;
  h.src = 0;
  std::uint64_t seq = 0;
  std::size_t sink_bytes = 0;
  const auto sink = [&](const ampp::wire_header& rh, const std::byte* p) {
    sink_bytes += rh.payload_bytes;
    benchmark::DoNotOptimize(p);
  };
  // Batches of 16 frames per drain amortize the poll() entry cost the way
  // the transport's own progress loop does.
  constexpr int kBatch = 16;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      h.seq = seq++;
      m.a->send(1, h, payload.data());
    }
    std::size_t got = 0;
    while (got < kBatch) got += m.b->poll(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(seq));
  state.SetBytesProcessed(static_cast<std::int64_t>(sink_bytes));
}

void BM_ShmRingSendDrain(benchmark::State& state) {
  send_drain_loop(state, ampp::backend_config::kind_t::shm_ring);
}

void BM_TcpLoopbackSendDrain(benchmark::State& state) {
  send_drain_loop(state, ampp::backend_config::kind_t::tcp);
}

BENCHMARK(BM_ShmRingSendDrain)->Arg(64)->Arg(1024)->Arg(16384)->UseRealTime();
BENCHMARK(BM_TcpLoopbackSendDrain)->Arg(64)->Arg(1024)->Arg(16384)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
