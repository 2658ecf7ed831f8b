// Cross-backend equivalence sweep: the same algorithm on the
// same graph must reach the identical fixed point whether the machine is
//   * the classic in-process N-thread simulator (clean or under any of the
//     four fault plans), or
//   * N real processes over a shared-memory ring wire (clean, or with the
//     lossy and chaos plans injected above the wire), or
//   * N real processes over a TCP-loopback wire.
//
// The oracle and every grid point run through one binary — tools/rankproc
// (path injected at configure time as DPG_RANKPROC_PATH) — so the hash
// comparison exercises a single canonicalization path end to end. Hashes
// are compared bit-for-bit: the backends must be invisible to results,
// exactly like the fault plans.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

#ifndef DPG_RANKPROC_PATH
#error "DPG_RANKPROC_PATH must be defined by the build"
#endif

struct proc {
  FILE* pipe = nullptr;
  std::string out;
};

/// Launches `cmd` asynchronously with stdout captured; reap() waits and
/// returns the exit status.
proc launch(const std::string& cmd) {
  proc p;
  p.pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  return p;
}

int reap(proc& p) {
  if (!p.pipe) return -1;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), p.pipe)) p.out += buf;
  const int status = ::pclose(p.pipe);
  p.pipe = nullptr;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

/// Extracts the value of `hash=` from a RESULT line; empty if absent.
std::string hash_of(const std::string& out) {
  const auto pos = out.find("hash=");
  if (pos == std::string::npos) return {};
  return out.substr(pos + 5, 16);
}

/// Each multi-process launch gets its own shm session and a disjoint port
/// block (48 ports is more than the widest machine: a channel of at most 4
/// ports per solver). The blocks lie below Linux's ephemeral range
/// (32768-60999 by default): a listen port inside it can be taken by some
/// other connection's local port, or by a rank's own connect to it (a TCP
/// self-connection), and the machine then fails to form.
struct launch_ids {
  std::string session;
  std::uint16_t base_port;
};

launch_ids next_launch_ids() {
  static int counter = 0;
  const int c = counter++;
  launch_ids ids;
  ids.session = "bs" + std::to_string(::getpid()) + "c" + std::to_string(c);
  ids.base_port =
      static_cast<std::uint16_t>(10000 + (::getpid() % 7) * 3072 + (c % 64) * 48);
  return ids;
}

std::string rankproc_cmd(const std::string& backend, unsigned ranks, unsigned rank,
                         const std::string& algo, std::uint64_t seed,
                         const launch_ids& ids, const std::string& plan = "none",
                         const std::string& extra = "") {
  std::string cmd = std::string(DPG_RANKPROC_PATH) + " --backend " + backend +
                    " --ranks " + std::to_string(ranks) + " --rank " +
                    std::to_string(rank) + " --algo " + algo + " --seed " +
                    std::to_string(seed) + " --session " + ids.session +
                    " --base-port " + std::to_string(ids.base_port);
  if (plan != "none") cmd += " --plan " + plan;
  return cmd + extra;
}

/// Runs the in-process machine (one subprocess hosting all ranks as
/// threads) and returns its result hash.
std::string run_inproc(unsigned ranks, const std::string& algo, std::uint64_t seed,
                       const std::string& plan, const std::string& extra = "") {
  proc p =
      launch(rankproc_cmd("inproc", ranks, 0, algo, seed, next_launch_ids(), plan, extra));
  const int rc = reap(p);
  EXPECT_EQ(rc, 0) << "inproc rankproc failed (plan=" << plan << "):\n" << p.out;
  return hash_of(p.out);
}

/// Runs a full cross-process machine (one subprocess per rank) and returns
/// rank 0's result hash.
std::string run_cross(const std::string& backend, unsigned ranks,
                      const std::string& algo, std::uint64_t seed,
                      const std::string& extra = "", const std::string& plan = "none") {
  const launch_ids ids = next_launch_ids();
  std::vector<proc> procs(ranks);
  for (unsigned r = 0; r < ranks; ++r)
    procs[r] = launch(rankproc_cmd(backend, ranks, r, algo, seed, ids, plan, extra));
  bool ok = true;
  for (unsigned r = 0; r < ranks; ++r) {
    const int rc = reap(procs[r]);
    EXPECT_EQ(rc, 0) << backend << " rank " << r << " failed:\n" << procs[r].out;
    ok = ok && rc == 0;
  }
  return ok ? hash_of(procs[0].out) : std::string();
}

class BackendSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendSweep, FixedPointsMatchAcrossWires) {
  const std::string algo = GetParam();
  const std::uint64_t seed = 1;
  for (const unsigned ranks : {2u, 4u}) {
    SCOPED_TRACE("algo=" + algo + " ranks=" + std::to_string(ranks));
    // The oracle: clean in-process run. The four fault plans must already
    // be invisible to it (that is the existing seed-sweep guarantee, but
    // asserting it here pins the whole equivalence class through the same
    // hashing path the wire backends are judged by).
    const std::string oracle = run_inproc(ranks, algo, seed, "none");
    ASSERT_EQ(oracle.size(), 16u) << "oracle produced no hash";
    for (const char* plan : {"scramble", "lossy", "chaos", "control_chaos"}) {
      SCOPED_TRACE(std::string("plan=") + plan);
      EXPECT_EQ(run_inproc(ranks, algo, seed, plan), oracle)
          << "fault plan perturbed the in-process fixed point";
    }
    for (const char* backend : {"shm", "tcp"}) {
      SCOPED_TRACE(std::string("backend=") + backend);
      EXPECT_EQ(run_cross(backend, ranks, algo, seed), oracle)
          << "cross-process fixed point diverged from the in-process oracle";
    }
    // The fault decorator over a real wire: drops, retries, duplicates and
    // reordering injected above the shm ring must be as invisible as they
    // are in-process.
    for (const char* plan : {"lossy", "chaos"}) {
      SCOPED_TRACE(std::string("backend=shm plan=") + plan);
      EXPECT_EQ(run_cross("shm", ranks, algo, seed, "", plan), oracle)
          << "a fault plan over the shm wire perturbed the fixed point";
    }
  }
}

TEST(BackendSweepDelta, DeltaSteppingMatchesAcrossWires) {
  // Coordinated Δ-stepping with one process per rank: each process drives
  // its own bucketed queue, and the per-level allreduce_min crosses the
  // wire next to the relax records. The distances must be bit-identical to
  // the in-process fixed point and to in-process Δ-stepping.
  const unsigned ranks = 2;
  const std::uint64_t seed = 1;
  const std::string delta = " --delta 2.5";
  const std::string oracle = run_inproc(ranks, "sssp", seed, "none");
  ASSERT_EQ(oracle.size(), 16u) << "oracle produced no hash";
  EXPECT_EQ(run_inproc(ranks, "sssp", seed, "none", delta), oracle);
  for (const char* backend : {"shm", "tcp"}) {
    SCOPED_TRACE(std::string("backend=") + backend);
    EXPECT_EQ(run_cross(backend, ranks, "sssp", seed, delta), oracle)
        << "cross-process Δ-stepping diverged from the in-process oracle";
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BackendSweep,
                         ::testing::Values("sssp", "bfs", "cc"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace
