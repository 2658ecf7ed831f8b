// dpg_perfbench: the end-to-end benchmark program.
//
//   dpg_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--git-sha SHA]
//
// Prints a provenance line, then as its last line one JSON object with the
// keys correct / attempted / failed / metrics. Exits non-zero on bad
// arguments or an unexpected error (without a result line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dpg_perfbench --workload rmat17-sssp|rmat17-dense|serve-mixed "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--git-sha") {
      opt.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0)) return usage();

  perfbench::outcome out;
  try {
    if (opt.workload == "rmat17-sssp")
      perfbench::run_rmat_sssp(opt, out);
    else if (opt.workload == "rmat17-dense")
      perfbench::run_rmat_dense(opt, out);
    else if (opt.workload == "serve-mixed")
      perfbench::run_serve_mixed(opt, out);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  perfbench::print_result(opt, out);
  return 0;
}
