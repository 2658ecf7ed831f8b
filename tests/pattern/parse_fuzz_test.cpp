// Robustness fuzzing of the pattern parser: mutated and truncated inputs
// must never crash or hang — every failure mode is a parse_error.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "pattern/parse.hpp"
#include "util/rng.hpp"

namespace dpg::pattern::text {
namespace {

constexpr const char* kSeedSource = R"(
pattern SSSP {
  vertex_property<double> dist;
  edge_property<double> weight;
  vertex_property<vertex> pnt;
  action relax(v) {
    generator e : out_edges;
    alias d = dist[v] + weight[e];
    when (dist[trg(e)] > d) { dist[trg(e)] = d; pnt[trg(e)] = v; }
    when (pnt[trg(e)] == null_vertex) { pnt[trg(e)] = v; }
  }
}
)";

/// Either parses+analyzes cleanly or throws parse_error; anything else
/// (crash, other exception) fails the test.
void must_be_graceful(const std::string& source) {
  try {
    (void)analyze(parse_pattern(source));
  } catch (const parse_error&) {
    // fine
  }
}

TEST(ParseFuzz, SeedSourceIsValid) {
  EXPECT_NO_THROW(analyze(parse_pattern(kSeedSource)));
}

TEST(ParseFuzz, TruncationsNeverCrash) {
  const std::string src = kSeedSource;
  for (std::size_t len = 0; len <= src.size(); ++len)
    must_be_graceful(src.substr(0, len));
}

TEST(ParseFuzz, ByteMutationsNeverCrash) {
  const std::string base = kSeedSource;
  xoshiro256ss rng(0xf022);
  static constexpr char kNoise[] = "{}()[];:.<>=!&|+-*/ \nabz019_";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string s = base;
    const int mutations = 1 + static_cast<int>(rng.below(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(s.size());
      s[pos] = kNoise[rng.below(sizeof(kNoise) - 1)];
    }
    must_be_graceful(s);
  }
}

TEST(ParseFuzz, TokenDeletionsNeverCrash) {
  const std::string base = kSeedSource;
  xoshiro256ss rng(0xdead);
  for (int trial = 0; trial < 500; ++trial) {
    std::string s = base;
    const std::size_t start = rng.below(s.size());
    const std::size_t len = 1 + rng.below(12);
    s.erase(start, len);
    must_be_graceful(s);
  }
}

TEST(ParseFuzz, GarbageInputs) {
  must_be_graceful("");
  must_be_graceful("pattern");
  must_be_graceful("pattern {}");
  must_be_graceful("pattern P {}");
  must_be_graceful("][[[");
  must_be_graceful(std::string(10000, '('));
  must_be_graceful("pattern P { action a(v) { when (1 < 2) { } } }");
  must_be_graceful("pattern P { vertex_property<double> x; action a(v) { when (x[v] "
                   "< x[v]) { x[v] = x[x[x[v]]]; } } }");
}

/// An otherwise valid pattern whose one condition has `guard`.
std::string with_guard(const std::string& guard) {
  return "pattern P { vertex_property<double> x; action a(v) { when (" + guard +
         ") { x[v] = 1.0; } } }";
}

/// Must throw parse_error, and quickly: these inputs used to overflow the
/// stack or run for exponential time.
void must_reject(const std::string& source) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)analyze(parse_pattern(source)), parse_error);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(ParseFuzz, DeepNestingIsAParseError) {
  for (const std::size_t n : {10000u, 20000u})
    must_reject(with_guard(std::string(n, '(') + "x[v] > 1.0" + std::string(n, ')')));
  must_reject(with_guard(std::string(100000, '!') + "true"));
  std::string chain = "x[v]";
  for (int i = 0; i < 30000; ++i) chain += " + 1";
  must_reject(with_guard(chain + " > 1.0"));
  std::string index = "v";
  for (int i = 0; i < 5000; ++i) index = "x[" + index + "]";
  must_reject(with_guard(index + " > 1.0"));

  // The limit rejects only what passes it.
  const auto parens = [](int n) {
    return with_guard(std::string(n, '(') + "x[v] > 1.0" + std::string(n, ')'));
  };
  EXPECT_NO_THROW((void)analyze(parse_pattern(parens(max_expr_depth - 8))));
  must_reject(parens(max_expr_depth + 1));
}

TEST(ParseFuzz, AliasDoublingIsAParseError) {
  // a_i = a_{i-1} + a_{i-1} pastes 2^i nodes into the guard from a source
  // that grows linearly.
  std::string src = "pattern P { vertex_property<double> x; action a(v) { alias a0 = x[v];";
  for (int i = 1; i <= 40; ++i)
    src += " alias a" + std::to_string(i) + " = a" + std::to_string(i - 1) + " + a" +
           std::to_string(i - 1) + ";";
  src += " when (a40 > 1.0) { x[v] = a40; } } }";
  must_reject(src);
}

}  // namespace
}  // namespace dpg::pattern::text
