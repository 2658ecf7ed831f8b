// A concrete textual front-end for the pattern grammar of §III — the
// paper's own declared future work: "we plan to implement a translator for
// patterns that will at least generate AM++ messaging code".
//
// This module parses pattern source text, checks it, classifies every
// read's locality over its runtime AST, and lowers each action onto the
// plan core the EDSL instantiation also runs (plan_gather, plan.hpp): hop
// planning, merging, locality labels and wire liveness are one function
// for both front ends, and so are the compiled-record eligibility rules.
// What it does NOT do is emit C++: in a library setting the EDSL *is* the
// executable form; the parser serves as the specification checker /
// translator front half, and its plans are the EDSL's `plan_info`.
//
// Concrete syntax (the paper's figures set the shape; the tokens here make
// it parseable):
//
//   pattern SSSP {
//     vertex_property<double> dist;
//     edge_property<double> weight;
//
//     action relax(v) {
//       generator e : out_edges;
//       alias d = dist[v] + weight[e];
//       when (dist[trg(e)] > d) {
//         dist[trg(e)] = d;
//       }
//     }
//   }
//
// Generators: `out_edges`, `in_edges`, `adj` (binding a vertex name), or a
// vertex-set property map (`generator u : preds;`). Aliases substitute
// textually-by-AST, exactly like the paper ("using an alias is the same as
// pasting in the expression"). Conditions chain as if / else-if. A
// modification is either an assignment `pmap[idx] = expr;` or an opaque
// in-place call `pmap[idx].update(args...);` (the grammar's general
// modification). Two method names are interpreted: `.insert(x)` on a
// `vertex_list` is set insert, the EDSL's `insert(F(t), x)`, which CC's
// claim kernel needs, and `.add(x)` is a sum, the EDSL's `add(M(t), x)`,
// which the combining scatter needs; any other name stays opaque.
//
// Inputs are bounded so that outside text cannot exhaust the stack or the
// clock: an expression nests at most max_expr_depth deep (parentheses,
// `!`, operator chains and indices all count) and expands, aliases pasted
// in, to at most max_expr_nodes nodes. Past either limit the parser throws
// parse_error.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pattern/plan.hpp"

namespace dpg::pattern::text {

inline constexpr int max_expr_depth = 256;
inline constexpr std::size_t max_expr_nodes = 10000;

/// Thrown on lexical, syntactic, or semantic errors; carries a 1-based
/// line number and a message.
class parse_error : public std::runtime_error {
 public:
  parse_error(int line, const std::string& msg)
      : std::runtime_error("line " + std::to_string(line) + ": " + msg), line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// Value kinds the analyzer reasons about (all scalar kinds are 8 bytes in
/// the plan's arena estimate).
enum class value_kind { boolean, integer, real, vertex, edge, opaque };

struct expr;
using expr_ptr = std::shared_ptr<const expr>;

struct expr {
  enum class node {
    input_vertex,   // v
    gen_edge,       // the generator-bound edge name
    gen_vertex,     // the generator-bound vertex name (adj / pmap set)
    src_of,         // src(edge-expr)
    trg_of,         // trg(edge-expr)
    pmap_read,      // name[index-expr]
    literal,        // number / true / false / infinity
    binary,         // op lhs rhs
    unary_not,
  };

  node kind;
  int line = 0;
  // pmap_read:
  std::string pmap;
  // literal:
  std::string literal_text;
  // binary:
  std::string op;  // one of + - * / < > <= >= == != && ||
  std::vector<expr_ptr> children;
  int depth = 1;          ///< height of the tree rooted here
  std::size_t nodes = 1;  ///< nodes of that tree, shared subtrees counted per use
};

struct modification {
  bool is_assignment = true;  // false: opaque .method(args) update
  expr_ptr target;            // always a pmap_read
  std::string method;         // for opaque updates
  std::vector<expr_ptr> arguments;  // assignment: exactly the RHS
  int line = 0;
};

struct condition {
  expr_ptr guard;
  std::vector<modification> mods;
  int line = 0;
};

enum class generator_type { none, out_edges, in_edges, adjacent, pmap_set };

struct parsed_action {
  std::string name;
  std::string vertex_param;           // the input vertex's name
  generator_type gen = generator_type::none;
  std::string gen_binding;            // the bound edge/vertex name
  std::string gen_pmap;               // for pmap_set generators
  std::vector<std::pair<std::string, expr_ptr>> aliases;
  std::vector<condition> conditions;
  int line = 0;
};

struct parsed_property {
  std::string name;
  bool on_vertices = true;  // vertex_property vs edge_property
  value_kind type = value_kind::real;
  std::string type_text;
  int line = 0;
};

struct parsed_pattern {
  std::string name;
  std::vector<parsed_property> properties;
  std::vector<parsed_action> actions;
};

/// Parses one `pattern` declaration. Throws parse_error.
parsed_pattern parse_pattern(std::string_view source);

// ---------------------------------------------------------------------------
// Analysis (the §IV translation, over the textual AST)
// ---------------------------------------------------------------------------

/// The communication plan for one parsed action: the EDSL's plan_info,
/// computed by the same plan core, plus the action's name.
struct analyzed_action : plan_info {
  std::string name;
};

struct analyzed_pattern {
  std::string name;
  std::vector<analyzed_action> actions;
};

/// Runs semantic checks + locality/hop analysis on every action. Throws
/// parse_error on semantic violations (unknown property map, edge-indexed
/// vertex map, two generators' worth of fan-out, modifications at
/// different localities, unsupported chase depth, ...).
analyzed_pattern analyze(const parsed_pattern& p);

/// pattern::explain of the analyzed plan.
std::string explain(const analyzed_action& a);

/// Convenience: parse + analyze + explain everything.
std::string explain_source(std::string_view source);

}  // namespace dpg::pattern::text
