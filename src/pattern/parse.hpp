// A concrete textual front-end for the pattern grammar of §III — the
// paper's own declared future work: "we plan to implement a translator for
// patterns that will at least generate AM++ messaging code".
//
// This module parses pattern source text, performs the full semantic
// analysis of §IV (locality classification, hop planning, merging, the
// synchronization choice, dependency detection — the same algorithm the
// EDSL instantiation runs, reimplemented over a runtime AST), and reports
// the synthesized communication as a plan. What it does NOT do is emit
// C++: in a library setting the EDSL *is* the executable form; the parser
// serves as the specification checker / translator front half, and its
// plans are byte-for-byte comparable with the EDSL's `plan_info`.
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
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dpg::pattern::text {

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

/// The communication plan for one parsed action, mirroring
/// pattern::plan_info for the EDSL (field-for-field comparable).
struct analyzed_action {
  std::string name;
  int gather_hops = 0;
  bool final_merged = false;
  bool atomic_path = false;
  int final_reads = 0;
  std::size_t arena_bytes = 0;
  int conditions = 0;
  bool has_dependencies = false;
  std::vector<std::string> hop_localities;
  std::vector<int> hop_reads;
  std::string final_locality;
  bool fast_path = false;           ///< single-locality fast kernel engaged
  bool claim = false;               ///< the fast kernel is the two-arm claim record
  bool fast_reduction = false;      ///< sender-side combining, suppression or sums engaged
  std::size_t cse_hits = 0;         ///< duplicate reads sharing one arena slot
  std::vector<std::size_t> wire_bytes;  ///< bytes per synthesized message

  int messages_per_application() const {
    return (gather_hops - 1) + (final_merged ? 0 : 1);
  }
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

/// Renders an analyzed action exactly like pattern::explain does for
/// instantiated EDSL actions.
std::string explain(const analyzed_action& a);

/// Convenience: parse + analyze + explain everything.
std::string explain_source(std::string_view source);

}  // namespace dpg::pattern::text
