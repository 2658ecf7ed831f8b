#include "pattern/parse.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>

#include "pattern/action.hpp"  // plan_info + explain formatting
#include "util/assert.hpp"

namespace dpg::pattern::text {

// ===========================================================================
// Lexer
// ===========================================================================

namespace {

struct token {
  enum class type { ident, number, punct, end };
  type kind = type::end;
  std::string text;
  int line = 1;
};

class lexer {
 public:
  explicit lexer(std::string_view src) : src_(src) { advance(); }

  const token& peek() const { return current_; }

  token next() {
    token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw parse_error(current_.line, msg + " (near '" +
                                         (current_.kind == token::type::end
                                              ? std::string("<end>")
                                              : current_.text) +
                                         "')");
  }

 private:
  void advance() {
    skip_ws_and_comments();
    current_.line = line_;
    if (pos_ >= src_.size()) {
      current_ = token{token::type::end, "", line_};
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '_'))
        ++pos_;
      current_ = token{token::type::ident, std::string(src_.substr(start, pos_ - start)),
                       line_};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < src_.size() && (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
                                    src_[pos_] == '.' || src_[pos_] == 'e' ||
                                    src_[pos_] == 'E' ||
                                    ((src_[pos_] == '+' || src_[pos_] == '-') && pos_ > start &&
                                     (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E'))))
        ++pos_;
      current_ = token{token::type::number, std::string(src_.substr(start, pos_ - start)),
                       line_};
      return;
    }
    // Multi-character punctuation first.
    static const char* two[] = {"<=", ">=", "==", "!=", "&&", "||"};
    for (const char* p : two) {
      if (src_.substr(pos_, 2) == p) {
        current_ = token{token::type::punct, p, line_};
        pos_ += 2;
        return;
      }
    }
    current_ = token{token::type::punct, std::string(1, c), line_};
    ++pos_;
  }

  void skip_ws_and_comments() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_]))) {
        if (src_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      break;
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  token current_;
};

// ===========================================================================
// Parser
// ===========================================================================

class parser {
 public:
  explicit parser(std::string_view src) : lx_(src) {}

  parsed_pattern parse() {
    expect_ident("pattern");
    parsed_pattern out;
    out.name = expect(token::type::ident).text;
    expect_punct("{");
    while (!peek_punct("}")) {
      const token& t = lx_.peek();
      if (t.kind != token::type::ident) lx_.fail("expected a property or action");
      if (t.text == "vertex_property" || t.text == "edge_property")
        out.properties.push_back(parse_property());
      else if (t.text == "action")
        out.actions.push_back(parse_action(out));
      else
        lx_.fail("expected 'vertex_property', 'edge_property', or 'action'");
    }
    expect_punct("}");
    if (out.actions.empty()) throw parse_error(1, "a pattern needs at least one action");
    return out;
  }

 private:
  // ---- declarations -------------------------------------------------------

  parsed_property parse_property() {
    parsed_property p;
    p.line = lx_.peek().line;
    p.on_vertices = expect(token::type::ident).text == "vertex_property";
    expect_punct("<");
    while (!peek_punct(">")) {
      if (lx_.peek().kind == token::type::end) lx_.fail("unterminated property type");
      if (!p.type_text.empty()) p.type_text += ' ';
      p.type_text += lx_.next().text;
    }
    expect_punct(">");
    p.type = classify_type(p.type_text);
    p.name = expect(token::type::ident).text;
    expect_punct(";");
    return p;
  }

  static value_kind classify_type(const std::string& t) {
    if (t == "double" || t == "float") return value_kind::real;
    if (t == "bool") return value_kind::boolean;
    if (t == "vertex") return value_kind::vertex;
    if (t.find("int") != std::string::npos || t == "unsigned" || t == "size_t")
      return value_kind::integer;
    return value_kind::opaque;
  }

  // ---- actions ------------------------------------------------------------

  struct scope {
    const parsed_pattern* pat;
    const parsed_action* act;
    std::map<std::string, expr_ptr> aliases;

    const parsed_property* find_pmap(const std::string& name) const {
      for (const auto& p : pat->properties)
        if (p.name == name) return &p;
      return nullptr;
    }
  };

  parsed_action parse_action(const parsed_pattern& pat) {
    parsed_action act;
    act.line = lx_.peek().line;
    expect_ident("action");
    act.name = expect(token::type::ident).text;
    expect_punct("(");
    act.vertex_param = expect(token::type::ident).text;
    expect_punct(")");
    expect_punct("{");

    scope sc{&pat, &act, {}};

    if (peek_ident("generator")) {
      lx_.next();
      act.gen_binding = expect(token::type::ident).text;
      expect_punct(":");
      const token src_tok = expect(token::type::ident);
      if (src_tok.text == "out_edges")
        act.gen = generator_type::out_edges;
      else if (src_tok.text == "in_edges")
        act.gen = generator_type::in_edges;
      else if (src_tok.text == "adj")
        act.gen = generator_type::adjacent;
      else {
        act.gen = generator_type::pmap_set;
        act.gen_pmap = src_tok.text;
        const parsed_property* pm = sc.find_pmap(act.gen_pmap);
        if (!pm)
          throw parse_error(src_tok.line,
                            "generator set '" + act.gen_pmap + "' is not a property map");
        if (!pm->on_vertices)
          throw parse_error(src_tok.line, "generator sets must be vertex properties");
      }
      expect_punct(";");
      if (peek_ident("generator")) lx_.fail("only one generator per action (§III-C)");
    }

    while (peek_ident("alias")) {
      lx_.next();
      const std::string name = expect(token::type::ident).text;
      expect_punct("=");
      expr_ptr e = parse_expr(sc);
      expect_punct(";");
      if (!sc.aliases.emplace(name, e).second)
        throw parse_error(act.line, "duplicate alias '" + name + "'");
      act.aliases.emplace_back(name, e);
    }

    while (peek_ident("when")) {
      condition c;
      c.line = lx_.peek().line;
      lx_.next();
      expect_punct("(");
      c.guard = parse_expr(sc);
      expect_punct(")");
      expect_punct("{");
      while (!peek_punct("}")) c.mods.push_back(parse_modification(sc));
      expect_punct("}");
      if (c.mods.empty())
        throw parse_error(c.line, "a condition must guard at least one modification");
      act.conditions.push_back(std::move(c));
    }
    expect_punct("}");
    if (act.conditions.empty())
      throw parse_error(act.line, "an action needs at least one condition");
    return act;
  }

  modification parse_modification(const scope& sc) {
    modification m;
    m.line = lx_.peek().line;
    const token name = expect(token::type::ident);
    const parsed_property* pm = sc.find_pmap(name.text);
    if (!pm)
      throw parse_error(name.line,
                        "modification target '" + name.text + "' is not a property map");
    expect_punct("[");
    expr_ptr idx = parse_expr(sc);
    expect_punct("]");
    auto target = std::make_shared<expr>();
    target->kind = expr::node::pmap_read;
    target->pmap = name.text;
    target->line = name.line;
    target->children = {idx};
    m.target = target;
    if (peek_punct("=")) {
      lx_.next();
      m.is_assignment = true;
      m.arguments.push_back(parse_expr(sc));
    } else if (peek_punct(".")) {
      lx_.next();
      m.is_assignment = false;
      m.method = expect(token::type::ident).text;
      expect_punct("(");
      if (!peek_punct(")")) {
        m.arguments.push_back(parse_expr(sc));
        while (peek_punct(",")) {
          lx_.next();
          m.arguments.push_back(parse_expr(sc));
        }
      }
      expect_punct(")");
    } else {
      lx_.fail("expected '=' or '.method(...)' in modification");
    }
    expect_punct(";");
    return m;
  }

  // ---- expressions (precedence climbing) ----------------------------------

  expr_ptr parse_expr(const scope& sc) { return parse_or(sc); }

  expr_ptr parse_or(const scope& sc) {
    expr_ptr lhs = parse_and(sc);
    while (peek_punct("||")) {
      const int line = lx_.next().line;
      lhs = make_bin("||", lhs, parse_and(sc), line);
    }
    return lhs;
  }
  expr_ptr parse_and(const scope& sc) {
    expr_ptr lhs = parse_eq(sc);
    while (peek_punct("&&")) {
      const int line = lx_.next().line;
      lhs = make_bin("&&", lhs, parse_eq(sc), line);
    }
    return lhs;
  }
  expr_ptr parse_eq(const scope& sc) {
    expr_ptr lhs = parse_rel(sc);
    while (peek_punct("==") || peek_punct("!=")) {
      const token op = lx_.next();
      lhs = make_bin(op.text, lhs, parse_rel(sc), op.line);
    }
    return lhs;
  }
  expr_ptr parse_rel(const scope& sc) {
    expr_ptr lhs = parse_add(sc);
    while (peek_punct("<") || peek_punct(">") || peek_punct("<=") || peek_punct(">=")) {
      const token op = lx_.next();
      lhs = make_bin(op.text, lhs, parse_add(sc), op.line);
    }
    return lhs;
  }
  expr_ptr parse_add(const scope& sc) {
    expr_ptr lhs = parse_mul(sc);
    while (peek_punct("+") || peek_punct("-")) {
      const token op = lx_.next();
      lhs = make_bin(op.text, lhs, parse_mul(sc), op.line);
    }
    return lhs;
  }
  expr_ptr parse_mul(const scope& sc) {
    expr_ptr lhs = parse_unary(sc);
    while (peek_punct("*") || peek_punct("/")) {
      const token op = lx_.next();
      lhs = make_bin(op.text, lhs, parse_unary(sc), op.line);
    }
    return lhs;
  }
  expr_ptr parse_unary(const scope& sc) {
    if (peek_punct("!")) {
      const int line = lx_.next().line;
      auto e = std::make_shared<expr>();
      e->kind = expr::node::unary_not;
      e->line = line;
      e->children = {parse_unary(sc)};
      return e;
    }
    return parse_primary(sc);
  }

  expr_ptr parse_primary(const scope& sc) {
    const token t = lx_.peek();
    if (t.kind == token::type::punct && t.text == "(") {
      lx_.next();
      expr_ptr e = parse_expr(sc);
      expect_punct(")");
      return e;
    }
    if (t.kind == token::type::number) {
      lx_.next();
      auto e = std::make_shared<expr>();
      e->kind = expr::node::literal;
      e->literal_text = t.text;
      e->line = t.line;
      return e;
    }
    if (t.kind != token::type::ident) lx_.fail("expected an expression");
    lx_.next();
    if (t.text == "true" || t.text == "false" || t.text == "infinity" ||
        t.text == "null_vertex") {
      auto e = std::make_shared<expr>();
      e->kind = expr::node::literal;
      e->literal_text = t.text;
      e->line = t.line;
      return e;
    }
    if (t.text == "src" || t.text == "trg") {
      expect_punct("(");
      expr_ptr inner = parse_expr(sc);
      expect_punct(")");
      auto e = std::make_shared<expr>();
      e->kind = t.text == "src" ? expr::node::src_of : expr::node::trg_of;
      e->line = t.line;
      e->children = {inner};
      return e;
    }
    if (t.text == "min" || t.text == "max") {
      expect_punct("(");
      expr_ptr a = parse_expr(sc);
      expect_punct(",");
      expr_ptr b = parse_expr(sc);
      expect_punct(")");
      return make_bin(t.text, a, b, t.line);
    }
    if (auto it = sc.aliases.find(t.text); it != sc.aliases.end()) return it->second;
    if (t.text == sc.act->vertex_param) {
      auto e = std::make_shared<expr>();
      e->kind = expr::node::input_vertex;
      e->line = t.line;
      return e;
    }
    if (sc.act->gen != generator_type::none && t.text == sc.act->gen_binding) {
      auto e = std::make_shared<expr>();
      e->kind = (sc.act->gen == generator_type::out_edges ||
                 sc.act->gen == generator_type::in_edges)
                    ? expr::node::gen_edge
                    : expr::node::gen_vertex;
      e->line = t.line;
      return e;
    }
    if (const parsed_property* pm = sc.find_pmap(t.text)) {
      (void)pm;
      expect_punct("[");
      expr_ptr idx = parse_expr(sc);
      expect_punct("]");
      auto e = std::make_shared<expr>();
      e->kind = expr::node::pmap_read;
      e->pmap = t.text;
      e->line = t.line;
      e->children = {idx};
      return e;
    }
    throw parse_error(t.line, "unknown identifier '" + t.text + "'");
  }

  // ---- token helpers ------------------------------------------------------

  static expr_ptr make_bin(const std::string& op, expr_ptr l, expr_ptr r, int line) {
    auto e = std::make_shared<expr>();
    e->kind = expr::node::binary;
    e->op = op;
    e->line = line;
    e->children = {l, r};
    return e;
  }

  token expect(token::type k) {
    if (lx_.peek().kind != k) lx_.fail("unexpected token");
    return lx_.next();
  }
  void expect_ident(const std::string& word) {
    if (lx_.peek().kind != token::type::ident || lx_.peek().text != word)
      lx_.fail("expected '" + word + "'");
    lx_.next();
  }
  void expect_punct(const std::string& p) {
    if (lx_.peek().kind != token::type::punct || lx_.peek().text != p)
      lx_.fail("expected '" + p + "'");
    lx_.next();
  }
  bool peek_punct(const std::string& p) const {
    return lx_.peek().kind == token::type::punct && lx_.peek().text == p;
  }
  bool peek_ident(const std::string& w) const {
    return lx_.peek().kind == token::type::ident && lx_.peek().text == w;
  }

  lexer lx_;
};

}  // namespace

parsed_pattern parse_pattern(std::string_view source) { return parser(source).parse(); }

// ===========================================================================
// Analysis
// ===========================================================================

namespace {

/// Structural print; doubles as the dedup key for reads.
std::string print(const expr& e) {
  switch (e.kind) {
    case expr::node::input_vertex: return "v";
    case expr::node::gen_edge: return "e";
    case expr::node::gen_vertex: return "u";
    case expr::node::src_of: return "src(" + print(*e.children[0]) + ")";
    case expr::node::trg_of: return "trg(" + print(*e.children[0]) + ")";
    case expr::node::pmap_read: return e.pmap + "[" + print(*e.children[0]) + "]";
    case expr::node::literal: return e.literal_text;
    case expr::node::binary:
      return "(" + print(*e.children[0]) + " " + e.op + " " + print(*e.children[1]) + ")";
    case expr::node::unary_not: return "!" + print(*e.children[0]);
  }
  return "?";
}

class analyzer {
 public:
  analyzer(const parsed_pattern& pat, const parsed_action& act) : pat_(pat), act_(act) {}

  analyzed_action run() {
    // Walk conditions in order, mirroring the EDSL instantiation.
    for (const condition& c : act_.conditions) {
      const value_kind gk = walk(*c.guard);
      if (gk != value_kind::boolean)
        throw parse_error(c.line, "condition guard must be boolean");
      for (const modification& m : c.mods) handle_mod(m);
    }
    if (!have_ml_) throw parse_error(act_.line, "action never modifies a property map");

    // Dependency detection.
    bool deps = false;
    for (const auto& wp : written_pmaps_)
      if (read_pmaps_.count(wp)) deps = true;

    // Hop partition.
    analyzed_action out;
    out.name = act_.name;
    out.conditions = static_cast<int>(act_.conditions.size());
    out.has_dependencies = deps;
    out.hop_localities.push_back("v");
    out.hop_reads.push_back(0);
    constexpr std::size_t kFinal = static_cast<std::size_t>(-1);
    std::vector<std::size_t> rpos(reads_.size(), kFinal);  // hop index or final
    for (std::size_t i = 0; i < reads_.size(); ++i) {
      const auto& r = reads_[i];
      if (r.loc == ml_ && !r.pinned) {
        ++out.final_reads;
        continue;
      }
      std::size_t hop = 0;
      bool found = false;
      for (std::size_t k = 0; k < hop_homes_.size(); ++k)
        if (hop_homes_[k] == r.loc) {
          hop = k;
          found = true;
          break;
        }
      if (!found) {
        hop_homes_.push_back(r.loc);
        out.hop_localities.push_back(home_label(r.loc));
        out.hop_reads.push_back(0);
        hop = hop_homes_.size() - 1;
      }
      ++out.hop_reads[hop];
      rpos[i] = hop;
    }
    out.gather_hops = static_cast<int>(out.hop_localities.size());
    out.final_locality = home_label(ml_);
    out.final_merged = hop_homes_.back() == ml_;
    out.arena_bytes = reads_.size() * 8;  // all travelling kinds are 8 bytes
    out.cse_hits = cse_hits_;

    // Atomic fast path: single condition, single assignment, compare shape,
    // and the only synchronized read is the target itself.
    if (act_.conditions.size() == 1 && act_.conditions[0].mods.size() == 1 &&
        act_.conditions[0].mods[0].is_assignment && out.final_reads == 1) {
      const modification& m = act_.conditions[0].mods[0];
      const expr& g = *act_.conditions[0].guard;
      if (g.kind == expr::node::binary && (g.op == "<" || g.op == ">")) {
        const std::string target = print(*m.target);
        const std::string rhs = print(*m.arguments[0]);
        const std::string gl = print(*g.children[0]);
        const std::string gr = print(*g.children[1]);
        const bool shape = (gl == target && gr == rhs) || (gr == target && gl == rhs);
        // The proposed value must not read the target itself (that read is
        // only performed by the locked path); see the EDSL's contains_read.
        const bool rmw = rhs.find(target) != std::string::npos;
        const value_kind tk = pmap_of(*m.target)->type;
        if (shape && !rmw && tk != value_kind::opaque) out.atomic_path = true;
      }
      // Single-locality fast path: the compare-and-update whose proposed
      // value and target owner are computable at the invocation site
      // compiles to the minimal relax record (mirrors detail::fast_shape).
      if (out.atomic_path) {
        const expr& tidx = *m.target->children[0];
        const home th = classify_index(tidx);
        const expr& val = *m.arguments[0];
        const bool idx_ok = th.k != home::kind::chase;
        const bool val_ok =
            reads_all_at_v(val) &&
            (th.k == home::kind::at_gen || !contains_read(val));
        if (idx_ok && val_ok && pmap_of(*m.target)->on_vertices) out.fast_path = true;
        // Mirrors instantiated_action: the sender-side combining cache
        // rides on the fast record and needs a wire message (not fully
        // local).
        out.fast_reduction = out.fast_path && !out.final_merged;
      }
    }
    // Unconditional scatter (mirrors detail::scatter_shape): a literal
    // `true` guard over one `.method(arg)` update whose single argument is
    // a travelling value read at the invocation site compiles to the same
    // 16-byte record, applied by the method at the owner. `.add(x)` is the
    // EDSL's `add`: a sum, so the sender combines same-target records
    // (when x sums into the target's type and a wire lane exists).
    if (act_.conditions.size() == 1 && act_.conditions[0].mods.size() == 1) {
      const condition& c = act_.conditions[0];
      const modification& m = c.mods[0];
      const bool true_guard =
          c.guard->kind == expr::node::literal && c.guard->literal_text == "true";
      if (true_guard && !m.is_assignment && m.arguments.size() == 1 &&
          pmap_of(*m.target)->on_vertices) {
        const home th = classify_index(*m.target->children[0]);
        const expr& arg = *m.arguments[0];
        const bool idx_ok = th.k != home::kind::chase;
        // An edge handle is not a scalar: it cannot ride in the record.
        const bool val_ok = arg.kind != expr::node::gen_edge && reads_all_at_v(arg) &&
                            (th.k == home::kind::at_gen || !contains_read(arg));
        if (idx_ok && val_ok) {
          out.fast_path = true;
          out.fast_reduction = add_widens_ && !out.final_merged;
        }
      }
    }

    // Two-arm claim (mirrors detail::claim_shape): `t` unclaimed takes the
    // label X, else a different label inserts X into a vertex_list at t.
    if (act_.conditions.size() == 2 && act_.conditions[0].mods.size() == 1 &&
        act_.conditions[1].mods.size() == 1) {
      const condition& c0 = act_.conditions[0];
      const condition& c1 = act_.conditions[1];
      const modification& a = c0.mods[0];
      const modification& ins = c1.mods[0];
      const expr& g0 = *c0.guard;
      const expr& g1 = *c1.guard;
      if (a.is_assignment && !ins.is_assignment && ins.method == "insert" &&
          ins.arguments.size() == 1 && g0.kind == expr::node::binary && g0.op == "==" &&
          g1.kind == expr::node::binary && g1.op == "!=") {
        const std::string target = print(*a.target);
        const std::string label = print(*a.arguments[0]);
        const parsed_property* pm = pmap_of(*a.target);
        const parsed_property* set = pmap_of(*ins.target);
        const bool shape = print(*g0.children[0]) == target &&
                           g0.children[1]->kind == expr::node::literal &&
                           print(*g1.children[0]) == target &&
                           print(*g1.children[1]) == label &&
                           print(*ins.target->children[0]) == print(*a.target->children[0]) &&
                           print(*ins.arguments[0]) == label;
        const bool maps = pm->on_vertices && pm->type == value_kind::vertex &&
                          set->on_vertices && set->type_text == "vertex_list";
        if (shape && maps) {
          const home th = classify_index(*a.target->children[0]);
          const expr& val = *a.arguments[0];
          const bool idx_ok = th.k != home::kind::chase;
          const bool val_ok =
              reads_all_at_v(val) && (th.k == home::kind::at_gen || !contains_read(val));
          if (idx_ok && val_ok) {
            out.fast_path = true;
            out.claim = true;
            out.fast_reduction = !out.final_merged;
          }
        }
      }
    }

    compute_wire_bytes(out, rpos, kFinal);
    return out;
  }

  /// Mirrors instantiated_action::compute_wire_layouts over the textual
  /// plan: per wire, the header fields any later stage needs plus the arena
  /// slots written at or before the sender and consumed strictly after it.
  void compute_wire_bytes(analyzed_action& out, std::vector<std::size_t>& rpos,
                          std::size_t kFinal) const {
    if (out.fast_path) {
      // relax, scatter or claim record: destination vertex + 8-byte value;
      // none at all when the target is the invocation vertex itself.
      if (!out.final_merged) out.wire_bytes.push_back(16);
      return;
    }
    const std::size_t H = hop_homes_.size();
    const std::size_t final_pos = out.final_merged ? H - 1 : H;
    for (auto& p : rpos)
      if (p == kFinal) p = final_pos;

    std::vector<unsigned> pos_needs(H + 1, 0u);
    for (const condition& c : act_.conditions) {
      pos_needs[final_pos] |= needs(*c.guard);
      for (const modification& m : c.mods) {
        pos_needs[final_pos] |= needs(*m.target->children[0]);
        for (const auto& a : m.arguments) pos_needs[final_pos] |= needs(*a);
      }
    }
    for (std::size_t i = 0; i < reads_.size(); ++i)
      pos_needs[rpos[i]] |= reads_[i].idx_needs;
    for (std::size_t k = 1; k < H; ++k) pos_needs[k - 1] |= addr_mask(hop_homes_[k]);
    if (!out.final_merged) pos_needs[H - 1] |= addr_mask(ml_);
    pos_needs[final_pos] |= addr_mask(ml_);

    // Slot liveness: write position = performing hop, last consumption from
    // the recorded uses (empty context = final evaluation).
    std::vector<std::size_t> last_use = rpos;
    const auto pos_of_key = [&](const std::string& key) -> std::size_t {
      for (std::size_t i = 0; i < reads_.size(); ++i)
        if (reads_[i].key == key) return rpos[i];
      return final_pos;
    };
    for (const use_rec& u : uses_) {
      const std::size_t p = u.ctx.empty() ? final_pos : pos_of_key(u.ctx);
      for (std::size_t i = 0; i < reads_.size(); ++i)
        if (reads_[i].key == u.key) last_use[i] = std::max(last_use[i], p);
    }

    const auto hdr_bytes = [](unsigned m) {
      std::size_t b = 0;
      if (m & hdr_v) b += 8;
      if (m & hdr_e_src) b += 8;
      if (m & hdr_e_dst) b += 8;
      if (m & hdr_e_id) b += 16;  // edge id + mirror slot
      if (m & hdr_u) b += 8;
      return b;
    };
    const std::size_t wires = (H - 1) + (out.final_merged ? 0 : 1);
    for (std::size_t w = 0; w < wires; ++w) {
      unsigned hdr = 0;
      for (std::size_t p = w + 1; p < pos_needs.size(); ++p) hdr |= pos_needs[p];
      std::size_t b = hdr_bytes(hdr);
      for (std::size_t i = 0; i < reads_.size(); ++i)
        if (rpos[i] <= w && last_use[i] > w) b += 8;
      out.wire_bytes.push_back(b);
    }
  }

 private:
  struct home {
    enum class kind { at_v, at_gen, chase } k = kind::at_v;
    std::string chase_key;  // pmap[index] print for chases
    friend bool operator==(const home&, const home&) = default;
  };

  struct read_entry {
    std::string key;
    home loc;
    bool pinned = false;
    unsigned idx_needs = 0;  ///< header fields the index expression touches
  };

  /// One recorded consumption of a read's slot: `ctx` is the key of the
  /// read whose index consumed it, or empty when the consumer is the final
  /// evaluation. Mirrors the EDSL planner's slot_use tokens.
  struct use_rec {
    std::string key;
    std::string ctx;
  };

  std::string home_label(const home& h) const {
    switch (h.k) {
      case home::kind::at_v: return "v";
      case home::kind::at_gen:
        if (act_.gen == generator_type::out_edges) return "trg(e)";
        if (act_.gen == generator_type::in_edges) return "src(e)";
        return "u";
      case home::kind::chase: return "chase";
    }
    return "?";
  }

  const parsed_property* pmap_of(const expr& read) const {
    for (const auto& p : pat_.properties)
      if (p.name == read.pmap) return &p;
    throw parse_error(read.line, "unknown property map '" + read.pmap + "'");
  }

  home classify_index(const expr& idx) {
    switch (idx.kind) {
      case expr::node::input_vertex: return {home::kind::at_v, ""};
      case expr::node::gen_vertex:
        require_gen(idx.line);
        return {home::kind::at_gen, ""};
      case expr::node::gen_edge:  // edge property read: locality of e is v
        return {home::kind::at_v, ""};
      case expr::node::src_of:
        require_edge_gen(idx.line);
        return {act_.gen == generator_type::out_edges ? home{home::kind::at_v, ""}
                                                      : home{home::kind::at_gen, ""}};
      case expr::node::trg_of:
        require_edge_gen(idx.line);
        return {act_.gen == generator_type::out_edges ? home{home::kind::at_gen, ""}
                                                      : home{home::kind::at_v, ""}};
      case expr::node::pmap_read: {
        const parsed_property* pm = pmap_of(idx);
        if (pm->type != value_kind::vertex)
          throw parse_error(idx.line,
                            "index '" + print(idx) + "' is not vertex-valued");
        const home inner = classify_index(*idx.children[0]);
        if (inner.k != home::kind::at_v)
          throw parse_error(idx.line,
                            "pointer-chase indices must be readable at the input "
                            "vertex (one level of chasing)");
        return {home::kind::chase, print(idx)};
      }
      default:
        throw parse_error(idx.line, "'" + print(idx) + "' cannot index a property map");
    }
  }

  void require_gen(int line) const {
    if (act_.gen == generator_type::none)
      throw parse_error(line, "generator binding used but no generator declared");
  }
  void require_edge_gen(int line) const {
    if (act_.gen != generator_type::out_edges && act_.gen != generator_type::in_edges)
      throw parse_error(line, "src/trg need an edge generator");
  }

  /// Walks an expression: registers reads, returns the value kind.
  value_kind walk(const expr& e) {
    switch (e.kind) {
      case expr::node::input_vertex: return value_kind::vertex;
      case expr::node::gen_vertex:
        require_gen(e.line);
        return value_kind::vertex;
      case expr::node::gen_edge:
        require_gen(e.line);
        return value_kind::edge;
      case expr::node::src_of:
      case expr::node::trg_of: {
        if (walk(*e.children[0]) != value_kind::edge)
          throw parse_error(e.line, "src/trg apply to edges");
        return value_kind::vertex;
      }
      case expr::node::literal: {
        if (e.literal_text == "true" || e.literal_text == "false")
          return value_kind::boolean;
        if (e.literal_text == "infinity") return value_kind::real;
        if (e.literal_text == "null_vertex") return value_kind::vertex;
        return e.literal_text.find('.') != std::string::npos ? value_kind::real
                                                             : value_kind::integer;
      }
      case expr::node::pmap_read: return register_read(e);
      case expr::node::unary_not: {
        if (walk(*e.children[0]) != value_kind::boolean)
          throw parse_error(e.line, "'!' needs a boolean");
        return value_kind::boolean;
      }
      case expr::node::binary: {
        const value_kind l = walk(*e.children[0]);
        const value_kind r = walk(*e.children[1]);
        if (e.op == "&&" || e.op == "||") {
          if (l != value_kind::boolean || r != value_kind::boolean)
            throw parse_error(e.line, "'" + e.op + "' needs booleans");
          return value_kind::boolean;
        }
        if (e.op == "==" || e.op == "!=" || e.op == "<" || e.op == ">" || e.op == "<=" ||
            e.op == ">=") {
          check_comparable(l, r, e);
          return value_kind::boolean;
        }
        // arithmetic (including the min/max intrinsics)
        if (l == value_kind::opaque || r == value_kind::opaque ||
            l == value_kind::edge || r == value_kind::edge ||
            l == value_kind::boolean || r == value_kind::boolean)
          throw parse_error(e.line, "invalid operands of '" + e.op + "'");
        return (l == value_kind::real || r == value_kind::real) ? value_kind::real
                                                                : value_kind::integer;
      }
    }
    return value_kind::opaque;
  }

  static void check_comparable(value_kind l, value_kind r, const expr& e) {
    auto numeric = [](value_kind k) {
      return k == value_kind::real || k == value_kind::integer || k == value_kind::vertex;
    };
    const bool ok = (numeric(l) && numeric(r)) ||
                    (l == value_kind::boolean && r == value_kind::boolean);
    if (!ok) throw parse_error(e.line, "operands of '" + e.op + "' are not comparable");
  }

  value_kind register_read(const expr& e) {
    const parsed_property* pm = pmap_of(e);
    const expr& idx = *e.children[0];
    const value_kind ik = walk_index_kind(idx);
    if (pm->on_vertices && ik != value_kind::vertex)
      throw parse_error(e.line, "vertex property '" + pm->name + "' indexed by non-vertex");
    if (!pm->on_vertices && ik != value_kind::edge)
      throw parse_error(e.line, "edge property '" + pm->name + "' indexed by non-edge");
    if (pm->type == value_kind::opaque)
      throw parse_error(e.line, "values of '" + pm->name +
                                    "' cannot travel in messages (opaque type); only "
                                    "modification targets may be opaque");
    const std::string key = print(e);
    read_pmaps_.insert(pm->name);
    // Dedup (CSE): a repeated read shares the already-allocated slot, but
    // still records a consumption in the current context — the second
    // consumer extends the slot's wire lifetime (mirrors the EDSL planner).
    for (const auto& r : reads_)
      if (r.key == key) {
        ++cse_hits_;
        uses_.push_back(use_rec{key, ctx_});
        return pm->type;
      }
    uses_.push_back(use_rec{key, ctx_});
    // Index sub-reads register first (depth-first), like the EDSL; their
    // consumption is charged to *this* read, not the final evaluation.
    {
      const std::string saved = ctx_;
      ctx_ = key;
      if (idx.kind == expr::node::pmap_read) (void)register_read(idx);
      ctx_ = saved;
    }
    read_entry re;
    re.key = key;
    re.loc = classify_index(idx);
    re.idx_needs = needs(idx);
    reads_.push_back(re);
    if (re.loc.k == home::kind::chase) pin(print(idx));
    return pm->type;
  }

  /// Header fields (v / e / u) an expression touches when evaluated at some
  /// hop. Property reads contribute nothing — their values travel in the
  /// arena, and their index needs are charged to the performing read.
  static unsigned needs(const expr& e) {
    switch (e.kind) {
      case expr::node::input_vertex: return hdr_v;
      case expr::node::gen_edge: return hdr_e_full;
      case expr::node::gen_vertex: return hdr_u;
      case expr::node::src_of:
        return e.children[0]->kind == expr::node::gen_edge ? hdr_e_src
                                                           : needs(*e.children[0]);
      case expr::node::trg_of:
        return e.children[0]->kind == expr::node::gen_edge ? hdr_e_dst
                                                           : needs(*e.children[0]);
      case expr::node::pmap_read:
      case expr::node::literal: return 0;
      case expr::node::binary: return needs(*e.children[0]) | needs(*e.children[1]);
      case expr::node::unary_not: return needs(*e.children[0]);
    }
    return 0;
  }

  static bool contains_read(const expr& e) {
    if (e.kind == expr::node::pmap_read) return true;
    for (const auto& c : e.children)
      if (contains_read(*c)) return true;
    return false;
  }

  /// Every property read anywhere in e (nested indices included) is homed
  /// at the input vertex — the fast-path value precondition.
  bool reads_all_at_v(const expr& e) {
    if (e.kind == expr::node::pmap_read)
      return classify_index(*e.children[0]).k == home::kind::at_v &&
             reads_all_at_v(*e.children[0]);
    for (const auto& c : e.children)
      if (!reads_all_at_v(*c)) return false;
    return true;
  }

  unsigned addr_mask(const home& h) const {
    switch (h.k) {
      case home::kind::at_v: return hdr_v;
      case home::kind::at_gen:
        if (act_.gen == generator_type::out_edges) return hdr_e_dst;
        if (act_.gen == generator_type::in_edges) return hdr_e_src;
        return hdr_u;
      case home::kind::chase: return 0;  // destination is an arena slot
    }
    return 0;
  }

  value_kind walk_index_kind(const expr& idx) {
    switch (idx.kind) {
      case expr::node::input_vertex:
      case expr::node::gen_vertex:
      case expr::node::src_of:
      case expr::node::trg_of: return value_kind::vertex;
      case expr::node::gen_edge: return value_kind::edge;
      case expr::node::pmap_read: return pmap_of(idx)->type;
      default: return value_kind::opaque;
    }
  }

  void pin(const std::string& key) {
    for (auto& r : reads_)
      if (r.key == key) {
        r.pinned = true;
        return;
      }
    // The chased index is registered by register_read before pinning.
    DPG_ASSERT_MSG(false, "chase inner read missing");
  }

  void handle_mod(const modification& m) {
    const parsed_property* pm = pmap_of(*m.target);
    const expr& idx = *m.target->children[0];
    // Chased modification locality needs the chase value gathered; the
    // second touch mirrors the EDSL compiling the target index expression
    // (note_ml registers, compile_mod re-reads the shared slot).
    const home h = classify_index(idx);
    if (h.k == home::kind::chase) {
      (void)register_read(idx);
      (void)register_read(idx);
    }
    // Argument values travel: walk (and type-check) them once, like the
    // EDSL compiles each value expression exactly once.
    std::vector<value_kind> arg_kinds;
    for (const auto& a : m.arguments) arg_kinds.push_back(walk(*a));
    if (m.is_assignment) {
      const value_kind rk = arg_kinds[0];
      if (pm->type != value_kind::opaque && rk != pm->type &&
          !(pm->type == value_kind::real && rk == value_kind::integer))
        throw parse_error(m.line, "assignment value kind does not match '" + pm->name + "'");
    }
    if (!m.is_assignment && m.method == "add" && arg_kinds.size() == 1)
      add_widens_ = widens_into(pm->type, arg_kinds[0]);
    if (!have_ml_) {
      ml_ = h;
      have_ml_ = true;
    } else if (!(h == ml_)) {
      throw parse_error(m.line,
                        "all modifications of an action must share one locality; "
                        "split the action (the paper groups modification "
                        "statements by locality)");
    }
    written_pmaps_.insert(pm->name);
  }

  /// Whether `+=` of an `arg` value into a `target` slot is an arithmetic
  /// sum in the target's own type — the text-level form of the EDSL's
  /// rule that the argument and slot share the slot's common type.
  static bool widens_into(value_kind target, value_kind arg) {
    const bool integral =
        arg == value_kind::integer || arg == value_kind::vertex || arg == value_kind::boolean;
    if (target == value_kind::real) return integral || arg == value_kind::real;
    return (target == value_kind::integer || target == value_kind::vertex) && integral;
  }

  const parsed_pattern& pat_;
  const parsed_action& act_;
  std::vector<read_entry> reads_;
  std::vector<use_rec> uses_;
  std::string ctx_;  ///< key of the read whose index is being walked; empty = final
  std::size_t cse_hits_ = 0;
  std::vector<home> hop_homes_{home{home::kind::at_v, ""}};
  std::set<std::string> read_pmaps_, written_pmaps_;
  home ml_{};
  bool have_ml_ = false;
  bool add_widens_ = false;  ///< an `.add(x)` whose x sums into its target's type
};

}  // namespace

analyzed_pattern analyze(const parsed_pattern& p) {
  analyzed_pattern out;
  out.name = p.name;
  for (const parsed_action& a : p.actions) out.actions.push_back(analyzer(p, a).run());
  return out;
}

std::string explain(const analyzed_action& a) {
  plan_info info;
  info.gather_hops = a.gather_hops;
  info.final_merged = a.final_merged;
  info.atomic_path = a.atomic_path;
  info.final_reads = a.final_reads;
  info.arena_bytes = a.arena_bytes;
  info.conditions = a.conditions;
  info.has_dependencies = a.has_dependencies;
  info.hop_localities = a.hop_localities;
  info.hop_reads = a.hop_reads;
  info.final_locality = a.final_locality;
  info.fast_path = a.fast_path;
  info.claim = a.claim;
  info.fast_reduction = a.fast_reduction;
  info.cse_hits = a.cse_hits;
  info.wire_bytes = a.wire_bytes;
  return pattern::explain(a.name, info);
}

std::string explain_source(std::string_view source) {
  const auto parsed = parse_pattern(source);
  const auto analyzed = analyze(parsed);
  std::string out = "pattern " + analyzed.name + ":\n";
  for (const auto& a : analyzed.actions) out += explain(a);
  return out;
}

}  // namespace dpg::pattern::text
