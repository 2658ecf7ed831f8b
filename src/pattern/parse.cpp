#include "pattern/parse.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "pattern/expr.hpp"

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
    auto target = make(expr::node::pmap_read, name.line, {idx});
    target->pmap = name.text;
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
  // Every recursive descent passes through here, so this bounds the
  // parser's recursion; make() bounds the depth of the trees it builds.
  expr_ptr parse_unary(const scope& sc) {
    if (++nesting_ > max_expr_depth)
      lx_.fail("expression nested deeper than " + std::to_string(max_expr_depth));
    expr_ptr e;
    if (peek_punct("!")) {
      const int line = lx_.next().line;
      e = make(expr::node::unary_not, line, {parse_unary(sc)});
    } else {
      e = parse_primary(sc);
    }
    --nesting_;
    return e;
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
      auto e = make(expr::node::literal, t.line);
      e->literal_text = t.text;
      return e;
    }
    if (t.kind != token::type::ident) lx_.fail("expected an expression");
    lx_.next();
    if (t.text == "true" || t.text == "false" || t.text == "infinity" ||
        t.text == "null_vertex") {
      auto e = make(expr::node::literal, t.line);
      e->literal_text = t.text;
      return e;
    }
    if (t.text == "src" || t.text == "trg") {
      expect_punct("(");
      expr_ptr inner = parse_expr(sc);
      expect_punct(")");
      return make(t.text == "src" ? expr::node::src_of : expr::node::trg_of, t.line, {inner});
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
    if (t.text == sc.act->vertex_param) return make(expr::node::input_vertex, t.line);
    if (sc.act->gen != generator_type::none && t.text == sc.act->gen_binding)
      return make(sc.act->gen == generator_type::out_edges ||
                          sc.act->gen == generator_type::in_edges
                      ? expr::node::gen_edge
                      : expr::node::gen_vertex,
                  t.line);
    if (sc.find_pmap(t.text)) {
      expect_punct("[");
      expr_ptr idx = parse_expr(sc);
      expect_punct("]");
      auto e = make(expr::node::pmap_read, t.line, {idx});
      e->pmap = t.text;
      return e;
    }
    throw parse_error(t.line, "unknown identifier '" + t.text + "'");
  }

  // ---- token helpers ------------------------------------------------------

  /// Builds a node, enforcing the expression limits (parse.hpp).
  static std::shared_ptr<expr> make(expr::node kind, int line,
                                    std::vector<expr_ptr> children = {}) {
    auto e = std::make_shared<expr>();
    e->kind = kind;
    e->line = line;
    for (const expr_ptr& c : children) {
      e->depth = std::max(e->depth, c->depth + 1);
      e->nodes += c->nodes;
    }
    e->children = std::move(children);
    if (e->depth > max_expr_depth)
      throw parse_error(line, "expression nested deeper than " + std::to_string(max_expr_depth));
    if (e->nodes > max_expr_nodes)
      throw parse_error(line, "expression expands to more than " +
                                  std::to_string(max_expr_nodes) + " nodes");
    return e;
  }

  static expr_ptr make_bin(const std::string& op, expr_ptr l, expr_ptr r, int line) {
    auto e = make(expr::node::binary, line, {std::move(l), std::move(r)});
    e->op = op;
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
  int nesting_ = 0;  ///< parse_unary frames on the stack
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
    // Walk conditions in order, mirroring the EDSL instantiation, and
    // collect the header fields the final evaluation touches.
    unsigned final_needs = 0;
    for (const condition& c : act_.conditions) {
      const value_kind gk = walk(*c.guard);
      if (gk != value_kind::boolean)
        throw parse_error(c.line, "condition guard must be boolean");
      final_needs |= needs(*c.guard);
      for (const modification& m : c.mods) {
        handle_mod(m);
        final_needs |= needs(*m.target->children[0]);
        for (const auto& a : m.arguments) final_needs |= needs(*a);
      }
    }
    if (!have_ml_) throw parse_error(act_.line, "action never modifies a property map");

    // The plan core, fed with one 8-byte slot per read (every travelling
    // kind is 8 bytes), in registration order.
    plan_request req;
    req.gen = act_.gen == generator_type::none        ? gen_kind::none
              : act_.gen == generator_type::out_edges ? gen_kind::out_edges
              : act_.gen == generator_type::in_edges  ? gen_kind::in_edges
                                                      : gen_kind::vertices;
    req.ml = ml_;
    req.final_needs = final_needs;
    for (const read_entry& r : reads_)
      req.reads.push_back(read_info{r.home, r.pinned, slot(index_.at(r.key)), kSlot, r.idx_needs});
    for (const use_rec& u : uses_)
      req.uses.push_back(slot_use{slot(index_.at(u.key)),
                                  u.ctx.empty() ? -1 : static_cast<int>(index_.at(u.ctx))});
    gather_plan gp = plan_gather(req);
    plan_info& p = gp.info;
    p.conditions = static_cast<int>(act_.conditions.size());
    p.cse_hits = cse_hits_;
    for (const auto& wp : written_pmaps_)
      if (read_pmaps_.count(wp)) p.has_dependencies = true;
    choose_kernel(p);
    // A compiled record is the destination vertex plus an 8-byte value.
    gp.report_wires(p.fast_path, sizeof(vertex_id) + kSlot, true);
    return analyzed_action{std::move(p), act_.name};
  }

 private:
  static constexpr std::size_t kSlot = 8;
  static std::size_t slot(std::size_t read) { return read * kSlot; }

  /// The text-level forms of the EDSL's compiled-record shapes (see
  /// detail::fast_shape, scatter_shape and claim_shape in action.hpp).
  void choose_kernel(plan_info& p) {
    const auto& cs = act_.conditions;
    // Atomic fast path: single condition, single assignment, compare shape,
    // and the only synchronized read is the target itself. The relax
    // record then needs the compare-and-update's locality rule.
    if (cs.size() == 1 && cs[0].mods.size() == 1 && cs[0].mods[0].is_assignment &&
        p.final_reads == 1) {
      const modification& m = cs[0].mods[0];
      const expr& g = *cs[0].guard;
      if (g.kind == expr::node::binary && (g.op == "<" || g.op == ">")) {
        const std::string target = print(*m.target);
        const std::string rhs = print(*m.arguments[0]);
        const std::string gl = print(*g.children[0]);
        const std::string gr = print(*g.children[1]);
        const bool shape = (gl == target && gr == rhs) || (gr == target && gl == rhs);
        // The proposed value must not read the target itself (that read is
        // only performed by the locked path); see the EDSL's contains_read.
        const bool rmw = rhs.find(target) != std::string::npos;
        // Atomics apply to vertex slots of a scalar kind (the EDSL's
        // atomic_eligible_map); an edge slot takes the lock path.
        const parsed_property* pm = pmap_of(*m.target);
        if (shape && !rmw && pm->type != value_kind::opaque && pm->on_vertices)
          p.atomic_path = true;
      }
      if (p.atomic_path) {
        p.fast_path = record_ok(*m.target, *m.arguments[0]);
        p.fast_reduction = sender_reduces(p.fast_path, p.final_merged, true);
      }
    }
    // Unconditional scatter: a literal `true` guard over one
    // `.method(arg)` update, applied by the method at the owner. `.add(x)`
    // is the EDSL's `add`: a sum, so the sender combines same-target
    // records when x sums into the target's type.
    if (cs.size() == 1 && cs[0].mods.size() == 1) {
      const condition& c = cs[0];
      const modification& m = c.mods[0];
      const bool true_guard =
          c.guard->kind == expr::node::literal && c.guard->literal_text == "true";
      // An edge handle is not a scalar: it cannot ride in the record.
      if (true_guard && !m.is_assignment && m.arguments.size() == 1 &&
          pmap_of(*m.target)->on_vertices && m.arguments[0]->kind != expr::node::gen_edge &&
          record_ok(*m.target, *m.arguments[0])) {
        p.fast_path = true;
        p.fast_reduction = sender_reduces(true, p.final_merged, add_widens_);
      }
    }
    // Two-arm claim: `t` unclaimed takes the label X, else a different
    // label inserts X into a vertex_list at t.
    if (cs.size() == 2 && cs[0].mods.size() == 1 && cs[1].mods.size() == 1) {
      const modification& a = cs[0].mods[0];
      const modification& ins = cs[1].mods[0];
      const expr& g0 = *cs[0].guard;
      const expr& g1 = *cs[1].guard;
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
        if (shape && maps && record_ok(*a.target, *a.arguments[0])) {
          p.fast_path = true;
          p.claim = true;
          p.fast_reduction = sender_reduces(true, p.final_merged, true);
        }
      }
    }
  }

  /// record_locality_ok for a target read and the record's value.
  bool record_ok(const expr& target, const expr& value) {
    return record_locality_ok(index_kind(*target.children[0]), reads_all_at_v(value),
                              contains_read(value));
  }

  struct read_entry {
    std::string key;
    home_id home;
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

  const parsed_property* pmap_of(const expr& read) const {
    for (const auto& p : pat_.properties)
      if (p.name == read.pmap) return &p;
    throw parse_error(read.line, "unknown property map '" + read.pmap + "'");
  }

  /// Checks an index expression and classifies its locality (Def. 1).
  home_kind index_kind(const expr& idx) {
    switch (idx.kind) {
      case expr::node::input_vertex: return home_kind::at_v;
      case expr::node::gen_vertex:
        require_gen(idx.line);
        return home_kind::at_gen;
      case expr::node::gen_edge:  // edge property read: locality of e is v
        return home_kind::at_v;
      case expr::node::src_of:
        require_edge_gen(idx.line);
        return act_.gen == generator_type::out_edges ? home_kind::at_v : home_kind::at_gen;
      case expr::node::trg_of:
        require_edge_gen(idx.line);
        return act_.gen == generator_type::out_edges ? home_kind::at_gen : home_kind::at_v;
      case expr::node::pmap_read: {
        const parsed_property* pm = pmap_of(idx);
        if (pm->type != value_kind::vertex)
          throw parse_error(idx.line,
                            "index '" + print(idx) + "' is not vertex-valued");
        if (index_kind(*idx.children[0]) != home_kind::at_v)
          throw parse_error(idx.line,
                            "pointer-chase indices must be readable at the input "
                            "vertex (one level of chasing)");
        return home_kind::chase;
      }
      default:
        throw parse_error(idx.line, "'" + print(idx) + "' cannot index a property map");
    }
  }

  /// The locality of an index expression; a chase is identified by the
  /// slot of its inner read, which must already be registered.
  home_id home_at(const expr& idx) {
    const home_kind k = index_kind(idx);
    return {k, k == home_kind::chase ? slot(index_.at(print(idx))) : 0};
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
    uses_.push_back(use_rec{key, ctx_});
    if (index_.count(key)) {
      ++cse_hits_;
      return pm->type;
    }
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
    re.home = home_at(idx);
    re.idx_needs = needs(idx);
    // A chase read needs its index value gathered strictly earlier.
    if (re.home.kind == home_kind::chase) reads_[re.home.chase_slot / kSlot].pinned = true;
    index_.emplace(key, reads_.size());
    reads_.push_back(re);
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
      return index_kind(*e.children[0]) == home_kind::at_v && reads_all_at_v(*e.children[0]);
    for (const auto& c : e.children)
      if (!reads_all_at_v(*c)) return false;
    return true;
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

  void handle_mod(const modification& m) {
    const parsed_property* pm = pmap_of(*m.target);
    const expr& idx = *m.target->children[0];
    // Mirrors the EDSL: the first modification registers a chased locality
    // (note_ml), and every modification compiles its target index
    // (compile_mod), re-reading the shared slot.
    if (index_kind(idx) == home_kind::chase) {
      if (!have_ml_) (void)register_read(idx);
      (void)register_read(idx);
    }
    const home_id h = home_at(idx);
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
  std::map<std::string, std::size_t> index_;  ///< read key -> index into reads_
  std::vector<use_rec> uses_;
  std::string ctx_;  ///< key of the read whose index is being walked; empty = final
  std::size_t cse_hits_ = 0;
  std::set<std::string> read_pmaps_, written_pmaps_;
  home_id ml_{};
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

std::string explain(const analyzed_action& a) { return pattern::explain(a.name, a); }

std::string explain_source(std::string_view source) {
  const auto parsed = parse_pattern(source);
  const auto analyzed = analyze(parsed);
  std::string out = "pattern " + analyzed.name + ":\n";
  for (const auto& a : analyzed.actions) out += explain(a);
  return out;
}

}  // namespace dpg::pattern::text
