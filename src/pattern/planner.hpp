// Locality analysis and communication planning (§IV-A of the paper).
//
// Definition 1 (Locality): the locality of the input vertex v, the
// generated edge e, and the generated vertex u is v; the locality of a
// property access p(x) is x for vertex x, or the locality of x for edge x;
// trg/src have the locality of their edge.
//
// Definition 2 (Dependency graph): an edge (l1, l2) between values when l1
// is the locality of l2. Gather messages traverse this graph depth-first,
// accumulating values in the payload; the final evaluate message runs the
// condition — merged with the modification when their localities coincide
// (the Fig. 6 one-message SSSP case).
//
// In this implementation localities are *compile-time classified* into
//   at_v    — the action's input vertex (hop 0; the invocation site)
//   at_gen  — the far endpoint of the generated edge / generated vertex
//   chase   — the *value* of a vertex-valued property read (pointer chase,
//             e.g. chg(pnt(v)) in the CC pointer-jumping action)
// Every property read is assigned an arena slot in the travelling
// gather_state; evaluators are composed lambdas reading only (v, e, u,
// arena), so the final evaluation is a pure function of the gathered
// payload, exactly as in the paper's message model. plan_builder records
// the reads; plan_gather (plan.hpp) builds the hop chain from them.
#pragma once

#include <atomic>
#include <functional>
#include <tuple>
#include <typeindex>
#include <utility>
#include <vector>

#include "pattern/expr.hpp"
#include "pattern/plan.hpp"
#include "pmap/lock_map.hpp"
#include "util/assert.hpp"

namespace dpg::pattern {

// ---------------------------------------------------------------------------
// Generator kinds (§III-C: zero or one generator per action)
// ---------------------------------------------------------------------------

struct no_generator {};
struct out_edges_gen {};
struct in_edges_gen {};
struct adj_gen {};
/// Set-valued generator: iterates the vertices stored in pm[v] (the
/// grammar's pmap-access set expression). PM's value_type must be a range
/// of vertex_id.
template <class PM>
struct pmap_gen {
  PM* pm;
};

template <class G>
inline constexpr bool is_pmap_gen = false;
template <class PM>
inline constexpr bool is_pmap_gen<pmap_gen<PM>> = true;

template <class G>
concept generator_kind =
    std::same_as<G, no_generator> || std::same_as<G, out_edges_gen> ||
    std::same_as<G, in_edges_gen> || std::same_as<G, adj_gen> || is_pmap_gen<G>;

/// The generator as the plan core sees it.
template <class Gen>
inline constexpr gen_kind gen_kind_of =
    std::is_same_v<Gen, out_edges_gen>  ? gen_kind::out_edges
    : std::is_same_v<Gen, in_edges_gen> ? gen_kind::in_edges
    : std::is_same_v<Gen, no_generator> ? gen_kind::none
                                        : gen_kind::vertices;

/// Compile-time locality classification of an index expression under a
/// given generator kind. Mirrors Definition 1 plus the normalizations
/// src(e) == v for out-edges and trg(e) == v for in-edges (those endpoint
/// reads are local to the invocation site by the storage model of §III-A).
template <class Idx, class Gen>
struct home_of;

template <class Gen>
struct home_of<v_expr, Gen> {
  static constexpr home_kind kind = home_kind::at_v;
};
// The generated edge e itself has locality v (Definition 1), so edge
// property reads indexed by e_ are resolved at the invocation site (via
// the mirror copy for in-edge generators; see edge_map.hpp).
template <class Gen>
struct home_of<e_expr, Gen> {
  static constexpr home_kind kind = home_kind::at_v;
};
template <class Gen>
struct home_of<u_expr, Gen> {
  static constexpr home_kind kind = home_kind::at_gen;
};
template <>
struct home_of<src_expr<e_expr>, out_edges_gen> {
  static constexpr home_kind kind = home_kind::at_v;
};
template <>
struct home_of<trg_expr<e_expr>, out_edges_gen> {
  static constexpr home_kind kind = home_kind::at_gen;
};
template <>
struct home_of<src_expr<e_expr>, in_edges_gen> {
  static constexpr home_kind kind = home_kind::at_gen;
};
template <>
struct home_of<trg_expr<e_expr>, in_edges_gen> {
  static constexpr home_kind kind = home_kind::at_v;
};
// Pointer chase: the index is itself a property read yielding a vertex.
// One level of chasing is supported (the paper's own patterns use one);
// the chased read must be resolvable at the invocation site.
template <class PM, class Inner, class Gen>
  requires std::same_as<typename PM::value_type, vertex_id>
struct home_of<read_expr<PM, Inner>, Gen> {
  static_assert(home_of<Inner, Gen>::kind == home_kind::at_v,
                "pointer-chase indices must be readable at the input vertex "
                "(one level of chasing, per the paper's single-generator rule)");
  static constexpr home_kind kind = home_kind::chase;
};

// ---------------------------------------------------------------------------
// Plan structures
// ---------------------------------------------------------------------------

/// One gather read: performed on the rank owning its home locality; loads a
/// property value into the travelling arena.
struct read_step : read_info {
  const void* pmap_id = nullptr;
  std::type_index self_type = std::type_index(typeid(void));  ///< read_expr type
  std::function<void(gather_state&)> perform;
};

/// One gather hop of the synthesized communication (a node of the pruned
/// depth-first traversal of the dependency graph).
struct gather_hop {
  std::function<vertex_id(const gather_state&)> locality;
  std::vector<std::function<void(gather_state&)>> reads;
};

// ---------------------------------------------------------------------------
// Expression compiler
// ---------------------------------------------------------------------------

namespace detail {
template <class PM>
inline constexpr bool is_edge_map = false;
template <class T>
inline constexpr bool is_edge_map<pmap::edge_property_map<T>> = true;
}  // namespace detail

/// Loop-invariant reads hoisted out of the fast-path generator loop. Each
/// load runs once per action application: a vertex_load copies a property
/// value indexed by the invocation vertex into its arena slot, and an
/// edge_view_load resolves the rank's slice of an edge map, so the per-edge
/// kernel evaluation reads a stack slot or indexes a resolved array instead
/// of repeating the sharded (and, for atomic-capable values, atomic)
/// property-map access for every generated edge — the same value economy
/// as a hand-written relax handler, which computes its source value once
/// and carries it through the edge loop. Freshness is unaffected in
/// spirit: property reads are freshness-relaxed anyway (see
/// read_step::perform), and any concurrent improvement of a hoisted value
/// re-triggers the action through the dependency work hook.
///
/// `Loads` is a std::tuple of the typed loads, one per hoisted read in the
/// compiled expression, in evaluation order; running them is a statically
/// dispatched sequence with no type erasure.
template <class Loads>
struct hoisted_reads {
  Loads loads;
  /// Bytes of hoisted values, packed from arena offset 0. Edge views sit
  /// at the top of the arena, above every value.
  std::size_t arena_used = 0;

  /// Runs every load for the invocation vertex s.v, local index `li` on
  /// its owner `r` (the calling rank).
  void run(gather_state& s, ampp::rank_t r, std::uint64_t li) const {
    std::apply([&](const auto&... l) { (l(s, r, li), ...); }, loads);
  }
};

/// Hoisted read of vertex map `pm` at the invocation vertex.
template <class PM>
struct vertex_load {
  const PM* pm;
  std::size_t ofs;

  void operator()(gather_state& s, ampp::rank_t r, std::uint64_t li) const {
    using T = typename PM::value_type;
    const T& x = pm->local(r)[li];
    if constexpr (pmap::atomic_capable<T>)
      s.arena_put(ofs, std::atomic_ref<T>(const_cast<T&>(x)).load(std::memory_order_relaxed));
    else
      s.arena_put(ofs, x);
  }
};

/// Hoisted resolution of an edge map's rank view: the primary copy for the
/// out-edge generator, the mirror for the in-edge generator.
template <class T, bool Mirror>
struct edge_view_load {
  const pmap::edge_property_map<T>* pm;
  std::size_t ofs;

  void operator()(gather_state& s, ampp::rank_t r, std::uint64_t) const {
    s.arena_put(ofs, Mirror ? pm->mirror_view(r) : pm->primary_view(r));
  }
};

/// A fast-path expression compiled with hoisting: the per-edge evaluator
/// and the hoisted loads that feed it (run them first, once per
/// application).
template <class Fn, class Loads>
struct hoisted_expr {
  Fn eval;
  hoisted_reads<Loads> reads;
};

/// Accumulates read steps and arena layout while compiling the expressions
/// of one action. The Gen parameter fixes the generator kind so locality
/// classification is purely type-level.
template <class Gen>
class plan_builder {
 public:
  /// Compiles an expression into a callable (const gather_state&) ->
  /// value_t<Expr>, registering every property read it contains.
  template <class Expr>
  auto compile(const Expr& ex) {
    using E = std::remove_cvref_t<Expr>;
    if constexpr (std::is_same_v<E, v_expr>) {
      return [](const gather_state& s) { return s.v; };
    } else if constexpr (std::is_same_v<E, e_expr>) {
      return [](const gather_state& s) { return s.e; };
    } else if constexpr (std::is_same_v<E, u_expr>) {
      return [](const gather_state& s) { return s.u; };
    } else if constexpr (is_src<E>::value) {
      auto f = compile(ex.inner);
      return [f](const gather_state& s) { return f(s).src; };
    } else if constexpr (is_trg<E>::value) {
      auto f = compile(ex.inner);
      return [f](const gather_state& s) { return f(s).dst; };
    } else if constexpr (is_lit<E>::value) {
      auto val = ex.value;
      return [val](const gather_state&) { return val; };
    } else if constexpr (is_read<E>::value) {
      return compile_read(ex);
    } else if constexpr (is_bin<E>::value) {
      auto l = compile(ex.lhs);
      auto r = compile(ex.rhs);
      using Op = typename is_bin<E>::op_type;
      return [l, r](const gather_state& s) { return apply_op<Op>(l(s), r(s)); };
    } else if constexpr (is_not<E>::value) {
      auto f = compile(ex.inner);
      return [f](const gather_state& s) { return !f(s); };
    } else {
      static_assert(sizeof(E) == 0, "unsupported expression node");
    }
  }

  /// Registers (or dedups) the read for `ex` and returns its arena slot.
  /// Also used for modification targets' condition-synchronized reads.
  /// Every call records a slot use in the current consumption context, so
  /// a dedup hit (CSE) still extends the slot's wire lifetime.
  template <class PM, class Idx>
  std::size_t register_read(const read_expr<PM, Idx>& ex) {
    const dedup_key key{static_cast<const void*>(ex.pm), std::type_index(typeid(ex))};
    for (const auto& [k, entry] : dedup_)
      if (k == key) {
        ++cse_hits_;
        uses_.push_back(slot_use{entry.offset, use_ctx_});
        return entry.offset;
      }

    using T = typename PM::value_type;
    static_assert(std::is_trivially_copyable_v<T>,
                  "property values read by a pattern travel in messages and "
                  "must be trivially copyable");
    const std::size_t ofs = allocate(sizeof(T), alignof(T));
    uses_.push_back(slot_use{ofs, use_ctx_});
    // The index expression evaluates where this read executes: reads (and
    // header fields) it touches are consumed by *this* step, not by the
    // final evaluation. Tokens resolve to step indices once the step is
    // pushed (nested chase reads push theirs first).
    const int token = static_cast<int>(token_step_.size());
    token_step_.push_back(static_cast<std::size_t>(-1));
    const int saved_ctx = use_ctx_;
    use_ctx_ = token;
    auto idx_fn = compile(ex.idx);
    use_ctx_ = saved_ctx;
    PM* pm = ex.pm;

    // A chase read needs its index value gathered strictly earlier: pin the
    // inner read so it is never deferred to the final hop.
    if constexpr (home_of<Idx, Gen>::kind == home_kind::chase) find(ex.idx)->pinned = true;

    read_step step;
    step.home = home(ex.idx);
    step.arena_offset = ofs;
    step.size = sizeof(T);
    step.idx_needs = header_needs<Idx>();
    step.pmap_id = pm;
    step.self_type = std::type_index(typeid(ex));
    step.perform = [pm, idx_fn, ofs](gather_state& s) {
      if constexpr (detail::is_edge_map<PM>) {
        s.arena_put(ofs, pm->read(idx_fn(s)));
      } else if constexpr (pmap::atomic_capable<T>) {
        // Handlers may run on dedicated threads concurrently with writers
        // (§IV-B's atomic path): read through an atomic_ref so the access
        // is well-defined. The paper gives no cross-vertex read guarantee,
        // and neither do we — this is freshness-relaxed, not synchronized.
        T& slot = const_cast<T&>(std::as_const(*pm)[idx_fn(s)]);
        s.arena_put(ofs, std::atomic_ref<T>(slot).load(std::memory_order_relaxed));
      } else {
        s.arena_put(ofs, std::as_const(*pm)[idx_fn(s)]);
      }
    };
    const std::size_t step_index = steps_.size();
    token_step_[static_cast<std::size_t>(token)] = step_index;
    steps_.push_back(std::move(step));
    dedup_.emplace_back(key, dedup_entry{ofs, step_index});
    return ofs;
  }

  /// Compiles an expression into a callable that reads property maps
  /// *directly* — no arena, no read registration. Only valid when every
  /// read it contains resolves at the evaluation site (the single-locality
  /// fast path guarantees this by construction). Uses the same access
  /// discipline as the registered read steps: mirror-aware reads for edge
  /// maps, relaxed atomic loads for atomic-capable values.
  template <class Expr>
  static auto compile_direct(const Expr& ex) {
    using E = std::remove_cvref_t<Expr>;
    if constexpr (std::is_same_v<E, v_expr>) {
      return [](const gather_state& s) { return s.v; };
    } else if constexpr (std::is_same_v<E, e_expr>) {
      return [](const gather_state& s) { return s.e; };
    } else if constexpr (std::is_same_v<E, u_expr>) {
      return [](const gather_state& s) { return s.u; };
    } else if constexpr (pattern::detail::is_src_expr<E>::value) {
      auto f = compile_direct(ex.inner);
      return [f](const gather_state& s) { return f(s).src; };
    } else if constexpr (pattern::detail::is_trg_expr<E>::value) {
      auto f = compile_direct(ex.inner);
      return [f](const gather_state& s) { return f(s).dst; };
    } else if constexpr (pattern::detail::is_lit_expr<E>::value) {
      auto val = ex.value;
      return [val](const gather_state&) { return val; };
    } else if constexpr (pattern::detail::is_read_expr<E>::value) {
      using PM = typename pattern::detail::is_read_expr<E>::pm_type;
      using T = typename PM::value_type;
      auto idx_fn = compile_direct(ex.idx);
      PM* pm = ex.pm;
      return [pm, idx_fn](const gather_state& s) {
        if constexpr (detail::is_edge_map<PM>) {
          return pm->read(idx_fn(s));
        } else if constexpr (pmap::atomic_capable<T>) {
          T& slot = const_cast<T&>(std::as_const(*pm)[idx_fn(s)]);
          return std::atomic_ref<T>(slot).load(std::memory_order_relaxed);
        } else {
          return std::as_const(*pm)[idx_fn(s)];
        }
      };
    } else if constexpr (pattern::detail::is_bin_expr<E>::value) {
      auto l = compile_direct(ex.lhs);
      auto r = compile_direct(ex.rhs);
      using Op = typename pattern::detail::is_bin_expr<E>::op_type;
      return [l, r](const gather_state& s) { return apply_op<Op>(l(s), r(s)); };
    } else if constexpr (pattern::detail::is_not_expr<E>::value) {
      auto f = compile_direct(ex.inner);
      return [f](const gather_state& s) { return !f(s); };
    } else {
      static_assert(sizeof(E) == 0, "unsupported expression node");
    }
  }

  /// compile_direct with loop-invariant hoisting: reads indexed by the
  /// invocation vertex itself load into the arena once per application
  /// and evaluate as a stack-slot fetch per edge; an edge map read at the
  /// generated edge resolves the rank's view once per application and
  /// indexes it per edge; all other nodes compile exactly as
  /// compile_direct. Repeated reads of one map share a slot. Hoisted
  /// values always fit: they are a subset of the registered gather reads,
  /// and build() aborts on arena overflow before any fast compile runs.
  /// Edge views are hoisted only when every view fits beside the values.
  template <class Expr>
  static auto compile_direct_hoisted(const Expr& ex) {
    hoist_layout h;
    auto compiled = hoist<std::remove_cvref_t<Expr>>(ex, h);
    using fn_t = decltype(compiled.first);
    using loads_t = decltype(compiled.second);
    return hoisted_expr<fn_t, loads_t>{
        std::move(compiled.first), hoisted_reads<loads_t>{std::move(compiled.second), h.used}};
  }

  const std::vector<read_step>& steps() const { return steps_; }
  std::vector<read_step>& steps() { return steps_; }
  std::size_t arena_used() const { return arena_used_; }

  /// Duplicate reads eliminated by the (map instance, read type) dedup —
  /// each hit shares an already-allocated arena slot.
  std::size_t cse_hits() const { return cse_hits_; }
  /// Did the registered reads outgrow gather_state::arena_bytes? Checked by
  /// instantiated_action::build, which aborts with a diagnostic naming the
  /// action; the compiled closures are never run past an overflow.
  bool overflow() const { return arena_required_ > gather_state::arena_bytes; }
  std::size_t arena_required() const { return arena_required_; }

  /// The locality of an index expression. A chase is identified by the
  /// slot of its (already registered) inner read; an unregistered one gets
  /// a slot no read has, so it equals no registered home.
  template <class Idx>
  home_id home(const Idx& idx) {
    if constexpr (home_of<Idx, Gen>::kind == home_kind::chase) {
      const read_step* inner = find(idx);
      return {home_kind::chase, inner ? inner->arena_offset : gather_state::arena_bytes};
    } else {
      return {home_of<Idx, Gen>::kind, 0};
    }
  }

  /// The compiled reads and slot uses as the plan core's input, given the
  /// modification locality and the final stage's header needs.
  plan_request request(const home_id& ml, unsigned final_needs) const {
    plan_request r{gen_kind_of<Gen>, {steps_.begin(), steps_.end()}, {}, ml, final_needs};
    for (const slot_use& u : uses_) {
      const int step =
          u.step < 0 ? -1 : static_cast<int>(token_step_[static_cast<std::size_t>(u.step)]);
      r.uses.push_back(slot_use{u.offset, step});
    }
    return r;
  }

  /// Was property map `pm` read anywhere in the compiled expressions?
  /// (Dependency detection, §IV-C.)
  bool reads_pmap(const void* pm) const {
    for (const auto& s : steps_)
      if (s.pmap_id == pm) return true;
    return false;
  }

 private:
  template <class E> struct is_src : std::false_type {};
  template <class E> struct is_src<src_expr<E>> : std::true_type {};
  template <class E> struct is_trg : std::false_type {};
  template <class E> struct is_trg<trg_expr<E>> : std::true_type {};
  template <class E> struct is_lit : std::false_type {};
  template <class T> struct is_lit<lit_expr<T>> : std::true_type {};
  template <class E> struct is_read : std::false_type {};
  template <class PM, class I> struct is_read<read_expr<PM, I>> : std::true_type {};
  template <class E> struct is_bin : std::false_type {};
  template <class Op, class L, class R> struct is_bin<bin_expr<Op, L, R>> : std::true_type {
    using op_type = Op;
  };
  template <class E> struct is_not : std::false_type {};
  template <class X> struct is_not<un_expr<op_not, X>> : std::true_type {};

  /// Arena slots handed out while hoisting: values grow up from offset 0,
  /// edge views grow down from the top.
  struct hoist_layout {
    std::size_t used = 0;
    std::size_t top = gather_state::arena_bytes;
    std::vector<std::pair<const void*, std::size_t>> slots;  ///< (map, offset)

    /// The offset already given to `pm`, or gather_state::arena_bytes.
    std::size_t find(const void* pm) const {
      for (const auto& [id, ofs] : slots)
        if (id == pm) return ofs;
      return gather_state::arena_bytes;
    }
  };

  /// An edge-map read the hoister resolves as a view: indexed by the
  /// generated edge of an edge generator.
  template <class PM, class Idx>
  static constexpr bool edge_view_read =
      detail::is_edge_map<PM> && std::is_same_v<Idx, e_expr> &&
      (std::is_same_v<Gen, out_edges_gen> || std::is_same_v<Gen, in_edges_gen>);

  /// Upper bound of the arena bytes hoisting Expr takes (no slot sharing).
  template <class Expr>
  static constexpr std::size_t hoist_bytes() {
    if constexpr (pattern::detail::is_read_expr<Expr>::value) {
      using PM = typename pattern::detail::is_read_expr<Expr>::pm_type;
      using Idx = typename pattern::detail::is_read_expr<Expr>::idx_type;
      if constexpr (std::is_same_v<Idx, v_expr> && !detail::is_edge_map<PM>)
        return sizeof(typename PM::value_type);
      else if constexpr (edge_view_read<PM, Idx>)
        return sizeof(typename PM::rank_view);
      else
        return 0;
    } else if constexpr (pattern::detail::is_bin_expr<Expr>::value) {
      return hoist_bytes<typename pattern::detail::is_bin_expr<Expr>::lhs_type>() +
             hoist_bytes<typename pattern::detail::is_bin_expr<Expr>::rhs_type>();
    } else if constexpr (pattern::detail::is_not_expr<Expr>::value) {
      return hoist_bytes<typename pattern::detail::is_not_expr<Expr>::inner>();
    } else {
      return 0;
    }
  }

  /// The recursion of compile_direct_hoisted: returns the evaluator and
  /// the tuple of loads of `ex`, a subexpression of `Root`.
  template <class Root, class Expr>
  static auto hoist(const Expr& ex, hoist_layout& h) {
    using E = std::remove_cvref_t<Expr>;
    if constexpr (pattern::detail::is_read_expr<E>::value) {
      using PM = typename pattern::detail::is_read_expr<E>::pm_type;
      using Idx = typename pattern::detail::is_read_expr<E>::idx_type;
      using T = typename PM::value_type;
      if constexpr (std::is_same_v<Idx, v_expr> && !detail::is_edge_map<PM>) {
        std::size_t ofs = h.find(ex.pm);
        if (ofs == gather_state::arena_bytes) {
          DPG_ASSERT_MSG(h.used + sizeof(T) <= h.top, "hoisted reads exceed the gather arena");
          ofs = h.used;
          h.used += sizeof(T);
          h.slots.emplace_back(ex.pm, ofs);
        }
        auto fn = [ofs](const gather_state& s) { return s.template arena_get<T>(ofs); };
        return std::pair{fn, std::tuple<vertex_load<PM>>{vertex_load<PM>{ex.pm, ofs}}};
      } else if constexpr (edge_view_read<PM, Idx> &&
                           hoist_bytes<Root>() <= gather_state::arena_bytes) {
        using view = typename PM::rank_view;
        constexpr bool mirror = std::is_same_v<Gen, in_edges_gen>;
        std::size_t ofs = h.find(ex.pm);
        if (ofs == gather_state::arena_bytes) {
          h.top -= sizeof(view);
          ofs = h.top;
          h.slots.emplace_back(ex.pm, ofs);
        }
        auto fn = [ofs](const gather_state& s) -> T {
          const view w = s.template arena_get<view>(ofs);
          if constexpr (mirror)
            return w.in(s.e);
          else
            return w.out(s.e);
        };
        using load = edge_view_load<T, mirror>;
        return std::pair{fn, std::tuple<load>{load{ex.pm, ofs}}};
      } else {
        return std::pair{compile_direct(ex), std::tuple<>{}};
      }
    } else if constexpr (pattern::detail::is_bin_expr<E>::value) {
      auto lhs = hoist<Root>(ex.lhs, h);
      auto rhs = hoist<Root>(ex.rhs, h);
      using Op = typename pattern::detail::is_bin_expr<E>::op_type;
      auto fn = [l = lhs.first, r = rhs.first](const gather_state& s) {
        return apply_op<Op>(l(s), r(s));
      };
      return std::pair{fn, std::tuple_cat(std::move(lhs.second), std::move(rhs.second))};
    } else if constexpr (pattern::detail::is_not_expr<E>::value) {
      auto inner = hoist<Root>(ex.inner, h);
      auto fn = [f = inner.first](const gather_state& s) { return !f(s); };
      return std::pair{fn, std::move(inner.second)};
    } else {
      return std::pair{compile_direct(ex), std::tuple<>{}};
    }
  }

  template <class PM, class Idx>
  auto compile_read(const read_expr<PM, Idx>& ex) {
    using T = typename PM::value_type;
    const std::size_t ofs = register_read(ex);
    return [ofs](const gather_state& s) { return s.template arena_get<T>(ofs); };
  }

  std::size_t allocate(std::size_t size, std::size_t align) {
    arena_used_ = (arena_used_ + align - 1) & ~(align - 1);
    const std::size_t ofs = arena_used_;
    arena_used_ += size;
    // Overflow is recorded, not fatal here: the action's build pass checks
    // overflow() once compilation finishes and fails with a diagnostic that
    // can name the action and the total requirement. The perform closures
    // capturing an out-of-bounds offset are never executed — build aborts
    // before the action is registered.
    arena_required_ = arena_used_ > arena_required_ ? arena_used_ : arena_required_;
    return ofs;
  }

  /// The registered step reading `idx` (a read expression), or null.
  template <class Idx>
  read_step* find(const Idx& idx) {
    const dedup_key key{static_cast<const void*>(idx.pm), std::type_index(typeid(idx))};
    for (auto& [k, entry] : dedup_)
      if (k == key) return &steps_[entry.step_index];
    return nullptr;
  }

  struct dedup_key {
    const void* pm;
    std::type_index type;
    friend bool operator==(const dedup_key&, const dedup_key&) = default;
  };
  struct dedup_entry {
    std::size_t offset;
    std::size_t step_index;
  };

  std::vector<std::pair<dedup_key, dedup_entry>> dedup_;
  std::vector<read_step> steps_;
  std::size_t arena_used_ = 0;
  std::size_t arena_required_ = 0;
  std::size_t cse_hits_ = 0;
  std::vector<slot_use> uses_;  ///< `step` holds a token until request()
  std::vector<std::size_t> token_step_;  ///< token -> index into steps_
  int use_ctx_ = -1;  ///< current consumption context (-1: final evaluation)
};

/// True when every property read anywhere in Expr (nested index
/// expressions included) is homed at the invocation vertex — the
/// value-expression precondition of the single-locality fast path: such an
/// expression evaluates completely at hop 0 without an arena.
template <class Expr, class Gen>
constexpr bool reads_all_at_v() {
  using E = std::remove_cvref_t<Expr>;
  if constexpr (detail::is_read_expr<E>::value) {
    using Idx = typename detail::is_read_expr<E>::idx_type;
    return home_of<Idx, Gen>::kind == home_kind::at_v && reads_all_at_v<Idx, Gen>();
  } else if constexpr (detail::is_src_expr<E>::value) {
    return reads_all_at_v<typename detail::is_src_expr<E>::inner, Gen>();
  } else if constexpr (detail::is_trg_expr<E>::value) {
    return reads_all_at_v<typename detail::is_trg_expr<E>::inner, Gen>();
  } else if constexpr (detail::is_bin_expr<E>::value) {
    return reads_all_at_v<typename detail::is_bin_expr<E>::lhs_type, Gen>() &&
           reads_all_at_v<typename detail::is_bin_expr<E>::rhs_type, Gen>();
  } else if constexpr (detail::is_not_expr<E>::value) {
    return reads_all_at_v<typename detail::is_not_expr<E>::inner, Gen>();
  } else {
    return true;
  }
}

}  // namespace dpg::pattern
