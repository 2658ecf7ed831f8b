// Actions (§III-C) and their instantiation into AM++ message chains (§IV).
//
// An action is declared declaratively:
//
//   property dist(dist_map);            // property-map DSL handles
//   property weight(weight_map);
//   auto relax = make_action("relax", out_edges_gen{},
//       when(dist(trg(e_)) > dist(v_) + weight(e_),
//            assign(dist(trg(e_)), dist(v_) + weight(e_))));
//
// and instantiated against a transport + graph + lock map:
//
//   auto act = instantiate(tp, g, locks, relax);
//   act->work([&](ampp::transport_context& ctx, vertex_id dep) {  // §IV-C
//     (*act)(ctx, dep);                          // re-apply in the handler
//   });
//
// (strategy::fixed_point installs a hook that files `dep` in the owner's
// work queue instead and applies it from its epoch loop.)
//
// A compiled relax, scatter or claim record whose target the sending rank
// owns is committed in place, not sent (owner-local apply). A record
// generated inside the hook of such a commit — the immediate re-application
// above — goes on the wire instead, so the hook cannot recurse without
// bound.
//
// A scatter declared a sum (`add`) folds the contributions it would send
// into a per-rank accumulator and sends one record per distinct remote
// target when the transport next flushes the rank (Pregel's combiner on
// the sender; see instantiated_action::drain).
//
// Instantiation performs the paper's §IV-A translation: locality analysis,
// hop planning, merging of the final gather with evaluate+modify, message
// type registration (with auto-generated address maps, §IV-D), and the
// §IV-B synchronization choice (hardware atomics for the single-value
// compare-and-update shape, lock map otherwise).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "ampp/transport.hpp"
#include "graph/distributed_graph.hpp"
#include "pattern/planner.hpp"
#include "pattern/work_queue.hpp"
#include "pmap/lock_map.hpp"

namespace dpg::pattern {

// ---------------------------------------------------------------------------
// Modification statements
// ---------------------------------------------------------------------------

/// assign: target-pmap[idx] = value. The leftmost property access of a
/// modification is the modified one (the paper's left-to-right rule).
template <class PM, class Idx, class Val>
struct assign_stmt {
  read_expr<PM, Idx> target;
  Val value;
};

template <class PM, class Idx, class V>
auto assign(read_expr<PM, Idx> target, V value) {
  auto val = as_expr(value);
  return assign_stmt<PM, Idx, decltype(val)>{target, val};
}

/// modify: fn(target-pmap[idx], arg-values...) — the general "property map
/// modification" of the grammar (e.g. preds[v].insert(u)). fn must be the
/// only writer of the slot and must not touch other property maps.
template <class PM, class Idx, class F, class... Args>
struct modify_stmt {
  read_expr<PM, Idx> target;
  F fn;
  std::tuple<Args...> args;
};

template <class PM, class Idx, class F, class... Args>
auto modify(read_expr<PM, Idx> target, F fn, Args... args) {
  return modify_stmt<PM, Idx, F, decltype(as_expr(args))...>{
      target, std::move(fn), std::tuple<decltype(as_expr(args))...>{as_expr(args)...}};
}

/// The library's sum functor, what `add` applies at the owner. Declaring
/// an update a sum rather than an opaque `modify` tells the compiler that
/// same-target contributions may be folded on the sender.
struct sum_op {
  template <class T, class U>
  void operator()(T& acc, const U& x) const {
    acc += x;
  }
};

/// add: target-pmap[idx] += value — `modify` with the library sum functor.
/// An unconditional `add` scatter compiles to the combining scatter kernel
/// (see detail::scatter_shape).
template <class PM, class Idx, class V>
auto add(read_expr<PM, Idx> target, V value) {
  return modify(target, sum_op{}, value);
}

/// insert: adds value to the std::vector set target-pmap[idx] unless it is
/// already present — the text front end's `.insert` on a `vertex_list`.
/// Unlike an opaque modify it is idempotent, which is what lets the claim
/// kernel drop repeated records before they reach the wire.
template <class PM, class Idx, class Val>
struct insert_stmt {
  read_expr<PM, Idx> target;
  Val value;
};

template <class T>
inline constexpr bool is_std_vector = false;
template <class T, class A>
inline constexpr bool is_std_vector<std::vector<T, A>> = true;

template <class PM, class Idx, class V>
auto insert(read_expr<PM, Idx> target, V value) {
  static_assert(is_std_vector<typename PM::value_type>,
                "insert targets a property map of std::vector sets");
  auto val = as_expr(value);
  return insert_stmt<PM, Idx, decltype(val)>{target, val};
}

/// Set insert into a vector: appends x unless present.
template <class T, class U>
void insert_absent(std::vector<T>& set, const U& x) {
  if (std::find(set.begin(), set.end(), x) == set.end()) set.push_back(static_cast<T>(x));
}

// ---------------------------------------------------------------------------
// Conditions
// ---------------------------------------------------------------------------

/// One `if (cond) { modifications }` arm. Arms of an action chain as
/// if / else-if: the first true condition fires and ends the action.
template <class Cond, class... Mods>
struct when_clause {
  Cond cond;
  std::tuple<Mods...> mods;
};

template <is_expr Cond, class... Mods>
auto when(Cond cond, Mods... mods) {
  static_assert(sizeof...(Mods) >= 1, "a condition must guard at least one modification");
  return when_clause<Cond, Mods...>{cond, std::tuple<Mods...>{mods...}};
}

/// An unconditional arm (an `else` branch).
template <class... Mods>
auto otherwise(Mods... mods) {
  return when(lit(true), mods...);
}

// ---------------------------------------------------------------------------
// Action definition
// ---------------------------------------------------------------------------

template <generator_kind Gen, class... Whens>
struct action_def {
  std::string name;
  Gen gen;
  std::tuple<Whens...> whens;
};

template <generator_kind Gen, class... Whens>
auto make_action(std::string name, Gen gen, Whens... whens) {
  static_assert(sizeof...(Whens) >= 1, "an action needs at least one condition");
  return action_def<Gen, Whens...>{std::move(name), gen, std::tuple<Whens...>{whens...}};
}

// ---------------------------------------------------------------------------
// Instantiated action: type-erased interface used by strategies
// ---------------------------------------------------------------------------

class action_instance {
 public:
  virtual ~action_instance() = default;

  /// Runs the action starting at vertex v. Must be called on the rank that
  /// owns v, inside an epoch.
  virtual void operator()(ampp::transport_context& ctx, graph::vertex_id v) = 0;

  /// The work hook (§IV-C): called at the owner of a dependent vertex when
  /// a condition modified a property value the action also reads. Default:
  /// dependencies are ignored (per the paper).
  using work_hook = std::function<void(ampp::transport_context&, graph::vertex_id)>;
  virtual void work(work_hook h) { hook_ = std::move(h); }

  const std::string& name() const { return name_; }
  const plan_info& plan() const { return plan_; }

  /// Total applications of the action (across ranks).
  std::uint64_t invocations() const { return sum(invocations_); }
  /// Total successful condition firings, i.e. modifications performed.
  virtual std::uint64_t modifications() const { return sum(mods_); }

  /// Distribution of the graph the action was instantiated on.
  virtual const graph::distribution& vertex_dist() const = 0;

  /// Rank r's queue of pending dependent vertices (local indices), filled
  /// by the fixed_point strategy's hook and drained by its epoch loop. It
  /// lives here rather than on a rank's stack because in-process every
  /// rank shares this instance and the one hook rank 0 installs.
  work_queue& pending_work(ampp::rank_t r) { return work_[r]; }

 protected:
  /// Sizes the per-rank state — counters and work queues — for `ranks`
  /// ranks. vector(n) constructs in place (atomics and locks do not move).
  /// `handler_threads`: whether threads other than a rank's own write its
  /// counters (see bump).
  void init_rank_state(ampp::rank_t ranks, bool handler_threads) {
    invocations_ = std::vector<padded_counter>(ranks);
    mods_ = std::vector<padded_counter>(ranks);
    local_applies_ = std::vector<padded_counter>(ranks);
    work_ = std::vector<work_queue>(ranks);
    shared_counters_ = handler_threads;
  }

  /// Moves rank r's tally of owner-local applies to the transport's shared
  /// local_applies counter. Records committed in place are tallied per
  /// rank, so applications on different ranks share no cache line, and
  /// published by the action's transport drain, which runs at the start of
  /// every full flush: every epoch ends with termination-detection rounds
  /// that flush, so the shared counter is exact at every epoch end.
  void publish_local_applies(ampp::rank_t r, ampp::transport_stats& core) {
    std::atomic<std::uint64_t>& c = local_applies_[r].n;
    if (c.load(std::memory_order_relaxed) != 0)
      core.local_applies.fetch_add(c.exchange(0, std::memory_order_relaxed),
                                   std::memory_order_relaxed);
  }

  struct padded_counter {
    alignas(64) std::atomic<std::uint64_t> n{0};
  };
  /// Adds k to one of a rank's counters. Under polling progress only the
  /// rank's own thread writes them, so a relaxed load and store suffice —
  /// a locked add per application was a measurable share of PageRank's
  /// scatter loop; with handler threads they take an atomic add.
  void bump(padded_counter& c, std::uint64_t k) const {
    if (shared_counters_)
      c.n.fetch_add(k, std::memory_order_relaxed);
    else
      c.n.store(c.n.load(std::memory_order_relaxed) + k, std::memory_order_relaxed);
  }
  static std::uint64_t sum(const std::vector<padded_counter>& v) {
    std::uint64_t t = 0;
    for (const auto& c : v) t += c.n.load(std::memory_order_relaxed);
    return t;
  }

  std::string name_;
  plan_info plan_;
  work_hook hook_;
  std::vector<padded_counter> invocations_;
  std::vector<padded_counter> mods_;
  std::vector<padded_counter> local_applies_;  ///< unpublished, per rank
  std::vector<work_queue> work_;
  bool shared_counters_ = false;  ///< handler threads also write the counters
};

// ---------------------------------------------------------------------------
// Atomic-shape detection (§IV-B single-value fast path)
// ---------------------------------------------------------------------------

namespace detail {

template <class PM>
inline constexpr bool atomic_eligible_map =
    !is_edge_map<PM> && pmap::atomic_capable<typename PM::value_type>;

/// The comparator of a compare-and-update: a min-update applies a proposal
/// below the current value, a max-update one above it.
template <bool Min>
struct update_cmp : std::true_type {
  static constexpr bool min_update = Min;
  template <class T>
  static bool cmp(const T& cur, const T& prop) {
    return Min ? prop < cur : cur < prop;
  }
};

/// The merge rule of a sender-side cache over a compare-and-update lane:
/// whether candidate `b` beats `a` under the min- (or max-) update. A NaN
/// candidate never wins, so the cache stays monotone.
template <bool Min, class T>
bool b_wins(const T& a, const T& b) {
  if constexpr (std::is_floating_point_v<T>) {
    if (b != b) return false;
    if (a != a) return true;
  }
  return update_cmp<Min>::cmp(a, b);
}

/// Matches `when(target OP other, assign(target, other))` shapes where the
/// comparison justifies a CAS loop. `cmp(cur, proposed)` returns whether
/// the update should be applied against the current value.
template <class When>
struct atomic_shape : std::false_type {};

// dist(trg(e)) > candidate  →  min-update (apply when proposed < current)
template <class PM, class Idx, class R>
  requires atomic_eligible_map<PM>
struct atomic_shape<when_clause<bin_expr<op_gt, read_expr<PM, Idx>, R>,
                                assign_stmt<PM, Idx, R>>> : update_cmp<true> {};

// candidate < dist(trg(e))  →  min-update
template <class PM, class Idx, class L>
  requires atomic_eligible_map<PM>
struct atomic_shape<when_clause<bin_expr<op_lt, L, read_expr<PM, Idx>>,
                                assign_stmt<PM, Idx, L>>> : update_cmp<true> {};

// dist(x) < candidate  →  max-update (apply when proposed > current)
template <class PM, class Idx, class R>
  requires atomic_eligible_map<PM>
struct atomic_shape<when_clause<bin_expr<op_lt, read_expr<PM, Idx>, R>,
                                assign_stmt<PM, Idx, R>>> : update_cmp<false> {};

// candidate > dist(x)  →  max-update
template <class PM, class Idx, class L>
  requires atomic_eligible_map<PM>
struct atomic_shape<when_clause<bin_expr<op_gt, L, read_expr<PM, Idx>>,
                                assign_stmt<PM, Idx, L>>> : update_cmp<false> {};

// ---------------------------------------------------------------------------
// Single-locality fast shape (compiled relax kernel)
// ---------------------------------------------------------------------------

/// Strengthens atomic_shape into the shape that needs no travelling arena at
/// all: a one-when compare-and-update whose proposed value is computable
/// entirely at the invocation site. Such an action compiles to a minimal
/// relax record {destination vertex, proposed value} — the hand-written
/// AM++ SSSP/CC message of the paper's §IV-A comparison — instead of the
/// general gather_state payload. Beyond atomic_shape, the target index and
/// the proposed value obey record_locality_ok (checked at compile time).
template <class When, class Gen>
struct fast_shape : std::false_type {
  // Dummy aliases so dependent member declarations instantiate when the
  // shape does not match; every use is guarded by `if constexpr`.
  using pm_type = void;
  using idx_expr = v_expr;
  using val_expr = lit_expr<int>;
  using value_type = int;
  using slot_type = int;
  static constexpr bool min_update = false;
};

/// record_locality_ok for a target index and value expression.
template <class Idx, class Val, class Gen>
inline constexpr bool fast_ok = record_locality_ok(
    home_of<Idx, Gen>::kind, reads_all_at_v<Val, Gen>(), read_count<Val>() != 0);

/// The target map, target index and proposed value of an atomic_shape when.
template <class When>
struct cas_parts {};
template <class Op, class PM, class Idx, class R>
struct cas_parts<when_clause<bin_expr<Op, read_expr<PM, Idx>, R>, assign_stmt<PM, Idx, R>>> {
  using pm_type = PM;
  using idx_expr = Idx;
  using val_expr = R;
};
template <class Op, class PM, class Idx, class L>
struct cas_parts<when_clause<bin_expr<Op, L, read_expr<PM, Idx>>, assign_stmt<PM, Idx, L>>> {
  using pm_type = PM;
  using idx_expr = Idx;
  using val_expr = L;
};

template <class When, class Gen>
  requires (atomic_shape<When>::value &&
            fast_ok<typename cas_parts<When>::idx_expr, typename cas_parts<When>::val_expr, Gen>)
struct fast_shape<When, Gen> : atomic_shape<When>, cas_parts<When> {
  using value_type = typename cas_parts<When>::pm_type::value_type;
  using slot_type = value_type;
};

/// The second single-locality fast shape: an unconditional scatter
/// `when(lit(true), modify(pm[idx], F, arg))` (PageRank's accumulate).
/// There is no comparison to make atomic, so it compiles to the same
/// 16-byte {destination vertex, argument value} record as the relax kernel,
/// and the receiver applies the statically typed F to the owner's slot.
///
/// Requirements (checked at compile time; the guard literal's value is
/// checked at build time):
///   * exactly one argument, of arithmetic type (a vertex id or a number),
///     so the record stays {8-byte vertex, <= 8-byte value};
///   * the target index and the argument obey the relax kernel's locality
///     rule (record_locality_ok).
///
/// A scatter whose F is the library's sum_op (`add`) is additionally
/// `combine`-able when the argument widens into the slot's arithmetic type
/// exactly as `+=` widens it (their common type is the slot's): the sender
/// may then fold same-target contributions into one record, which carries
/// the slot's type.
template <class When, class Gen>
struct scatter_shape : std::false_type {
  using pm_type = void;
  using idx_expr = v_expr;
  using val_expr = lit_expr<int>;
  using value_type = int;
  using slot_type = int;
  using fn_type = int;
  static constexpr bool min_update = false;
  static constexpr bool combine = false;
};

template <class F, class Slot, class Arg>
inline constexpr bool summable =
    std::is_same_v<F, sum_op> && std::is_arithmetic_v<Slot> && !std::is_same_v<Slot, bool> &&
    sizeof(Slot) <= 8 && std::is_same_v<std::common_type_t<Slot, Arg>, Slot>;

template <class PM, class Idx, class F, class Arg, class Gen>
  requires (!is_edge_map<PM> && std::is_arithmetic_v<value_t<Arg>> &&
            fast_ok<Idx, Arg, Gen>)
struct scatter_shape<when_clause<lit_expr<bool>, modify_stmt<PM, Idx, F, Arg>>, Gen>
    : std::true_type {
  using pm_type = PM;
  using idx_expr = Idx;
  using val_expr = Arg;
  /// What the general path hands F: the compiled argument's own type.
  using arg_type = std::remove_cvref_t<decltype(plan_builder<Gen>::compile_direct(
      std::declval<const Arg&>())(std::declval<const gather_state&>()))>;
  using slot_type = typename PM::value_type;
  static constexpr bool combine = summable<F, slot_type, arg_type>;
  using value_type = std::conditional_t<combine, slot_type, arg_type>;
  using fn_type = F;
  static constexpr bool min_update = false;
};

/// The third single-locality fast shape: the two-arm claim of CC's search
///
///   when(P(t) == lit(sentinel), assign(P(t), X))
///   when(P(t) != X, insert(F(t), X))
///
/// compiles to a 16-byte {t, X} record. The receiver CASes P(t) from the
/// sentinel to X (arm 1); when that fails against a value other than X it
/// inserts X into the set F(t), under t's lock with handler threads (arm 2). Because the insert is
/// idempotent, a repeated record changes nothing, so exact repeats are
/// dropped on the sender. The types fix the shape; build() additionally
/// checks that P, t and X are the same map and expressions in every place.
/// Requirements: P is atomic-capable, F holds std::vector<P's value type>,
/// and t and X obey the relax kernel's locality rules.
template <class W0, class W1, class Gen>
struct claim_shape : std::false_type {
  using pm_type = void;
  using idx_expr = v_expr;
  using val_expr = lit_expr<int>;
  using value_type = int;
  using slot_type = int;
  using set_pm_type = void;
  static constexpr bool min_update = false;
};

template <class PM, class Idx, class T, class Val, class FM, class Gen>
  requires (atomic_eligible_map<PM> && !is_edge_map<FM> &&
            std::is_same_v<typename FM::value_type, std::vector<typename PM::value_type>> &&
            std::is_convertible_v<T, typename PM::value_type> &&
            fast_ok<Idx, Val, Gen>)
struct claim_shape<when_clause<bin_expr<op_eq, read_expr<PM, Idx>, lit_expr<T>>,
                               assign_stmt<PM, Idx, Val>>,
                   when_clause<bin_expr<op_ne, read_expr<PM, Idx>, Val>,
                               insert_stmt<FM, Idx, Val>>,
                   Gen> : std::true_type {
  using pm_type = PM;
  using idx_expr = Idx;
  using val_expr = Val;
  using value_type = typename PM::value_type;
  using slot_type = value_type;
  using set_pm_type = FM;
  static constexpr bool min_update = false;
};

/// Structural equality of two same-typed expressions: same maps, same
/// literals. Node types alone cannot tell two maps of one type apart.
template <class E>
bool same_expr(const E& a, const E& b) {
  if constexpr (detail::is_read_expr<E>::value) {
    return a.pm == b.pm && same_expr(a.idx, b.idx);
  } else if constexpr (detail::is_lit_expr<E>::value) {
    return a.value == b.value;
  } else if constexpr (detail::is_src_expr<E>::value || detail::is_trg_expr<E>::value ||
                       detail::is_not_expr<E>::value) {
    return same_expr(a.inner, b.inner);
  } else if constexpr (detail::is_bin_expr<E>::value) {
    return same_expr(a.lhs, b.lhs) && same_expr(a.rhs, b.rhs);
  } else {
    return true;  // v_, e_, u_
  }
}

// ---------------------------------------------------------------------------
// Owner-local apply re-entrancy
// ---------------------------------------------------------------------------

/// Set while this thread commits compiled records in place, work hooks
/// included. A record generated meanwhile (by a hook that re-applies an
/// action immediately) is sent instead of committed, which bounds the
/// nesting at one local commit per thread.
inline thread_local bool in_local_commit = false;

/// Marks the current thread as inside a local commit for its lifetime.
class local_commit_scope {
 public:
  local_commit_scope() : prev_(in_local_commit) { in_local_commit = true; }
  ~local_commit_scope() { in_local_commit = prev_; }
  local_commit_scope(const local_commit_scope&) = delete;
  local_commit_scope& operator=(const local_commit_scope&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Fused when compilation (statically dispatched condition/modify chains)
// ---------------------------------------------------------------------------

/// Shared state threaded through when-compilation: the (single) modification
/// locality and, per when, the property maps its modifications write.
struct compile_ctx {
  home_id ml{};
  bool have_ml = false;
  std::vector<std::vector<const void*>> written;  ///< one entry per when
};

template <class Gen, class PM, class Idx>
void note_ml(compile_ctx& cx, plan_builder<Gen>& pb, const read_expr<PM, Idx>& target) {
  if (!cx.have_ml) {
    // A chased modification locality needs the chase value gathered.
    if constexpr (home_of<Idx, Gen>::kind == home_kind::chase)
      (void)pb.register_read(target.idx);
    cx.ml = pb.home(target.idx);
    cx.have_ml = true;
  } else {
    DPG_ASSERT_MSG(pb.home(target.idx) == cx.ml,
                   "all modifications of an action must share one locality "
                   "(the paper groups modification statements by locality; "
                   "split the action instead)");
  }
}

template <class Gen, class PM, class Idx, class Val>
auto compile_mod(plan_builder<Gen>& pb, compile_ctx& cx, assign_stmt<PM, Idx, Val>& m) {
  note_ml(cx, pb, m.target);
  cx.written.back().push_back(m.target.pm);
  auto idx_fn = pb.compile(m.target.idx);
  auto val_fn = pb.compile(m.value);
  PM* pm = m.target.pm;
  using T = typename PM::value_type;
  return [pm, idx_fn, val_fn](gather_state& s) {
    if constexpr (pmap::atomic_capable<T>) {
      // Paired with the atomic gather reads in planner.hpp so concurrent
      // handler threads never mix plain and atomic access to one slot.
      std::atomic_ref<T>((*pm)[idx_fn(s)])
          .store(static_cast<T>(val_fn(s)), std::memory_order_relaxed);
    } else {
      (*pm)[idx_fn(s)] = val_fn(s);
    }
  };
}

template <class Gen, class PM, class Idx, class Val>
auto compile_mod(plan_builder<Gen>& pb, compile_ctx& cx, insert_stmt<PM, Idx, Val>& m) {
  note_ml(cx, pb, m.target);
  cx.written.back().push_back(m.target.pm);
  auto idx_fn = pb.compile(m.target.idx);
  auto val_fn = pb.compile(m.value);
  PM* pm = m.target.pm;
  return [pm, idx_fn, val_fn](gather_state& s) {
    insert_absent((*pm)[idx_fn(s)], val_fn(s));
  };
}

template <class Gen, class PM, class Idx, class F, class... Args>
auto compile_mod(plan_builder<Gen>& pb, compile_ctx& cx,
                 modify_stmt<PM, Idx, F, Args...>& m) {
  note_ml(cx, pb, m.target);
  cx.written.back().push_back(m.target.pm);
  auto idx_fn = pb.compile(m.target.idx);
  // Braced tuple init: argument compilation (and so arena layout) is
  // guaranteed left-to-right, unlike make_tuple's unsequenced arguments.
  auto arg_fns = std::apply(
      [&](auto&... as) {
        return std::tuple<decltype(pb.compile(as))...>{pb.compile(as)...};
      },
      m.args);
  PM* pm = m.target.pm;
  F fn = m.fn;
  return [pm, idx_fn, arg_fns, fn](gather_state& s) {
    std::apply([&](const auto&... afs) { fn((*pm)[idx_fn(s)], afs(s)...); }, arg_fns);
  };
}

/// One compiled when arm: a statically typed condition closure plus the
/// tuple of its modification closures — no std::function erasure, so the
/// final evaluation fuses into one inlinable chain.
template <class CondFn, class ModsTuple>
struct fused_when {
  CondFn cond;
  ModsTuple mods;
};

template <class Gen, class Cond, class... Mods>
auto compile_one_when(plan_builder<Gen>& pb, compile_ctx& cx,
                      when_clause<Cond, Mods...>& w) {
  cx.written.emplace_back();
  auto cond_fn = pb.compile(w.cond);
  auto mods = std::apply(
      [&](auto&... ms) {
        return std::tuple<decltype(compile_mod(pb, cx, ms))...>{
            compile_mod(pb, cx, ms)...};
      },
      w.mods);
  return fused_when<decltype(cond_fn), decltype(mods)>{std::move(cond_fn),
                                                       std::move(mods)};
}

template <class Gen, class... Whens>
auto compile_whens(plan_builder<Gen>& pb, compile_ctx& cx, std::tuple<Whens...>& whens) {
  return std::apply(
      [&](auto&... ws) {
        return std::tuple<decltype(compile_one_when(pb, cx, ws))...>{
            compile_one_when(pb, cx, ws)...};
      },
      whens);
}

template <class CondFn, class ModsTuple>
bool run_when(const fused_when<CondFn, ModsTuple>& w, gather_state& s) {
  if (!static_cast<bool>(w.cond(s))) return false;
  std::apply([&](const auto&... ms) { (ms(s), ...); }, w.mods);
  return true;
}

template <class Tuple, std::size_t... I>
int eval_whens_impl(const Tuple& t, gather_state& s, std::index_sequence<I...>) {
  int fired = -1;
  // if / else-if chain: the first true condition fires and ends the action.
  ((fired < 0 && run_when(std::get<I>(t), s) ? (fired = static_cast<int>(I)) : 0), ...);
  return fired;
}

/// Runs the fused if/else-if chain; returns the index of the arm that
/// fired, or -1 when no condition held.
template <class... FW>
int eval_whens(const std::tuple<FW...>& t, gather_state& s) {
  return eval_whens_impl(t, s, std::index_sequence_for<FW...>{});
}

// ---- static header needs of the final evaluation ---------------------------

template <class PM, class Idx, class Val>
constexpr unsigned mod_needs(const assign_stmt<PM, Idx, Val>*) {
  return header_needs<Idx>() | header_needs<Val>();
}
template <class PM, class Idx, class Val>
constexpr unsigned mod_needs(const insert_stmt<PM, Idx, Val>*) {
  return header_needs<Idx>() | header_needs<Val>();
}
template <class PM, class Idx, class F, class... Args>
constexpr unsigned mod_needs(const modify_stmt<PM, Idx, F, Args...>*) {
  return header_needs<Idx>() | (header_needs<Args>() | ... | 0u);
}
template <class Cond, class... Mods>
constexpr unsigned when_needs(const when_clause<Cond, Mods...>*) {
  return header_needs<Cond>() |
         (mod_needs(static_cast<Mods*>(nullptr)) | ... | 0u);
}
/// Header fields (v / e / u) the conditions and modifications touch when
/// they run at the final locality. Property reads contribute nothing here —
/// their values arrive through the arena, and their index expressions are
/// charged to whichever hop performs the read.
template <class... Whens>
constexpr unsigned whens_needs() {
  return (when_needs(static_cast<Whens*>(nullptr)) | ... | 0u);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Instantiated action implementation
// ---------------------------------------------------------------------------

template <class Gen, class... Whens>
class instantiated_action final : public action_instance {
 public:
  instantiated_action(ampp::transport& tp, const graph::distributed_graph& g,
                      pmap::lock_map& locks, action_def<Gen, Whens...> def)
      : tp_(&tp), g_(&g), locks_(&locks), gen_(def.gen) {
    name_ = std::move(def.name);
    init_rank_state(tp.size(), tp.config().handler_threads > 0);
    build(def);
    register_messages();
  }

  ~instantiated_action() override {
    if (drain_id_) tp_->remove_drain(*drain_id_);
  }

  const graph::distribution& vertex_dist() const override { return g_->dist(); }

  void operator()(ampp::transport_context& ctx, graph::vertex_id v) override {
    DPG_ASSERT_MSG(g_->owner(v) == ctx.rank(), "action invoked off the owner of v");
    bump(invocations_[ctx.rank()], 1);
    if constexpr (kFastShape) {
      if (use_fast_) {
        fast_generate(ctx, v);
        return;
      }
    }
    // The generator loops iterate the graph's live ranges (base CSR segment
    // then delta overlay), so compiled plans are mutation-oblivious: edges
    // appended by apply_edges() between runs are visited with no plan
    // recompilation.
    gather_state s;
    s.v = v;
    if constexpr (std::is_same_v<Gen, out_edges_gen>) {
      for (const graph::edge_handle e : g_->out_edges(v)) {
        s.e = e;
        run_gather(ctx, 0, s);
      }
    } else if constexpr (std::is_same_v<Gen, in_edges_gen>) {
      for (const graph::edge_handle e : g_->in_edges(v)) {
        s.e = e;
        run_gather(ctx, 0, s);
      }
    } else if constexpr (std::is_same_v<Gen, adj_gen>) {
      for (const graph::vertex_id u : g_->adjacent(v)) {
        s.u = u;
        run_gather(ctx, 0, s);
      }
    } else if constexpr (is_pmap_gen<Gen>) {
      for (const graph::vertex_id u : std::as_const(*gen_.pm)[v]) {
        s.u = u;
        run_gather(ctx, 0, s);
      }
    } else {
      run_gather(ctx, 0, s);
    }
  }

 private:
  using FirstWhen = std::tuple_element_t<0, std::tuple<Whens...>>;
  using SecondWhen =
      std::tuple_element_t<(sizeof...(Whens) > 1 ? 1 : 0), std::tuple<Whens...>>;
  /// Statically: a one-when compare-and-update whose proposed value and
  /// target owner are computable at the invocation site — compilable into
  /// the minimal relax record instead of the general gather chain.
  static constexpr bool kRelax =
      sizeof...(Whens) == 1 && detail::fast_shape<FirstWhen, Gen>::value;
  /// Statically: a one-when unconditional scatter with the same locality
  /// rules — compilable into the same minimal record, applied by F.
  static constexpr bool kScatter =
      sizeof...(Whens) == 1 && detail::scatter_shape<FirstWhen, Gen>::value;
  /// Statically: CC's two-arm claim (see detail::claim_shape) — the same
  /// minimal record, committed by CAS from the sentinel or set insert.
  static constexpr bool kClaim =
      sizeof...(Whens) == 2 && detail::claim_shape<FirstWhen, SecondWhen, Gen>::value;
  static constexpr bool kFastShape = kRelax || kScatter || kClaim;
  using fshape = std::conditional_t<
      kScatter, detail::scatter_shape<FirstWhen, Gen>,
      std::conditional_t<kClaim, detail::claim_shape<FirstWhen, SecondWhen, Gen>,
                         detail::fast_shape<FirstWhen, Gen>>>;
  /// Statically: a scatter declared a sum (`add`) — the sender may fold
  /// same-target contributions into one record.
  static constexpr bool kCombine = kScatter && detail::scatter_shape<FirstWhen, Gen>::combine;

  /// The compact fast-path payload: destination vertex + proposed value,
  /// scatter argument or claimed label (16 bytes for SSSP/CC/PageRank — the
  /// hand-written AM++ relax message).
  struct fast_rec {
    graph::vertex_id loc = graph::invalid_vertex;
    typename fshape::value_type val{};
  };

  using fused_whens_t = decltype(detail::compile_whens(
      std::declval<plan_builder<Gen>&>(), std::declval<detail::compile_ctx&>(),
      std::declval<std::tuple<Whens...>&>()));
  using fast_idx_fn_t = decltype(plan_builder<Gen>::compile_direct(
      std::declval<const typename fshape::idx_expr&>()));
  using fast_val_fn_t = decltype(plan_builder<Gen>::compile_direct_hoisted(
      std::declval<const typename fshape::val_expr&>()));

 public:
  // ---- Entry points of a fused plan (pattern/fuse.hpp) ---------------------
  // A fused plan holds each member as a relax action instantiated here. It
  // reads the member's compiled record for its change tracking and its
  // fused record, ships a wave that wakes only this member through
  // apply_loaded, and commits the member's slot of a fused record through
  // commit_value.

  /// The compiled record's target index and value (hoisted loads plus
  /// evaluator); engaged with the fast path.
  const fast_idx_fn_t& record_index() const { return *fast_idx_; }
  const fast_val_fn_t& record_value() const { return *fast_val_; }

  /// One application of the compiled record from `s`, whose v and hoisted
  /// loads are loaded: iterates the graph's live ranges (base CSR +
  /// overlay, so the kernel is mutation-oblivious like the arena path) and
  /// commits each record in place, folds it or sends it. Local applies and
  /// their firings reach the shared counters once per application, not
  /// once per record.
  void apply_loaded(ampp::transport_context& ctx, gather_state& s) {
    if constexpr (kFastShape) {
      const graph::vertex_id v = s.v;
      local_tally t{fast_pm_->local(ctx.rank()), detail::in_local_commit};
      // Fold only on the rank's own thread outside handler dispatch and
      // local commits: the drain runs at the start of a flush, so a fold
      // made inside a TD round's drain-and-dispatch loop would escape that
      // round's report. Everywhere else the record is sent at once.
      if constexpr (kCombine) {
        if (!acc_.empty() && !t.nested && !ampp::in_handler()) {
          sum_accumulator& a = acc_[ctx.rank()];
          const graph::vertex_id n = g_->num_vertices();
          if (a.sum.size() < n) {
            a.sum.resize(n);
            a.touched.resize((n + 63) / 64, 0);
            a.pending.resize(tp_->size());
          }
          t.acc = &a;
        }
      }
      // Every hook this loop runs is a local commit's, so the flag is set
      // once per application rather than once per record.
      detail::local_commit_scope in_commit;
      if constexpr (std::is_same_v<Gen, out_edges_gen>) {
        for (const graph::edge_handle e : g_->out_edges(v)) {
          s.e = e;
          fast_apply(ctx, s, t);
        }
      } else if constexpr (std::is_same_v<Gen, in_edges_gen>) {
        for (const graph::edge_handle e : g_->in_edges(v)) {
          s.e = e;
          fast_apply(ctx, s, t);
        }
      } else if constexpr (std::is_same_v<Gen, adj_gen>) {
        for (const graph::vertex_id u : g_->adjacent(v)) {
          s.u = u;
          fast_apply(ctx, s, t);
        }
      } else if constexpr (is_pmap_gen<Gen>) {
        for (const graph::vertex_id u : std::as_const(*gen_.pm)[v]) {
          s.u = u;
          fast_apply(ctx, s, t);
        }
      } else {
        fast_apply(ctx, s, t);
      }
      if (t.applied != 0) bump(local_applies_[ctx.rank()], t.applied);
      if (t.fired != 0) bump(mods_[ctx.rank()], t.fired);
    }
  }

  /// The relax rule alone at local index `li` of this rank's shard, counted
  /// as a modification. The caller runs the work hook, so a fused record
  /// runs one hook however many members it advances. Returns whether the
  /// firing makes work.
  bool commit_value(ampp::transport_context& ctx, std::uint64_t li,
                    typename fshape::value_type val)
    requires kRelax
  {
    if (!relax_update(fast_pm_->local(ctx.rank())[li], val)) return false;
    bump(mods_[ctx.rank()], 1);
    return fast_dep_;
  }

 private:
  // ---- plan construction --------------------------------------------------

  void build(action_def<Gen, Whens...>& def) {
    plan_builder<Gen> pb;
    detail::compile_ctx cx;

    // Compile conditions and modifications in declaration order (the
    // paper's left-to-right, condition-by-condition analysis) into fused,
    // statically dispatched closures.
    whens_c_.emplace(detail::compile_whens(pb, cx, def.whens));

    DPG_ASSERT_MSG(cx.have_ml, "an action must contain at least one modification");

    // A plan whose gathered reads outgrow the travelling arena is a
    // compile error of the pattern language: fail here, loudly, before any
    // message type is registered or closure run. The diagnostic names the
    // action and the requirement.
    if (pb.overflow()) {
      const std::string msg =
          "pattern arena overflow compiling action '" + name_ + "': gathered reads need " +
          std::to_string(pb.arena_required()) + " bytes but gather_state::arena_bytes is " +
          std::to_string(gather_state::arena_bytes) +
          " - split the action or shrink the gathered property values";
      dpg::assert_fail("arena_required() <= gather_state::arena_bytes", __FILE__,
                       __LINE__, msg.c_str());
    }

    // Hop partition, merging, locality labels and wire liveness: the plan
    // core the text front end shares.
    gather_plan gp = plan_gather(pb.request(cx.ml, detail::whens_needs<Whens...>()));
    plan_info& info = gp.info;
    info.conditions = static_cast<int>(sizeof...(Whens));
    // CSE as the user wrote it: dedup hits so far are duplicate reads in
    // the declared conditions/modifications. (The atomic exec below
    // recompiles the first when's expressions, whose dedup hits are an
    // implementation artifact, not user-visible sharing.)
    info.cse_hits = pb.cse_hits();

    // Dependency detection (§IV-C): a modification of a property map the
    // action reads anywhere creates work items.
    for (std::size_t i = 0; i < cx.written.size(); ++i)
      for (const void* pm : cx.written[i])
        when_dep_[i] = when_dep_[i] || pb.reads_pmap(pm);
    for (const bool d : when_dep_) info.has_dependencies = info.has_dependencies || d;

    // The runnable chain: a locality closure per hop, and each read's
    // closure on its hop or in the final (synchronized) stage.
    for (const home_id& h : gp.hops) hops_.push_back(gather_hop{locality_closure(h), {}});
    for (std::size_t i = 0; i < pb.steps().size(); ++i) {
      const auto& perform = pb.steps()[i].perform;
      if (gp.hop_of[i] == gather_plan::final_stage)
        final_reads_.push_back(perform);
      else
        hops_[gp.hop_of[i]].reads.push_back(perform);
    }
    ml_locality_ = locality_closure(cx.ml);
    merged_ = info.final_merged;

    // §IV-B: single-value compare-and-update fast path. The shape is
    // checked statically; at runtime it additionally requires that the
    // *only* synchronized read is the updated value itself.
    if constexpr (sizeof...(Whens) == 1 && detail::atomic_shape<FirstWhen>::value) {
      build_atomic_exec(pb, std::get<0>(std::get<0>(def.whens).mods));
      // Runtime refinements: the updated value must be the *only*
      // synchronized read, and the proposed value must not read the target
      // itself (read-modify-write shapes like x[u] = x[u] + 1 need the
      // locked path, which fills the target's arena slot before use).
      if (final_reads_.size() == 1 && !value_reads_target_) atomic_ok_ = true;
    }

    // Compile the single-locality relax or scatter kernel when the shape
    // admits it.
    if constexpr (kFastShape) {
      auto& w0 = std::get<0>(def.whens);
      auto& a0 = std::get<0>(w0.mods);
      fast_pm_ = a0.target.pm;
      fast_idx_.emplace(plan_builder<Gen>::compile_direct(a0.target.idx));
      // The proposed value (or scatter argument) hoists its v-indexed reads
      // and edge-map views out of the edge loop (fast_generate runs the
      // loads once per application) — the same value economy as a
      // hand-written relax handler.
      if constexpr (kScatter) {
        fast_val_.emplace(plan_builder<Gen>::compile_direct_hoisted(std::get<0>(a0.args)));
        fast_fn_.emplace(a0.fn);
      } else {
        fast_val_.emplace(plan_builder<Gen>::compile_direct_hoisted(a0.value));
      }
      // A `lit(false)` guard never fires; leave it to the general path.
      bool guard_holds = true;
      if constexpr (kScatter) guard_holds = w0.cond.value;
      if constexpr (kClaim) {
        // The types fix the shape; the claim also needs the same map P,
        // target t and label X wherever the two arms name them. The commit
        // keeps F and the sentinel.
        auto& w1 = std::get<1>(def.whens);
        auto& ins = std::get<0>(w1.mods);
        guard_holds = w0.cond.lhs.pm == a0.target.pm && w1.cond.lhs.pm == a0.target.pm &&
                      detail::same_expr(w0.cond.lhs.idx, a0.target.idx) &&
                      detail::same_expr(w1.cond.lhs.idx, a0.target.idx) &&
                      detail::same_expr(ins.target.idx, a0.target.idx) &&
                      detail::same_expr(w1.cond.rhs, a0.value) &&
                      detail::same_expr(ins.value, a0.value);
        claim_set_pm_ = ins.target.pm;
        claim_sentinel_ = static_cast<typename fshape::value_type>(w0.cond.rhs.value);
      }
      use_fast_ = guard_holds;
      fast_local_ = merged_;  // v-homed target: apply in place, no message
      fast_dep_ = when_dep_[0];
      // Under polling progress only the owner's thread touches its shard;
      // helper threads may commit records for one vertex concurrently.
      locked_commit_ = tp_->config().handler_threads > 0;
    }

    info.atomic_path = atomic_ok_;
    info.fast_path = use_fast_;
    info.claim = use_fast_ && kClaim;
    // What makes the sender-side cache sound: the relax shape's monotone
    // comparator, the claim's idempotent insert, or a scatter declared a
    // sum.
    info.fast_reduction = sender_reduces(use_fast_, fast_local_, kRelax || kClaim || kCombine);
    gp.report_wires(use_fast_, sizeof(fast_rec));
    plan_ = std::move(info);
    wire_layouts_ = std::move(gp.wires);
  }

  static std::function<graph::vertex_id(const gather_state&)> locality_closure(
      const home_id& h) {
    switch (h.kind) {
      case home_kind::at_v:
        return [](const gather_state& s) { return s.v; };
      case home_kind::at_gen:
        if constexpr (std::is_same_v<Gen, out_edges_gen>)
          return [](const gather_state& s) { return s.e.dst; };
        else if constexpr (std::is_same_v<Gen, in_edges_gen>)
          return [](const gather_state& s) { return s.e.src; };
        else if constexpr (std::is_same_v<Gen, adj_gen> || is_pmap_gen<Gen>)
          return [](const gather_state& s) { return s.u; };
        else
          DPG_ASSERT_MSG(false, "generator-homed access without a generator");
      case home_kind::chase: {
        // The chased vertex is the value of the inner read, in its slot.
        const std::size_t ofs = h.chase_slot;
        return [ofs](const gather_state& s) {
          return s.template arena_get<graph::vertex_id>(ofs);
        };
      }
    }
    return {};
  }

  template <class PM, class Idx, class Val>
  void build_atomic_exec(plan_builder<Gen>& pb, assign_stmt<PM, Idx, Val>& m) {
    // Probe: does the value expression read the target access? Compile it
    // into a scratch builder and look for the (map instance, index type)
    // pair — type-level inspection cannot tell two same-typed maps apart.
    {
      plan_builder<Gen> probe;
      (void)probe.compile(m.value);
      const auto target_type = std::type_index(typeid(read_expr<PM, Idx>));
      for (const auto& st : probe.steps())
        if (st.pmap_id == m.target.pm && st.self_type == target_type)
          value_reads_target_ = true;
    }
    auto idx_fn = pb.compile(m.target.idx);
    auto val_fn = pb.compile(m.value);
    PM* pm = m.target.pm;
    atomic_exec_ = [pm, idx_fn, val_fn](gather_state& s) {
      return pmap::atomic_update_if((*pm)[idx_fn(s)], val_fn(s),
                                    [](const auto& cur, const auto& prop) {
                                      return detail::atomic_shape<FirstWhen>::cmp(cur, prop);
                                    });
    };
  }

  // ---- message registration (§IV-A, §IV-D) --------------------------------

  void register_messages() {
    const auto* g = g_;
    if constexpr (kFastShape) {
      if (use_fast_) {
        // Compiled relax, scatter or claim kernel: one minimal message type, or
        // none when the target is the invocation vertex itself (fully local
        // application).
        fast_label_ = name_ + (kScatter ? ".scatter" : kClaim ? ".claim" : ".relax");
        if (!fast_local_) {
          fast_msg_ = &tp_->make_message_type<fast_rec>(
              fast_label_,
              [this](ampp::transport_context& ctx, const fast_rec& r) {
                fast_handle(ctx, r);
              },
              [g](const fast_rec& r) { return g->owner(r.loc); });
          // Whole-envelope dispatch: the receiver hands each coalesced
          // envelope to fast_envelope in one call instead of per-record
          // fast_handle calls.
          fast_msg_->set_batch_handler(
              [this](ampp::transport_context& ctx, const std::byte* data,
                     std::uint32_t n) { fast_envelope(ctx, data, n); });
          // Claim records are idempotent at the receiver (a repeat finds
          // P(t) set and X already in F(t)), so an exact repeat is dropped.
          if constexpr (kClaim)
            fast_msg_->enable_suppression([](const fast_rec& r) {
              return (static_cast<std::uint64_t>(r.loc) << 32) ^
                     static_cast<std::uint64_t>(r.val);
            });
          // Sender-side combining cache (AM++ reduction): same-target relax
          // candidates merge under the shape's own monotone comparator
          // before they reach an envelope. Sound because the slot moves
          // monotonically: the losing proposal of a pair can never win a
          // CAS the surviving proposal would lose.
          if constexpr (kRelax)
            fast_msg_->enable_reduction(
                [](const fast_rec& r) { return static_cast<std::uint64_t>(r.loc); },
                [](const fast_rec& a, const fast_rec& b) {
                  return detail::b_wins<fshape::min_update>(a.val, b.val) ? b : a;
                });
          // Combining scatter: contributions fold into the rank's
          // accumulator (fast_apply) and reach this lane at the drain.
          if constexpr (kCombine) acc_ = std::vector<sum_accumulator>(tp_->size());
        }
        // The drain, which the transport runs before every full flush,
        // publishes the rank's local-apply tally and sends its folds.
        drain_id_ = tp_->add_drain(
            [this](ampp::transport_context& ctx, bool discard) { drain(ctx, discard); });
        return;
      }
    }
    // Stable span labels for the plan-stage traces: one per gather hop plus
    // the final evaluate (spans copy the name, but the c_str must live
    // until the span constructor returns).
    for (std::size_t k = 0; k < hops_.size(); ++k)
      hop_labels_.push_back(name_ + ".hop" + std::to_string(k));
    final_label_ = name_ + ".eval";
    for (std::size_t k = 1; k < hops_.size(); ++k) {
      auto loc = hops_[k].locality;
      hop_msgs_.push_back(&tp_->make_message_type<gather_state>(
          name_ + ".gather" + std::to_string(k),
          [this, k](ampp::transport_context& ctx, const gather_state& s) {
            gather_state copy = s;
            run_gather(ctx, k, copy);
          },
          // Auto-generated address map: extract the destination vertex from
          // the payload, ask the graph for its owner (§IV-D).
          [g, loc](const gather_state& s) { return g->owner(loc(s)); }));
      if (!wire_layouts_[k - 1].empty())
        hop_msgs_.back()->set_wire_layout(wire_layouts_[k - 1]);
    }
    if (!merged_) {
      auto loc = ml_locality_;
      final_msg_ = &tp_->make_message_type<gather_state>(
          name_ + ".eval",
          [this](ampp::transport_context& ctx, const gather_state& s) {
            gather_state copy = s;
            run_final(ctx, copy);
          },
          [g, loc](const gather_state& s) { return g->owner(loc(s)); });
      if (!wire_layouts_.back().empty())
        final_msg_->set_wire_layout(wire_layouts_.back());
    }
  }

  // ---- execution -----------------------------------------------------------

  /// This rank's slots of the fast kernel's target map.
  using shard_t = std::span<typename fshape::slot_type>;

  /// A combining scatter's sender-side accumulator, one per rank and only
  /// ever touched by that rank's own thread: the pending sum per remote
  /// target and a touched bit (both indexed by global vertex id, so a fold
  /// makes two independent accesses), and, blocked per destination rank,
  /// the touched targets in first-fold order as records whose sums the
  /// drain fills in — the run it hands that destination's lane whole.
  /// Sized on first use, kept across runs, and empty after every drain.
  struct alignas(64) sum_accumulator {
    std::vector<typename fshape::slot_type> sum;
    std::vector<std::uint64_t> touched;          ///< one bit per global vertex
    std::vector<std::vector<fast_rec>> pending;  ///< indexed by destination rank
    std::uint64_t folds = 0;  ///< contributions merged into a pending sum since the drain
  };

  /// Per-application state of the owner-local apply.
  struct local_tally {
    shard_t shard;
    bool nested = false;  ///< generated inside a local commit: send everything
    std::uint64_t applied = 0;  ///< records committed in place
    std::uint64_t fired = 0;    ///< of those, firings
    /// Combining scatter: the rank's accumulator, or null where remote
    /// records must be sent (inside a handler or a local commit).
    sum_accumulator* acc = nullptr;
  };

  /// Fast-path generator loop: evaluates destination and proposed value
  /// directly from the generator state — no arena, no gather chain.
  void fast_generate(ampp::transport_context& ctx, graph::vertex_id v) {
    if constexpr (kFastShape) {
      gather_state s;
      s.v = v;
      // Hoisted reads and edge views: once per application, not per edge.
      fast_val_->reads.run(s, ctx.rank(), g_->dist().local_index(v));
      apply_loaded(ctx, s);
    }
  }

  /// One generated record: committed in place, folded, or sent. Forced
  /// inline: it is the body of the generator loop.
  [[gnu::always_inline]] void fast_apply(ampp::transport_context& ctx, const gather_state& s,
                                         local_tally& t) {
    if constexpr (kFastShape) {
      fast_rec r;
      r.loc = (*fast_idx_)(s);
      r.val = static_cast<typename fshape::value_type>(fast_val_->eval(s));
      // Explicit destination: same routing as the registered address map
      // (§IV-D), minus its type-erased call — this loop is the hot path.
      const ampp::rank_t dest = g_->owner(r.loc);
      // Owner-local apply: no message when this rank owns the target (the
      // §IV-A rule for coinciding localities, one level up). A v-homed
      // target has no wire lane, so it commits in place even when nested.
      if (dest == ctx.rank() && (fast_local_ || !t.nested)) {
        ++t.applied;
        t.fired += fast_commit(ctx, t.shard, r);
      } else if (kCombine && t.acc != nullptr) {
        fold(*t.acc, dest, r);
      } else {
        fast_msg_->send(ctx, dest, r);
      }
    }
  }

  /// Adds a remote scatter contribution for destination `dest` to the
  /// pending sum of its target; the first contribution opens the target's
  /// record.
  [[gnu::always_inline]] static void fold(sum_accumulator& a, ampp::rank_t dest,
                                          const fast_rec& r) {
    if constexpr (kCombine) {
      std::uint64_t& word = a.touched[r.loc >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (r.loc & 63);
      if ((word & bit) != 0) {
        a.sum[r.loc] += r.val;
        ++a.folds;
      } else {
        word |= bit;
        a.sum[r.loc] = r.val;
        a.pending[dest].push_back(fast_rec{r.loc, {}});
      }
    }
  }

  /// The transport's drain (transport::add_drain). Publishes the rank's
  /// local-apply tally; a combining scatter also hands each destination's
  /// pending {target, sum} records to the scatter lane as one run (one
  /// lane-lock acquisition per destination) and resets the marks. The
  /// folds are published in bulk: as sends absorbed by a sender-side
  /// reduction (cache_hits), and as firings — each folded contribution is
  /// one, as it would be uncombined — so modifications() still counts
  /// every contribution. `discard` (after an aborted run) drops the sums.
  void drain(ampp::transport_context& ctx, bool discard) {
    publish_local_applies(ctx.rank(), tp_->obs().core());
    if constexpr (kCombine) {
      if (acc_.empty()) return;
      sum_accumulator& a = acc_[ctx.rank()];
      for (std::size_t d = 0; d < a.pending.size(); ++d) {
        std::vector<fast_rec>& run = a.pending[d];
        if (run.empty()) continue;
        for (fast_rec& x : run) {
          a.touched[x.loc >> 6] = 0;
          x.val = a.sum[x.loc];
        }
        if (!discard)
          fast_msg_->send(ctx, static_cast<ampp::rank_t>(d), std::span<const fast_rec>(run));
        run.clear();
      }
      if (discard) a.folds = 0;
      if (a.folds != 0) {
        tp_->obs().core().cache_hits.fetch_add(a.folds, std::memory_order_relaxed);
        bump(mods_[ctx.rank()], std::exchange(a.folds, 0));
      }
    }
  }

  /// One record the transport delivers on its own.
  void fast_handle(ampp::transport_context& ctx, const fast_rec& r) {
    if constexpr (kFastShape) {
      obs::trace_span sp(&tp_->obs().trace(), "plan", fast_label_.c_str(), ctx.rank());
      if (fast_commit(ctx, fast_pm_->local(ctx.rank()), r))
        bump(mods_[ctx.rank()], 1);
    }
  }

  /// The one commit of a relax, scatter or claim record, shared by the
  /// envelope loop, the per-record handler and the owner-local apply.
  /// Resolves the target's slot in this rank's shard, then CASes it under
  /// the shape's comparator (relax), applies F to it (scatter) or claims it
  /// (claim_commit); a scatter or set insert takes the target's lock only
  /// with handler threads. A firing of a dependency arm runs the work hook.
  /// Returns whether the record fired — a scatter always does; callers add
  /// firings to the modification count in bulk.
  [[gnu::always_inline]] bool fast_commit(ampp::transport_context& ctx, shard_t shard,
                                          const fast_rec& r) {
    if constexpr (kFastShape) {
      DPG_DEBUG_ASSERT(g_->owner(r.loc) == ctx.rank());
      const std::uint64_t li = g_->dist().local_index(r.loc);
      auto& slot = shard[li];
      if constexpr (kClaim) {
        return claim_commit(ctx, slot, li, r);
      } else if constexpr (kScatter) {
        if (locked_commit_) {
          auto guard = locks_->guard(r.loc);
          (*fast_fn_)(slot, r.val);
        } else {
          (*fast_fn_)(slot, r.val);
        }
      } else if (!relax_update(slot, r.val)) {
        return false;
      }
      if (fast_dep_ && hook_) hook_(ctx, r.loc);
      return true;
    }
    return false;
  }

  /// The relax rule: CAS the slot under the shape's comparator.
  [[gnu::always_inline]] static bool relax_update(typename fshape::slot_type& slot,
                                                  typename fshape::value_type val) {
    const auto cmp = [](const auto& cur, const auto& prop) { return fshape::cmp(cur, prop); };
    return pmap::atomic_update_if(slot, val, cmp);
  }

  /// The claim commit. Arm 1: CAS P(t) from the sentinel to X; success
  /// claims t and runs the work hook. Arm 2, when the CAS observed a label
  /// other than X: under t's lock (with handler threads), re-check the
  /// guard and insert X into F(t) unless present. Returns whether an arm
  /// fired.
  bool claim_commit(ampp::transport_context& ctx, typename fshape::slot_type& slot,
                    std::uint64_t li, const fast_rec& r) {
    if constexpr (kClaim) {
      using VT = typename fshape::value_type;
      std::atomic_ref<VT> p(slot);
      // Most records find t claimed already: a plain load settles those
      // without a locked instruction, which would serialize the misses.
      VT seen = p.load(std::memory_order_relaxed);
      if (seen == claim_sentinel_ &&
          p.compare_exchange_strong(seen, r.val, std::memory_order_relaxed)) {
        if (fast_dep_ && hook_) hook_(ctx, r.loc);
        return true;
      }
      if (seen == r.val) return false;
      auto& set = claim_set_pm_->local(ctx.rank())[li];
      if (!locked_commit_) {
        insert_absent(set, r.val);
        return true;
      }
      auto guard = locks_->guard(r.loc);
      if (p.load(std::memory_order_relaxed) == r.val) return false;
      insert_absent(set, r.val);
      return true;
    }
    return false;
  }

  /// Whole-envelope dispatch for the compiled records: resolves
  /// the rank's shard once (send routing guarantees every record in the
  /// envelope is owned here), then copies each record out and commits it.
  /// A plain loop in arrival order, so final pmap state, modification
  /// counts and hook firings equal per-record dispatch, duplicate targets
  /// within one envelope included.
  void fast_envelope(ampp::transport_context& ctx, const std::byte* data,
                     std::uint32_t n) {
    if constexpr (kFastShape) {
      obs::trace_span sp(&tp_->obs().trace(), "plan", fast_label_.c_str(), ctx.rank());
      auto& core = tp_->obs().core();
      core.batch_kernels_run.fetch_add(1, std::memory_order_relaxed);
      core.batch_records.fetch_add(n, std::memory_order_relaxed);
      const shard_t shard = fast_pm_->local(ctx.rank());
      std::uint64_t fired = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        fast_rec r;
        std::memcpy(&r, data + i * sizeof(fast_rec), sizeof(fast_rec));
        fired += fast_commit(ctx, shard, r);
      }
      if (fired != 0) bump(mods_[ctx.rank()], fired);
    }
  }

  void run_gather(ampp::transport_context& ctx, std::size_t k, gather_state& s) {
    obs::trace_span sp(&tp_->obs().trace(), "plan", hop_labels_[k].c_str(), ctx.rank());
    for (const auto& read : hops_[k].reads) read(s);
    if (k + 1 < hops_.size()) {
      hop_msgs_[k]->send(ctx, s);  // hop_msgs_[k] targets hop k+1
      return;
    }
    if (merged_)
      run_final(ctx, s);
    else
      final_msg_->send(ctx, s);
  }

  void run_final(ampp::transport_context& ctx, gather_state& s) {
    obs::trace_span sp(&tp_->obs().trace(), "plan", final_label_.c_str(), ctx.rank());
    const graph::vertex_id mlv = ml_locality_(s);
    DPG_DEBUG_ASSERT(g_->owner(mlv) == ctx.rank());

    bool fired_dependency = false;
    if (atomic_ok_) {
      if (atomic_exec_(s)) {
        bump(mods_[ctx.rank()], 1);
        fired_dependency = when_dep_[0];
      }
    } else {
      int fired = -1;
      {
        auto guard = locks_->guard(mlv);
        for (const auto& read : final_reads_) read(s);
        fired = detail::eval_whens(*whens_c_, s);
      }
      if (fired >= 0) {
        bump(mods_[ctx.rank()], 1);
        fired_dependency = when_dep_[static_cast<std::size_t>(fired)];
      }
    }
    // The hook runs outside the lock: it typically re-invokes the action
    // (fixed_point) or inserts into a bucket structure (Δ-stepping).
    if (fired_dependency && hook_) hook_(ctx, mlv);
  }

  ampp::transport* tp_;
  const graph::distributed_graph* g_;
  pmap::lock_map* locks_;
  Gen gen_;

  std::optional<fused_whens_t> whens_c_;  ///< fused, statically typed arms
  std::array<bool, sizeof...(Whens)> when_dep_{};  ///< per-arm: firing makes work
  std::vector<gather_hop> hops_;
  std::vector<std::function<void(gather_state&)>> final_reads_;
  std::function<graph::vertex_id(const gather_state&)> ml_locality_;
  bool merged_ = false;
  bool atomic_ok_ = false;
  bool value_reads_target_ = false;
  std::function<bool(gather_state&)> atomic_exec_;

  // Single-locality fast path (engaged when kFastShape and its guard can fire).
  typename fshape::pm_type* fast_pm_ = nullptr;
  std::optional<fast_idx_fn_t> fast_idx_;
  std::optional<fast_val_fn_t> fast_val_;  ///< evaluator + hoisted loads
  /// Scatter only: the modify's F.
  std::optional<typename detail::scatter_shape<FirstWhen, Gen>::fn_type> fast_fn_;
  /// Claim only: the collision set map F and the unclaimed sentinel.
  typename detail::claim_shape<FirstWhen, SecondWhen, Gen>::set_pm_type* claim_set_pm_ =
      nullptr;
  typename fshape::value_type claim_sentinel_{};
  bool locked_commit_ = false;  ///< scatter and set-insert commits take the lock-map guard
  ampp::message_type<fast_rec>* fast_msg_ = nullptr;
  std::string fast_label_;
  bool use_fast_ = false;
  bool fast_local_ = false;
  bool fast_dep_ = false;
  std::vector<sum_accumulator> acc_;    ///< combining scatter with a lane: one per rank
  std::optional<std::size_t> drain_id_;  ///< tally publish + accumulator drain

  /// Truncated layouts per wire: gather wires in hop order, then the
  /// evaluate wire when the final stage is not merged.
  std::vector<std::vector<ampp::wire_range>> wire_layouts_;

  std::vector<ampp::message_type<gather_state>*> hop_msgs_;
  ampp::message_type<gather_state>* final_msg_ = nullptr;
  std::vector<std::string> hop_labels_;  ///< plan-span names, one per hop
  std::string final_label_;              ///< plan-span name of the final stage
};

/// Instantiates an action definition: performs the locality analysis and
/// registers the synthesized message types with the transport. Must be
/// called before transport::run; the returned object must outlive all runs
/// that use it.
template <class Gen, class... Whens>
std::unique_ptr<instantiated_action<Gen, Whens...>> instantiate(
    ampp::transport& tp, const graph::distributed_graph& g, pmap::lock_map& locks,
    action_def<Gen, Whens...> def) {
  return std::make_unique<instantiated_action<Gen, Whens...>>(tp, g, locks, std::move(def));
}

}  // namespace dpg::pattern
