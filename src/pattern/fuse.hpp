// Multi-pattern fusion (§II-A relax shapes, N at a time): run several
// analytics in one traversal wave with a fused wire format.
//
// `pattern::fuse(tp, g, defs...)` takes N single-when action
// definitions over the same graph whose generator/locality shape matches
// (each compiles to the single-locality fast record — see
// detail::fast_shape) and synthesizes ONE fused message family for the
// group:
//
//   * the shared addressing field (the target vertex every member routes
//     by) travels once per record;
//   * each member contributes one 8-byte live slot, concatenated after
//     the addressing prefix (ampp::fused_wire owns the layout math);
//   * one coalesced envelope stream drives all member commits per
//     delivery, so N analytics pay one fixed point — one epoch loop, one
//     termination detection — instead of N.
//
// Exactness. Every member is a monotone compare-and-update relaxation
// (min or max) whose proposed value is computed from the member's own
// state at the invocation vertex. Its final map is therefore the unique
// closure of the initial state under improving updates along edges — the
// pointwise best over deterministic per-path folds — regardless of
// delivery order, duplication, or which sibling's progress triggered a
// re-generation. Candidates generated from a member's unreached state
// self-reject at the target (they never improve anything), so the fused
// fixed point converges to maps bit-identical to N separate solves. The
// fusion sweep in tests/sim asserts exactly that under every fault plan.
//
// Group dispatch. A work-hook re-invocation regenerates candidates for
// the members whose invocation-vertex state actually changed since the
// last emission (per-member change tracking below); members that would
// only repeat an earlier emission are skipped. A wave that wakes several
// members ships one fused record (idle slots carry a self-rejecting
// sentinel); a wave that wakes exactly one member ships that member's
// 16-byte solo record on a per-member solo lane, so single-member tails
// never pay the widened record. Both lanes dispatch per record, and a
// record whose target the generating rank owns commits in place without
// being sent (owner-local apply, as in action.hpp).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ampp/fused_wire.hpp"
#include "pattern/action.hpp"

namespace dpg::pattern {

namespace detail {

/// Compile-time: is an expression's value fully determined by (a) the
/// generator header (v, the generated edge) plus (b) vertex-map reads
/// indexed by v itself and (c) edge-map reads? Exactly those reads are
/// captured by the per-member change tracking (the v-indexed reads are
/// the hoisted slots; edge maps are constant per edge within a fixed
/// point), so a member whose value expression satisfies this trait may
/// safely skip re-emission when its tracked state is unchanged. Anything
/// else (e.g. a vertex-map read indexed by src(e_), which the hoister
/// leaves as a direct per-edge access) keeps the member on the
/// always-emit path — correct, just without the redundancy savings.
template <class E>
struct skip_safe : std::false_type {};

template <> struct skip_safe<v_expr> : std::true_type {};
template <> struct skip_safe<e_expr> : std::true_type {};
template <> struct skip_safe<u_expr> : std::true_type {};
template <class X> struct skip_safe<src_expr<X>> : skip_safe<X> {};
template <class X> struct skip_safe<trg_expr<X>> : skip_safe<X> {};
template <class T> struct skip_safe<lit_expr<T>> : std::true_type {};
template <class Op, class L, class R>
struct skip_safe<bin_expr<Op, L, R>>
    : std::bool_constant<skip_safe<L>::value && skip_safe<R>::value> {};
template <class X>
struct skip_safe<un_expr<op_not, X>> : skip_safe<X> {};
template <class PM, class Idx>
struct skip_safe<read_expr<PM, Idx>>
    : std::bool_constant<is_edge_map<PM> ? skip_safe<Idx>::value
                                         : std::is_same_v<Idx, v_expr>> {};

/// The self-rejecting idle-slot value for a member's comparator: a
/// min-update never applies the type's maximum, a max-update never
/// applies its lowest. cmp(cur, sentinel) is false for every cur
/// (including cur == sentinel and, for floats, cur == NaN — the
/// comparisons are IEEE-ordered).
template <class Shape>
constexpr std::uint64_t sentinel_bits() {
  using VT = typename Shape::value_type;
  static_assert(sizeof(VT) == 8);
  if constexpr (std::is_floating_point_v<VT>) {
    return std::bit_cast<std::uint64_t>(Shape::min_update
                                            ? std::numeric_limits<VT>::infinity()
                                            : -std::numeric_limits<VT>::infinity());
  } else {
    return std::bit_cast<std::uint64_t>(Shape::min_update
                                            ? std::numeric_limits<VT>::max()
                                            : std::numeric_limits<VT>::lowest());
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Fused action
// ---------------------------------------------------------------------------

/// N fast-shape members fused into one action instance: one invocation
/// generates every member's candidates, one message family carries them,
/// one work hook drives the shared fixed point. Members must share the
/// generator type and the target index expression (the shared addressing
/// field), and every member value must be 8 bytes (the atomic fast-path
/// currency).
template <class Gen, class... Whens>
class fused_action final : public action_instance {
 public:
  static constexpr std::size_t kMembers = sizeof...(Whens);
  static_assert(kMembers >= 2, "fusing fewer than two patterns is a no-op");

  template <std::size_t I>
  using when_t = std::tuple_element_t<I, std::tuple<Whens...>>;
  template <std::size_t I>
  using shape_t = detail::fast_shape<when_t<I>, Gen>;

  static_assert((detail::fast_shape<Whens, Gen>::value && ...),
                "every fused member must compile to the single-locality fast "
                "shape (one when, compare-and-update, value computable at the "
                "invocation site)");
  static_assert((std::is_same_v<typename detail::fast_shape<Whens, Gen>::idx_expr,
                                typename shape_t<0>::idx_expr> &&
                 ...),
                "fused members must share one target index expression — that "
                "is the shared addressing field");
  static_assert(home_of<typename shape_t<0>::idx_expr, Gen>::kind ==
                    home_kind::at_gen,
                "fused targets must be generator-homed (a v-homed target is a "
                "local apply with no wire to fuse)");
  static_assert(((sizeof(typename detail::fast_shape<Whens, Gen>::value_type) ==
                  8) &&
                 ...),
                "fused live slots are 8 bytes per member");

  /// The fused record: shared addressing prefix + one live slot per
  /// member (value bit patterns; idle slots carry the member sentinel).
  struct fused_rec {
    graph::vertex_id loc = graph::invalid_vertex;
    std::array<std::uint64_t, kMembers> val{};
  };
  static_assert(std::is_trivially_copyable_v<fused_rec>);
  static_assert(sizeof(fused_rec) == sizeof(graph::vertex_id) + kMembers * 8);

  fused_action(ampp::transport& tp, const graph::distributed_graph& g,
               std::tuple<action_def<Gen, Whens>...> defs)
      : tp_(&tp), g_(&g) {
    init_rank_state(tp.size());
    build(defs);
    register_messages();
  }

  const graph::distribution& vertex_dist() const override { return g_->dist(); }

  void operator()(ampp::transport_context& ctx, graph::vertex_id v) override {
    DPG_ASSERT_MSG(g_->owner(v) == ctx.rank(), "action invoked off the owner of v");
    invocations_[ctx.rank()].n.fetch_add(1, std::memory_order_relaxed);
    generate(ctx, v, std::index_sequence_for<Whens...>{});
  }

  /// Resets the calling rank's per-member emission tracking. Collective
  /// with the rest of a run's reset: call once per rank before each fixed
  /// point (the drivers in src/algo do), so candidates re-emit from the
  /// fresh initial state and the tracking arrays match the current shard
  /// sizes (graph mutation grows shards between runs).
  void reset_emission(ampp::rank_t r) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((reset_member_emission<I>(r)), ...);
    }(std::index_sequence_for<Whens...>{});
  }

  /// The packed fused wire layout (shared addressing + per-member slots).
  const ampp::fused_layout& layout() const { return layout_; }
  /// Member action names, in slot order.
  const std::vector<std::string>& member_names() const { return member_names_; }

 private:
  /// Per-member compiled state. When is the member's single when-clause;
  /// everything here mirrors one instantiated_action's fast path.
  template <class When>
  struct member {
    using shape = detail::fast_shape<When, Gen>;
    using value_type = typename shape::value_type;
    /// The member's own 16-byte fast record, used on its solo lane when a
    /// wave wakes only this member.
    struct solo_rec {
      graph::vertex_id loc = graph::invalid_vertex;
      value_type val{};
    };
    static_assert(std::is_trivially_copyable_v<solo_rec>);
    using idx_fn_t = decltype(plan_builder<Gen>::compile_direct(
        std::declval<const typename shape::idx_expr&>()));
    using val_fn_t = decltype(plan_builder<Gen>::compile_direct_hoisted(
        std::declval<const typename shape::val_expr&>(),
        std::declval<hoisted_reads&>()));

    std::string name;
    typename shape::pm_type* pm = nullptr;
    std::optional<idx_fn_t> idx;
    std::optional<val_fn_t> val;
    hoisted_reads hoists;
    bool dep = false;         ///< firing creates work (§IV-C)
    bool skip_safe = false;   ///< change tracking captures the whole value input
    std::size_t words = 0;    ///< tracked hoist-arena words per vertex
    ampp::message_type<solo_rec>* solo_msg = nullptr;
    /// Last-emitted hoist state per rank, shard-parallel: `last[r]` holds
    /// `words` u64 words per local vertex, `seen[r]` one emitted-once
    /// flag. Accessed through atomic_ref (handler threads of one rank may
    /// race on a vertex); the seen flag is store-release / load-acquire so
    /// an observed flag implies an observed (and therefore emitted) state.
    std::vector<std::vector<std::uint64_t>> last;
    std::vector<std::vector<std::uint8_t>> seen;
  };

  template <std::size_t I>
  using member_t = member<when_t<I>>;

  // ---- plan construction --------------------------------------------------

  void build(std::tuple<action_def<Gen, Whens>...>& defs) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((build_member<I>(std::get<I>(defs))), ...);
    }(std::index_sequence_for<Whens...>{});

    name_ = member_names_[0];
    for (std::size_t i = 1; i < member_names_.size(); ++i)
      name_ += "+" + member_names_[i];

    std::vector<ampp::fused_slot> slots;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((slots.push_back(ampp::fused_slot{
           .member = std::get<I>(members_).name,
           .offset = 0,
           .bytes = sizeof(typename shape_t<I>::value_type),
           .solo_bytes = sizeof(typename member_t<I>::solo_rec),
           .update = update_kind<I>()})),
       ...);
    }(std::index_sequence_for<Whens...>{});
    layout_ = ampp::pack_fused_layout(sizeof(graph::vertex_id), std::move(slots));

    plan_.gather_hops = 1;
    plan_.final_merged = false;
    plan_.atomic_path = true;
    plan_.conditions = static_cast<int>(kMembers);
    plan_.fast_path = true;
    plan_.fast_reduction = true;
    plan_.hop_localities = {"v"};
    plan_.hop_reads = {0};
    plan_.final_locality = "trg(e)";
    plan_.wire_bytes.push_back(sizeof(fused_rec));
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((plan_.wire_bytes.push_back(sizeof(typename member_t<I>::solo_rec))), ...);
      plan_.has_dependencies = (std::get<I>(members_).dep || ...);
    }(std::index_sequence_for<Whens...>{});
  }

  template <std::size_t I>
  void build_member(action_def<Gen, when_t<I>>& def) {
    auto& m = std::get<I>(members_);
    auto& a0 = std::get<0>(std::get<0>(def.whens).mods);
    m.name = def.name;
    member_names_.push_back(def.name);
    m.pm = a0.target.pm;
    m.idx.emplace(plan_builder<Gen>::compile_direct(a0.target.idx));
    m.val.emplace(plan_builder<Gen>::compile_direct_hoisted(a0.value, m.hoists));
    m.words = (m.hoists.arena_used + 7) / 8;
    m.skip_safe = detail::skip_safe<typename shape_t<I>::val_expr>::value;
    // Dependency probe (§IV-C): compiling the full when registers every
    // read; the member makes work iff its condition or value reads the
    // map it writes. (Always true for fast shapes — the condition reads
    // the target — but derive it rather than assume it.)
    {
      plan_builder<Gen> pb;
      detail::compile_ctx cx;
      (void)detail::compile_one_when(pb, cx, std::get<0>(def.whens));
      m.dep = pb.reads_pmap(a0.target.pm);
    }
    m.last.resize(tp_->size());
    m.seen.resize(tp_->size());
    for (ampp::rank_t r = 0; r < tp_->size(); ++r) reset_member_emission<I>(r);
  }

  template <std::size_t I>
  void reset_member_emission(ampp::rank_t r) {
    auto& m = std::get<I>(members_);
    const std::size_t nloc = m.pm->local(r).size();
    m.last[r].assign(nloc * m.words, 0);
    m.seen[r].assign(nloc, 0);
  }

  template <std::size_t I>
  std::string update_kind() const {
    using VT = typename shape_t<I>::value_type;
    std::string kind = std::is_floating_point_v<VT> ? "f64"
                       : std::is_signed_v<VT>       ? "i64"
                                                    : "u64";
    return kind + (shape_t<I>::min_update ? " min-update" : " max-update");
  }

  // ---- message registration -----------------------------------------------

  void register_messages() {
    const auto* g = g_;
    fused_label_ = name_ + ".fused";
    fused_msg_ = &tp_->make_message_type<fused_rec>(
        fused_label_,
        [this](ampp::transport_context& ctx, const fused_rec& r) {
          fused_handle(ctx, r);
        },
        [g](const fused_rec& r) { return g->owner(r.loc); });
    // Sender-side combining, elementwise: two same-target fused records
    // merge slot by slot under each member's own comparator (sentinels
    // never win), so candidates from different waves coalesce into one
    // record even when different members produced them.
    fused_msg_->enable_reduction(
        [](const fused_rec& r) { return static_cast<std::uint64_t>(r.loc); },
        [](const fused_rec& a, const fused_rec& b) {
          fused_rec out;
          out.loc = a.loc;
          [&]<std::size_t... I>(std::index_sequence<I...>) {
            ((out.val[I] = better_bits<I>(a.val[I], b.val[I])), ...);
          }(std::index_sequence_for<Whens...>{});
          return out;
        });
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((register_solo<I>()), ...);
    }(std::index_sequence_for<Whens...>{});
  }

  template <std::size_t I>
  void register_solo() {
    using M = member_t<I>;
    using solo_rec = typename M::solo_rec;
    auto& m = std::get<I>(members_);
    const auto* g = g_;
    m.solo_msg = &tp_->make_message_type<solo_rec>(
        m.name + ".solo",
        [this](ampp::transport_context& ctx, const solo_rec& r) {
          solo_handle<I>(ctx, r);
        },
        [g](const solo_rec& r) { return g->owner(r.loc); });
    m.solo_msg->enable_reduction(
        [](const solo_rec& r) { return static_cast<std::uint64_t>(r.loc); },
        [](const solo_rec& a, const solo_rec& b) {
          return detail::b_wins<shape_t<I>::min_update>(a.val, b.val) ? b : a;
        });
  }

  /// The better of two member-I value bit patterns under the member's
  /// comparator; NaN (and the idle-slot sentinel) never wins.
  template <std::size_t I>
  static std::uint64_t better_bits(std::uint64_t ab, std::uint64_t bb) {
    using VT = typename shape_t<I>::value_type;
    return detail::b_wins<shape_t<I>::min_update>(std::bit_cast<VT>(ab), std::bit_cast<VT>(bb))
               ? bb
               : ab;
  }

  // ---- generation ----------------------------------------------------------

  template <std::size_t... I>
  void generate(ampp::transport_context& ctx, graph::vertex_id v,
                std::index_sequence<I...>) {
    std::array<gather_state, kMembers> gs;
    const std::uint64_t li = g_->dist().local_index(v);
    std::uint32_t active = 0;
    ((active |= prepare_member<I>(ctx.rank(), v, li, gs[I]) ? (1u << I) : 0u), ...);
    if (active == 0) return;  // every member would repeat its last emission
    const bool multi = (active & (active - 1)) != 0;
    const bool nested = detail::in_local_commit;
    std::uint64_t applied = 0;  // records committed in place (owner-local apply)
    const auto emit = [&](const graph::edge_handle& e) {
      ((gs[I].e = e), ...);
      if (multi) {
        applied += emit_fused(ctx, gs, active, nested, std::index_sequence<I...>{});
      } else {
        const auto one = [&](auto ic) {
          constexpr std::size_t J = decltype(ic)::value;
          if ((active >> J) & 1u) applied += emit_solo<J>(ctx, gs[J], nested);
        };
        (one(std::integral_constant<std::size_t, I>{}), ...);
      }
    };
    // Like the single-pattern fast path, iterate the graph's live ranges
    // (base CSR + delta overlay): fused plans are mutation-oblivious too.
    if constexpr (std::is_same_v<Gen, out_edges_gen>) {
      for (const graph::edge_handle e : g_->out_edges(v)) emit(e);
    } else {
      static_assert(std::is_same_v<Gen, in_edges_gen>,
                    "fusion supports the edge generators (out/in): the fused "
                    "record's shared addressing is the generated edge endpoint");
      for (const graph::edge_handle e : g_->in_edges(v)) emit(e);
    }
    if (applied != 0)
      tp_->obs().core().local_applies.fetch_add(applied, std::memory_order_relaxed);
  }

  /// Loads member I's hoisted v-state into `s` and decides whether the
  /// member emits this wave: yes on first invocation of v or when the
  /// tracked state changed since the member's last emission at v (a
  /// repeat emission is always redundant — identical candidates were
  /// already delivered). Members whose value expression the tracking
  /// cannot fully capture (skip_safe false) always emit.
  template <std::size_t I>
  bool prepare_member(ampp::rank_t rank, graph::vertex_id v, std::uint64_t li,
                      gather_state& s) {
    auto& m = std::get<I>(members_);
    s.v = v;
    m.hoists.run(s);
    if (!m.skip_safe) return true;
    auto& seen = m.seen[rank];
    auto& last = m.last[rank];
    DPG_DEBUG_ASSERT(li < seen.size());
    const std::size_t base = static_cast<std::size_t>(li) * m.words;
    bool changed =
        std::atomic_ref<std::uint8_t>(seen[li]).load(std::memory_order_acquire) == 0;
    if (!changed) {
      for (std::size_t w = 0; w < m.words; ++w) {
        std::uint64_t cur;
        std::memcpy(&cur, s.arena + w * 8, 8);
        if (std::atomic_ref<std::uint64_t>(last[base + w])
                .load(std::memory_order_relaxed) != cur) {
          changed = true;
          break;
        }
      }
    }
    if (changed) {
      // Store state, then publish the flag (release): any thread that
      // observes the flag and a matching state knows some thread stored —
      // and therefore emitted — exactly that state. Racing writers can
      // only cause spurious re-emission (harmless: redundant monotone
      // candidates), never a skipped one.
      for (std::size_t w = 0; w < m.words; ++w) {
        std::uint64_t cur;
        std::memcpy(&cur, s.arena + w * 8, 8);
        std::atomic_ref<std::uint64_t>(last[base + w])
            .store(cur, std::memory_order_relaxed);
      }
      std::atomic_ref<std::uint8_t>(seen[li]).store(1, std::memory_order_release);
    }
    return changed;
  }

  /// Ships or commits one fused record; returns whether it was committed
  /// in place. Like the single-pattern fast path, a record whose target
  /// this rank owns is not sent, unless it was generated inside a local
  /// commit's hook (see detail::in_local_commit).
  template <std::size_t... I>
  bool emit_fused(ampp::transport_context& ctx,
                  const std::array<gather_state, kMembers>& gs, std::uint32_t active,
                  bool nested, std::index_sequence<I...>) {
    fused_rec r;
    r.loc = (*std::get<0>(members_).idx)(gs[0]);
    ((r.val[I] =
          (active >> I) & 1u
              ? std::bit_cast<std::uint64_t>(
                    static_cast<typename shape_t<I>::value_type>(
                        (*std::get<I>(members_).val)(gs[I])))
              : detail::sentinel_bits<shape_t<I>>()),
     ...);
    const ampp::rank_t dest = g_->owner(r.loc);
    if (dest != ctx.rank() || nested) {
      fused_msg_->send(ctx, dest, r);
      return false;
    }
    detail::local_commit_scope in_commit;
    fused_commit(ctx, r);
    return true;
  }

  /// The solo-lane counterpart of emit_fused.
  template <std::size_t I>
  bool emit_solo(ampp::transport_context& ctx, const gather_state& s, bool nested) {
    auto& m = std::get<I>(members_);
    typename member_t<I>::solo_rec r;
    r.loc = (*m.idx)(s);
    r.val = static_cast<typename shape_t<I>::value_type>((*m.val)(s));
    const ampp::rank_t dest = g_->owner(r.loc);
    if (dest != ctx.rank() || nested) {
      m.solo_msg->send(ctx, dest, r);
      return false;
    }
    detail::local_commit_scope in_commit;
    solo_handle<I>(ctx, r);
    return true;
  }

  // ---- delivery ------------------------------------------------------------

  /// Commit one member-I candidate (a value bit pattern): CAS under the
  /// member's comparator + modification accounting. Returns whether the
  /// apply should make work.
  template <std::size_t I>
  bool commit_member(ampp::transport_context& ctx, graph::vertex_id loc,
                     std::uint64_t bits) {
    using VT = typename shape_t<I>::value_type;
    auto& m = std::get<I>(members_);
    const bool applied = pmap::atomic_update_if(
        (*m.pm)[loc], std::bit_cast<VT>(bits),
        [](const auto& cur, const auto& p) { return shape_t<I>::cmp(cur, p); });
    if (!applied) return false;
    mods_[ctx.rank()].n.fetch_add(1, std::memory_order_relaxed);
    return m.dep;
  }

  void fused_handle(ampp::transport_context& ctx, const fused_rec& r) {
    obs::trace_span sp(&tp_->obs().trace(), "plan", fused_label_.c_str(), ctx.rank());
    fused_commit(ctx, r);
  }

  /// The fused lane's one commit, shared by delivery and owner-local apply.
  void fused_commit(ampp::transport_context& ctx, const fused_rec& r) {
    bool fire = false;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((fire = commit_member<I>(ctx, r.loc, r.val[I]) || fire), ...);
    }(std::index_sequence_for<Whens...>{});
    // One hook per delivered record, however many members it advanced:
    // the re-generation it triggers serves every member at once.
    if (fire && hook_) hook_(ctx, r.loc);
  }

  /// The solo lane's one commit, shared by delivery and owner-local apply.
  template <std::size_t I>
  void solo_handle(ampp::transport_context& ctx,
                   const typename member_t<I>::solo_rec& r) {
    if (commit_member<I>(ctx, r.loc, std::bit_cast<std::uint64_t>(r.val)) && hook_)
      hook_(ctx, r.loc);
  }

  ampp::transport* tp_;
  const graph::distributed_graph* g_;
  std::tuple<member<Whens>...> members_;
  std::vector<std::string> member_names_;
  ampp::fused_layout layout_;
  ampp::message_type<fused_rec>* fused_msg_ = nullptr;
  std::string fused_label_;
};

// ---------------------------------------------------------------------------
// Entry point + explain
// ---------------------------------------------------------------------------

/// Fuses N compiled patterns over one graph into a single action instance
/// driving one fixed point. Every definition must carry exactly one when
/// clause of the single-locality fast shape, all over the same generator
/// and target index expression. Must be called before transport::run; the
/// returned object must outlive all runs that use it.
template <class Gen, class... Whens>
std::unique_ptr<fused_action<Gen, Whens...>> fuse(
    ampp::transport& tp, const graph::distributed_graph& g, action_def<Gen, Whens>... defs) {
  return std::make_unique<fused_action<Gen, Whens...>>(
      tp, g, std::tuple<action_def<Gen, Whens>...>{std::move(defs)...});
}

/// Renders a fused plan: the packed wire layout (shared addressing bytes,
/// per-member live slots, per-hop fused payload size) plus the dispatch
/// and fixed-point sharing summary — the fusion analogue of explain().
template <class Gen, class... Whens>
std::string explain_fused(const fused_action<Gen, Whens...>& a) {
  std::string out = a.layout().describe(a.name());
  out += "  group dispatch: fused lane for multi-member waves, per-member solo "
         "lanes for single-member tails\n";
  out += "  sender reduction: elementwise combining cache on the fused lane\n";
  out += "  fixed point: one epoch loop, one termination detection for " +
         std::to_string(sizeof...(Whens)) + " members\n";
  return out;
}

}  // namespace dpg::pattern
