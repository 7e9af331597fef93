// DistArray<T>: the run-time representation of a (possibly dynamically)
// distributed array (paper Section 3.2.1), including:
//
//   * local storage in each processor's memory, laid out column-major over
//     the owned index set, with optional overlap (ghost) areas;
//   * the access functions loc_map (owned access) and halo access;
//   * the realization of the DISTRIBUTE statement's data motion
//     (Section 3.2.2): the exchange is decomposed into maximal
//     innermost-dimension contiguous runs (RedistPlan), moved with memcpy
//     into exactly-sized buffers, and shipped with at most one message per
//     destination processor.  Plans are cached per (old, new) distribution
//     pair, so repeated DISTRIBUTE flips -- the ADI row/column pattern of
//     Section 4 -- pay the inspector cost once;
//   * overlap-area exchange for stencil codes and global reductions, also
//     run-based.
//
// Declaration mirrors the language syntax through DistArray<T>::Spec:
//
//   REAL V(NX,NY) DYNAMIC, RANGE((:,BLOCK),(BLOCK,:)), DIST(:,BLOCK)
//
//   DistArray<double> V(env, {.name = "V",
//                             .domain = IndexDomain::of_extents({NX, NY}),
//                             .dynamic = true,
//                             .initial = DistributionType{col(), block()},
//                             .range = {{p_col(), p_block()},
//                                       {p_block(), p_col()}}});
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <unordered_map>

#include "vf/core/cache_budget.hpp"
#include "vf/msg/context.hpp"
#include "vf/rt/array_base.hpp"
#include "vf/rt/redist_plan.hpp"

namespace vf::rt {

template <typename T>
class DistArray final : public DistArrayBase {
  static_assert(std::is_trivially_copyable_v<T>,
                "DistArray elements must be trivially copyable (they travel "
                "in messages)");

 public:
  struct Spec {
    std::string name;
    dist::IndexDomain domain;
    bool dynamic = false;
    /// Initial distribution (DIST clause); static arrays must provide one.
    std::optional<dist::DistributionType> initial;
    /// Pre-interned initial descriptor (alternative to `initial`): the
    /// handle form of the DIST clause, for code that already holds one.
    dist::DistHandle initial_dist;
    /// Target processor section of the initial distribution (TO clause);
    /// defaults to the whole processor array.
    std::optional<dist::ProcessorSection> to;
    /// RANGE attribute; empty = unrestricted.
    query::RangeSpec range;
    /// Overlap (ghost) widths per dimension, low and high side.  Non-zero
    /// widths require the dimension's distribution to be contiguous.
    dist::IndexVec overlap_lo;
    dist::IndexVec overlap_hi;
    /// Whether diagonal (corner) ghost regions are exchanged too -- the
    /// OVERLAP shape a 9-point stencil needs.  Faces only by default.
    bool overlap_corners = false;
    /// Per-rank (asymmetric) overlap: each rank may pass DIFFERENT widths
    /// above (an adaptive refinement front widening its ghost zone only
    /// where it currently sits).  The first exchange_overlap() reconciles
    /// them with a plan-time spec exchange; the default (uniform, the
    /// SPMD-declared OVERLAP of the paper) never pays that collective.
    bool overlap_asymmetric = false;
  };

  /// Declares a primary (or static) array.
  DistArray(Env& env, Spec spec)
      : DistArray(env, std::move(spec), std::optional<Connection>{}) {}

  /// Declares a secondary array connected to a primary (CONNECT clause).
  DistArray(Env& env, Spec spec, Connection connect)
      : DistArray(env, std::move(spec), std::optional<Connection>(connect)) {}

  [[nodiscard]] std::size_t element_size() const noexcept override {
    return sizeof(T);
  }

  // ---- local access (owner-computes fast path) ---------------------------
  // at()/halo() translate through storage_offset/halo_offset: inline affine
  // adds with one fused bounds branch when every dimension is contiguous;
  // anything else is a cold out-of-line call (see array_base.hpp).

  /// Reference to owned element i; undefined behaviour if this rank does
  /// not own i (asserted in debug builds).
  [[nodiscard]] T& at(const dist::IndexVec& i) {
    assert(distribution().owns(env_->rank(), i));
    return local_[static_cast<std::size_t>(storage_offset(i))];
  }
  [[nodiscard]] const T& at(const dist::IndexVec& i) const {
    assert(distribution().owns(env_->rank(), i));
    return local_[static_cast<std::size_t>(storage_offset(i))];
  }

  template <typename... Is>
  [[nodiscard]] T& operator()(Is... is) {
    return at(dist::IndexVec{static_cast<dist::Index>(is)...});
  }
  template <typename... Is>
  [[nodiscard]] const T& operator()(Is... is) const {
    return at(dist::IndexVec{static_cast<dist::Index>(is)...});
  }

  /// Read access that may fall into the overlap area: legal for indices
  /// of the array's rank within `overlap` of this rank's owned segment in
  /// contiguous dimensions.  Bounds-checked on every call: anything else,
  /// including an index of the wrong rank and every index on a rank that
  /// owns nothing, throws std::out_of_range naming the array.  Call
  /// exchange_overlap() first to make ghost values current.
  [[nodiscard]] const T& halo(const dist::IndexVec& i) const {
    return local_[static_cast<std::size_t>(halo_offset(i))];
  }

  [[nodiscard]] std::span<T> local_span() noexcept { return local_; }
  [[nodiscard]] std::span<const T> local_span() const noexcept {
    return local_;
  }

  // ---- whole-array operations ---------------------------------------------

  /// Calls fn(i, element) for every owned element, in global column-major
  /// order.  fn is a templated callable -- no std::function indirection on
  /// the iteration path; the index is built once per box at the array's
  /// rank and the element offset advances incrementally with it
  /// (walk_box), never recomputed per point.
  template <typename F>
  void for_owned(F&& fn) {
    walk_core(local_.data(), nullptr, fn);
  }
  template <typename F>
  void for_owned(F&& fn) const {
    walk_core(local_.data(), nullptr, fn);
  }

  void fill(const T& v) {
    for_owned([&](const dist::IndexVec&, T& x) { x = v; });
  }

  /// Initializes every owned element from a global function of its index.
  template <typename F>
  void init(F&& f) {
    for_owned([&](const dist::IndexVec& i, T& x) { x = f(i); });
  }

  /// Global reduction over all elements (collective).
  [[nodiscard]] T reduce(msg::ReduceOp op) const {
    bool first = true;
    T acc{};
    for_owned([&](const dist::IndexVec&, const T& x) {
      acc = first ? x : msg::detail::apply_op(op, acc, x);
      first = false;
    });
    if (first) {
      // Rank owns nothing: contribute the identity.
      acc = identity_of(op);
    }
    return env_->comm().allreduce(acc, op);
  }

  /// Collects the full array on every rank, ordered by the domain's
  /// column-major linearization (collective; intended for tests, examples
  /// and verification).  Requires an arithmetic element type.
  ///
  /// Implemented as an allgatherv of owned runs: each rank contributes
  /// only its owned values in deterministic global column-major order,
  /// and every receiver re-enumerates each peer's owned set locally to
  /// place them -- so contribution traffic is O(N) total instead of the
  /// former allreduce over a full-size zero vector (O(P*N) inbound plus a
  /// per-element reduction).
  [[nodiscard]] std::vector<T> gather_global() const {
    static_assert(std::is_arithmetic_v<T>,
                  "gather_global requires an arithmetic element type");
    const dist::Distribution& d = distribution();
    std::vector<T> mine;
    mine.reserve(static_cast<std::size_t>(layout_.member ? layout_.total
                                                         : 0));
    for_owned([&](const dist::IndexVec&, const T& x) { mine.push_back(x); });
    auto per_rank = env_->comm().allgather_vec(std::move(mine));
    std::vector<T> full(static_cast<std::size_t>(dom_.size()), T{});
    for (int p = 0; p < env_->comm().nprocs(); ++p) {
      const auto& vals = per_rank[static_cast<std::size_t>(p)];
      std::size_t k = 0;
      d.for_owned(p, [&](const dist::IndexVec& i) {
        full[static_cast<std::size_t>(dom_.linearize(i))] =
            vals[k++];
      });
    }
    return full;
  }

  // ---- overlap areas -------------------------------------------------------

  /// Exchanges overlap areas with segment neighbours in every dimension
  /// with non-zero ghost widths (collective); with overlap_corners set,
  /// diagonal regions travel in the same exchange.  The pack/unpack run
  /// lists come from the Env's halo-plan cache keyed on this array's
  /// (DistHandle, HaloSpec) uid pair: a repeat exchange under an
  /// unchanged distribution replays memcpy runs with pre-agreed counts
  /// (no count collective, no index-list rebuild); a DISTRIBUTE swaps the
  /// handle and thereby the plan.
  void exchange_overlap();

  // ---- split-phase overlap exchange ---------------------------------------
  //
  // begin_exchange_overlap() packs this rank's boundary planes (a
  // SNAPSHOT: later owned writes do not affect what peers receive) and
  // starts the exchange on the machine's active transport;
  // end_exchange_overlap() completes it, scattering arriving payloads
  // into the ghost planes.  Between the two calls:
  //
  //   * owned elements remain readable AND writable -- the exchange
  //     works from the packed snapshot and writes only ghost storage;
  //   * ghost values are UNSPECIFIED: halo() reads of non-owned points
  //     are only meaningful again after end_exchange_overlap() returns;
  //   * DISTRIBUTE, set_overlap and a second begin on this array throw
  //     ExchangeInFlightError -- they would tear down the plan and
  //     storage the pending exchange unpacks into;
  //   * the overlapped-computation pattern is
  //         src.begin_exchange_overlap();
  //         /* update interior points: for_owned_interior */
  //         src.end_exchange_overlap();
  //         /* update boundary points: for_owned_boundary */
  //     which is bitwise-identical to exchange_overlap() followed by a
  //     full sweep, because interior points never read ghost values.
  //
  // Collective exactly like exchange_overlap(): every rank must begin
  // and end in matching order.
  void begin_exchange_overlap();
  void end_exchange_overlap();

  /// Calls fn(i, element) for every owned element whose per-dimension
  /// distance from this rank's segment faces is at least the plan's
  /// interior margin (HaloPlan::interior_lo/_hi) -- the elements whose
  /// stencil reads cannot touch ghost storage, safe to update while an
  /// overlap exchange is in flight.  One rectangular core box, walked in
  /// column-major order.
  template <typename F>
  void for_owned_interior(F&& fn) {
    for_owned_interior(split_margins(), std::forward<F>(fn));
  }

  /// As above with explicit margins: a consumer array updated from a
  /// DIFFERENT array's halo (the amr destination reading the source's
  /// ghosts) partitions its own traversal by the source's margins.
  template <typename F>
  void for_owned_interior(const SplitMargins& m, F&& fn) {
    walk_core(local_.data(), &m, fn);
  }

  /// Complement of for_owned_interior under the same margins: the owned
  /// elements within the margin of some face.  Together the two visit
  /// every owned element exactly once.  Walked as at most 2*rank disjoint
  /// boxes (low/high slab per dimension), each in column-major order.
  template <typename F>
  void for_owned_boundary(F&& fn) {
    for_owned_boundary(split_margins(), std::forward<F>(fn));
  }

  template <typename F>
  void for_owned_boundary(const SplitMargins& m, F&& fn) {
    OwnedPartition p;
    if (!owned_partition(&m, p)) return;
    // Slab decomposition: dimension d's low/high slabs span the core of
    // every earlier dimension and the full extent of every later one, so
    // the slabs are disjoint and their union with the core box is the
    // whole owned block.
    const auto r = static_cast<std::size_t>(dom_.rank());
    Box lo{};
    Box hi{};
    for (std::size_t d = 0; d < r; ++d) hi[d] = p.owned[d].size();
    for (std::size_t d = 0; d < r; ++d) {
      hi[d] = p.core_lo[d];
      walk_box(local_.data(), p, lo, hi, fn);
      lo[d] = p.core_hi[d];
      hi[d] = p.owned[d].size();
      walk_box(local_.data(), p, lo, hi, fn);
      lo[d] = p.core_lo[d];
      hi[d] = p.core_hi[d];
    }
  }

  /// Re-declares this array's overlap (ghost) widths -- the dynamic
  /// counterpart of the Spec's OVERLAP clause, for adaptive codes whose
  /// ghost needs move with a refinement front.  Collective: EVERY rank
  /// must call it at the same point, even ranks whose own widths are
  /// unchanged (the call marks the reconciled spec family stale on all
  /// ranks together; a rank that skipped it would enter the next spec
  /// exchange with a stale family and the collective would not match up).
  /// With `asymmetric` (the default) each rank passes its own widths;
  /// with it false the call is the uniform SPMD declaration and no spec
  /// exchange will happen.  Owned element values are preserved across the
  /// storage reshape; ghost contents are invalidated (zeroed) until the
  /// next exchange_overlap().
  ///
  /// Validation errors (rank mismatch, negative widths, a ghost wider
  /// than a neighbour's segment at plan time) need not be thrown on
  /// every rank: a lone failing rank trips the machine's abort fence and
  /// peers blocked in the spec exchange or the halo exchange wake with a
  /// RankAbort instead of hanging.
  void set_overlap(const dist::IndexVec& lo, const dist::IndexVec& hi,
                   bool corners = false, bool asymmetric = true) {
    check_no_exchange_in_flight("set_overlap");
    const dist::IndexVec nlo = normalize_ghost(lo);
    const dist::IndexVec nhi = normalize_ghost(hi);
    halo::HaloHandle nh =
        env_->registry().intern(halo::HaloSpec(nlo, nhi, corners));
    halo_asymmetric_ = asymmetric;
    // Stale on every call: peers may have changed their widths even when
    // this rank's handle is unchanged.
    halo_family_ = halo::FamilyHandle{};
    if (nh == halo_) return;
    if (!dist_) {
      ghost_lo_ = nlo;
      ghost_hi_ = nhi;
      halo_ = std::move(nh);
      return;
    }
    reshape_ghost_storage(nlo, nhi, std::move(nh));
  }

  // ---- redistribution plan cache ------------------------------------------

  /// Enables/disables the (old, new) distribution plan cache; disabling
  /// also drops cached plans AND the hit/miss counters -- stats describe
  /// the cache's contents, and a cold-path benchmark toggling the cache
  /// off must not read pre-toggle traffic.  Mainly for benchmarks
  /// measuring the cold inspector path.
  void set_redist_plan_cache(bool enabled) {
    plan_cache_enabled_ = enabled;
    if (!enabled) {
      plan_cache_.clear();
      plan_order_.clear();
      plan_budget_.reset();
      plan_hits_ = 0;
      plan_misses_ = 0;
    }
  }
  [[nodiscard]] std::uint64_t redist_plan_hits() const noexcept {
    return plan_hits_;
  }
  [[nodiscard]] std::uint64_t redist_plan_misses() const noexcept {
    return plan_misses_;
  }
  [[nodiscard]] std::uint64_t redist_plan_evictions() const noexcept {
    return plan_budget_.evictions();
  }
  [[nodiscard]] std::size_t redist_plan_resident_bytes() const noexcept {
    return plan_budget_.resident_bytes();
  }
  [[nodiscard]] std::size_t redist_plan_count() const noexcept {
    return plan_cache_.size();
  }
  /// Byte ceiling of the plan cache (default 64 MiB -- generous because
  /// skewed fragmented plans are large and exactly the ones whose replay
  /// the skew path depends on); shrinking evicts immediately.
  void set_redist_plan_budget(std::size_t max_bytes) {
    plan_budget_.set_max_bytes(max_bytes);
    while (!plan_order_.empty() && plan_budget_.over()) evict_plan();
  }

  /// Env::sweep() hook: drops the skew memo (base) plus every cached plan
  /// not involving the CURRENT descriptor.  Such a plan could only replay
  /// if the array returned to a retired distribution -- impossible after
  /// the sweep retires its uid for good -- so keeping it would pin dead
  /// interns forever.  Plans touching the live descriptor stay warm.
  void sweep_caches() override {
    DistArrayBase::sweep_caches();
    for (auto it = plan_order_.begin(); it != plan_order_.end();) {
      const PlanEntry& e = plan_cache_.find(*it)->second;
      if (e.od == dist_ || e.nd == dist_) {
        ++it;
        continue;
      }
      it = drop_plan(it, /*pressure=*/false);
    }
  }

  /// Per-link max/mean at or above which a fragmented plan counts as a
  /// skewed-workload plan and keeps full cache priority.
  static constexpr double kPlanSkewThreshold = 4.0;

  /// Whether a plan takes the fragmented-plan bypass lane.  Being
  /// per-element fragmented alone is not enough: a fragmented plan whose
  /// per-link totals are skewed is a skewed-workload plan (the PRPD hybrid
  /// flips land here -- indirect owner tables fragment runs by nature),
  /// and those are exactly the plans whose replay the skew path depends
  /// on.  Only fragmented AND link-balanced plans are second-class.
  [[nodiscard]] static bool bypass_eligible(const RedistPlan& plan) noexcept {
    return plan.per_element_fragmented() &&
           plan.link_skew() < kPlanSkewThreshold;
  }

 private:
  DistArray(Env& env, Spec spec, std::optional<Connection> connect)
      : DistArrayBase(env, std::move(spec.name), spec.domain, spec.dynamic,
                      std::move(spec.range), connect) {
    const bool has_initial = spec.initial || spec.initial_dist;
    if (!dynamic_ && !has_initial && !connect) {
      throw std::invalid_argument(
          "array " + name_ +
          ": statically distributed arrays need a DIST clause");
    }
    ghost_lo_ = normalize_ghost(spec.overlap_lo);
    ghost_hi_ = normalize_ghost(spec.overlap_hi);
    halo_ = env.registry().intern(
        halo::HaloSpec(ghost_lo_, ghost_hi_, spec.overlap_corners));
    halo_asymmetric_ = spec.overlap_asymmetric;

    if (connect) {
      // Secondary: adopt a distribution derived from the primary if the
      // primary already has one.  An explicit DIST clause is not allowed.
      if (has_initial) {
        throw std::invalid_argument(
            "array " + name_ +
            ": secondary arrays derive their distribution from the primary");
      }
      DistArrayBase* prim = connect->primary;
      if (prim->has_distribution()) {
        for (const auto& m : cclass_->secondaries()) {
          if (m.array == this) {
            dist::DistHandle sd = cclass_->construct_handle_for(
                m, prim->dist_handle(), env.registry());
            check_range(sd->type());
            apply_distribution(std::move(sd), false);
            break;
          }
        }
      }
      return;
    }
    if (spec.initial_dist) {
      if (spec.initial) {
        throw std::invalid_argument(
            "array " + name_ + ": initial and initial_dist are exclusive");
      }
      if (spec.to) {
        throw std::invalid_argument(
            "array " + name_ +
            ": initial_dist already fixes the processor section; a TO "
            "clause is not allowed");
      }
      if (!(spec.initial_dist->domain() == dom_)) {
        throw std::invalid_argument(
            "array " + name_ +
            ": initial_dist's index domain does not match the array");
      }
      dist::DistHandle d = env.registry().intern(spec.initial_dist.ptr());
      check_range(d->type());
      apply_distribution(std::move(d), false);
      return;
    }
    if (spec.initial) {
      dist::DistHandle d = env.registry().intern(
          dom_, *spec.initial, spec.to ? *spec.to : env.whole());
      check_range(d->type());
      apply_distribution(std::move(d), false);
    }
  }

  /// Re-allocates local storage for new ghost widths, copying the owned
  /// block across (run-wise over the innermost dimension: both layouts are
  /// column-major over the same owned counts, only the ghost padding and
  /// therefore the strides differ).  Ghost planes start zeroed.
  void reshape_ghost_storage(const dist::IndexVec& nlo,
                             const dist::IndexVec& nhi, halo::HaloHandle nh) {
    // Cached redistribution plans address the ghost-padded storage, so
    // new widths make every cached offset stale: replaying one would
    // read/write outside the reshaped allocation.  Invalidation, not
    // eviction -- the budget is credited, the counter untouched.
    for (auto it = plan_order_.begin(); it != plan_order_.end();) {
      it = drop_plan(it, /*pressure=*/false);
    }
    const dist::IndexVec old_lo = ghost_lo_;
    const dist::IndexVec old_strides = alloc_strides_;
    const std::vector<T> old_local = std::move(local_);
    ghost_lo_ = nlo;
    ghost_hi_ = nhi;
    halo_ = std::move(nh);
    rebuild_storage_shape();
    local_.assign(static_cast<std::size_t>(alloc_total_), T{});
    if (!layout_.member || layout_.total == 0) return;
    const int r = dom_.rank();
    std::array<dist::Index, dist::kMaxRank> pos{};
    for (;;) {
      dist::Index old_off = old_lo[0] * old_strides[0];
      dist::Index new_off = ghost_lo_[0] * alloc_strides_[0];
      for (int d = 1; d < r; ++d) {
        old_off += (pos[static_cast<std::size_t>(d)] + old_lo[d]) *
                   old_strides[d];
        new_off += (pos[static_cast<std::size_t>(d)] + ghost_lo_[d]) *
                   alloc_strides_[d];
      }
      std::memcpy(local_.data() + new_off, old_local.data() + old_off,
                  static_cast<std::size_t>(layout_.counts[0]) * sizeof(T));
      int d = 1;
      for (; d < r; ++d) {
        if (++pos[static_cast<std::size_t>(d)] < layout_.counts[d]) break;
        pos[static_cast<std::size_t>(d)] = 0;
      }
      if (d >= r) break;
    }
  }

  [[nodiscard]] dist::IndexVec normalize_ghost(const dist::IndexVec& g) const {
    if (g.empty()) return dist::IndexVec::filled(dom_.rank(), 0);
    if (static_cast<int>(g.size()) != dom_.rank()) {
      throw std::invalid_argument("array " + name_ +
                                  ": overlap widths must match the rank");
    }
    for (dist::Index w : g) {
      if (w < 0) throw std::invalid_argument("negative overlap width");
    }
    return g;
  }

  void apply_distribution(dist::DistHandle nd, bool transfer) override {
    if (!transfer) {
      set_distribution(std::move(nd));
      rebuild_storage_shape();
      local_.assign(static_cast<std::size_t>(alloc_total_), T{});
      return;
    }
    redistribute_data(std::move(nd));
  }

  void adopt_descriptor(dist::DistHandle nd) override {
    // Mapping-equivalent swap: same owned sets, same local ordering and
    // sizes; only the descriptor (and the per-dimension addressing
    // representation) changes.
    set_distribution(std::move(nd));
    rebuild_storage_shape();
  }

  // ---- DISTRIBUTE data motion (Section 3.2.2) -----------------------------
  //
  // Plans are cached in a flat map keyed on the (old, new) handle-identity
  // pair.  Interning makes handle identity equivalent to structural
  // equality, so a hit needs no fingerprint comparison and no structural
  // re-verification -- one integer hash lookup.

  [[nodiscard]] static std::uint64_t plan_key(
      const dist::DistHandle& od, const dist::DistHandle& nd) noexcept {
    return (static_cast<std::uint64_t>(od.uid()) << 32) | nd.uid();
  }

  [[nodiscard]] bool has_cached_plan(
      const dist::DistHandle& od,
      const dist::DistHandle& nd) const override {
    return plan_cache_enabled_ && od.interned() && nd.interned() &&
           plan_cache_.contains(plan_key(od, nd));
  }

  /// Looks up a cached plan for the (old, new) handle pair.  Handles that
  /// never went through a registry (uid 0) are uncacheable and always
  /// rebuild -- exactly the benchmark cold path.  A hit refreshes the
  /// entry's recency (true LRU, not insertion order).
  [[nodiscard]] std::shared_ptr<const RedistPlan> lookup_plan(
      const dist::DistHandle& od, const dist::DistHandle& nd) {
    if (!plan_cache_enabled_ || !od.interned() || !nd.interned()) {
      return nullptr;
    }
    const std::uint64_t key = plan_key(od, nd);
    const auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      ++plan_hits_;
      const auto o = std::find(plan_order_.begin(), plan_order_.end(), key);
      std::rotate(o, o + 1, plan_order_.end());  // touch: move to MRU end
      return it->second.plan;
    }
    ++plan_misses_;
    return nullptr;
  }

  /// Removes one cached plan; `pressure` distinguishes budget evictions
  /// (counted) from invalidation drops (not).  Returns the recency-list
  /// iterator following the removed entry.
  std::vector<std::uint64_t>::iterator drop_plan(
      std::vector<std::uint64_t>::iterator o, bool pressure) {
    const auto f = plan_cache_.find(*o);
    if (pressure) {
      plan_budget_.evict(f->second.bytes);
    } else {
      plan_budget_.remove(f->second.bytes);
    }
    plan_cache_.erase(f);
    return plan_order_.erase(o);
  }

  /// Evicts the least-recently-used bypass-eligible (fragmented,
  /// link-balanced) cached plan, falling back to the overall LRU when
  /// none qualifies.  plan_order_ is recency-ordered, LRU first.
  void evict_plan() {
    for (auto it = plan_order_.begin(); it != plan_order_.end(); ++it) {
      if (bypass_eligible(*plan_cache_.find(*it)->second.plan)) {
        drop_plan(it, /*pressure=*/true);
        return;
      }
    }
    if (!plan_order_.empty()) {
      drop_plan(plan_order_.begin(), /*pressure=*/true);
    }
  }

  void store_plan(dist::DistHandle od, dist::DistHandle nd,
                  std::shared_ptr<const RedistPlan> plan) {
    if (!plan_cache_enabled_ || !od.interned() || !nd.interned()) return;
    const std::size_t bytes = sizeof(PlanEntry) + plan->footprint_bytes();
    // A plan larger than the whole ceiling can never fit: leave it
    // uncached (it rebuilds next flip) rather than emptying the cache.
    if (bytes > plan_budget_.max_bytes()) return;
    // Cache-bypass heuristic for per-element-fragmented plans (ROADMAP):
    // their replay advantage is the smallest and their run lists are the
    // largest (O(N) Run entries), so they get a small budget of their own
    // and never evict a compact plan -- when the cache is full of compact
    // plans, the fragmented plan is simply not cached.  Fragmented plans
    // with skewed per-link traffic are exempt (see bypass_eligible).
    const bool bypass = bypass_eligible(*plan);
    if (bypass) {
      std::size_t fragmented = 0;
      for (const auto& [k, e] : plan_cache_) {
        fragmented += bypass_eligible(*e.plan) ? 1u : 0u;
      }
      if (fragmented >= kFragmentedPlanCapacity) {
        evict_plan();  // a fragmented entry exists; it is evicted
      } else if (plan_cache_.size() >= kPlanCacheCapacity) {
        if (fragmented == 0) return;  // bypass: keep the compact plans
        evict_plan();
      }
    } else if (plan_cache_.size() >= kPlanCacheCapacity) {
      // Compact insert into a full cache: prefer evicting the oldest
      // fragmented plan, falling back to the overall oldest.
      evict_plan();
    }
    // Byte ceiling on top of the count caps, same second-class rule: a
    // bypass-eligible plan never pushes a compact one out to make room.
    while (plan_budget_.would_exceed(bytes) && !plan_order_.empty()) {
      if (bypass &&
          !bypass_eligible(
              *plan_cache_.find(plan_order_.front())->second.plan)) {
        bool any_fragmented = false;
        for (const auto& [k, e] : plan_cache_) {
          any_fragmented |= bypass_eligible(*e.plan);
        }
        if (!any_fragmented) return;  // bypass: keep the compact plans
      }
      evict_plan();
    }
    const std::uint64_t key = plan_key(od, nd);
    plan_order_.push_back(key);
    plan_budget_.add(bytes);
    PlanEntry e{std::move(od), std::move(nd), std::move(plan)};
    e.bytes = bytes;
    plan_cache_.insert_or_assign(key, std::move(e));
  }

  /// The data-motion core of DISTRIBUTE: both sides enumerate their
  /// (old/new) owned sets in global column-major order; the
  /// per-(sender,receiver) subsequences agree, so no index lists travel --
  /// only values, at most one message per processor pair.  The enumeration
  /// itself is factored into a cached RedistPlan of contiguous runs; data
  /// moves with memcpy through the array's persistent exchange scratch,
  /// and the exchange skips the count collective because the plan knows
  /// both sides' counts.  A replayed flip (cached plan, warmed scratch,
  /// storage capacity settled) performs no heap allocation.
  void redistribute_data(dist::DistHandle ndp) {
    auto& ctx = env_->comm();
    const int np = ctx.nprocs();
    const int me = env_->rank();
    // Keep the old distribution alive through the unpack phase (the
    // descriptor swap below releases this array's reference to it).
    const dist::DistHandle odp = dist_;

    std::shared_ptr<const RedistPlan> plan = lookup_plan(odp, ndp);
    if (!plan) {
      plan = std::make_shared<const RedistPlan>(
          RedistPlan::build(*odp, *ndp, me, np, ghost_lo_, ghost_hi_));
      store_plan(odp, ndp, plan);
    }

    // ---- pack: one memcpy per run into exactly-sized scratch buffers ----
    msg::ExchangeLane& lane = exch_scratch_.lane(sizeof(T));
    lane.prepare(plan->send_counts, plan->recv_counts);
    const std::span<std::size_t> cur = lane.cursors();
    const T* src = local_.data();
    for (const RedistPlan::Run& run : plan->pack_runs) {
      const auto peer = static_cast<std::size_t>(run.peer);
      std::memcpy(lane.send<T>(run.peer).data() + cur[peer],
                  src + run.offset, run.length * sizeof(T));
      cur[peer] += run.length;
    }

    // Tag the exchange with the (old, new) distribution identity: a
    // lockstep-armed run reports WHICH flip diverged, not just that one
    // did.
    ctx.lockstep_note(plan_key(odp, ndp));
    ctx.alltoallv_known_into(lane);

    // ---- install the new distribution and unpack ------------------------
    // assign() reuses local_'s capacity: once a flip loop has seen its
    // largest shape, the reallocation below disappears too.
    set_distribution(std::move(ndp));
    rebuild_storage_shape();
    local_.assign(static_cast<std::size_t>(alloc_total_), T{});
    std::fill(cur.begin(), cur.end(), std::size_t{0});
    T* dst = local_.data();
    for (const RedistPlan::Run& run : plan->unpack_runs) {
      const auto peer = static_cast<std::size_t>(run.peer);
      std::memcpy(dst + run.offset, lane.recv<T>(run.peer).data() + cur[peer],
                  run.length * sizeof(T));
      cur[peer] += run.length;
    }
  }

  // ---- split-phase traversal helpers --------------------------------------

  /// Walks the core box of this rank's owned partition under margins `m`
  /// (the whole owned block when null).
  template <typename U, typename F>
  void walk_core(U* base, const SplitMargins* m, F& fn) const {
    OwnedPartition p;
    if (!owned_partition(m, p)) return;
    walk_box(base, p, p.core_lo, p.core_hi, fn);
  }

  /// Calls fn(i, base[offset of i]) for every owned element whose
  /// per-dimension positions fall in [lo[d], hi[d]), in column-major
  /// order.  A position is the dense local index, so for any distribution
  /// the storage offset advances by the allocation stride as the odometer
  /// moves.  The index is built once at the array's rank, and fn has this
  /// one call site per callable type: a walker instantiated per rank would
  /// give every callback one copy per rank, and GCC then stops inlining
  /// kernels once the unit's inline-growth budget runs out.
  template <typename U, typename F>
  void walk_box(U* base, const OwnedPartition& p, const Box& lo,
                const Box& hi, F& fn) const {
    const int r = dom_.rank();
    dist::IndexVec i = dist::IndexVec::filled(r, 0);
    dist::Index off = 0;
    for (int d = 0; d < r; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (lo[ud] >= hi[ud]) return;
      i[d] = p.owned[ud][lo[ud]];
      off += (static_cast<dist::Index>(lo[ud]) + ghost_lo_[d]) *
             alloc_strides_[d];
    }
    const std::vector<dist::Index>& inner = p.owned[0];
    Box pos = lo;
    for (;;) {
      // Dimension 0 has allocation stride 1: one contiguous storage run.
      U* run = base + (off - static_cast<dist::Index>(lo[0]));
      for (std::size_t k = lo[0]; k < hi[0]; ++k) {
        i[0] = inner[k];
        fn(static_cast<const dist::IndexVec&>(i), run[k]);
      }
      int d = 1;
      for (; d < r; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        if (++pos[ud] < hi[ud]) {
          i[d] = p.owned[ud][pos[ud]];
          off += alloc_strides_[d];
          break;
        }
        off -= static_cast<dist::Index>(hi[ud] - 1 - lo[ud]) *
               alloc_strides_[d];
        pos[ud] = lo[ud];
        i[d] = p.owned[ud][pos[ud]];
      }
      if (d >= r) break;
    }
  }

  static T identity_of(msg::ReduceOp op) {
    switch (op) {
      case msg::ReduceOp::Sum:
        return T{};
      case msg::ReduceOp::Min:
        return std::numeric_limits<T>::max();
      case msg::ReduceOp::Max:
        return std::numeric_limits<T>::lowest();
      case msg::ReduceOp::LogicalAnd:
        return static_cast<T>(1);
      case msg::ReduceOp::LogicalOr:
        return T{};
    }
    return T{};
  }

  struct PlanEntry {
    // The handles pin the interned distributions (and therefore the uid
    // pair the key was built from) for the lifetime of the entry.
    dist::DistHandle od;
    dist::DistHandle nd;
    std::shared_ptr<const RedistPlan> plan;
    std::size_t bytes = 0;
  };
  static constexpr std::size_t kPlanCacheCapacity = 8;
  static constexpr std::size_t kFragmentedPlanCapacity = 2;
  static constexpr std::size_t kDefaultPlanBudgetBytes = std::size_t{64} << 20;

  std::vector<T> local_;
  std::unordered_map<std::uint64_t, PlanEntry> plan_cache_;
  std::vector<std::uint64_t> plan_order_;  ///< recency order, LRU first
  core::CacheBudget plan_budget_{kDefaultPlanBudgetBytes};
  bool plan_cache_enabled_ = true;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t plan_misses_ = 0;
};

template <typename T>
void DistArray<T>::exchange_overlap() {
  check_no_exchange_in_flight("exchange_overlap");
  begin_exchange_overlap();
  end_exchange_overlap();
}

template <typename T>
void DistArray<T>::begin_exchange_overlap() {
  check_no_exchange_in_flight("begin_exchange_overlap");
  // Plan resolution handles both declaration forms: uniform specs go
  // straight to the (DistHandle, HaloSpec) keyed cache with no extra
  // collective; asymmetric specs reconcile the per-rank family first (one
  // lazy allgather) and key on it unless it turned out uniform.
  const std::shared_ptr<const halo::HaloPlan> plan = lookup_halo_plan();

  // Executor, send half: one memcpy per run into exactly-sized buffers,
  // then hand the lane to the active transport.  Buffers and cursors live
  // in the array's shared exchange scratch (the same facility DISTRIBUTE
  // replay uses): a repeat exchange performs no heap allocation on either
  // side.
  msg::ExchangeLane& lane = exch_scratch_.lane(sizeof(T));
  lane.prepare(plan->send_counts, plan->recv_counts);
  const std::span<std::size_t> cur = lane.cursors();
  const T* src = local_.data();
  for (const halo::HaloPlan::Run& run : plan->pack_runs) {
    const auto peer = static_cast<std::size_t>(run.peer);
    std::memcpy(lane.send<T>(run.peer).data() + cur[peer], src + run.offset,
                run.length * sizeof(T));
    cur[peer] += run.length;
  }

  // Tag the exchange with the (array, distribution) identity so a
  // lockstep-armed run names which array's ghost exchange diverged.  The
  // note must be SPMD-uniform, so it folds the array NAME, not the halo
  // spec uid: asymmetric declarations give every rank a legitimately
  // different local spec.
  std::uint64_t note =
      msg::mix64(static_cast<std::uint64_t>(dist_handle().uid()) ^
                 0x9e3779b97f4a7c15ULL);
  for (const char c : name_) {
    note = msg::mix64(note ^ static_cast<unsigned char>(c));
  }
  env_->comm().lockstep_note(note);
  pending_exchange_tag_ = env_->comm().begin_exchange(lane);
  pending_halo_plan_ = plan;
  exchange_in_flight_ = true;
}

template <typename T>
void DistArray<T>::end_exchange_overlap() {
  if (!exchange_in_flight_) throw NoExchangeInFlightError(name_);
  const std::shared_ptr<const halo::HaloPlan> plan =
      std::move(pending_halo_plan_);
  msg::ExchangeLane& lane = exch_scratch_.lane(sizeof(T));
  T* dst = local_.data();
  // Executor, receive half: scatter each arriving payload straight into
  // the ghost planes, peer by peer, via the plan's grouped unpack runs.
  // Under the shared-memory transport `bytes` aliases the PEER's packed
  // send buffer -- the whole transfer is pack memcpy + this scatter, no
  // intermediate frame; under the mailbox transport it is this lane's
  // already-filled recv buffer.  Within one peer the runs advance a
  // cursor in block order, consuming the payload in exactly the order the
  // peer packed it.
  env_->comm().end_exchange(
      lane, pending_exchange_tag_,
      [&](int peer, std::span<const std::byte> bytes) {
        const T* in = reinterpret_cast<const T*>(bytes.data());
        std::size_t cursor = 0;
        for (const halo::HaloPlan::PeerRuns& g : plan->unpack_peers) {
          if (g.peer != peer) continue;
          for (std::uint32_t k = g.begin; k < g.end; ++k) {
            const halo::HaloPlan::Run& run = plan->unpack_runs[k];
            std::memcpy(dst + run.offset, in + cursor,
                        run.length * sizeof(T));
            cursor += run.length;
          }
        }
      });
  exchange_in_flight_ = false;
  pending_exchange_tag_ = 0;
}

}  // namespace vf::rt
