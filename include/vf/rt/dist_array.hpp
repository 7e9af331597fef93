// DistArray<T>: the run-time representation of a (possibly dynamically)
// distributed array (paper Section 3.2.1), including:
//
//   * local storage in each processor's memory, laid out column-major over
//     the owned index set, with optional overlap (ghost) areas;
//   * the access functions loc_map (owned access) and halo access;
//   * the owned-element walkers and global reductions.
//
// The data motion -- DISTRIBUTE (Section 3.2.2) and the overlap exchange --
// is element-type independent and lives in DistArrayBase: both replay a
// cached msg::RunPlan of contiguous runs through one byte-level executor,
// reaching this class's storage through two storage hooks.
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

#include <cassert>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "vf/msg/context.hpp"
#include "vf/rt/array_base.hpp"

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
  // anything else is a cold out-of-line call (see array_base.hpp).  at()
  // reads the storage pointer before that branch, like its affine state,
  // so every load it makes is one the compiler can hoist out of the
  // caller's loop.

  /// Reference to owned element i; undefined behaviour if this rank does
  /// not own i (asserted in debug builds).
  [[nodiscard]] T& at(const dist::IndexVec& i) {
    assert(distribution().owns(env_->rank(), i));
    T* const data = local_.data();
    return data[storage_offset(i)];
  }
  [[nodiscard]] const T& at(const dist::IndexVec& i) const {
    assert(distribution().owns(env_->rank(), i));
    const T* const data = local_.data();
    return data[storage_offset(i)];
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
  // exchange_overlap() and the split-phase begin/end pair are
  // DistArrayBase members; the traversals below partition the owned set
  // around an exchange in flight.

  /// Calls fn(i, element) for every owned element whose per-dimension
  /// distance from this rank's segment faces is at least the interior
  /// margin (split_margins(): the declared ghost widths) -- the elements
  /// whose stencil reads cannot touch ghost storage, safe to update while
  /// an overlap exchange is in flight.  One rectangular core box, walked
  /// in column-major order.
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
  /// Validation errors (rank mismatch, negative widths, widths in a
  /// dimension the distribution does not map contiguously -- all thrown
  /// before anything changes -- or a ghost wider than a neighbour's
  /// segment at plan time) need not be thrown on
  /// every rank: a lone failing rank trips the machine's abort fence and
  /// peers blocked in the spec exchange or the halo exchange wake with a
  /// RankAbort instead of hanging.
  ///
  /// Never inlined: a re-declaration interns a spec and reshapes storage,
  /// so a call costs far more than the jump, while inlining it into a step
  /// function that also runs the update loop costs that loop registers
  /// (GCC then keeps a frame pointer; the amr_churn kernel ran slower).
  [[gnu::noinline]] void set_overlap(const dist::IndexVec& lo,
                                     const dist::IndexVec& hi,
                                     bool corners = false,
                                     bool asymmetric = true) {
    check_no_exchange_in_flight("set_overlap");
    const dist::IndexVec nlo = normalize_ghost(lo);
    const dist::IndexVec nhi = normalize_ghost(hi);
    if (dist_) check_ghosts_fit(*dist_, nlo, nhi);
    halo::HaloHandle nh =
        env_->registry().intern(halo::HaloSpec(nlo, nhi, corners));
    halo_asymmetric_ = asymmetric;
    // Stale on every call: peers may have changed their widths even when
    // this rank's handle is unchanged.  So are the hybridization
    // decisions, which depend on every rank's dimension-0 widths.
    halo_family_ = halo::FamilyHandle{};
    hybrid_memo_.clear();
    if (nh == halo_) return;
    if (!dist_) {
      ghost_lo_ = nlo;
      ghost_hi_ = nhi;
      halo_ = std::move(nh);
      return;
    }
    reshape_ghost_storage(nlo, nhi, std::move(nh));
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
            install_distribution(std::move(sd));
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
      install_distribution(std::move(d));
      return;
    }
    if (spec.initial) {
      dist::DistHandle d = env.registry().intern(
          dom_, *spec.initial, spec.to ? *spec.to : env.whole());
      check_range(d->type());
      install_distribution(std::move(d));
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
    redist_plans_.erase_if(
        [](std::uint64_t, const PlanEntry&) { return true; });
    const dist::IndexVec old_lo = ghost_lo_;
    const dist::IndexVec old_strides = alloc_strides_;
    const std::vector<T> old_local = std::move(local_);
    ghost_lo_ = nlo;
    ghost_hi_ = nhi;
    halo_ = std::move(nh);
    rebuild_storage_shape();
    reset_storage(/*owned_written=*/false);
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

  std::byte* storage_bytes() noexcept override {
    return reinterpret_cast<std::byte*>(local_.data());
  }

  void reset_storage(bool owned_written) override {
    const auto n = static_cast<std::size_t>(alloc_total_);
    if (owned_written && alloc_total_ == layout_.total) {
      local_.resize(n);
    } else {
      local_.assign(n, T{});
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

  std::vector<T> local_;
};

}  // namespace vf::rt
