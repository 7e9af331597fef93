// Type-erased distributed-array base: descriptors, the DYNAMIC attribute,
// RANGE enforcement, the DISTRIBUTE statement (paper Sections 2.3, 2.4
// and 3.2.2), the element-type-independent local storage geometry
// (overlap widths, allocation strides, loc_map offsets) that both the
// runtime and the PARTI executors address through, and the data motion of
// DISTRIBUTE and the overlap exchange: one msg::RunPlan replayed by the
// byte-level executor, reaching typed storage through two storage hooks.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "vf/core/lru_cache.hpp"
#include "vf/dist/alignment.hpp"
#include "vf/dist/distribution.hpp"
#include "vf/msg/exchange_scratch.hpp"
#include "vf/query/pattern.hpp"
#include "vf/rt/connect.hpp"
#include "vf/rt/env.hpp"
#include "vf/rt/redist_plan.hpp"

namespace vf::rt {

/// Thrown when an access or query requires a distribution but the array has
/// not been associated with one ("An array for which an initial
/// distribution has not been specified cannot be legally accessed before it
/// has been explicitly associated with a distribution", Section 2.3).
class NotDistributedError : public std::logic_error {
 public:
  explicit NotDistributedError(const std::string& array)
      : std::logic_error("array " + array +
                         " has no distribution associated with it") {}
};

/// Thrown when a DISTRIBUTE statement violates the array's RANGE attribute
/// ("Distribute statements applied to the Bi must respect the restrictions
/// imposed by this attribute", Section 2.3).
class RangeViolationError : public std::runtime_error {
 public:
  RangeViolationError(const std::string& array, const std::string& type)
      : std::runtime_error("distribution " + type + " violates the RANGE of " +
                           array) {}
};

/// Thrown when an operation that would invalidate or tear down halo
/// geometry (DISTRIBUTE, set_overlap, a second begin_exchange_overlap)
/// is attempted while a split-phase overlap exchange is in flight on the
/// array.  The exchange pins the plan and the lane buffers; completing
/// it first (end_exchange_overlap) is the only legal continuation.
class ExchangeInFlightError : public std::logic_error {
 public:
  ExchangeInFlightError(const std::string& array, const std::string& op,
                        int tag)
      : std::logic_error(op + " on array " + array +
                         ": a split-phase overlap exchange (tag " +
                         std::to_string(tag) +
                         ") is in flight; call end_exchange_overlap() first"),
        array_name(array),
        operation(op),
        pending_tag(tag) {}

  std::string array_name;
  std::string operation;
  int pending_tag;
};

/// Thrown by end_exchange_overlap() when no begin_exchange_overlap() is
/// pending on the array.
class NoExchangeInFlightError : public std::logic_error {
 public:
  explicit NoExchangeInFlightError(const std::string& array)
      : std::logic_error(
            "end_exchange_overlap on array " + array +
            ": no split-phase overlap exchange is in flight (call "
            "begin_exchange_overlap() first)"),
        array_name(array) {}

  std::string array_name;
};

class DistArrayBase;

/// One component of a distribution expression: a per-dimension intrinsic
/// (BLOCK, CYCLIC(k), ...) or the extraction of another array's current
/// per-dimension distribution, as in DISTRIBUTE B4 :: (=B1, CYCLIC(3)).
struct DimExprItem {
  std::variant<dist::DimDist, std::pair<const DistArrayBase*, int>> v;

  DimExprItem(dist::DimDist d) : v(std::move(d)) {}  // NOLINT(google-explicit-constructor)
  DimExprItem(std::pair<const DistArrayBase*, int> e) : v(e) {}  // NOLINT
};

/// Extraction of dimension `dim` of B's current distribution type (=B).
[[nodiscard]] DimExprItem extract_dim(const DistArrayBase& b, int dim = 0);

/// The `da` operand of a distribute statement: a distribution expression
/// (possibly containing extractions), a whole-type extraction, or an
/// alignment specification -- optionally associated with a processor
/// section (Section 2.4).
class DistExpr {
 public:
  DistExpr(dist::DistributionType t)  // NOLINT(google-explicit-constructor)
      : form_(std::move(t)) {}
  DistExpr(std::initializer_list<DimExprItem> items)
      : form_(std::vector<DimExprItem>(items)) {}
  DistExpr(std::vector<DimExprItem> items) : form_(std::move(items)) {}  // NOLINT

  /// Whole-type extraction: DISTRIBUTE B :: (=A).
  static DistExpr extraction(const DistArrayBase& a) {
    DistExpr e{dist::DistributionType{}};
    e.form_ = &a;
    return e;
  }

  /// Alignment form: DISTRIBUTE B :: ALIGN WITH target(...).
  static DistExpr align_with(const DistArrayBase& target, dist::Alignment a);

  /// Associates the expression with an explicit processor section (the
  /// "TO section" clause).
  [[nodiscard]] DistExpr to(dist::ProcessorSection s) && {
    to_ = std::move(s);
    return std::move(*this);
  }
  [[nodiscard]] DistExpr to(dist::ProcessorSection s) const& {
    DistExpr e = *this;
    e.to_ = std::move(s);
    return e;
  }

  /// Evaluates the expression for `target` (the array being distributed):
  /// returns the new distribution as an interned handle from `reg`.
  /// `fallback_section` is used when no explicit section was given.  For
  /// the plain-type and extraction forms a previously-seen distribution
  /// is a registry hash hit -- nothing is constructed.
  [[nodiscard]] dist::DistHandle evaluate(
      const DistArrayBase& target,
      const dist::ProcessorSection& fallback_section,
      dist::DistRegistry& reg) const;

 private:
  std::variant<dist::DistributionType, std::vector<DimExprItem>,
               const DistArrayBase*,
               std::pair<const DistArrayBase*, dist::Alignment>>
      form_;
  std::optional<dist::ProcessorSection> to_;
};

/// The NOTRANSFER attribute of a distribute statement: for the named
/// secondary arrays "only the access function is changed and the elements
/// of the array are not physically moved" (Section 2.4).
struct NoTransfer {
  std::vector<const DistArrayBase*> arrays;

  NoTransfer() = default;
  NoTransfer(std::initializer_list<const DistArrayBase*> as) : arrays(as) {}
  [[nodiscard]] bool contains(const DistArrayBase* a) const noexcept {
    for (const auto* x : arrays) {
      if (x == a) return true;
    }
    return false;
  }
};

/// Per-array runtime descriptor snapshot (paper Section 3.2.1): the
/// components of the information stored locally on each processor.
struct Descriptor {
  dist::IndexDomain index_dom;                 ///< index_dom(A)
  dist::DistHandle dist;                       ///< dist(A); null if none
  dist::LocalLayout segment;                   ///< loc_map / segment basis
  bool dynamic = false;
  bool primary = false;
  std::size_t connect_class_size = 1;          ///< |C(B)| including primary
};

class DistArrayBase {
 public:
  DistArrayBase(const DistArrayBase&) = delete;
  DistArrayBase& operator=(const DistArrayBase&) = delete;
  virtual ~DistArrayBase();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Process-unique array identity (never recycled, unlike heap
  /// addresses): the key executor binding caches use, since with interned
  /// descriptors two distinct arrays may share one DistHandle.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

  [[nodiscard]] const dist::IndexDomain& domain() const noexcept {
    return dom_;
  }
  [[nodiscard]] Env& env() const noexcept { return *env_; }
  [[nodiscard]] bool is_dynamic() const noexcept { return dynamic_; }
  [[nodiscard]] const query::RangeSpec& range() const noexcept {
    return range_;
  }

  [[nodiscard]] bool has_distribution() const noexcept {
    return dist_ != nullptr;
  }
  [[nodiscard]] const dist::Distribution& distribution() const {
    if (!dist_) throw NotDistributedError(name_);
    return *dist_;
  }
  /// The array's current descriptor as an interned handle: the identity
  /// key every runtime cache (plans, schedule bindings, procedure
  /// interfaces) uses.  Null when no distribution is associated.
  [[nodiscard]] const dist::DistHandle& dist_handle() const noexcept {
    return dist_;
  }
  /// The array's interned LOCAL overlap description (never null): together
  /// with dist_handle() it keys the Env's halo-plan cache, and PARTI
  /// schedule bindings compare it by identity to validate overlap-area
  /// reads.  Under an asymmetric declaration this is this rank's own spec;
  /// the reconciled per-rank family lives in halo_family().
  [[nodiscard]] const halo::HaloHandle& halo_spec() const noexcept {
    return halo_;
  }
  /// Whether the overlap declaration is per-rank (asymmetric): each rank
  /// may have declared different ghost widths, reconciled by a plan-time
  /// spec exchange (halo/exchange.hpp).  Uniform (SPMD-declared) arrays
  /// never pay that collective.
  [[nodiscard]] bool halo_asymmetric() const noexcept {
    return halo_asymmetric_;
  }
  /// The reconciled per-rank spec family; null until the first
  /// exchange_overlap() after an asymmetric declaration (the exchange is
  /// lazy, at plan time), and always null for uniform declarations.
  [[nodiscard]] const halo::FamilyHandle& halo_family() const noexcept {
    return halo_family_;
  }
  /// Number of spec-exchange collectives this array has performed (one per
  /// asymmetric declaration actually used by an exchange; 0 forever for
  /// uniform arrays -- the fast-path assertion).
  [[nodiscard]] std::uint64_t halo_spec_exchanges() const noexcept {
    return halo_spec_exchanges_;
  }
  /// This rank's local layout under the current distribution.
  [[nodiscard]] const dist::LocalLayout& layout() const {
    if (!dist_) throw NotDistributedError(name_);
    return layout_;
  }

  [[nodiscard]] ConnectClass& connect_class() const noexcept {
    return *cclass_;
  }
  [[nodiscard]] bool is_primary() const noexcept {
    return cclass_->primary() == this;
  }
  [[nodiscard]] bool is_secondary() const noexcept { return !is_primary(); }

  [[nodiscard]] Descriptor describe() const;

  /// The DISTRIBUTE statement (Section 2.4).  Collective: every rank of the
  /// machine must call it with equivalent arguments.  Only legal on dynamic
  /// primary arrays; redistributes every member of the connect class,
  /// skipping data motion for NOTRANSFER members and for members whose
  /// mapping does not actually change.
  void distribute(const DistExpr& expr, const NoTransfer& nt = {});

  /// DISTRIBUTE to a pre-interned descriptor: the handle must cover this
  /// array's index domain.  Distributing to the array's current handle is
  /// a pure no-op (identity is equality); otherwise a cached plan keyed on
  /// the (old, new) handle pair replays without any mapping comparison.
  void distribute(const dist::DistHandle& nd, const NoTransfer& nt = {});

  /// Number of bytes per element (for communication accounting).
  [[nodiscard]] virtual std::size_t element_size() const noexcept = 0;

  // ---- overlap areas -------------------------------------------------------

  /// Exchanges overlap areas with segment neighbours in every dimension
  /// with non-zero ghost widths (collective); with overlap_corners set,
  /// diagonal regions travel in the same exchange.  The run plan comes
  /// from the Env's halo-plan cache keyed on this array's (DistHandle,
  /// HaloSpec) uid pair: a repeat exchange under an unchanged distribution
  /// replays memcpy runs with pre-agreed counts (no count collective, no
  /// index-list rebuild); a DISTRIBUTE swaps the handle and thereby the
  /// plan.
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

  /// Whether a split-phase overlap exchange (begin_exchange_overlap) is
  /// pending on this array.  While true, DISTRIBUTE, set_overlap and a
  /// second begin throw ExchangeInFlightError; end_exchange_overlap()
  /// clears it.
  [[nodiscard]] bool exchange_in_flight() const noexcept {
    return exchange_in_flight_;
  }
  /// Tag of the pending split-phase exchange (0 when none is in flight).
  [[nodiscard]] int pending_exchange_tag() const noexcept {
    return pending_exchange_tag_;
  }

  /// Env::sweep() hook, called on every registered array before the
  /// registry sweep: drops derived per-array cache state that pins
  /// retired descriptors without contributing to future hits -- the
  /// uid-keyed skew memo (its hybrid handles pin hybrid descriptors;
  /// re-deriving one costs a single histogram pass) and every cached
  /// redistribution plan not involving the CURRENT descriptor.  Such a
  /// plan could only replay if the array returned to a retired
  /// distribution -- impossible after the sweep retires its uid for good.
  /// Never touches the array's own handle chain -- the live
  /// dist/halo/family handles are exactly what pins their interns.
  void sweep_caches();

  // ---- redistribution plan cache ------------------------------------------
  //
  // DISTRIBUTE plans are cached per array, keyed on the (old, new)
  // handle-identity pair; plans are element offsets, so the cache is
  // independent of the element type.

  /// Drops every cached plan AND the hit/miss counters -- stats describe
  /// the cache's contents.  The benchmarks' cold rows clear before each
  /// timed flip to measure the inspector path.
  void clear_redist_plans() noexcept { redist_plans_.clear(); }
  [[nodiscard]] std::uint64_t redist_plan_hits() const noexcept {
    return redist_plans_.stats().hits;
  }
  [[nodiscard]] std::uint64_t redist_plan_misses() const noexcept {
    return redist_plans_.stats().misses;
  }
  [[nodiscard]] std::uint64_t redist_plan_evictions() const noexcept {
    return redist_plans_.evictions();
  }
  [[nodiscard]] std::size_t redist_plan_resident_bytes() const noexcept {
    return redist_plans_.resident_bytes();
  }
  [[nodiscard]] std::size_t redist_plan_count() const noexcept {
    return redist_plans_.size();
  }
  /// Byte ceiling of the plan cache (default 64 MiB -- generous because
  /// skewed fragmented plans are large and exactly the ones whose replay
  /// the skew path depends on); shrinking evicts immediately.
  void set_redist_plan_budget(std::size_t max_bytes) {
    redist_plans_.set_max_bytes(max_bytes);
  }

  /// The per-side interior margins of this rank: its declared ghost
  /// widths.  Owned elements at least this far from every ghosted face
  /// cannot be read by any stencil the halo serves (reach <= declared
  /// width by contract), so they are safe to update while an overlap
  /// exchange is in flight.  Declared -- not clipped -- widths: partial
  /// fill only ever shrinks what arrives, so the margins are
  /// conservative.  A consumer array of a different shape (e.g. the amr
  /// destination) can partition ITS traversal by the source's margins.
  /// Local: no plan lookup, no communication.
  struct SplitMargins {
    dist::IndexVec lo;
    dist::IndexVec hi;
  };
  [[nodiscard]] SplitMargins split_margins() const {
    return SplitMargins{ghost_lo_, ghost_hi_};
  }

  /// Counters of this array's exchange lane (shared by DISTRIBUTE
  /// replay and exchange_overlap): prepares == replays that moved data
  /// through it, grow_allocs == heap allocations it performed.  A
  /// warmed-up replay loop holds grow_allocs flat -- the
  /// allocs_per_replay == 0 steady state bench_pic/bench_halo gate.
  [[nodiscard]] const msg::ExchangeLane::Stats& exchange_scratch_stats()
      const noexcept {
    return lane_.stats();
  }
  void reset_exchange_scratch_stats() const noexcept { lane_.reset_stats(); }

  // ---- skew-aware redistribution (PRPD hybrid plans) ----------------------
  //
  // When enabled, DISTRIBUTE runs a cheap ownership-histogram pass over
  // the resolved target mapping; a skewed target is replaced by the
  // interned hybrid H(old, new) in which excess dimension-0 elements keep
  // their old owners (heavy keys stay local, light keys ride the ordinary
  // run-based plan).  See dist/skew.hpp.  Off by default: opting in is an
  // explicit per-array decision because it intentionally changes the
  // installed descriptor.

  enum class SkewPolicy {
    Off,    ///< never hybridize (the all-to-owner reference behavior)
    Auto,   ///< hybridize targets whose ownership skew exceeds the threshold
    Force,  ///< hybridize every applicable non-identity flip (testing)
  };

  /// Sets the skew policy and its knobs.  `threshold` is the ownership
  /// max/mean above which Auto triggers; `cap_factor` scales the per-rank
  /// fair-share receive cap (see dist::SkewConfig).  Clears the
  /// hybridization memo so knob changes take effect on the next flip.
  void set_skew_policy(SkewPolicy p, double threshold = 4.0,
                       double cap_factor = 1.0) {
    skew_policy_ = p;
    skew_threshold_ = threshold;
    skew_cap_factor_ = cap_factor;
    hybrid_memo_.clear();
  }
  [[nodiscard]] SkewPolicy skew_policy() const noexcept {
    return skew_policy_;
  }
  /// Flips whose target was replaced by a hybrid distribution.
  [[nodiscard]] std::uint64_t hybrid_flips() const noexcept {
    return hybrid_flips_;
  }
  /// Detection passes run (memoized pairs count once per first sight).
  [[nodiscard]] std::uint64_t skew_checks() const noexcept {
    return skew_checks_;
  }
  /// Ownership max/mean of the most recently inspected target mapping.
  [[nodiscard]] double last_target_skew() const noexcept {
    return last_target_skew_;
  }
  /// Largest ownership max/mean any detection pass has seen on this array
  /// (a flip loop's balanced flip-back overwrites last_target_skew(); the
  /// peak keeps the skewed target visible to reports).
  [[nodiscard]] double peak_target_skew() const noexcept {
    return peak_target_skew_;
  }

  // ---- local storage geometry (loc_map, Section 3.2.1) --------------------
  //
  // Local storage is laid out column-major over the per-dimension dense
  // local indices, padded by the overlap (ghost) widths.  The geometry is
  // element-type independent, so executors (PARTI schedules) can translate
  // index points to flat storage offsets through the base class.

  // Every array whose distributed dimensions are all contiguous (BLOCK,
  // BLOCK(M), S_BLOCK, collapsed) on a rank that owns something takes the
  // affine form precomputed by rebuild_storage_shape(): inline
  // multiply-adds whose loop bound is the index's own size, a constant for
  // a braced index such as halo({x, y}).  CYCLIC/INDIRECT dimensions and
  // non-member ranks take the general per-dimension DimMap path through a
  // cold out-of-line call that takes the index's components as scalars,
  // so the hot path never has to store the index to memory.  The two
  // accessors are always_inline: otherwise GCC's partial inlining may
  // outline the cold branch into a clone that takes the IndexVec by
  // reference, and the caller stores its index again.
  //
  // Loop invariance.  The cold calls are [[gnu::pure]] and noexcept: they
  // return the offset, or kNoOffset when the index cannot be translated,
  // and the inline caller throws through a [[noreturn]] call --
  // throw_halo_bounds() for halo(), throw_storage_bounds() for at(), which
  // takes the index again so its message can name what was wrong with
  // it.  An opaque call that may write memory and return
  // into the loop forces the compiler to assume it changed the array, so
  // every at()/halo() in an owner-computes loop would reload affine_,
  // base_off_, the strides, the halo box and the storage pointer from the
  // object; a pure call cannot change them, and the throw, sitting outside
  // the cold call, never returns into the loop -- so the state is read
  // once per loop.  The contract behind the attribute: every read the
  // cold paths reach (this class's geometry, the Distribution, its
  // DimMaps; see dim_map.hpp) is free of side effects -- no lazily built
  // tables, no mutable members -- and nothing they call may throw, so they
  // reject what DimMap would throw on (a wrong-size index, a component
  // outside the domain) before calling it.  storage_offset (at()) also
  // computes the affine offset before its branch, on both paths (it is
  // discarded on the cold one): a load every access makes is one the
  // compiler may hoist out of a loop, where one made only on the affine
  // path stays inside it (the adi line loops, at() after at(), became
  // register arithmetic).  halo_offset keeps the offset behind its bounds
  // branch:
  // computed first, it slowed the smooth9 kernel, whose halo() reads sit
  // on a conditional path of their own.

  /// Flat local-storage offset of an owned element (no ownership check;
  /// the caller guarantees this rank owns i, with i.size() == rank).
  /// NotDistributedError without a distribution; the general path also
  /// throws std::out_of_range naming the array for an index it cannot
  /// translate (a wrong size, a component outside the domain, a rank
  /// outside the TO section).
  [[gnu::always_inline]] [[nodiscard]] dist::Index storage_offset(
      const dist::IndexVec& i) const {
    const dist::Index off = affine_offset(i);
    if (!affine_) [[unlikely]] {
      const dist::Index c =
          storage_offset_cold(i[0], i[1], i[2], i[3], i.size());
      if (c < 0) [[unlikely]] {
        throw_storage_bounds(i[0], i[1], i[2], i[3], i.size());
      }
      return c;
    }
    return off;
  }

  /// Total allocated elements (owned extent plus ghost padding).
  [[nodiscard]] dist::Index alloc_total() const noexcept {
    return alloc_total_;
  }

  /// Storage offset for a halo-readable element (bounds-checked against
  /// the overlap widths on every path; std::out_of_range naming the array
  /// otherwise, including for an index whose size is not the array's
  /// rank): the access function overlap-area reads -- the halo()
  /// accessor and PARTI halo bindings -- translate through.  The affine
  /// form folds the rank test and every per-dimension bounds test into one
  /// branch; a failing index, like every non-affine one, takes the cold
  /// call, which checks again and returns kNoOffset for the caller to
  /// throw on.
  [[gnu::always_inline]] [[nodiscard]] dist::Index halo_offset(
      const dist::IndexVec& i) const {
    if (!(affine_ & in_halo_box(i))) [[unlikely]] {
      const dist::Index c = halo_offset_cold(i[0], i[1], i[2], i[3], i.size());
      if (c < 0) [[unlikely]] throw_halo_bounds();
      return c;
    }
    return affine_offset(i);
  }

  /// Whether this rank may read global index i through halo() /
  /// halo_offset(): i has the array's rank and is owned or lies within
  /// the overlap widths of the owned block.  A rank that owns nothing
  /// (outside the TO section, or an empty block) can read nothing.
  /// Shares in_halo_box with halo_offset, so the two cannot disagree.
  [[nodiscard]] bool halo_readable(const dist::IndexVec& i) const {
    return in_halo_box(i) && (affine_ || halo_readable_general(i));
  }

 protected:
  DistArrayBase(Env& env, std::string name, dist::IndexDomain dom,
                bool dynamic, query::RangeSpec range,
                std::optional<Connection> connect);

  // ---- typed storage hooks -------------------------------------------------
  // The only typed code the data motion needs: the executor moves bytes
  // (element_size() per element) through these.

  /// This rank's local storage (alloc_total() elements).
  [[nodiscard]] virtual std::byte* storage_bytes() noexcept = 0;
  /// Reallocates local storage for the current shape (alloc_total()
  /// elements), reusing its capacity.  Every element is zeroed, except
  /// when `owned_written` (the caller is about to write every owned
  /// element) and the storage has no ghost padding: then nothing is.
  virtual void reset_storage(bool owned_written) = 0;

  /// Installs `nd`: storage is reallocated zeroed, unless `keep_storage`
  /// (a mapping-equivalent swap: same owned sets, local order and sizes,
  /// so only the descriptor changes).  `owned_written` is passed on to
  /// reset_storage().
  void install_distribution(dist::DistHandle nd, bool keep_storage = false,
                            bool owned_written = false);

  /// The (old, new) handle-identity key of the plan cache.  Interning
  /// makes identity equivalent to structural equality, so a hit needs no
  /// fingerprint comparison and no structural re-verification.
  [[nodiscard]] static std::uint64_t plan_key(
      const dist::DistHandle& od, const dist::DistHandle& nd) noexcept {
    return (static_cast<std::uint64_t>(od.uid()) << 32) | nd.uid();
  }

  /// The plan moving this array's storage from its current distribution
  /// to `nd`: a cache hit refreshes the entry's recency; a miss builds it
  /// and caches it.
  [[nodiscard]] std::shared_ptr<const msg::RunPlan> redist_plan_for(
      const dist::DistHandle& nd);

  /// The data-motion core of DISTRIBUTE (Section 3.2.2): packs the old
  /// storage along the cached plan, exchanges, and only then installs the
  /// new distribution and unpacks -- an abort inside the exchange leaves
  /// the array on its old distribution with its data intact.
  void redistribute_data(dist::DistHandle nd);

  /// Moves this array to `nd`: a planned flip replays its cached plan, a
  /// mapping-equivalent target swaps only the descriptor (data stays in
  /// place), and anything else moves data (`transfer`) or installs fresh
  /// storage.
  void switch_distribution(dist::DistHandle nd, bool transfer);

  void check_range(const dist::DistributionType& t) const {
    if (!query::range_allows(range_, t)) {
      throw RangeViolationError(name_, t.to_string());
    }
  }

  /// Throws std::invalid_argument if ghost widths `lo`/`hi` sit in a
  /// dimension that `d` does not map contiguously in coordinate order.
  /// rebuild_storage_shape runs it on every install; set_overlap runs it
  /// on the new widths before it changes anything.
  void check_ghosts_fit(const dist::Distribution& d, const dist::IndexVec& lo,
                        const dist::IndexVec& hi) const;

  /// check_ghosts_fit against the widths of every rank, so that every
  /// rank gives the same verdict on a DISTRIBUTE target: the local widths
  /// of a uniform declaration, the widest in each dimension of the
  /// reconciled family for an asymmetric one.  The family is reconciled
  /// (collectively) only when `d` cannot carry ghosts in some dimension,
  /// which is the same on every rank.
  void check_ghosts_fit_everywhere(const dist::Distribution& d);

  /// The one per-dimension bounds test of overlap-area access: whether
  /// global index x lies in [halo_lo_[d], halo_lo_[d] + halo_span_[d]],
  /// as a single unsigned compare.
  [[nodiscard]] bool in_halo_extent(int d, dist::Index x) const {
    return static_cast<std::uint64_t>(x) -
               static_cast<std::uint64_t>(halo_lo_[d]) <=
           static_cast<std::uint64_t>(halo_span_[d]);
  }

  /// The rank test and every dimension's in_halo_extent, combined without
  /// a branch per dimension.  Loops to i.size() (never past kMaxRank, and
  /// halo_lo_/halo_span_ are zero beyond the rank), so an index of the
  /// wrong size is rejected without reading out of bounds.
  [[nodiscard]] bool in_halo_box(const dist::IndexVec& i) const {
    const int n = static_cast<int>(i.size());
    bool ok = n == dom_.rank();
    for (int d = 0; d < n; ++d) ok &= in_halo_extent(d, i[d]);
    return ok;
  }

  /// The affine offset base_off_ + sum_d i[d] * alloc_strides_[d], with
  /// dimension 0's stride of 1 (column-major) folded in.
  [[nodiscard]] dist::Index affine_offset(const dist::IndexVec& i) const {
    dist::Index off = base_off_ + i[0];
    for (int d = 1; d < static_cast<int>(i.size()); ++d) {
      off += i[d] * alloc_strides_[d];
    }
    return off;
  }

  /// General (non-affine) halves of the access functions, out of line,
  /// cold and side-effect free (see "Loop invariance" above):
  /// per-dimension DimMap translation, after the halo() bounds and
  /// ownership checks for halo_offset_cold; kNoOffset without a
  /// distribution or for an index they cannot translate.  The index
  /// arrives as its kMaxRank components and its size, all in registers:
  /// an IndexVec by value would be passed in memory, and by reference it
  /// needs an address -- either way inlined callers would store every
  /// index on the hot path.
  [[gnu::noinline, gnu::cold, gnu::pure]] [[nodiscard]] dist::Index
  storage_offset_cold(dist::Index i0, dist::Index i1, dist::Index i2,
                      dist::Index i3, std::size_t n) const noexcept;
  [[gnu::noinline, gnu::cold, gnu::pure]] [[nodiscard]] dist::Index
  halo_offset_cold(dist::Index i0, dist::Index i1, dist::Index i2,
                   dist::Index i3, std::size_t n) const noexcept;
  /// What a cold path returns for an index it cannot translate.
  static constexpr dist::Index kNoOffset = -1;
  /// The general DimMap translation behind storage_offset_cold.
  [[nodiscard]] dist::Index storage_offset_general(
      const dist::IndexVec& i) const;
  /// Ownership in the non-contiguous dimensions, after in_halo_box passed.
  [[gnu::noinline]] [[nodiscard]] bool halo_readable_general(
      const dist::IndexVec& i) const;
  /// Throws NotDistributedError, or std::out_of_range naming the array.
  [[noreturn]] [[gnu::cold]] void throw_halo_bounds() const;
  /// The storage_offset() error for an index storage_offset_cold could
  /// not translate: NotDistributedError; DimMap's std::out_of_range for a
  /// component outside the domain; otherwise (a wrong size, a rank that
  /// owns nothing) a std::out_of_range naming the array.
  [[noreturn]] [[gnu::cold]] void throw_storage_bounds(
      dist::Index i0, dist::Index i1, dist::Index i2, dist::Index i3,
      std::size_t n) const;

  // ---- owned-element traversal geometry (for the DistArray walkers) ------

  /// Per-dimension positions (into the owned index lists) of a box.
  using Box = std::array<std::size_t, dist::kMaxRank>;

  /// Per-dimension owned index lists plus the position bounds of the core
  /// (interior) box under a set of margins.
  struct OwnedPartition {
    std::array<std::vector<dist::Index>, dist::kMaxRank> owned;
    Box core_lo{};
    Box core_hi{};
  };

  /// Fills `p` for this rank; returns false when the rank owns nothing.
  /// core = positions [min(m_lo, len), max(that, len - m_hi)) per dim --
  /// clamped so oversized margins yield an empty core, never wrap.  Null
  /// margins make the core the whole owned block.  Throws
  /// NotDistributedError without a distribution.
  [[nodiscard]] bool owned_partition(const SplitMargins* m,
                                     OwnedPartition& p) const;

  /// Precondition checks shared by both distribute() entry points.
  void check_distribute_legal(const NoTransfer& nt) const;

  /// Throws ExchangeInFlightError naming `op` if a split-phase overlap
  /// exchange is pending on this array.
  void check_no_exchange_in_flight(const char* op) const;

  /// Resolves this array's current halo plan through the Env's cache.
  /// Uniform declarations key on the (DistHandle uid, HaloSpec uid) pair
  /// exactly as before families existed; asymmetric declarations first
  /// reconcile the per-rank family (one lazy allgather, cached on the
  /// array until the next set_overlap) and -- unless reconciliation
  /// detected the family is actually uniform -- key on the family uid
  /// instead, so two ranks with different local specs can never alias one
  /// plan entry.
  [[nodiscard]] std::shared_ptr<const msg::RunPlan> lookup_halo_plan();

  /// The per-rank spec family of an asymmetric declaration, reconciled by
  /// the plan-time spec exchange (collective) unless it is still cached.
  const halo::FamilyHandle& reconciled_family();

  /// The DISTRIBUTE engine proper, after the target descriptor has been
  /// resolved to an interned handle.  It derives every connect-class
  /// member's target and checks RANGE and ghost contiguity for all of
  /// them before any data moves: a rejected statement throws the same
  /// error on every rank, before any data message, with the class
  /// intact.
  void distribute_resolved(dist::DistHandle nd, const NoTransfer& nt);

  /// Whether dimension 0 may carry ghost widths on some rank: the same
  /// answer on every rank (an asymmetric declaration not yet reconciled
  /// counts as ghosted).
  [[nodiscard]] bool dim0_ghosted() const noexcept;

  /// Skew-policy gatekeeper: runs the detection pass over `nd` and returns
  /// either `nd` unchanged or the interned hybrid H(dist_, nd).  It
  /// declines (returns `nd`) when the hybrid's INDIRECT dimension 0 would
  /// break the RANGE attribute or carry ghost widths (dim0_ghosted).
  /// Memoized per (old, new) uid pair until the next set_overlap, so flip
  /// loops pay the O(N) inspector cost once per direction and replay
  /// through the plan cache afterwards.
  [[nodiscard]] dist::DistHandle maybe_hybridize(dist::DistHandle nd);

  /// Recomputes the allocation shape (counts, strides, segment bases)
  /// and the affine access form for the current distribution and ghost
  /// widths, after check_ghosts_fit.  Every geometry change (DISTRIBUTE,
  /// no-transfer install, descriptor-only swap, set_overlap reshape, the
  /// constructor's first distribution) goes through here.
  void rebuild_storage_shape();

  [[nodiscard]] static std::uint64_t next_serial() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  Env* env_;
  std::uint64_t serial_ = next_serial();
  std::string name_;
  dist::IndexDomain dom_;
  bool dynamic_;
  query::RangeSpec range_;
  dist::DistHandle dist_;
  dist::LocalLayout layout_;
  halo::HaloHandle halo_;
  // Asymmetric overlap state: the declaration flag, the lazily reconciled
  // per-rank family (null while stale) and the spec-exchange count.
  bool halo_asymmetric_ = false;
  halo::FamilyHandle halo_family_;
  std::uint64_t halo_spec_exchanges_ = 0;
  std::shared_ptr<ConnectClass> cclass_;

  // Split-phase overlap exchange state: the transport tag the begin
  // returned and the plan it packed under, pinned so the end unpacks the
  // exact same geometry even if the Env's plan cache evicts the entry
  // mid-flight.
  bool exchange_in_flight_ = false;
  int pending_exchange_tag_ = 0;
  std::shared_ptr<const msg::RunPlan> pending_halo_plan_;

  // Persistent exchange lane shared by every executor replay this array
  // performs (cached DISTRIBUTE data motion, halo exchange): per-peer
  // send/recv buffers that survive across calls.
  mutable msg::ExchangeLane lane_;

  // Skew-aware redistribution state: the per-array policy and knobs, the
  // per-(old,new)-uid-pair memo of hybridization decisions (a null handle
  // records "leave this pair alone"), and the observability counters the
  // benches/tests assert on.
  SkewPolicy skew_policy_ = SkewPolicy::Off;
  double skew_threshold_ = 4.0;
  double skew_cap_factor_ = 1.0;
  std::unordered_map<std::uint64_t, dist::DistHandle> hybrid_memo_;
  std::uint64_t hybrid_flips_ = 0;
  std::uint64_t skew_checks_ = 0;
  double last_target_skew_ = 1.0;
  double peak_target_skew_ = 1.0;

  // Redistribution plan cache.  The handles pin the interned
  // distributions (and therefore the uid pair the key was built from)
  // for the lifetime of the entry.
  struct PlanEntry {
    dist::DistHandle od;
    dist::DistHandle nd;
    std::shared_ptr<const msg::RunPlan> plan;
  };
  static constexpr std::size_t kPlanCacheCapacity = 8;
  static constexpr std::size_t kDefaultPlanBudgetBytes = std::size_t{64} << 20;
  core::LruCache<std::uint64_t, PlanEntry> redist_plans_{
      kPlanCacheCapacity, kDefaultPlanBudgetBytes};

  // Storage geometry under the current distribution.
  dist::IndexVec ghost_lo_;
  dist::IndexVec ghost_hi_;
  dist::IndexVec alloc_counts_;
  dist::IndexVec alloc_strides_;
  dist::IndexVec seg_lo_;
  dist::Index alloc_total_ = 0;
  std::array<bool, dist::kMaxRank> contig_{};
  // Affine access form: offset(i) = base_off_ + sum_d i[d] * stride[d],
  // valid when affine_; halo() bounds per dimension in global indices,
  // [halo_lo_, halo_lo_ + halo_span_]: the ghost-padded owned segment in
  // contiguous dimensions, the whole dimension elsewhere, unbounded
  // outside the TO section (halo_readable_general decides there).
  bool affine_ = false;
  dist::Index base_off_ = 0;
  dist::IndexVec halo_lo_;
  dist::IndexVec halo_span_;
};

}  // namespace vf::rt
