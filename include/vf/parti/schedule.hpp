// Inspector/executor schedules (paper Section 3.2 and reference [15],
// Saltz et al.): the runtime machinery for irregular accesses.
//
// The *inspector* (Schedule construction) analyses the set of global index
// points a processor wants to read or write, groups them by owner, removes
// duplicates, and exchanges the deduplicated request lists so that owners
// know what to serve.  The *executor* (gather / scatter / scatter_add)
// then moves only unique data, one aggregated message per communicating
// pair; duplicate occurrences are fanned out (gather) or pre-combined
// (scatter, scatter_add) on the requesting side.
//
// Executors replay two folded run sides (msg/run_plan.hpp) through the
// walker DISTRIBUTE and the overlap exchange use: the buffer side (per
// peer, the buffer positions of each unique element's first occurrence)
// and, per bound array, the storage side (per peer, the served offsets).
// gather packs the storage side and unpacks the buffer side, scatter the
// reverse; later occurrences sit in a per-peer (slot, position) list.
// The own slot -- the local points and the halo reads, per occurrence
// -- takes no lane space: its buffer positions are a one-peer side, each
// binding holds its storage offsets in that side's run shape, and
// zip_runs copies between the two directly while the exchange is in
// flight.  With counts agreed at inspector
// time and the schedule's one persistent byte lane, a warmed-up replay
// does no index arithmetic, no count collective and no heap allocation.
// That holds for the all-to-owner path only: the executors of a hybrid
// (SkewConfig) schedule allocate on every call, for their allgather_vec
// of the replicated values and the value vectors around it.  The own slot
// goes first, then peers in ascending rank order, which fixes the order
// of conflicting scatter writes.  This makes the inspector cost
// amortizable (bench E7), as in the PIC of Section 4.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "vf/core/lru_cache.hpp"
#include "vf/dist/distribution.hpp"
#include "vf/dist/registry.hpp"
#include "vf/halo/spec.hpp"
#include "vf/msg/context.hpp"
#include "vf/msg/run_plan.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::parti {

class Schedule {
 public:
  /// Inspector (collective): `points` are the global index points this
  /// rank's executor calls will touch, in local buffer order.  `target`
  /// is the interned descriptor of the distribution the points are
  /// resolved against (normally some array's dist_handle()); executors
  /// accept any array whose handle is identical -- one pointer compare --
  /// and fall back to a mapping-level comparison only for
  /// descriptor-swapped equivalents.
  ///
  /// Every point is validated against the target domain BEFORE the
  /// inspector communicates; a bad point throws std::out_of_range naming
  /// it.  The throw need not be rank-symmetric: peers already blocked in
  /// the inspector's collectives are woken by the machine's abort fence
  /// with a RankAbort, and run_spmd rethrows this rank's original error.
  Schedule(msg::Context& ctx, dist::DistHandle target,
           std::vector<dist::IndexVec> points);

  /// Inspector that reuses the target's halo runs for overlap-area reads:
  /// points owned by a neighbour but lying inside this rank's *filled*
  /// ghost region under (target, halo) -- the planes a preceding
  /// exchange_overlap() made current -- are satisfied from local ghost
  /// storage instead of travelling in the executor exchange.  The caller
  /// guarantees ghosts are current (exchange_overlap() since the last
  /// write); halo-satisfied points are read-only, so scatter executors
  /// reject schedules that carry any -- on every rank together (one
  /// allreduce agrees whether any rank has halo reads).
  ///
  /// `halo` is this rank's LOCAL spec even under an asymmetric per-rank
  /// declaration (pass the array's halo_spec()): which overlap reads the
  /// exchange serves is a pure receiver-side fact -- filled widths are my
  /// own declared widths clipped by what my neighbours own, and the spec
  /// exchange makes the send side honour exactly them -- so the inspector
  /// needs no knowledge of the reconciled family.
  Schedule(msg::Context& ctx, dist::DistHandle target,
           std::vector<dist::IndexVec> points, halo::HaloHandle halo);

  /// Knobs for the skew-aware hybrid (PRPD partial-duplication) inspector.
  /// Must be SPMD-uniform, like every other inspector argument.
  struct SkewConfig {
    bool enabled = false;  ///< run the serve-load skew pass at all
    /// Serve-load max/mean above which the inspector goes hybrid.
    double threshold = 4.0;
    /// Minimum requester fan-in for a served element to count as heavy;
    /// 0 selects max(2, nprocs/2).
    std::size_t min_fan = 0;
  };

  /// Skew-aware inspector: like the plain form, but when the per-owner
  /// serve loads are skewed beyond `cfg.threshold`, owners mark their
  /// widely-requested elements (fan-in >= min_fan) heavy and announce
  /// them in one plan-time allgather.  Heavy elements leave the
  /// all-to-owner request/serve structures on both sides; executors
  /// replicate them instead: gather allgathers the owners' heavy values
  /// and fans them out locally, scatter_add pre-combines each requester's
  /// heavy contributions, allgathers the partials and lets each owner
  /// reduce them in ascending rank order -- on dyadic values the result
  /// is bitwise identical to the all-to-owner reference.  Plain scatter
  /// (last-writer-wins) is not defined on replicated elements and throws
  /// std::logic_error on a hybrid schedule.
  Schedule(msg::Context& ctx, dist::DistHandle target,
           std::vector<dist::IndexVec> points, const SkewConfig& cfg);

  /// Whether the inspector selected the hybrid (partial-duplication)
  /// path.  False whenever the serve loads were balanced or no element
  /// met the fan-in bar -- the zero-overhead uniform outcome.
  [[nodiscard]] bool hybrid() const noexcept { return hybrid_; }
  /// Machine-wide count of heavy (replicated) elements.
  [[nodiscard]] std::size_t n_heavy() const noexcept { return n_heavy_; }
  /// Serve-load max/mean observed by the skew pass (1.0 when disabled).
  [[nodiscard]] double serve_skew() const noexcept { return serve_skew_; }

  /// Number of points this rank requested.
  [[nodiscard]] std::size_t n_points() const noexcept { return n_points_; }
  /// Number of distinct off-processor elements this rank touches per
  /// executor call (its incoming/outgoing data volume, in elements).
  [[nodiscard]] std::size_t n_unique_offproc() const noexcept {
    return n_unique_offproc_;
  }
  /// Number of points satisfied locally.
  [[nodiscard]] std::size_t n_local() const noexcept {
    return own_linear_.size() - n_halo_;
  }
  /// Number of points satisfied from the overlap (ghost) area.
  [[nodiscard]] std::size_t n_halo() const noexcept {
    return n_halo_;
  }

  /// Executor: fills out[k] with the value of the k-th requested point.
  /// Collective; `out.size() == n_points()`.
  template <typename T>
  void gather(msg::Context& ctx, const rt::DistArray<T>& src,
              std::span<T> out) const {
    check_size(out.size());
    const Binding& bound = bind(src);
    const T* data = src.local_span().data();
    // One byte lane serves every element type: a schedule may alternate
    // double and int arrays through its binding cache.
    lane_.prepare(bound.storage.counts, buffer_.counts, sizeof(T));
    msg::pack(bound.storage, reinterpret_cast<const std::byte*>(data), lane_);
    auto* dst = reinterpret_cast<std::byte*>(out.data());
    ctx.lockstep_note(lockstep_note(Executor::Gather));
    const int tag = ctx.begin_exchange(lane_);
    msg::zip_runs(bound.own, data, own_, out.data(),
                  [](const T& s, T& o) { o = s; });
    ctx.end_exchange(lane_, tag, [&](int p, std::span<const std::byte> b) {
      msg::unpack(buffer_, p, b, dst, sizeof(T));
      for (const Dup& d : dups_[p]) {
        std::memcpy(&out[d.pos], b.data() + d.slot * sizeof(T), sizeof(T));
      }
    });
    if (!hybrid_) return;
    // Replicated side: owners publish their heavy values once (Bruck
    // allgather), every rank fans them out to its occurrences locally.
    // A heavy element thus costs its owner one send per allgather round
    // instead of one serve slot per requesting rank.
    std::vector<T> mine(heavy_serve_linear_.size());
    for (std::size_t k = 0; k < mine.size(); ++k) {
      mine[k] = data[bound.heavy_off[k]];
    }
    const auto per_rank = ctx.allgather_vec(std::move(mine));
    std::vector<T> heavy_vals(n_heavy_);
    for (int r = 0; r < ctx.nprocs(); ++r) {
      const auto ur = static_cast<std::size_t>(r);
      std::copy(per_rank[ur].begin(), per_rank[ur].end(),
                heavy_vals.begin() +
                    static_cast<std::ptrdiff_t>(heavy_owner_start_[ur]));
    }
    for (std::size_t k = 0; k < heavy_occ_slot_.size(); ++k) {
      out[heavy_occ_pos_[k]] = heavy_vals[heavy_occ_slot_[k]];
    }
  }

  /// Vector convenience overloads (template deduction does not see through
  /// std::span).
  template <typename T>
  void gather(msg::Context& ctx, const rt::DistArray<T>& src,
              std::vector<T>& out) const {
    gather(ctx, src, std::span<T>(out));
  }
  template <typename T>
  void scatter(msg::Context& ctx, const std::vector<T>& in,
               rt::DistArray<T>& dst) const {
    scatter(ctx, std::span<const T>(in), dst);
  }
  template <typename T>
  void scatter_add(msg::Context& ctx, const std::vector<T>& in,
                   rt::DistArray<T>& dst) const {
    scatter_add(ctx, std::span<const T>(in), dst);
  }

  /// Executor: writes in[k] to the k-th requested point (collective).
  /// When several occurrences name the same point, the last occurrence in
  /// request order wins (duplicates are combined before transport); an
  /// owner applies its local writes, then other ranks' in rank order.
  template <typename T>
  void scatter(msg::Context& ctx, std::span<const T> in,
               rt::DistArray<T>& dst) const {
    exec_scatter(ctx, in, dst, Executor::Scatter);
  }

  /// Executor: accumulates in[k] into the k-th requested point
  /// (collective); every occurrence contributes (pre-summed per unique
  /// element before transport), in the order scatter writes.  T needs a
  /// value-initialized zero and +=.
  template <typename T>
  void scatter_add(msg::Context& ctx, std::span<const T> in,
                   rt::DistArray<T>& dst) const {
    exec_scatter(ctx, in, dst, Executor::ScatterAdd);
  }

 private:
  friend struct ScheduleTestAccess;  // run sides and notes, for the tests

  /// The executor kinds, and the SPMD-uniform token each notes for the
  /// lockstep checker (its kind folded with the target's fingerprint).
  enum class Executor : std::uint64_t { Gather = 1, Scatter, ScatterAdd };
  [[nodiscard]] std::uint64_t lockstep_note(Executor op) const noexcept {
    return msg::mix64(target_->fingerprint() + static_cast<std::uint64_t>(op));
  }

  /// A later occurrence of a remote element: its slot in the peer's
  /// buffer and its executor-buffer position.
  struct Dup {
    std::size_t slot;
    std::size_t pos;
  };

  template <typename T>
  void exec_scatter(msg::Context& ctx, std::span<const T> in,
                    rt::DistArray<T>& dst, Executor op) const {
    check_size(in.size());
    if (any_halo_) {  // SPMD-uniform: every rank throws together
      throw std::logic_error(
          "Schedule: halo-satisfied points are read-only; scatter needs a "
          "schedule built without a halo spec");
    }
    const bool accumulate = op == Executor::ScatterAdd;
    if (hybrid_ && !accumulate) {
      // Replicated elements have no single last writer across ranks;
      // plain scatter is undefined on them.  hybrid_ is SPMD-uniform, so
      // this throws on every rank symmetrically.
      throw std::logic_error(
          "Schedule: plain scatter is not defined on a hybrid "
          "(partial-duplication) schedule; use scatter_add or build the "
          "schedule without SkewConfig");
    }
    const Binding& bound = bind(dst);
    // Later occurrences overwrite (the last wins) or add into their
    // packed slot in request order; scatter_add starts each remote slot
    // from a zero it adds x to, the zero-filled sum bit for bit (signed
    // zeros too).
    lane_.prepare(buffer_.counts, bound.storage.counts, sizeof(T));
    msg::pack(buffer_, reinterpret_cast<const std::byte*>(in.data()), lane_);
    for (int p = 0; p < ctx.nprocs(); ++p) {
      const std::span<T> buf = lane_.send<T>(p);
      if (accumulate) {
        for (T& v : buf) {
          T zero{};
          zero += v;
          v = zero;
        }
        for (const Dup& d : dups_[p]) buf[d.slot] += in[d.pos];
      } else {
        for (const Dup& d : dups_[p]) buf[d.slot] = in[d.pos];
      }
    }
    T* data = dst.local_span().data();
    ctx.lockstep_note(lockstep_note(op));
    const int tag = ctx.begin_exchange(lane_);
    if (accumulate) {
      msg::zip_runs(own_, in.data(), bound.own, data,
                    [](const T& x, T& s) { s += x; });
    } else {
      msg::zip_runs(own_, in.data(), bound.own, data,
                    [](const T& x, T& s) { s = x; });
    }
    ctx.end_exchange(lane_, tag, [&](int p, std::span<const std::byte> b) {
      if (accumulate) {
        msg::accumulate(bound.storage, p, b, data);
      } else {
        msg::unpack(bound.storage, p, b, reinterpret_cast<std::byte*>(data),
                    sizeof(T));
      }
    });
    if (!hybrid_) return;
    // Replicated side of scatter_add: each requester pre-combines its
    // contributions to the heavy elements it touches, the partials are
    // allgathered, and each owner folds them into its heavy slots in
    // ascending rank order -- a deterministic reduction that is exact
    // (hence bitwise identical to all-to-owner) on dyadic values.
    std::vector<T> partials(touched_slots_.size(), T{});
    for (std::size_t k = 0; k < heavy_occ_touch_.size(); ++k) {
      partials[heavy_occ_touch_[k]] += in[heavy_occ_pos_[k]];
    }
    const auto all = ctx.allgather_vec(std::move(partials));
    for (std::size_t k = 0; k < heavy_serve_linear_.size(); ++k) {
      T& slot = data[bound.heavy_off[k]];
      for (std::size_t j = owner_reduce_start_[k];
           j < owner_reduce_start_[k + 1]; ++j) {
        slot += all[static_cast<std::size_t>(owner_reduce_rank_[j])]
                   [owner_reduce_idx_[j]];
      }
    }
  }

  void check_size(std::size_t n) const {
    if (n != n_points_) {
      throw std::invalid_argument(
          "Schedule executor: buffer size does not match the inspected "
          "point count");
    }
  }

  // The storage side bound to one array instance.  Cached under the
  // array's process-unique serial (never recycled, unlike a heap
  // address); the descriptor and overlap handles the offsets were
  // translated under travel with them, since a DISTRIBUTE or a
  // set_overlap reshape moves every offset of the same array.
  struct Binding {
    dist::DistHandle dist;
    halo::HaloHandle halo;
    msg::RunSide storage;                ///< see the file comment
    msg::RunSide own;                    ///< own slot, own_'s run shape
    std::vector<std::size_t> heavy_off;  ///< parallel to heavy_serve_linear_
  };

 public:
  /// Bytes the binding cache holds (the bound storage sides).
  [[nodiscard]] std::size_t binding_footprint_bytes() const noexcept {
    return bindings_.resident_bytes();
  }
  /// Number of arrays currently bound (distinct translation sets held by
  /// the multi-array binding cache).
  [[nodiscard]] std::size_t n_bound_arrays() const noexcept {
    return bindings_.size();
  }
  /// Executor-side binding cache hits/misses (a miss translates all
  /// served and local points of one array into storage sections).
  [[nodiscard]] std::uint64_t binding_hits() const noexcept {
    return bindings_.stats().hits;
  }
  [[nodiscard]] std::uint64_t binding_misses() const noexcept {
    return bindings_.stats().misses;
  }
  /// Bindings dropped under capacity or byte pressure (an evicted binding
  /// re-translates transparently on next use).
  [[nodiscard]] std::uint64_t binding_evictions() const noexcept {
    return bindings_.evictions();
  }
  /// Byte ceiling of the binding cache (default 8 MiB); shrinking evicts
  /// cold bindings immediately (the MRU binding always survives).
  void set_binding_budget(std::size_t max_bytes) {
    bindings_.set_max_bytes(max_bytes);
  }
  /// Executor exchange-lane counters (prepares == executor calls that
  /// exchanged data; grow_allocs == heap allocations the lane
  /// performed).  A warmed-up replay loop holds grow_allocs flat -- the
  /// allocs_per_replay == 0 steady state bench_parti gates.
  [[nodiscard]] const msg::ExchangeLane::Stats& scratch_stats()
      const noexcept {
    return lane_.stats();
  }
  void reset_scratch_stats() const noexcept { lane_.reset_stats(); }

 private:
  /// Translates the served and own-slot index points into the storage
  /// sides of `a`, through the multi-array binding cache: one schedule
  /// can serve gathers/scatters against several arrays (keyed by array
  /// serial) without re-translating on every alternation.  Schedules are
  /// per-rank objects, so no synchronization is needed.
  const Binding& bind(const rt::DistArrayBase& a) const;

  /// Per peer, during the inspector: each off-processor occurrence's
  /// buffer position and the index of its unique element.
  struct Occurrences {
    std::vector<std::size_t> pos;
    std::vector<std::size_t> uniq;
  };

  /// Shared inspector body of every constructor.
  void init(msg::Context& ctx, std::vector<dist::IndexVec> points,
            const SkewConfig& cfg);
  /// The skew pass: serve-load histogram, heavy-element election and
  /// announcement, and the deterministic carve-out of heavy elements from
  /// the all-to-owner structures.  `requested` is the per-owner unique
  /// request list this rank shipped in the base inspector exchange.
  void init_hybrid(msg::Context& ctx,
                   const std::vector<std::vector<dist::Index>>& requested,
                   const SkewConfig& cfg, std::vector<Occurrences>& occ);

  std::size_t n_points_ = 0;
  std::size_t n_unique_offproc_ = 0;

  // Requester side: the buffer side (nothing for this rank), the own
  // slot's buffer positions, and per peer the later occurrences of its
  // elements, in request order.
  msg::RunSide buffer_;
  msg::RunSide own_;
  std::vector<std::vector<Dup>> dups_;

  // Owner side: unique linearized points to serve, concatenated per peer
  // with serve_start_[p] .. serve_start_[p+1] delimiting peer p's slice.
  dist::IndexDomain dom_;
  std::vector<dist::Index> serve_linear_;
  std::vector<std::size_t> serve_start_;

  // The own slot's points (linearized), in request order: the locally
  // owned ones and n_halo_ overlap-area (ghost) reads -- owned by a
  // neighbour but current in this rank's filled halo region.  Only the
  // halo-aware constructor finds ghost reads; it also sets any_halo_ when
  // any rank has some.
  std::vector<dist::Index> own_linear_;
  std::size_t n_halo_ = 0;
  halo::HaloHandle halo_;
  bool any_halo_ = false;

  // ---- hybrid (partial-duplication) state ---------------------------------
  //
  // Heavy elements form one machine-wide stream: each owner's sorted
  // announcement occupies slots heavy_owner_start_[r] ..
  // heavy_owner_start_[r+1], so a slot id names both the element and its
  // owner without any per-executor lookup.  All of it is SPMD-agreed at
  // plan time; executors only walk flat arrays.
  bool hybrid_ = false;
  double serve_skew_ = 1.0;
  std::size_t n_heavy_ = 0;                     ///< global stream length
  std::vector<std::size_t> heavy_owner_start_;  ///< per-rank slot offsets
  // Owner side: my announced heavy elements (sorted linearized ids) --
  // the values I publish in the gather allgather and reduce into during
  // scatter_add.
  std::vector<dist::Index> heavy_serve_linear_;
  // Requester side: per heavy occurrence, the global slot (gather), the
  // index into touched_slots_ (scatter_add pre-combine) and the executor
  // buffer position.
  std::vector<std::size_t> heavy_occ_slot_;
  std::vector<std::size_t> heavy_occ_touch_;
  std::vector<std::size_t> heavy_occ_pos_;
  // Global slots this rank touches, sorted ascending; the layout of its
  // scatter_add partial vector, announced at plan time so owners can
  // index every rank's partials directly.
  std::vector<std::size_t> touched_slots_;
  // Owner-side reduction lists, parallel to heavy_serve_linear_:
  // contributions to my k-th heavy element are
  // all[owner_reduce_rank_[j]][owner_reduce_idx_[j]] for j in
  // owner_reduce_start_[k] .. owner_reduce_start_[k+1], rank-ascending.
  std::vector<std::size_t> owner_reduce_start_;
  std::vector<int> owner_reduce_rank_;
  std::vector<std::size_t> owner_reduce_idx_;

  // The inspected target descriptor: executors accept an array whose
  // handle is identical (one pointer compare -- the hot path) and fall
  // back to a mapping-level comparison only for descriptor-only swaps
  // such as a no-op DISTRIBUTE to an equivalent spelling.  No structural
  // or fingerprint verification happens on the hot path.
  dist::DistHandle target_;

  /// Bytes one binding holds.
  [[nodiscard]] static std::size_t binding_bytes(const Binding& b) noexcept {
    return sizeof(Binding) + b.storage.heap_bytes() + b.own.heap_bytes() +
           b.heavy_off.capacity() * sizeof(std::size_t);
  }

  // Multi-array binding cache keyed on the array serial, bounded by
  // kBindingCapacity entries within a byte budget.
  static constexpr std::size_t kBindingCapacity = 8;
  static constexpr std::size_t kDefaultBindingBudgetBytes = std::size_t{8}
                                                            << 20;
  mutable core::LruCache<std::uint64_t, Binding> bindings_{
      kBindingCapacity, kDefaultBindingBudgetBytes};

  // Persistent executor exchange lane: the send/combine and receive
  // bytes of gather, scatter and scatter_add, whatever the element type.
  // Warmed-up executor replays perform no heap allocation.
  mutable msg::ExchangeLane lane_;
};

}  // namespace vf::parti
