// Run-based halo (overlap-area) exchange plans -- the ghost-region
// counterpart of the redistribution plan (rt/redist_plan.hpp), in the same
// msg::RunPlan format and replayed by the same executor.
//
// The overlap exchange of a distribution + halo spec pair is deterministic
// per rank: every ghost region is filled by exactly one neighbouring rank
// (the nearest coordinate owning planes in that direction, clipped to what
// it owns), and both sides enumerate the region in the same local
// column-major order, so only values travel.  A halo plan is the inspector
// product of that enumeration:
//
//   * pack side:   maximal innermost-dimension contiguous runs of local
//                  storage whose elements fill one neighbour's ghost
//                  region, folded into 2-D sections (a face across the
//                  non-contiguous dimension is one strided section), with
//                  exact per-peer element counts, so buffers are sized
//                  once with no counting pass at exchange time;
//   * unpack side: the mirror image into this rank's ghost storage,
//                  grouped by source so a split-phase consumer scatters
//                  one arriving payload by walking only that peer's runs.
//
// With spec.corners() set, diagonal directions (more than one non-zero
// per-dimension offset) are exchanged in the same single exchange -- the
// corner traffic a 9-point stencil needs.
//
// Plans depend only on (Distribution, HaloSpec, rank, nprocs), so they are
// cached per Env in a HaloPlanCache keyed on the flat
// (DistHandle uid, HaloSpec uid) integer pair and shared by every array
// with that descriptor pair (the smoothing ping-pong arrays A and B hit
// the same plan).  Plans invalidate naturally on DISTRIBUTE: the
// descriptor handle changes, so the key changes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "vf/core/lru_cache.hpp"
#include "vf/dist/distribution.hpp"
#include "vf/dist/registry.hpp"
#include "vf/halo/spec.hpp"
#include "vf/msg/run_plan.hpp"

namespace vf::halo {

/// Builds the plan for rank `me` of an `np`-rank machine under a uniform
/// (SPMD-declared) spec.  Purely local: no communication.  Ghosted
/// dimensions must be contiguous.  Ghost widths wider than a neighbour's
/// owned segment are clipped ("partial fill").
[[nodiscard]] msg::RunPlan build_plan(const dist::Distribution& d,
                                      const HaloSpec& spec, int me, int np);

/// Builds the plan for rank `me` under a reconciled per-rank spec family
/// (halo/exchange.hpp): the receive side enumerates MY ghost regions from
/// my own spec, the send side packs exactly what each neighbour's spec
/// demands -- so a rank with an empty local spec still serves its
/// wide-halo neighbours.  Purely local once the family is known (the spec
/// exchange already ran).  A uniform family delegates to build_plan
/// (including its partial-fill clipping); a genuinely asymmetric family is
/// validated strictly first: every ghosted dimension must be contiguous
/// for every member, and a rank requesting a ghost wider than its
/// neighbour's owned segment is a std::invalid_argument naming the rank,
/// dimension and widths (asymmetric widths are refinement-driven and exact
/// by contract; silent clipping would hide a mis-sized front).
[[nodiscard]] msg::RunPlan build_family_plan(const dist::Distribution& d,
                                             const HaloFamily& fam, int me,
                                             int np);

/// Process-wide count of halo plan builds (monotonic; the repeat-exchange
/// tests assert the cache keeps this flat on the hot path).
[[nodiscard]] std::uint64_t plan_builds() noexcept;

/// Receiver-side filled ghost widths of one rank: how many ghost planes on
/// each side actually receive values during an exchange (clipped by the
/// neighbour's segment size; 0 where no neighbour exists).  PARTI
/// schedules use this to decide which overlap-area reads the halo already
/// serves.
struct HaloFill {
  bool member = false;   ///< rank owns part of the array
  bool corners = false;  ///< diagonal regions are filled too
  dist::IndexVec lo;     ///< filled low-side widths per dimension
  dist::IndexVec hi;     ///< filled high-side widths per dimension
};

[[nodiscard]] HaloFill filled_widths(const dist::Distribution& d,
                                     const HaloSpec& spec, int me);

/// Per-Env cache of halo plans keyed on the (DistHandle uid, HaloSpec uid)
/// pair.  Identity-keyed: a hit is one integer compare per resident entry
/// with no structural comparison or index-list rebuild.  Uninterned
/// handles (uid 0) are uncacheable and rebuild every time -- the
/// benchmark cold path.
///
/// Bounded by a core::LruCache of kCapacity entries within a byte budget
/// (default 16 MiB).  An evicted plan rebuilds transparently on next use.
class HaloPlanCache {
 public:
  using Stats = core::CacheStats;

  /// Returns the cached plan for (d, h), building and caching it on a
  /// miss.
  [[nodiscard]] std::shared_ptr<const msg::RunPlan> lookup_or_build(
      const dist::DistHandle& d, const HaloHandle& h, int me, int np);

  /// Family-keyed lookup for asymmetric per-rank specs: the key packs the
  /// interned family uid (tagged so it can never collide with a spec uid)
  /// next to the distribution uid.  Callers divert uniform families to the
  /// uniform overload above, so an asymmetric declaration that reconciles
  /// to a uniform family hits the very same cache entry a uniform
  /// declaration would.
  [[nodiscard]] std::shared_ptr<const msg::RunPlan> lookup_or_build(
      const dist::DistHandle& d, const FamilyHandle& f, int me, int np);

  /// Disabling also drops cached plans and the counters (benchmarks
  /// measuring the cold plan-construction + exchange path).
  void set_enabled(bool on) { cache_.set_enabled(on); }

  /// Drops every entry AND the hit/miss counters: stats describe the
  /// cache's contents, and a reader comparing ratios across a clear (or
  /// a set_enabled(false) cold path) must not see pre-clear traffic.
  void clear() { cache_.clear(); }

  /// Byte ceiling (default 16 MiB); shrinking below residency evicts
  /// immediately from the cold end.
  void set_max_bytes(std::size_t b) { cache_.set_max_bytes(b); }
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return cache_.resident_bytes();
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return cache_.evictions();
  }

  /// Env::sweep() hook: drops entries whose distribution uid is not in
  /// `live` (no registered array holds that descriptor any more, so the
  /// key can never be looked up again -- uids are never reused).  Not
  /// counted as evictions; returns the number dropped.
  std::size_t sweep(const std::vector<std::uint32_t>& live_dist_uids);

  [[nodiscard]] std::size_t size() const noexcept { return cache_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return cache_.stats(); }

 private:
  struct Entry {
    // The handles pin the interned descriptors (and therefore the uids
    // the key was built from) for the lifetime of the entry.  Exactly one
    // of halo/family is non-null.
    dist::DistHandle dist;
    HaloHandle halo;
    FamilyHandle family;
    std::shared_ptr<const msg::RunPlan> plan;
  };

  // Spec and family uids live in separate registry keyspaces, so the key
  // tags its low bit: uniform entries end in 0, family entries in 1.  A
  // uniform lookup therefore keys on the same (dist uid, spec uid) pair it
  // did before families existed.
  [[nodiscard]] static std::uint64_t key_of(const dist::DistHandle& d,
                                            const HaloHandle& h) noexcept {
    return (static_cast<std::uint64_t>(d.uid()) << 33) |
           (static_cast<std::uint64_t>(h.uid()) << 1);
  }
  [[nodiscard]] static std::uint64_t key_of(const dist::DistHandle& d,
                                            const FamilyHandle& f) noexcept {
    return (static_cast<std::uint64_t>(d.uid()) << 33) |
           (static_cast<std::uint64_t>(f.uid()) << 1) | 1u;
  }

  static constexpr std::size_t kCapacity = 16;
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{16} << 20;

  core::LruCache<std::uint64_t, Entry> cache_{kCapacity, kDefaultMaxBytes};
};

}  // namespace vf::halo
