// The adaptive-refinement-front scenario the asymmetric halo subsystem
// exists for: a 2-D field on a (BLOCK, BLOCK) grid smoothed with a stencil
// whose radius in dimension 0 is locally refined -- wide near a front
// sweeping across the domain, narrow everywhere else.  Each rank therefore
// needs ghost planes exactly as wide as the largest radius its own cells
// read with, which differs per rank AND per side of its segment: the spec
// is per-rank asymmetric, re-declared (set_overlap) every time the front
// moves, reconciled by the plan-time spec exchange and exchanged through a
// family-keyed cached halo plan.
//
// The update rule is a pure function of the GLOBAL index and the step, so
// a sequential reference evaluates the identical arithmetic in the
// identical order and results compare bitwise -- the same proof obligation
// smoothing_sim discharges for the uniform 9-point stencil.
#pragma once

#include <cstdint>
#include <vector>

#include "vf/dist/index.hpp"
#include "vf/msg/context.hpp"

namespace vf::apps {

struct AmrFrontConfig {
  dist::Index n = 64;  ///< grid is n x n
  int steps = 6;
  dist::Index base_width = 1;   ///< stencil radius away from the front
  dist::Index front_width = 3;  ///< stencil radius near the front
  dist::Index front_halfspan = 2;  ///< |i - front| <= halfspan is "near"
  dist::Index front0 = 4;          ///< front column at step 0
  dist::Index front_step = 3;      ///< columns the front advances per step
  /// Overlap the halo exchange with the interior update (split-phase):
  /// the destination traversal is partitioned by the largest stencil
  /// radius any of the rank's own cells reads with (front_width when the
  /// front zone touches the segment) -- wider than the declared ghost
  /// widths, whose max(radius - edge distance) shape under-covers a
  /// refined cell sitting inside the segment -- so every in-flight read
  /// stays owned and only true boundary cells wait for
  /// end_exchange_overlap.  Bitwise-identical to the blocking schedule.
  bool split_phase = false;
};

struct AmrFrontResult {
  double checksum = 0.0;  ///< sum of the final grid in linearized order
  /// Machine-wide counters (summed over ranks): spec-exchange collectives
  /// performed (one per rank per set_overlap actually used), and
  /// halo-plan cache traffic.  A stationary front re-uses one family and
  /// turns every exchange after the first into a plan hit.
  std::uint64_t spec_exchanges = 0;
  std::uint64_t halo_plan_hits = 0;
  std::uint64_t halo_plan_misses = 0;
};

/// Stencil radius (dimension 0) at global column i with the front at f.
[[nodiscard]] constexpr dist::Index amr_radius(dist::Index i, dist::Index f,
                                               dist::Index halfspan,
                                               dist::Index base,
                                               dist::Index wide) {
  const dist::Index d = i > f ? i - f : f - i;
  return d <= halfspan ? wide : base;
}

/// One point update: the radius-r window along dimension 0 plus the two
/// dimension-1 neighbours, averaged; out-of-domain reads fall back to the
/// centre value.  `rd(x, y)` supplies in-domain values; evaluation order
/// is fixed (k ascending, then j-1, then j+1) so the distributed kernel
/// and sequential references agree bitwise.
template <typename Read>
[[nodiscard]] double amr_point(dist::Index i, dist::Index j, dist::Index n,
                               dist::Index r, Read&& rd) {
  const double c = rd(i, j);
  double acc = 0.0;
  for (dist::Index k = -r; k <= r; ++k) {
    const dist::Index x = i + k;
    acc += (x < 1 || x > n) ? c : rd(x, j);
  }
  acc += j - 1 < 1 ? c : rd(i, j - 1);
  acc += j + 1 > n ? c : rd(i, j + 1);
  return acc / static_cast<double>(2 * r + 3);
}

/// Deterministic initial value of cell (i, j).
[[nodiscard]] double amr_seed(dist::Index i, dist::Index j, dist::Index n);

/// Runs the refinement-front sweep on the calling SPMD context
/// (collective).  nprocs must be a perfect square q*q, and every block
/// segment must be at least front_width cells wide (the asymmetric spec
/// contract: a rank may not request a ghost wider than its neighbour's
/// segment).
[[nodiscard]] AmrFrontResult run_amr_front(msg::Context& ctx,
                                           const AmrFrontConfig& cfg);

/// The sequential reference: the full final grid in column-major
/// linearized order (and its checksum matches run_amr_front bitwise).
[[nodiscard]] std::vector<double> amr_front_reference(
    const AmrFrontConfig& cfg);

/// Checksum of a full grid in linearized order (shared by both sides).
[[nodiscard]] double amr_checksum(const std::vector<double>& full);

}  // namespace vf::apps
