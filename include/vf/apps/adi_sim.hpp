// The ADI application of Figure 1, runnable under three data-layout
// strategies (paper Section 4):
//
//   DynamicRedistribution -- the Figure 1 program: V is DYNAMIC; an
//     explicit DISTRIBUTE between the x- and y-sweeps makes both sweeps
//     fully local ("all the communication is confined to the
//     redistribution operation").
//
//   StaticGatherLines -- V stays (:, BLOCK); the y-sweep operates on
//     distributed lines, so each line is gathered to a responsible
//     processor, solved, and scattered back (the communication the
//     compiler would have to embed in the generated code).
//
//   StaticTwoCopies -- the storage-wasting alternative the paper
//     mentions: a second array with the transposed distribution and array
//     assignment between the phases ("This approach, clearly, wastes
//     storage space").
#pragma once

#include <cstdint>

#include "vf/dist/index.hpp"
#include "vf/msg/context.hpp"

namespace vf::rt {
template <typename T>
class DistArray;
}  // namespace vf::rt

namespace vf::apps {

enum class AdiStrategy {
  DynamicRedistribution,
  StaticGatherLines,
  StaticTwoCopies,
};

[[nodiscard]] const char* to_string(AdiStrategy s);

struct AdiConfig {
  dist::Index nx = 64;
  dist::Index ny = 64;
  int iterations = 4;
  /// Opt-in neighbour-coupled right-hand side: the RHS of each iteration
  /// reads the previous iterate's dimension-1 neighbours of V, which
  /// needs a (0,1)/(0,1) overlap area and a halo exchange before every
  /// RHS fill.  Off by default -- the classic index-only RHS and its
  /// checksums are unchanged.
  bool rhs_halo = false;
  /// With rhs_halo: run that halo exchange split-phase, computing
  /// interior RHS values while boundary planes are in flight.  The RHS
  /// is computed into scratch and written back afterwards, so the result
  /// is bitwise-identical to the blocking variant regardless of
  /// traversal order.
  bool split_phase = false;
};

struct AdiResult {
  double checksum = 0.0;  ///< sum of V after the last iteration
  /// Machine-wide halo-plan cache traffic (summed over ranks).  ADI
  /// itself needs no ghost regions, so these stay 0 unless a strategy
  /// grows stencil phases -- emitted alongside the smoothing counters so
  /// BENCH json diffs cover every halo consumer.
  std::uint64_t halo_plan_hits = 0;
  std::uint64_t halo_plan_misses = 0;
};

/// One ADI sweep: solves every line along dimension `d` that rank `me`
/// owns with tridiag(), gathering each line from V and scattering the
/// solution back.  Dimension d must be collapsed (fully local), as it is
/// for both sweeps of Figure 1 around their DISTRIBUTE.
void solve_local_lines(rt::DistArray<double>& v, int d, int me);

/// Runs the ADI iteration on the calling SPMD context (collective).
AdiResult run_adi(msg::Context& ctx, const AdiConfig& cfg, AdiStrategy strat);

}  // namespace vf::apps
