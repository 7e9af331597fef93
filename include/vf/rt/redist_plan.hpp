// Run-based redistribution plans (paper Section 3.2.2 + the PARTI
// inspector/executor discipline of reference [15]).
//
// The DISTRIBUTE statement's data motion is deterministic given the (old,
// new) distribution pair and this rank's storage geometry: both sides
// enumerate their owned sets in global column-major order, so the
// per-(sender, receiver) subsequences agree and only values travel.  A
// RedistPlan is the "inspector" product of that enumeration, factored out
// so it can be cached and replayed:
//
//   * pack_runs:   maximal innermost-dimension runs of the OLD local
//                  storage whose elements go to one destination rank --
//                  each run is a single memcpy into that rank's buffer;
//   * send_counts: exact per-destination element counts (the counting
//                  pass), so buffers are sized once with no reallocation;
//   * unpack_runs / recv_counts: the mirror image for the NEW storage.
//
// Because the plan knows the exact per-peer counts on both sides, the
// executor can use Context::alltoallv_known and skip the count-exchange
// collective entirely: a cached DISTRIBUTE performs exactly one
// all-to-all of values, at most one message per communicating pair.
//
// Successive owned global indices of any DimMap occupy successive local
// storage slots (local_of is ascending-dense), so run detection only has
// to split where the destination rank changes; the innermost dimension's
// storage stride is 1 by construction (column-major allocation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vf/dist/distribution.hpp"

namespace vf::rt {

struct RedistPlan {
  /// One contiguous span of local storage exchanged with one peer.
  struct Run {
    std::size_t offset;  ///< element offset into local storage
    std::size_t length;  ///< run length in elements
    int peer;            ///< destination (pack) / source (unpack) rank
  };

  /// Runs over the OLD storage, in global column-major enumeration order.
  std::vector<Run> pack_runs;
  /// Exact elements sent to each rank (index = destination rank).
  std::vector<std::uint64_t> send_counts;

  /// Runs over the NEW storage, in global column-major enumeration order.
  std::vector<Run> unpack_runs;
  /// Exact elements received from each rank (index = source rank).
  std::vector<std::uint64_t> recv_counts;

  /// Heap + inline bytes this plan holds (cache byte budgeting: fragmented
  /// plans carry O(N) Run entries and dominate any budget they share).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(RedistPlan) +
           (pack_runs.capacity() + unpack_runs.capacity()) * sizeof(Run) +
           (send_counts.capacity() + recv_counts.capacity()) *
               sizeof(std::uint64_t);
  }

  /// Builds the plan for rank `me` of an `np`-processor machine moving an
  /// array with the given ghost widths from `od` to `nd`.  Purely local:
  /// no communication.
  [[nodiscard]] static RedistPlan build(const dist::Distribution& od,
                                        const dist::Distribution& nd, int me,
                                        int np, const dist::IndexVec& ghost_lo,
                                        const dist::IndexVec& ghost_hi);
};

}  // namespace vf::rt
