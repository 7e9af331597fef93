// Run-based redistribution plans (paper Section 3.2.2 + the PARTI
// inspector/executor discipline of reference [15]).
//
// The DISTRIBUTE statement's data motion is deterministic given the (old,
// new) distribution pair and this rank's storage geometry: both sides
// enumerate their owned sets in global column-major order, so the
// per-(sender, receiver) subsequences agree and only values travel.  The
// redistribution plan is the "inspector" product of that enumeration, a
// msg::RunPlan factored out so it can be cached and replayed:
//
//   * pack side:   maximal innermost-dimension runs of the OLD local
//                  storage whose elements go to one destination rank,
//                  folded into 2-D sections (a CYCLIC(1) target is one
//                  strided section per destination), with exact
//                  per-destination element counts, so buffers are sized
//                  once with no reallocation;
//   * unpack side: the mirror image for the NEW storage.
//
// Because the plan knows the exact per-peer counts on both sides, the
// executor uses Context::alltoallv_known_into and skips the count-exchange
// collective entirely: a cached DISTRIBUTE performs exactly one
// all-to-all of values, at most one message per communicating pair.
//
// Successive owned global indices of any DimMap occupy successive local
// storage slots (local_of is ascending-dense), so run detection only has
// to split where the destination rank changes; the innermost dimension's
// storage stride is 1 by construction (column-major allocation).
#pragma once

#include "vf/dist/distribution.hpp"
#include "vf/msg/run_plan.hpp"

namespace vf::rt {

/// Builds the plan for rank `me` of an `np`-processor machine moving an
/// array with the given ghost widths from `od` to `nd`.  Purely local: no
/// communication.
[[nodiscard]] msg::RunPlan build_redist_plan(const dist::Distribution& od,
                                             const dist::Distribution& nd,
                                             int me, int np,
                                             const dist::IndexVec& ghost_lo,
                                             const dist::IndexVec& ghost_hi);

}  // namespace vf::rt
