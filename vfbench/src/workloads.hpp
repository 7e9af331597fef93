// The benchmark's four workloads (paper Section 4 scenarios), written as
// step loops over the library's public API so every layer is timed from
// outside, at the call into it.
//
// A run is a sequence of episodes.  One episode constructs a fresh
// P-rank Machine, sets the workload up, runs `steps` bulk-synchronous
// steps (each ends in a barrier) and gathers the final state, which the
// caller compares bitwise against the sequential reference of the same
// workload.  Every episode of a run uses the same seeded inputs, so one
// reference serves all of them.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "trace.hpp"
#include "vf/dist/index.hpp"
#include "vf/msg/cost_model.hpp"

namespace vfbench {

/// Rank threads per Machine: the paper's p^2 processor array with p = 2.
inline constexpr int kRanks = 4;

enum class Kind { Smooth9, Adi, AdiGather, AmrChurn };

struct Workload {
  Kind kind = Kind::Smooth9;
  const char* name = "";
  vf::dist::Index n = 0;  ///< grid is n x n
  int steps = 0;          ///< steps per episode
  std::uint64_t seed = 0;
};

/// The named workload at its benchmark size, or nullopt for an unknown
/// name.  `steps` may be overridden by the caller (the self-tests run
/// short episodes).
[[nodiscard]] std::optional<Workload> find_workload(std::string_view name,
                                                    std::uint64_t seed);

/// Scalar traffic counters of one rank (CommStats without the per-peer
/// vectors, so snapshots never allocate).
struct Traffic {
  std::uint64_t data_msgs = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t ctl_msgs = 0;
  std::uint64_t ctl_bytes = 0;

  [[nodiscard]] static Traffic of(const vf::msg::CommStats& s);
  [[nodiscard]] vf::msg::CommStats as_stats() const;
  Traffic& operator+=(const Traffic& o);
  friend Traffic operator-(Traffic a, const Traffic& b);
};

/// Public cache and registry counters of one rank over the step loop
/// (the Env and arrays are fresh per episode).
struct Counters {
  std::uint64_t halo_hits = 0, halo_misses = 0, halo_evictions = 0;
  std::uint64_t halo_resident = 0;  ///< halo-plan cache bytes at loop end
  std::uint64_t redist_hits = 0, redist_misses = 0, redist_evictions = 0;
  std::uint64_t reg_hits = 0, reg_misses = 0, reg_swept = 0;
  std::uint64_t reg_resident = 0;  ///< registry bytes at loop end
  std::uint64_t bind_hits = 0, bind_misses = 0;

  Counters& operator+=(const Counters& o);
};

struct RankLog {
  /// Barrier release times: [0] opens the step loop, [k + 1] ends step k.
  std::vector<std::int64_t> release_ns;
  /// This rank thread's CPU time from its creation through the first
  /// step (rank threads are created per episode).
  std::int64_t setup_cpu_ns = 0;
  // Over the warm steps (every step after the first, cold one):
  std::int64_t warm_cpu_ns = 0;  ///< this rank thread's CPU time
  Traffic warm;                  ///< traffic this rank sent
  std::vector<std::uint64_t> peer_msgs;   ///< per destination
  std::vector<std::uint64_t> peer_bytes;  ///< per destination
  Counters counters;
  std::vector<Span> spans;  ///< traced episodes only
};

struct Episode {
  std::int64_t start_ns = 0;  ///< just before the Machine is constructed
  /// CPU time of the calling thread across Machine construction, rank
  /// thread creation and joining.
  std::int64_t main_cpu_ns = 0;
  std::vector<RankLog> ranks;
  std::vector<double> final_state;  ///< gathered, linearized column-major

  /// Wall time from Machine construction through the first completed step.
  [[nodiscard]] double setup_wall_s() const {
    return static_cast<double>(ranks[0].release_ns[1] - start_ns) * 1e-9;
  }
  /// CPU time of the same set-up, summed over every thread involved.
  [[nodiscard]] double setup_cpu_s() const {
    std::int64_t ns = main_cpu_ns;
    for (const RankLog& r : ranks) ns += r.setup_cpu_ns;
    return static_cast<double>(ns) * 1e-9;
  }
};

/// Runs one episode (collective over a fresh Machine of kRanks ranks).
[[nodiscard]] Episode run_episode(const Workload& w, bool traced);

/// The sequential reference of the workload's final state: a plain 9-point
/// sweep built on apps::smooth9_combine, a plain ADI built on
/// apps::tridiag (shared by adi and adi_gather), apps::soak_reference.
[[nodiscard]] std::vector<double> reference(const Workload& w);

/// Checks attempted and failed: fail_ratio = failed / attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs one episode and compares its final state bitwise with `ref`.  A
/// differing state or a thrown exception counts as a failed check (the
/// latter returns nullopt).
[[nodiscard]] std::optional<Episode> checked_episode(
    const Workload& w, bool traced, const std::vector<double>& ref,
    Tally& tally);

/// Kernel bytes per step, computed from array sizes (one read of every
/// input element and one write of every output element per sweep).
[[nodiscard]] double kernel_bytes_per_step(const Workload& w);

}  // namespace vfbench
