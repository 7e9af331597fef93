// The runtime lockstep checker: deterministic detection of SPMD
// collective divergence.
//
// The SPMD contract (context.hpp) is that every rank calls every
// collective the same number of times in the same order with compatible
// geometry.  A violation today surfaces as a hang (caught only by the
// recv watchdog, which can name where everyone is stuck but not *why*) or
// as a frame-integrity abort far from the cause.  When armed
// (Machine::set_lockstep_check / VF_LOCKSTEP), every rank:
//
//   * folds a per-op signature -- op kind, tag, element size, and an
//     SPMD-uniform note (distribution / halo-family uids supplied by the
//     rt layer) -- into a per-rank hash chain, and
//   * publishes the signature plus the op's per-peer byte counts into a
//     lock-free ring slot indexed by the op's sequence number, then
//     cross-checks every peer's slot for the SAME sequence number.
//
// Because every rank publishes before it compares, the later-arriving
// rank of any diverging pair is guaranteed to see the other's record:
// a mismatched collective order, tag or count surfaces deterministically
// as a structured LockstepMismatch naming the first diverging op, before
// anyone blocks on the wire.  Barriers additionally compare the full
// chains (under the barrier mutex), a backstop for divergences whose
// ring slots were overwritten by deep pipelining.
//
// TSan discipline: every cross-thread field is a std::atomic.  Slots use
// an invalidate/publish protocol (seq := kNoSlot, fields, seq := n with
// release; readers acquire-validate seq on both sides of the field
// reads), so a torn slot is *skipped*, never misread.  The chain and op
// counter are owner-written; peers read them only under the barrier
// mutex, whose happens-before makes the plain reads safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vf/msg/fault.hpp"

namespace vf::msg {

/// Collective kinds the checker distinguishes (the signature's op field).
enum class LockstepOp : int {
  None = 0,
  Barrier,
  Broadcast,
  Allreduce,
  Allgather,
  Exchange,  ///< the counted exchange (begin_exchange; alltoallv too)
};

[[nodiscard]] const char* to_string(LockstepOp op);

/// The structured divergence error: a RankAbort (so it propagates through
/// the fence and run_spmd type-preserved) carrying which collective
/// diverged and both ranks' recorded signatures.
struct LockstepMismatch : RankAbort {
  LockstepMismatch(int origin, int peer_rank, std::uint64_t op_index,
                   std::string mine_, std::string theirs_,
                   const std::string& why)
      : RankAbort(origin, why),
        peer(peer_rank),
        op_seq(op_index),
        mine(std::move(mine_)),
        theirs(std::move(theirs_)) {}

  int peer;              ///< the rank whose record disagreed
  std::uint64_t op_seq;  ///< 0-based index of the first diverging op
  std::string mine;      ///< origin rank's recorded signature
  std::string theirs;    ///< peer's recorded signature
};

/// Per-Machine lockstep state.  Thread-safe; zero-cost while disabled
/// (one relaxed load on the Context fast path, no memory until the first
/// enable).
class LockstepChecker {
 public:
  /// Ring depth per rank: how far one rank may run ahead of another
  /// before per-op cross-checks degrade to the barrier chain backstop.
  /// Every collective with a receive leg bounds the skew far below this;
  /// only fire-and-forget broadcast roots can pipeline past it.
  static constexpr std::uint64_t kRing = 16;
  static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

  LockstepChecker(int nprocs, AbortFence* fence);

  /// Arms or disarms the checker.  First enable allocates the rings;
  /// every enable/disable resets the chains.  Set with no SPMD run in
  /// flight.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one collective entered by `rank` and cross-checks every
  /// peer's record of the same op index.  `out_bytes` / `in_bytes`,
  /// when non-empty, are the op's per-peer byte counts (size nprocs)
  /// and are checked pairwise: peer.out[rank] must equal in_bytes[peer]
  /// and vice versa.  `note` is any SPMD-uniform extra folded into the
  /// signature (collapsed plan / distribution uids).  On divergence
  /// trips the fence and throws LockstepMismatch.  Precondition:
  /// enabled().
  void record(int rank, LockstepOp op, int tag, std::uint32_t elem_size,
              std::uint64_t note, std::span<const std::uint64_t> out_bytes,
              std::span<const std::uint64_t> in_bytes);

  /// Barrier piggyback, called under the machine's barrier mutex: stages
  /// `rank`'s chain and op count; when `last` (the completing arriver)
  /// also compares every staged chain and returns a non-empty divergence
  /// description on mismatch (the caller trips the fence and throws
  /// after unlocking).
  [[nodiscard]] std::string stage_barrier(int rank, bool last);

  /// Ops recorded by `rank` since the last reset (test/bench observability).
  [[nodiscard]] std::uint64_t ops(int rank) const;
  /// `rank`'s current hash chain (equal across ranks iff in lockstep).
  [[nodiscard]] std::uint64_t chain(int rank) const;
  /// Cumulative mismatches detected (0 across any healthy run).
  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_.load(std::memory_order_relaxed);
  }

  /// Clears chains, rings and staged barrier state (keeps the enabled
  /// flag and the cumulative mismatch counter).  Only safe with no rank
  /// running; Machine::reset_failure_state calls it.
  void reset();

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{kNoSlot};
    std::atomic<std::uint64_t> sig{0};
    std::atomic<int> op{0};
    std::atomic<int> tag{0};
    std::atomic<std::uint32_t> elem{0};
    std::atomic<std::uint64_t> note{0};
    std::atomic<bool> counted{false};
  };

  struct alignas(64) RankState {
    std::atomic<std::uint64_t> nops{0};
    /// Owner-written; peers read only under the barrier mutex.
    std::uint64_t chain = 0;
    /// Staged at barrier arrival (under the barrier mutex).
    std::uint64_t barrier_chain = 0;
    std::uint64_t barrier_ops = 0;
    std::vector<Slot> ring;  ///< kRing slots
    /// Per-slot pairwise geometry, kRing * 2 * nprocs entries:
    /// slot i's out counts at [i*2*np, i*2*np+np), in counts after.
    std::vector<std::atomic<std::uint64_t>> counts;
  };

  [[nodiscard]] std::string describe(LockstepOp op, int tag,
                                     std::uint32_t elem, std::uint64_t note,
                                     std::uint64_t seq) const;

  [[noreturn]] void fail(int rank, int peer, std::uint64_t seq,
                         std::string mine, std::string theirs,
                         std::string why);

  int nprocs_;
  AbortFence* fence_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> mismatches_{0};
  std::vector<RankState> ranks_;  ///< allocated on first enable
};

}  // namespace vf::msg
