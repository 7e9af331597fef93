// The virtual distributed-memory machine.
//
// This is the substrate substitution documented in DESIGN.md section 5: the
// paper ran on Intel iPSC-class hardware; we run P virtual processors as P
// host threads, each with private local memory (whatever the per-rank code
// allocates) and a message-passing fabric with buffered sends.  All
// communication is metered per rank (CommStats) and priced by a CostModel,
// so the experiments can report machine-independent message counts/volumes
// as well as modeled time.
//
// The machine also owns the failure-containment layer (fault.hpp): an abort
// fence every blocking primitive checks, an optional recv watchdog, and a
// seeded fault-injection plan applied on the single delivery path deliver().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "vf/msg/cost_model.hpp"
#include "vf/msg/fault.hpp"
#include "vf/msg/lockstep.hpp"
#include "vf/msg/mailbox.hpp"
#include "vf/msg/transport.hpp"

namespace vf::msg {

/// Shared state of a P-processor virtual machine.  Construct once, then run
/// SPMD programs on it with run_spmd() (see spmd.hpp).  Thread-safe, and
/// reusable after a failed run: run_spmd() calls reset_failure_state() once
/// every rank has been joined.
class Machine {
 public:
  /// Creates a machine with `nprocs` virtual processors.  nprocs >= 1.
  ///
  /// `transport` selects how the counted exchange (the begin/end_exchange
  /// pair, which alltoallv and alltoallv_known_into run too) moves lane
  /// buffers:
  ///
  ///   * TransportKind::Mailbox (default) -- every payload serializes
  ///     into a mailbox frame through deliver(), carrying the full
  ///     failure-containment stack (per-link sequence numbers, checksums,
  ///     fault injection);
  ///   * TransportKind::SharedMemory -- counted exchanges hand lane
  ///     buffers off pointer-wise between rank threads (an on-node halo
  ///     exchange is two memcpys, no frame serialization).  All OTHER
  ///     traffic still rides deliver(), and the zero-copy rendezvous is
  ///     fence-registered and watchdog-aware, so aborts and deadlock
  ///     reports work unchanged.
  ///
  /// The default comes from the VF_TRANSPORT environment variable
  /// ("mailbox" | "shm"; unset means mailbox) -- the switch CI's
  /// transport-matrix job flips to run the whole suite over both.  Both
  /// transports are constructed up front; set_transport() swaps between
  /// them at any point with no SPMD run in flight.
  explicit Machine(int nprocs, CostModel cm = {},
                   TransportKind transport = default_transport_kind());

  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept { return cm_; }

  [[nodiscard]] Mailbox& mailbox(int rank);

  /// Rank `rank`'s own counters, bumped by that rank's thread without
  /// synchronization on the send hot path.  The machine-wide accessors
  /// (total_stats, max_rank_modeled_us, reset_stats) are safe from
  /// outside a run; from INSIDE an SPMD body they are safe only when
  /// bracketed by barriers -- the leading barrier orders every rank's
  /// prior traffic before the access, the trailing barrier holds peers
  /// back until it completes, and the barrier's own collectives count is
  /// taken under the barrier lock precisely so this idiom stays
  /// race-free (see barrier_wait).
  [[nodiscard]] CommStats& stats(int rank);

  /// The active counted-exchange transport (see the constructor docs).
  [[nodiscard]] Transport& transport() noexcept { return *active_transport_; }
  [[nodiscard]] TransportKind transport_kind() const noexcept {
    return active_transport_->kind();
  }
  /// Switches the active transport.  Only safe with no SPMD run in
  /// flight; in-flight split-phase exchanges must complete under the
  /// transport they began on.
  void set_transport(TransportKind k) noexcept;

  /// Sum of all per-rank statistics.  Serialized under the barrier lock;
  /// see stats() for when a machine-wide read is safe.
  [[nodiscard]] CommStats total_stats() const;

  /// Maximum over ranks of modeled communication time -- the machine-level
  /// communication critical path under the simple model where each rank's
  /// traffic serializes at its own network interface.
  [[nodiscard]] double max_rank_modeled_us() const;

  void reset_stats();

  /// The single delivery path: frames the payload (per-link sequence
  /// number; checksum on control messages always and on data messages when
  /// a fault plan is active), consults the fault plan, and pushes into the
  /// destination mailbox.  Called on the sending rank's thread; throws
  /// RankAbort if the push detects a frame-integrity violation.
  void deliver(int src, int dest, int tag, bool ctl,
               std::vector<std::byte> payload);

  /// Sense-reversing barrier across all nprocs() ranks.  `rank` (when >= 0)
  /// is recorded in the blocked-state registry for watchdog reports.
  /// Throws RankAbort once the fence trips, or on watchdog expiry.
  void barrier_wait(int rank = -1);

  // ---- failure containment ------------------------------------------------

  [[nodiscard]] AbortFence& fence() noexcept { return fence_; }
  [[nodiscard]] const AbortFence& fence() const noexcept { return fence_; }

  /// Arms (zero disarms) the recv watchdog: the deadline on every blocking
  /// receive and barrier wait.  Set while no SPMD run is in flight.
  void set_recv_watchdog(std::chrono::milliseconds d) noexcept {
    fence_.set_watchdog(d);
  }

  /// Cumulative fence trips (0 across any healthy run).
  [[nodiscard]] std::uint64_t fence_trips() const noexcept {
    return fence_.trips();
  }

  /// Arms (or disarms) the lockstep checker: every collective folds an
  /// op signature into a per-rank hash chain and cross-checks its peers'
  /// records, so collective order / count divergence surfaces
  /// deterministically as a LockstepMismatch naming the first diverging
  /// op instead of a watchdog timeout.  Defaults to the VF_LOCKSTEP
  /// environment variable ("1"/"on" arms it).  Set while no SPMD run is
  /// in flight.
  void set_lockstep_check(bool on) { lockstep_.set_enabled(on); }
  [[nodiscard]] bool lockstep_check() const noexcept {
    return lockstep_.enabled();
  }
  [[nodiscard]] LockstepChecker& lockstep() noexcept { return lockstep_; }

  /// Installs a fault-injection plan (FaultKind::None clears it) and
  /// rewinds the delivery / injected-fault counters.  Set while no SPMD
  /// run is in flight.
  void set_fault_plan(const FaultPlan& plan) noexcept;
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return plan_; }

  /// Machine-wide deliveries performed since the last set_fault_plan()
  /// (the coordinate space of FaultPlan::nth).
  [[nodiscard]] std::uint64_t deliveries() const noexcept {
    return deliveries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t faults_injected() const noexcept {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  /// Clears all failure state -- fence, queued and parked frames, link
  /// sequence numbers, barrier arrival count -- so the machine can run
  /// again after an aborted SPMD run.  Only safe with no rank running.
  void reset_failure_state();

  /// The per-rank report of the most recent failed run_spmd() on this
  /// machine (FailureReport::any_failed == false if the last run, or no
  /// run yet, completed cleanly).
  [[nodiscard]] FailureReport last_failure_report() const;
  void set_last_failure_report(FailureReport r);

 private:
  int nprocs_;
  CostModel cm_;
  AbortFence fence_;  // before boxes_: mailboxes register wakes with it
  LockstepChecker lockstep_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;

  // Both transports live for the machine's lifetime (the shared-memory
  // one registers fence wake-ups at construction, which cannot be
  // undone); switching only swaps the active pointer.
  std::unique_ptr<Transport> mailbox_transport_;
  std::unique_ptr<Transport> shm_transport_;
  Transport* active_transport_ = nullptr;

  // Stats are padded to their own cache lines: every send bumps the
  // sender's counters and ranks run concurrently.
  struct alignas(64) PaddedStats {
    CommStats s;
  };
  std::vector<PaddedStats> stats_;

  // mutable: the machine-wide stats readers (const) serialize against the
  // barrier's own collectives bump under this lock.
  mutable std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;

  // Sender-side per-link sequence counters, indexed src * nprocs + dest.
  // Row `src` is touched only by rank src's thread during a run; reset
  // only happens with no rank running.
  std::vector<std::uint64_t> link_seq_;

  FaultPlan plan_;  // written only while no run is in flight
  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> faults_injected_{0};

  struct ParkedFrame {
    int dest;
    Message m;
  };
  std::mutex parked_mu_;
  std::vector<ParkedFrame> parked_;  // frames held in flight by Delay faults

  mutable std::mutex report_mu_;
  FailureReport report_;
};

}  // namespace vf::msg
