// The one plan format and the one executor of the run-based data motion:
// the DISTRIBUTE statement's redistribution (paper Section 3.2.2) and the
// overlap-area exchange (Section 3.2.1) both work the data motion out once
// from the distribution, as a RunPlan, and replay it through pack/unpack.
//
// A RunPlan lists, per side, the contiguous spans ("runs") of this rank's
// local storage that travel to (pack) or arrive from (unpack) each peer,
// grouped by peer in CSR form: peer p's runs are
// pack[pack_start[p], pack_start[p+1]).  Within one peer the runs keep the
// enumeration order both sides of the transfer agree on, so the sender's
// packed buffer and the receiver's unpack walk consume the same elements
// in the same order and only values travel.  The per-peer element counts
// are the pre-agreed counts of the counted exchange
// (Context::alltoallv_known_into / begin_exchange), so replaying a plan
// needs no count collective.
//
// The executor is element-type independent: a run is an element offset and
// length, scaled by the lane's element size into one memcpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vf/msg/exchange_scratch.hpp"

namespace vf::msg {

struct RunPlan {
  /// One contiguous span of local storage; the peer is the CSR slot the
  /// run sits in.
  struct Run {
    std::size_t offset;  ///< element offset into local storage
    std::size_t length;  ///< run length in elements
  };

  std::vector<Run> pack;                  ///< send runs, grouped by peer
  std::vector<std::uint32_t> pack_start;  ///< np + 1 offsets into pack
  std::vector<Run> unpack;                ///< receive runs, grouped by peer
  std::vector<std::uint32_t> unpack_start;  ///< np + 1 offsets into unpack
  std::vector<std::uint64_t> send_counts;   ///< elements sent to each peer
  std::vector<std::uint64_t> recv_counts;   ///< elements received from each

  [[nodiscard]] std::span<const Run> pack_runs(int peer) const noexcept {
    const auto p = static_cast<std::size_t>(peer);
    return {pack.data() + pack_start[p], pack.data() + pack_start[p + 1]};
  }
  [[nodiscard]] std::span<const Run> unpack_runs(int peer) const noexcept {
    const auto p = static_cast<std::size_t>(peer);
    return {unpack.data() + unpack_start[p],
            unpack.data() + unpack_start[p + 1]};
  }

  /// Heap + inline bytes this plan holds (cache byte budgeting).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(RunPlan) +
           (pack.capacity() + unpack.capacity()) * sizeof(Run) +
           (pack_start.capacity() + unpack_start.capacity()) *
               sizeof(std::uint32_t) +
           (send_counts.capacity() + recv_counts.capacity()) *
               sizeof(std::uint64_t);
  }
};

/// Assembles a RunPlan from the runs a plan builder emits in its
/// enumeration order, each tagged with its peer.  finish() groups each
/// side by peer with one stable counting pass, so every peer's runs keep
/// their emission order.
struct RunPlanBuilder {
  /// The runs of one side, in emission order.
  struct Side {
    std::vector<RunPlan::Run> runs;
    std::vector<std::uint32_t> peers;

    void add(int peer, std::size_t offset, std::size_t length) {
      runs.push_back({offset, length});
      peers.push_back(static_cast<std::uint32_t>(peer));
    }
  };

  int np;
  Side pack;
  Side unpack;

  [[nodiscard]] RunPlan finish() const;
};

/// Executor, send half: sizes the lane for the plan's counts and fills
/// each peer's send buffer with its runs of `storage`, in order.
void pack(const RunPlan& plan, const std::byte* storage, ExchangeLane& lane);

/// Executor, receive half: scatters one peer's payload into `storage`
/// along that peer's unpack runs.
void unpack(const RunPlan& plan, int peer, std::span<const std::byte> payload,
            std::byte* storage, std::size_t elem_size);

}  // namespace vf::msg
