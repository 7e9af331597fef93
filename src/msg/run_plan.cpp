#include "vf/msg/run_plan.hpp"

#include <cassert>
#include <cstring>

namespace vf::msg {

namespace {

/// Stable counting sort of one side's runs by peer into CSR form, with
/// the per-peer element totals.
void group(const RunPlanBuilder::Side& side, std::size_t np,
           std::vector<RunPlan::Run>& out, std::vector<std::uint32_t>& start,
           std::vector<std::uint64_t>& counts) {
  const std::vector<std::uint32_t>& peers = side.peers;
  start.assign(np + 1, 0);
  counts.assign(np, 0);
  for (std::size_t k = 0; k < peers.size(); ++k) {
    ++start[peers[k] + 1];
    counts[peers[k]] += side.runs[k].length;
  }
  for (std::size_t p = 0; p < np; ++p) start[p + 1] += start[p];
  out.resize(peers.size());
  std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
  for (std::size_t k = 0; k < peers.size(); ++k) {
    out[next[peers[k]]++] = side.runs[k];
  }
}

}  // namespace

RunPlan RunPlanBuilder::finish() const {
  RunPlan plan;
  const auto n = static_cast<std::size_t>(np);
  group(pack, n, plan.pack, plan.pack_start, plan.send_counts);
  group(unpack, n, plan.unpack, plan.unpack_start, plan.recv_counts);
  return plan;
}

void pack(const RunPlan& plan, const std::byte* storage, ExchangeLane& lane) {
  lane.prepare(plan.send_counts, plan.recv_counts);
  const std::size_t elem = lane.elem_size();
  for (int p = 0; p < lane.peers(); ++p) {
    std::byte* out = lane.send_bytes(p).data();
    for (const RunPlan::Run& run : plan.pack_runs(p)) {
      const std::size_t n = run.length * elem;
      std::memcpy(out, storage + run.offset * elem, n);
      out += n;
    }
  }
}

void unpack(const RunPlan& plan, int peer, std::span<const std::byte> payload,
            std::byte* storage, std::size_t elem_size) {
  assert(payload.size() ==
         plan.recv_counts[static_cast<std::size_t>(peer)] * elem_size);
  const std::byte* in = payload.data();
  for (const RunPlan::Run& run : plan.unpack_runs(peer)) {
    const std::size_t n = run.length * elem_size;
    std::memcpy(storage + run.offset * elem_size, in, n);
    in += n;
  }
}

}  // namespace vf::msg
