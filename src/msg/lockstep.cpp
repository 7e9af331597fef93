#include "vf/msg/lockstep.hpp"

#include <stdexcept>

namespace vf::msg {

const char* to_string(LockstepOp op) {
  switch (op) {
    case LockstepOp::None:
      return "none";
    case LockstepOp::Barrier:
      return "barrier";
    case LockstepOp::Broadcast:
      return "broadcast";
    case LockstepOp::Allreduce:
      return "allreduce";
    case LockstepOp::Allgather:
      return "allgather";
    case LockstepOp::Exchange:
      return "exchange";
  }
  return "?";
}

LockstepChecker::LockstepChecker(int nprocs, AbortFence* fence)
    : nprocs_(nprocs), fence_(fence) {}

void LockstepChecker::set_enabled(bool on) {
  if (on && ranks_.empty()) {
    // One-time arming allocation; nothing allocates per op afterwards.
    std::vector<RankState> rs(static_cast<std::size_t>(nprocs_));
    for (auto& r : rs) {
      r.ring = std::vector<Slot>(kRing);
      r.counts = std::vector<std::atomic<std::uint64_t>>(
          kRing * 2 * static_cast<std::size_t>(nprocs_));
    }
    ranks_ = std::move(rs);
  }
  reset();
  enabled_.store(on, std::memory_order_release);
}

void LockstepChecker::reset() {
  for (auto& r : ranks_) {
    r.nops.store(0, std::memory_order_relaxed);
    r.chain = 0;
    r.barrier_chain = 0;
    r.barrier_ops = 0;
    for (auto& s : r.ring) s.seq.store(kNoSlot, std::memory_order_relaxed);
    for (auto& c : r.counts) c.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t LockstepChecker::ops(int rank) const {
  if (ranks_.empty()) return 0;
  return ranks_[static_cast<std::size_t>(rank)].nops.load(
      std::memory_order_acquire);
}

std::uint64_t LockstepChecker::chain(int rank) const {
  // Owner-thread or quiescent-machine use only (tests call it after
  // run_spmd joined every rank).
  if (ranks_.empty()) return 0;
  return ranks_[static_cast<std::size_t>(rank)].chain;
}

std::string LockstepChecker::describe(LockstepOp op, int tag,
                                      std::uint32_t elem, std::uint64_t note,
                                      std::uint64_t seq) const {
  std::string s = "{collective #";
  s += std::to_string(seq);
  s += ": ";
  s += to_string(op);
  s += " tag=";
  s += std::to_string(tag);
  if (elem != 0) {
    s += " elem=";
    s += std::to_string(elem);
  }
  if (note != 0) {
    s += " note=";
    s += std::to_string(note);
  }
  s += "}";
  return s;
}

void LockstepChecker::fail(int rank, int peer, std::uint64_t seq,
                           std::string mine, std::string theirs,
                           std::string why) {
  mismatches_.fetch_add(1, std::memory_order_relaxed);
  std::string reason = "lockstep mismatch at collective #" +
                       std::to_string(seq) + ": rank " +
                       std::to_string(rank) + " recorded " + mine +
                       " but rank " + std::to_string(peer) + " recorded " +
                       theirs + (why.empty() ? "" : " -- " + why);
  fence_->trip(rank, reason);
  throw LockstepMismatch(rank, peer, seq, std::move(mine), std::move(theirs),
                         reason);
}

void LockstepChecker::record(int rank, LockstepOp op, int tag,
                             std::uint32_t elem_size, std::uint64_t note,
                             std::span<const std::uint64_t> out_bytes,
                             std::span<const std::uint64_t> in_bytes) {
  const auto np = static_cast<std::size_t>(nprocs_);
  RankState& me = ranks_[static_cast<std::size_t>(rank)];
  const std::uint64_t seq = me.nops.load(std::memory_order_relaxed);
  const bool counted = !out_bytes.empty();

  // Signature: everything SPMD-uniform about the op.  Per-peer counts are
  // NOT folded (each rank legitimately holds a different row of the
  // count matrix); they are published raw and checked pairwise below.
  std::uint64_t sig = mix64(static_cast<std::uint64_t>(op));
  sig = mix64(sig ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  sig = mix64(sig ^ elem_size);
  sig = mix64(sig ^ note);

  // Publish my slot: invalidate, write fields, release the sequence
  // number, then advance the op counter.  Peers that read a slot
  // mid-write see seq == kNoSlot (or a stale seq) and skip it.
  Slot& slot = me.ring[seq % kRing];
  slot.seq.store(kNoSlot, std::memory_order_release);
  slot.sig.store(sig, std::memory_order_relaxed);
  slot.op.store(static_cast<int>(op), std::memory_order_relaxed);
  slot.tag.store(tag, std::memory_order_relaxed);
  slot.elem.store(elem_size, std::memory_order_relaxed);
  slot.note.store(note, std::memory_order_relaxed);
  slot.counted.store(counted, std::memory_order_relaxed);
  if (counted) {
    const std::size_t base = (seq % kRing) * 2 * np;
    for (std::size_t p = 0; p < np; ++p) {
      me.counts[base + p].store(out_bytes[p], std::memory_order_relaxed);
      me.counts[base + np + p].store(in_bytes[p], std::memory_order_relaxed);
    }
  }
  slot.seq.store(seq, std::memory_order_release);
  me.chain = mix64(me.chain ^ sig);
  me.nops.store(seq + 1, std::memory_order_release);

  // Cross-check: because every rank publishes before comparing, for any
  // diverging pair at op `seq` the later-publishing rank is guaranteed
  // to see the earlier one's slot -- detection is deterministic, not a
  // race.  A slot whose seq does not match is a peer that has not
  // reached (or has long passed) this op; the barrier chain compare
  // backstops that case.
  for (std::size_t q = 0; q < np; ++q) {
    if (static_cast<int>(q) == rank) continue;
    RankState& peer = ranks_[q];
    Slot& ps = peer.ring[seq % kRing];
    if (ps.seq.load(std::memory_order_acquire) != seq) continue;
    const std::uint64_t p_sig = ps.sig.load(std::memory_order_relaxed);
    const int p_op = ps.op.load(std::memory_order_relaxed);
    const int p_tag = ps.tag.load(std::memory_order_relaxed);
    const std::uint32_t p_elem = ps.elem.load(std::memory_order_relaxed);
    const std::uint64_t p_note = ps.note.load(std::memory_order_relaxed);
    const bool p_counted = ps.counted.load(std::memory_order_relaxed);
    std::uint64_t p_out_to_me = 0;
    std::uint64_t p_in_from_me = 0;
    if (p_counted) {
      const std::size_t base = (seq % kRing) * 2 * np;
      p_out_to_me = peer.counts[base + static_cast<std::size_t>(rank)].load(
          std::memory_order_relaxed);
      p_in_from_me =
          peer.counts[base + np + static_cast<std::size_t>(rank)].load(
              std::memory_order_relaxed);
    }
    if (ps.seq.load(std::memory_order_acquire) != seq) continue;  // torn

    if (p_sig != sig || p_counted != counted) {
      fail(rank, static_cast<int>(q), seq,
           describe(op, tag, elem_size, note, seq),
           describe(static_cast<LockstepOp>(p_op), p_tag, p_elem, p_note,
                    seq),
           "collective order or geometry diverged");
    }
    if (counted) {
      if (p_out_to_me != in_bytes[q]) {
        fail(rank, static_cast<int>(q), seq,
             describe(op, tag, elem_size, note, seq) + " expecting " +
                 std::to_string(in_bytes[q]) + " bytes from rank " +
                 std::to_string(q),
             describe(op, p_tag, p_elem, p_note, seq) + " sending " +
                 std::to_string(p_out_to_me) + " bytes to rank " +
                 std::to_string(rank),
             "pre-agreed counts diverged");
      }
      if (p_in_from_me != out_bytes[q]) {
        fail(rank, static_cast<int>(q), seq,
             describe(op, tag, elem_size, note, seq) + " sending " +
                 std::to_string(out_bytes[q]) + " bytes to rank " +
                 std::to_string(q),
             describe(op, p_tag, p_elem, p_note, seq) + " expecting " +
                 std::to_string(p_in_from_me) + " bytes from rank " +
                 std::to_string(rank),
             "pre-agreed counts diverged");
      }
    }
  }
}

std::string LockstepChecker::stage_barrier(int rank, bool last) {
  // Caller holds the machine's barrier mutex: the plain chain/ops reads
  // and barrier_* writes below are ordered by it.
  RankState& me = ranks_[static_cast<std::size_t>(rank)];
  me.barrier_chain = me.chain;
  me.barrier_ops = me.nops.load(std::memory_order_relaxed);
  if (!last) return {};
  const RankState& r0 = ranks_.front();
  for (std::size_t q = 1; q < ranks_.size(); ++q) {
    const RankState& rq = ranks_[q];
    if (rq.barrier_ops != r0.barrier_ops ||
        rq.barrier_chain != r0.barrier_chain) {
      mismatches_.fetch_add(1, std::memory_order_relaxed);
      return "lockstep chain divergence at barrier: rank 0 arrived with " +
             std::to_string(r0.barrier_ops) + " collectives (chain " +
             std::to_string(r0.barrier_chain) + ") but rank " +
             std::to_string(q) + " arrived with " +
             std::to_string(rq.barrier_ops) + " (chain " +
             std::to_string(rq.barrier_chain) +
             "): the ranks executed different collective sequences";
    }
  }
  return {};
}

}  // namespace vf::msg
