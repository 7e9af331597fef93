#include "vf/msg/context.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace vf::msg {

void Context::send_bytes(int dest, int tag, std::span<const std::byte> payload) {
  if (dest < 0 || dest >= nprocs()) {
    throw std::out_of_range("send_bytes: bad destination rank");
  }
  auto& st = stats();
  st.data_messages++;
  st.data_bytes += payload.size();
  st.add_peer(dest, payload.size());
  m_->deliver(rank_, dest, tag, /*ctl=*/false,
              {payload.begin(), payload.end()});
}

void Context::send_ctl_bytes(int dest, int tag,
                             std::span<const std::byte> payload) {
  if (dest < 0 || dest >= nprocs()) {
    throw std::out_of_range("send_ctl_bytes: bad destination rank");
  }
  auto& st = stats();
  st.ctl_messages++;
  st.ctl_bytes += payload.size();
  m_->deliver(rank_, dest, tag, /*ctl=*/true,
              {payload.begin(), payload.end()});
}

void Context::check_src(const char* op, int src) const {
  if (src != kAnySource && (src < 0 || src >= nprocs())) {
    throw std::out_of_range(std::string(op) + ": bad source rank " +
                            std::to_string(src));
  }
}

void Context::check_root(int root) const {
  if (root < 0 || root >= nprocs()) {
    throw std::invalid_argument("broadcast: root " + std::to_string(root) +
                                " outside [0, P) with P = " +
                                std::to_string(nprocs()));
  }
}

std::vector<std::byte> Context::recv_bytes(int src, int tag) {
  check_src("recv_bytes", src);
  return m_->mailbox(rank_).pop(src, tag).payload;
}

void Context::recv_bytes_into(int src, int tag, std::span<std::byte> dst) {
  check_src("recv_bytes_into", src);
  const Message m = m_->mailbox(rank_).pop(src, tag);
  if (m.payload.size() != dst.size()) {
    throw std::runtime_error(
        "recv_bytes_into: payload size does not match the pre-agreed count");
  }
  if (!dst.empty()) std::memcpy(dst.data(), m.payload.data(), dst.size());
}

int Context::begin_exchange(ExchangeLane& lane) {
  if (lane.peers() != nprocs()) {
    throw std::invalid_argument(
        "begin_exchange: lane was prepared for a different rank count");
  }
  const int tag = next_coll_tag();
  stats().collectives++;
  if (lockstep_on()) {
    // The per-peer byte geometry ([0,np) out, [np,2np) in) joins the
    // signature; the staging buffer is sized once, then reused.
    const auto np = static_cast<std::size_t>(nprocs());
    auto& c = lockstep_counts_;
    c.resize(2 * np);
    for (std::size_t p = 0; p < np; ++p) {
      c[p] = lane.send_bytes(static_cast<int>(p)).size();
      c[np + p] = lane.recv_bytes(static_cast<int>(p)).size();
    }
    m_->lockstep().record(rank_, LockstepOp::Exchange, tag, 1,
                          std::exchange(lockstep_note_, 0),
                          std::span<const std::uint64_t>(c.data(), np),
                          std::span<const std::uint64_t>(c.data() + np, np));
  }
  m_->transport().begin(*this, lane, tag);
  // The lane now has publications in flight: if this rank unwinds before
  // end_exchange (split-phase window), the lane's destructor withdraws
  // them so no peer reads freed memory.
  lane.note_published(&m_->transport(), rank_, tag);
  return tag;
}

void Context::end_exchange(ExchangeLane& lane, int tag) {
  // Fill lane.recv(peer).  When the transport already received in place
  // (mailbox: `bytes` IS the lane's recv buffer) the copy is skipped;
  // when `bytes` aliases the peer's send buffer (shared memory) this
  // memcpy is the entire receive-side cost.
  end_exchange(lane, tag, [&lane](int peer, std::span<const std::byte> bytes) {
    const auto dst = lane.recv_bytes(peer);
    if (bytes.data() != dst.data()) {
      std::memcpy(dst.data(), bytes.data(), bytes.size());
    }
  });
}

void Context::end_exchange_impl(ExchangeLane& lane, int tag,
                                PeerConsumer& consume) {
  // Local slot: delivered by consume, never through the transport.  Both
  // sides of the local transfer are pinned by the same inspector product,
  // so a size disagreement is a caller bug, not a peer protocol violation.
  {
    const auto src = lane.send_bytes(rank_);
    const auto dst = lane.recv_bytes(rank_);
    if (src.size() != dst.size()) {
      throw std::logic_error("end_exchange: local send/recv sizes disagree");
    }
    if (!src.empty()) consume.consume(rank_, src);
  }
  m_->transport().end(*this, lane, tag, consume);
  // All publications acked and retired; nothing left for the lane's
  // destructor to withdraw.  (On the throw path the transport's own
  // abort handling already reclaimed them; the destructor's repeat
  // withdraw is an idempotent no-op.)
  lane.note_retired();
}

void Context::alltoallv_known_into(ExchangeLane& lane) {
  end_exchange(lane, begin_exchange(lane));
}

Message Context::recv_msg(int src, int tag) {
  check_src("recv_msg", src);
  return m_->mailbox(rank_).pop(src, tag);
}

void Context::barrier() {
  // The collectives bump happens inside barrier_wait, under the barrier
  // lock: it is the one counter a rank touches while a barrier-bracketed
  // machine-wide reset_stats()/total_stats() may run on another thread.
  if (lockstep_on()) lockstep_record(LockstepOp::Barrier, 0, 0);
  m_->barrier_wait(rank_);
}

void Context::abort(const std::string& reason) {
  m_->fence().trip(rank_, reason);
  throw RankAbort(rank_, reason);
}

}  // namespace vf::msg
