// The exchange lane: the persistent per-peer byte buffers behind the one
// counted exchange (Context::begin_exchange / end_exchange).
//
// The inspector/executor argument (paper Section 3.2, PARTI [15]) only
// holds if replaying a schedule or plan costs pure data motion, so the
// buffers of a replay must not be allocated per call.  Each replaying
// owner holds one lane directly -- a DistArrayBase (DISTRIBUTE replay and
// halo exchange), a parti::Schedule (gather/scatter/scatter_add) and a
// Context (the allreduce fan-in):
//
//   * bytes, not elements: prepare() takes the element size of the
//     exchange at hand, so one schedule may alternate double and int
//     arrays, and the lane keeps the capacity of the largest geometry;
//   * std::vector keeps capacity across shrinks, so once a lane has seen
//     the largest exchange of its replay loop, prepare() is
//     allocation-free;
//   * instrumented: the lane counts prepare() calls and capacity growths
//     (grow_allocs).  A warmed-up replay loop shows grow_allocs == 0 --
//     the allocs_per_replay counter the benches emit and CI gates.
//     (The mailbox transport still copies payloads internally; the
//     counters measure executor-side buffer allocations.)
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "vf/msg/transport.hpp"

namespace vf::msg {

/// Per-peer send and receive byte buffers of one counted exchange, kept
/// warm across replays.  A per-rank object; no synchronization.
class ExchangeLane {
 public:
  struct Stats {
    /// prepare() calls (== executor replays that used the lane).
    std::uint64_t prepares = 0;
    /// Heap allocations performed by the lane: every buffer capacity
    /// growth.  A warmed-up replay loop holds this at zero -- the
    /// allocs_per_replay == 0 contract CI gates.
    std::uint64_t grow_allocs = 0;
  };

  ExchangeLane() = default;
  // A copy starts empty: scratch is transient replay state that rebuilds
  // itself on first use, and duplicating warmed buffers across owners
  // has no meaning.  A move keeps the warm buffers; a publication in
  // flight aliases those buffers, so it travels with them.
  ExchangeLane(const ExchangeLane&) noexcept {}
  ExchangeLane& operator=(const ExchangeLane&) noexcept {
    return *this = ExchangeLane{};
  }
  ExchangeLane(ExchangeLane&& o) noexcept { take(o); }
  ExchangeLane& operator=(ExchangeLane&& o) noexcept {
    if (this != &o) {
      abandon_pending();
      take(o);
    }
    return *this;
  }
  ~ExchangeLane() { abandon_pending(); }

  /// Element size of the last prepare() (0 before the first).
  [[nodiscard]] std::size_t elem_size() const noexcept { return elem_size_; }
  [[nodiscard]] int peers() const noexcept {
    return static_cast<int>(send_.size());
  }

  /// Sizes the per-peer buffers for one exchange of `elem_size`-byte
  /// elements: send_counts[d] / recv_counts[s] are ELEMENT counts (the
  /// pre-agreed counts of the exchange; both vectors must have equal
  /// length, one entry per rank).  Buffer contents are unspecified
  /// afterwards -- the caller packs the send side and the transport fills
  /// the receive side.  Capacity is kept across calls, so a repeat
  /// exchange of the same (or smaller) byte geometry performs no heap
  /// allocation.
  void prepare(std::span<const std::uint64_t> send_counts,
               std::span<const std::uint64_t> recv_counts,
               std::size_t elem_size);

  /// Typed views of one peer's buffers (sized by the last prepare()).
  /// The view's element size must be the last prepare()'s: anything else
  /// would silently reinterpret bytes (asserted in debug builds).
  template <typename T>
  [[nodiscard]] std::span<T> send(int peer) noexcept {
    check_type<T>();
    assert(sizeof(T) == elem_size_);
    auto& b = send_[static_cast<std::size_t>(peer)];
    return {reinterpret_cast<T*>(b.data()), b.size() / sizeof(T)};
  }
  template <typename T>
  [[nodiscard]] std::span<const T> recv(int peer) const noexcept {
    check_type<T>();
    assert(sizeof(T) == elem_size_);
    const auto& b = recv_[static_cast<std::size_t>(peer)];
    return {reinterpret_cast<const T*>(b.data()), b.size() / sizeof(T)};
  }

  /// Raw byte views (what the executors pack and the transport
  /// reads/writes).
  [[nodiscard]] std::span<std::byte> send_bytes(int peer) noexcept {
    return send_[static_cast<std::size_t>(peer)];
  }
  [[nodiscard]] std::span<const std::byte> send_bytes(int peer) const noexcept {
    return send_[static_cast<std::size_t>(peer)];
  }
  [[nodiscard]] std::span<std::byte> recv_bytes(int peer) noexcept {
    return recv_[static_cast<std::size_t>(peer)];
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  /// Internal (Context::begin_exchange): remembers that this lane's send
  /// buffers are published to `tx` under `tag` until the matching
  /// end_exchange retires them.  If the lane is destroyed or re-prepared
  /// with the publication outstanding -- a rank unwinding out of a
  /// split-phase exchange -- the publication is withdrawn first, so no
  /// peer is left reading freed memory.  The transport must outlive the
  /// pending window; Machine keeps its transports for its own lifetime.
  void note_published(Transport* tx, int rank, int tag) noexcept {
    pending_tx_ = tx;
    pending_rank_ = rank;
    pending_tag_ = tag;
  }
  /// Internal (Context::end_exchange): the exchange completed (or the
  /// transport already withdrew on its abort path); nothing is pending.
  void note_retired() noexcept { pending_tx_ = nullptr; }

 private:
  void take(ExchangeLane& o) noexcept {
    stats_ = std::exchange(o.stats_, Stats{});
    elem_size_ = o.elem_size_;
    send_ = std::move(o.send_);
    recv_ = std::move(o.recv_);
    pending_tx_ = std::exchange(o.pending_tx_, nullptr);
    pending_rank_ = o.pending_rank_;
    pending_tag_ = o.pending_tag_;
  }

  void abandon_pending() noexcept {
    if (pending_tx_ != nullptr) {
      pending_tx_->withdraw(pending_rank_, pending_tag_);
      pending_tx_ = nullptr;
    }
  }

  template <typename T>
  static void check_type() noexcept {
    static_assert(std::is_trivially_copyable_v<T>,
                  "exchange lanes hold trivially copyable elements only");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned element types are not supported");
  }

  /// resize() that counts a grow_alloc when the buffer's remembered
  /// capacity is insufficient (i.e. the resize heap-allocates).
  template <typename V>
  void grow_resize(V& v, std::size_t n) {
    if (v.capacity() < n) ++stats_.grow_allocs;
    v.resize(n);
  }

  Stats stats_;
  std::size_t elem_size_ = 0;
  std::vector<std::vector<std::byte>> send_;
  std::vector<std::vector<std::byte>> recv_;

  // In-flight publication of the send buffers (split-phase window
  // between begin_exchange and end_exchange); see note_published.
  Transport* pending_tx_ = nullptr;
  int pending_rank_ = -1;
  int pending_tag_ = -1;
};

inline void ExchangeLane::prepare(std::span<const std::uint64_t> send_counts,
                                  std::span<const std::uint64_t> recv_counts,
                                  std::size_t elem_size) {
  if (send_counts.size() != recv_counts.size()) {
    throw std::invalid_argument(
        "ExchangeLane::prepare: send/recv count vectors differ in length");
  }
  if (elem_size == 0) {
    throw std::invalid_argument("ExchangeLane::prepare: zero element size");
  }
  // Re-preparing over an abandoned split-phase exchange (the caller
  // caught the abort and reuses the lane): reclaim the published buffers
  // before resizing them out from under a peer.
  abandon_pending();
  ++stats_.prepares;
  elem_size_ = elem_size;
  const std::size_t np = send_counts.size();
  grow_resize(send_, np);
  grow_resize(recv_, np);
  for (std::size_t p = 0; p < np; ++p) {
    grow_resize(send_[p], static_cast<std::size_t>(send_counts[p]) * elem_size);
    grow_resize(recv_[p], static_cast<std::size_t>(recv_counts[p]) * elem_size);
  }
}

}  // namespace vf::msg
