// Shared exchange scratch: the per-replay buffer arena behind every
// executor hot path (PARTI schedule gather/scatter, cached DISTRIBUTE
// replay, halo exchange).
//
// The inspector/executor argument (paper Section 3.2, PARTI [15]) only
// holds if replaying a schedule or plan costs pure data motion.  The
// run-based executors already move data with memcpy into exactly-sized
// buffers with pre-agreed counts -- but sizing those buffers with fresh
// std::vector<T>s on every call re-introduces a heap allocation per peer
// per replay.  An ExchangeScratch owns those buffers persistently:
//
//   * type-erased: buffers are raw byte storage, grouped into one
//     ExchangeLane per element size, so a single schedule can alternate
//     double and int arrays through its binding cache and each element
//     size keeps its own steady-state capacity;
//   * prepare() sizes the per-peer send/recv buffers for one exchange.
//     std::vector keeps capacity across shrinks, so once a lane has seen
//     the largest exchange of its replay loop, every further prepare()
//     is allocation-free;
//   * instrumented: the arena counts prepare() calls and actual capacity
//     growths (grow_allocs).  "Steady state" is measurable: after
//     warmup, a healthy replay loop shows grow_allocs == 0 -- the
//     allocs_per_replay counter bench_parti/bench_pic emit and CI gates.
//
// The lane's buffers pair with Context::alltoallv_known_into and the
// split-phase begin_exchange/end_exchange, which read the send side and
// fill the receive side in place instead of returning freshly allocated
// vectors.  (The mailbox transport still copies payloads through
// mailboxes internally; the counters measure executor-side buffer
// allocations, which is what the inspector/executor amortization
// argument is about.)
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "vf/msg/transport.hpp"

namespace vf::msg {

class ExchangeScratch;

/// One element-size lane of an ExchangeScratch arena: per-peer send and
/// receive byte buffers.  Obtained via ExchangeScratch::lane(); references
/// stay valid for the lifetime of the arena.
class ExchangeLane {
 public:
  [[nodiscard]] std::size_t elem_size() const noexcept { return elem_size_; }
  [[nodiscard]] int peers() const noexcept {
    return static_cast<int>(send_.size());
  }

  /// Sizes the per-peer buffers for one exchange: send_counts[d] /
  /// recv_counts[s] are ELEMENT counts (the pre-agreed counts of an
  /// alltoallv_known-style exchange; both vectors must have equal length,
  /// one entry per rank).  Buffer contents are unspecified afterwards --
  /// the caller packs the send side and the transport fills the receive
  /// side.  Capacity is kept across calls, so a repeat exchange of the
  /// same (or smaller) geometry performs no heap allocation.
  void prepare(std::span<const std::uint64_t> send_counts,
               std::span<const std::uint64_t> recv_counts);

  /// Typed views of one peer's buffers (sized by the last prepare()).
  /// The view's element size must be the lane's: mixing lanes and types
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

  ~ExchangeLane() { abandon_pending(); }

 private:
  friend class ExchangeScratch;
  ExchangeLane(ExchangeScratch* owner, std::size_t elem_size)
      : owner_(owner), elem_size_(elem_size) {}

  void abandon_pending() noexcept {
    if (pending_tx_ != nullptr) {
      pending_tx_->withdraw(pending_rank_, pending_tag_);
      pending_tx_ = nullptr;
    }
  }

  template <typename T>
  static void check_type() noexcept {
    static_assert(std::is_trivially_copyable_v<T>,
                  "exchange scratch holds trivially copyable elements only");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned element types are not supported");
  }

  /// resize() that records an arena-level grow_alloc when the buffer's
  /// remembered capacity is insufficient (i.e. the resize heap-allocates).
  void grow_resize(std::vector<std::byte>& b, std::size_t n);

  ExchangeScratch* owner_;
  std::size_t elem_size_;
  std::vector<std::vector<std::byte>> send_;
  std::vector<std::vector<std::byte>> recv_;

  // In-flight publication of the send buffers (split-phase window
  // between begin_exchange and end_exchange); see note_published.
  Transport* pending_tx_ = nullptr;
  int pending_rank_ = -1;
  int pending_tag_ = -1;
};

/// A small arena of ExchangeLanes keyed by element size, plus the
/// steady-state instrumentation counters.  One arena per replayable
/// executor owner: each parti::Schedule has one, and each DistArray has
/// one shared by DISTRIBUTE replay and halo exchange.  Per-rank objects;
/// no synchronization.
class ExchangeScratch {
 public:
  ExchangeScratch() = default;
  // Lanes carry a back-pointer to their arena (for the counters), so a
  // move must re-point them; a copy starts empty -- scratch is transient
  // replay state that rebuilds itself on first use, and sharing or
  // duplicating warmed buffers across owners has no meaning.
  ExchangeScratch(const ExchangeScratch&) noexcept {}
  ExchangeScratch& operator=(const ExchangeScratch&) noexcept {
    stats_ = Stats{};
    lanes_.clear();
    return *this;
  }
  ExchangeScratch(ExchangeScratch&& o) noexcept
      : stats_(o.stats_), lanes_(std::move(o.lanes_)) {
    adopt_lanes();
    o.stats_ = Stats{};
  }
  ExchangeScratch& operator=(ExchangeScratch&& o) noexcept {
    if (this != &o) {
      stats_ = o.stats_;
      lanes_ = std::move(o.lanes_);
      adopt_lanes();
      o.stats_ = Stats{};
    }
    return *this;
  }

  struct Stats {
    /// prepare() calls routed through this arena (== executor replays
    /// that used the facility).
    std::uint64_t prepares = 0;
    /// Heap allocations performed by the facility: lane creation plus
    /// every buffer capacity growth.  A warmed-up replay loop holds this
    /// at zero -- the allocs_per_replay == 0 contract CI gates.
    std::uint64_t grow_allocs = 0;
  };

  /// The lane for `elem_size`, created on first use.  Lanes are few (one
  /// per element size ever exchanged), so lookup is a linear scan.
  [[nodiscard]] ExchangeLane& lane(std::size_t elem_size) {
    for (const auto& l : lanes_) {
      if (l->elem_size_ == elem_size) return *l;
    }
    if (elem_size == 0) {
      throw std::invalid_argument("ExchangeScratch: zero element size");
    }
    ++stats_.grow_allocs;  // lane construction is itself an allocation
    lanes_.push_back(
        std::unique_ptr<ExchangeLane>(new ExchangeLane(this, elem_size)));
    return *lanes_.back();
  }

  [[nodiscard]] std::size_t n_lanes() const noexcept { return lanes_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

 private:
  friend class ExchangeLane;

  void adopt_lanes() noexcept {
    for (const auto& l : lanes_) l->owner_ = this;
  }

  Stats stats_;
  std::vector<std::unique_ptr<ExchangeLane>> lanes_;
};

inline void ExchangeLane::grow_resize(std::vector<std::byte>& b,
                                      std::size_t n) {
  if (b.capacity() < n) ++owner_->stats_.grow_allocs;
  b.resize(n);
}

inline void ExchangeLane::prepare(std::span<const std::uint64_t> send_counts,
                                  std::span<const std::uint64_t> recv_counts) {
  if (send_counts.size() != recv_counts.size()) {
    throw std::invalid_argument(
        "ExchangeLane::prepare: send/recv count vectors differ in length");
  }
  // Re-preparing over an abandoned split-phase exchange (the caller
  // caught the abort and reuses the lane): reclaim the published buffers
  // before resizing them out from under a peer.
  abandon_pending();
  ++owner_->stats_.prepares;
  const std::size_t np = send_counts.size();
  if (send_.capacity() < np) ++owner_->stats_.grow_allocs;
  send_.resize(np);
  if (recv_.capacity() < np) ++owner_->stats_.grow_allocs;
  recv_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    grow_resize(send_[p], static_cast<std::size_t>(send_counts[p]) *
                              elem_size_);
    grow_resize(recv_[p], static_cast<std::size_t>(recv_counts[p]) *
                              elem_size_);
  }
}

}  // namespace vf::msg
