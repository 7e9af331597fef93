// Per-rank communication context: the MPI-flavoured interface each virtual
// processor uses (point-to-point sends/recvs plus the collectives the
// Vienna Fortran Engine needs: barrier, broadcast, reductions, gathers and
// the all-to-all exchange that underlies DISTRIBUTE).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "vf/msg/exchange_scratch.hpp"
#include "vf/msg/machine.hpp"

namespace vf::msg {

/// Reduction operations supported by reduce/allreduce.
enum class ReduceOp { Sum, Min, Max, LogicalAnd, LogicalOr };

namespace detail {
template <typename T>
concept TriviallySendable = std::is_trivially_copyable_v<T>;

template <typename T>
T apply_op(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::Sum:
      return static_cast<T>(a + b);
    case ReduceOp::Min:
      return b < a ? b : a;
    case ReduceOp::Max:
      return a < b ? b : a;
    case ReduceOp::LogicalAnd:
      return static_cast<T>(a && b);
    case ReduceOp::LogicalOr:
      return static_cast<T>(a || b);
  }
  return a;
}

/// PeerConsumer adapter over a callable -- lets end_exchange take a
/// lambda without a std::function allocation.
template <typename F>
class FnConsumer final : public PeerConsumer {
 public:
  explicit FnConsumer(F& f) : f_(f) {}
  void consume(int peer, std::span<const std::byte> bytes) override {
    f_(peer, bytes);
  }

 private:
  F& f_;
};

/// Deserializes a typed payload.  The element count is derived from the
/// byte size (never from wire-carried counts), so the only failure mode
/// is a size that is not a multiple of sizeof(T).
template <typename T>
std::vector<T> bytes_to_vector(std::span<const std::byte> bytes) {
  const std::size_t n = bytes.size() / sizeof(T);
  if (n * sizeof(T) != bytes.size()) {
    throw std::runtime_error("typed recv: payload size mismatch");
  }
  std::vector<T> v(n);
  if (!v.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

/// Serializes [count, payload] frames for the `count` blocks starting
/// at ring position `start` (mod np), in ring order -- the dissemination
/// round's deterministic wire format.
template <typename T>
std::vector<std::byte> pack_ring(const std::vector<std::vector<T>>& vs,
                                 int start, int count, int np) {
  std::size_t total = 0;
  for (int j = 0; j < count; ++j) {
    const auto k = static_cast<std::size_t>((start + j) % np);
    total += sizeof(std::uint64_t) + vs[k].size() * sizeof(T);
  }
  std::vector<std::byte> blob(total);
  std::size_t off = 0;
  for (int j = 0; j < count; ++j) {
    const auto& v = vs[static_cast<std::size_t>((start + j) % np)];
    const std::uint64_t n = v.size();
    std::memcpy(blob.data() + off, &n, sizeof n);
    off += sizeof n;
    if (n != 0) {
      std::memcpy(blob.data() + off, v.data(), n * sizeof(T));
      off += n * sizeof(T);
    }
  }
  return blob;
}

/// Inverse of pack_ring: fills slots start, start+1, ... (mod np) of
/// `vs` from the blob's frames.  The per-frame element count n comes off
/// the wire, so every bound is checked with overflow-safe arithmetic: a
/// corrupt n must not wrap `off + n * sizeof(T)` past the blob size (and
/// thereby pass the truncation check into a huge resize or a read past
/// the buffer).
template <typename T>
void unpack_ring(std::span<const std::byte> blob,
                 std::vector<std::vector<T>>& vs, int start, int count,
                 int np) {
  std::size_t off = 0;
  for (int j = 0; j < count; ++j) {
    auto& v = vs[static_cast<std::size_t>((start + j) % np)];
    std::uint64_t n = 0;
    if (blob.size() - off < sizeof n) {  // off <= blob.size() invariant
      throw std::runtime_error("unpack_ring: truncated blob");
    }
    std::memcpy(&n, blob.data() + off, sizeof n);
    off += sizeof n;
    if (n > (blob.size() - off) / sizeof(T)) {
      throw std::runtime_error("unpack_ring: truncated payload");
    }
    v.resize(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(v.data(), blob.data() + off, n * sizeof(T));
    off += static_cast<std::size_t>(n) * sizeof(T);
  }
  if (off != blob.size()) {
    throw std::runtime_error("unpack_ring: trailing bytes in blob");
  }
}
}  // namespace detail

/// Handle through which rank `rank()` of a Machine communicates.
///
/// SPMD discipline: all ranks of a machine must call each collective the
/// same number of times in the same order.  Collective calls are matched by
/// an internal per-rank sequence number, so interleaving point-to-point
/// traffic with collectives is safe.
class Context {
 public:
  Context(Machine& m, int rank) : m_(&m), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nprocs() const noexcept { return m_->nprocs(); }
  [[nodiscard]] Machine& machine() const noexcept { return *m_; }
  [[nodiscard]] CommStats& stats() noexcept { return m_->stats(rank_); }
  [[nodiscard]] const CostModel& cost_model() const noexcept {
    return m_->cost_model();
  }

  // ---- point-to-point ----------------------------------------------------

  /// Buffered send of raw bytes: copies the payload into `dest`'s mailbox
  /// and returns immediately.  Counted as one data message.
  void send_bytes(int dest, int tag, std::span<const std::byte> payload);

  /// Blocking receive matching (src, tag); src may be kAnySource.  Every
  /// receive throws std::out_of_range for any other src outside
  /// [0, nprocs()) -- no message could ever match it.
  [[nodiscard]] std::vector<std::byte> recv_bytes(int src, int tag);

  /// Blocking receive that also reports the sender (useful with
  /// kAnySource).
  [[nodiscard]] Message recv_msg(int src, int tag);

  /// Counted blocking receive into caller-owned storage: the matched
  /// message's payload must be exactly dst.size() bytes (the pre-agreed
  /// count of a planned exchange); anything else is a protocol error.
  /// The executor-replay receive path -- no allocation attributable to
  /// the caller, no vector handed back.
  void recv_bytes_into(int src, int tag, std::span<std::byte> dst);

  /// Typed send/recv of contiguous trivially-copyable elements.
  template <detail::TriviallySendable T>
  void send(int dest, int tag, std::span<const T> data) {
    send_bytes(dest, tag, std::as_bytes(data));
  }

  template <detail::TriviallySendable T>
  void send_value(int dest, int tag, const T& v) {
    send(dest, tag, std::span<const T>(&v, 1));
  }

  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<T> recv(int src, int tag) {
    auto bytes = recv_bytes(src, tag);
    return detail::bytes_to_vector<T>(bytes);
  }

  template <detail::TriviallySendable T>
  [[nodiscard]] T recv_value(int src, int tag) {
    auto v = recv<T>(src, tag);
    if (v.empty()) {
      throw std::runtime_error(
          "recv_value: empty payload from src=" + std::to_string(src) +
          " tag=" + std::to_string(tag) + "; expected 1 element of " +
          std::to_string(sizeof(T)) + " bytes");
    }
    return v.front();
  }

  // ---- failure containment -------------------------------------------------

  /// Trips the machine's abort fence with this rank as the origin and
  /// throws the corresponding RankAbort: every peer blocked in a receive
  /// or barrier wakes and throws the same structured error, and run_spmd
  /// rethrows it with a per-rank report.  Use for rank-local conditions
  /// (bad input, broken invariant) that make continuing the SPMD program
  /// pointless.
  [[noreturn]] void abort(const std::string& reason);

  /// Collective sequence numbers at or below this value map to distinct
  /// negative tags (the last one to INT_MIN); next_coll_tag() throws
  /// std::overflow_error beyond it rather than reusing tags.
  static constexpr std::uint64_t kMaxCollSeq =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()) - 1;

  /// Advances the collective sequence counter without communicating --
  /// a test hook for exercising tag-space exhaustion.  All ranks of a
  /// machine must skip identically or subsequent collectives mismatch.
  void skip_coll_tags(std::uint64_t n) noexcept { coll_seq_ += n; }

  /// Folds an SPMD-uniform token (an interned distribution or halo-family
  /// uid, a plan fingerprint) into the signature of the NEXT collective
  /// this rank records when the lockstep checker is armed; a no-op (one
  /// relaxed load and a branch) otherwise.  The rt layer tags
  /// redistributions and halo exchanges this way, so a LockstepMismatch
  /// names which plan the ranks diverged on.
  void lockstep_note(std::uint64_t v) noexcept {
    if (m_->lockstep_check()) lockstep_note_ = mix64(lockstep_note_ ^ v);
  }

  // ---- collectives ---------------------------------------------------------

  /// Barrier across all ranks of the machine.
  void barrier();

  /// Broadcast `v` from `root` to all ranks; returns the root's value
  /// everywhere.
  template <detail::TriviallySendable T>
  [[nodiscard]] T broadcast(T v, int root = 0) {
    auto vec = broadcast_vec(rank_ == root
                                 ? std::vector<T>{v}
                                 : std::vector<T>{},
                             root);
    return vec.at(0);
  }

  /// Broadcast a vector from `root`; non-root input values are ignored.
  /// A root outside [0, nprocs()) throws std::invalid_argument on every
  /// rank before any tag is consumed, so later collectives still match.
  ///
  /// Binomial tree: the payload fans out over ceil(log2 P) rounds, so no
  /// rank (in particular not the root) sends more than ceil(log2 P)
  /// messages -- the modeled critical path is O(alpha log P) instead of
  /// the O(alpha P) a root-serialized broadcast costs.
  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<T> broadcast_vec(std::vector<T> v, int root = 0) {
    check_root(root);
    const int tag = next_coll_tag();
    stats().collectives++;
    if (lockstep_on()) {
      // Non-root ranks pass an empty vector, so the payload size is not
      // SPMD-uniform at entry; the root IS.
      lockstep_record(LockstepOp::Broadcast, tag,
                      static_cast<std::uint32_t>(sizeof(T)),
                      static_cast<std::uint64_t>(root) + 1);
    }
    return broadcast_tree(std::move(v), root, tag);
  }

  /// All-reduce of a single value.  Allocation-free: the value reduces
  /// in place on the stack and the fan-in rides the persistent
  /// collective scratch.
  template <detail::TriviallySendable T>
  [[nodiscard]] T allreduce(T v, ReduceOp op) {
    allreduce_inplace(std::span<T>(&v, 1), op);
    return v;
  }

  /// Element-wise all-reduce of equal-length vectors.  See
  /// allreduce_inplace for the algorithm and allocation contract.
  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<T> allreduce_vec(std::vector<T> v, ReduceOp op) {
    allreduce_inplace(std::span<T>(v), op);
    return v;
  }

  /// Element-wise all-reduce over caller-owned storage: every rank passes
  /// an equal-length span and receives the reduction in place.
  ///
  /// Binomial reduction to rank 0 followed by a binomial broadcast: every
  /// rank sends at most 1 + ceil(log2 P) messages and the critical path
  /// is O(alpha log P).  (The old implementation serialized 2(P-1)
  /// messages through rank 0.)  Reduction order is the binomial-tree
  /// combine order, deterministic for a given P.
  ///
  /// The fan-in receives each contribution into the context's persistent
  /// collective lane and the broadcast phase fills `v` directly (its
  /// length is SPMD-agreed), so a warm replay -- every reduction no
  /// larger in bytes than one already seen -- performs no heap
  /// allocation (the collective_scratch_stats() counters CI gates).
  template <detail::TriviallySendable T>
  void allreduce_inplace(std::span<T> v, ReduceOp op) {
    const int reduce_tag = next_coll_tag();
    const int bcast_tag = next_coll_tag();
    stats().collectives++;
    if (lockstep_on()) {
      // Span lengths are SPMD-agreed, so they (and the op) join the
      // signature.
      lockstep_record(LockstepOp::Allreduce, reduce_tag,
                      static_cast<std::uint32_t>(sizeof(T)),
                      mix64((static_cast<std::uint64_t>(v.size()) << 3) ^
                            static_cast<std::uint64_t>(op)));
    }
    const int np = nprocs();
    for (int mask = 1; mask < np; mask <<= 1) {
      if ((rank_ & mask) != 0) {
        // Fold my partial into the partner below and leave the tree.
        send_ctl_bytes(rank_ - mask, reduce_tag, std::as_bytes(v));
        break;
      }
      const int src = rank_ + mask;
      if (src < np) {
        // The single-peer fan-in lane: the contribution buffer that
        // replaces the per-receive bytes_to_vector allocation.
        const std::uint64_t n = v.size();
        coll_lane_.prepare(std::span<const std::uint64_t>(&n, 1),
                           std::span<const std::uint64_t>(&n, 1), sizeof(T));
        recv_bytes_into(src, reduce_tag, coll_lane_.recv_bytes(0));
        const std::span<const T> contrib = coll_lane_.recv<T>(0);
        for (std::size_t i = 0; i < v.size(); ++i) {
          v[i] = detail::apply_op(op, v[i], contrib[i]);
        }
      }
    }
    broadcast_tree_into(v, 0, bcast_tag);
  }

  /// Gather one value per rank; every rank receives the full vector,
  /// indexed by rank.
  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<T> allgather(T v) {
    auto per_rank = allgather_vec(std::vector<T>{v});
    std::vector<T> flat;
    flat.reserve(per_rank.size());
    for (auto& r : per_rank) flat.push_back(r.at(0));
    return flat;
  }

  /// Gather a (possibly differently sized) vector from each rank; every
  /// rank receives all contributions, indexed by rank.
  ///
  /// Dissemination (Bruck) algorithm: in the round with distance d, every
  /// rank ships the blocks the rank d below still lacks and receives the
  /// matching blocks from the rank d above, doubling its held prefix.
  /// After ceil(log2 P) rounds each rank holds all P contributions.  No
  /// rank ever serializes O(P) messages (the old implementation funneled
  /// everything through rank 0); every rank sends exactly ceil(log2 P)
  /// messages, so the modeled critical path is O(alpha log P + beta N).
  /// Block membership per round is deterministic, so no block headers
  /// travel -- only [count, payload] frames in rank order.
  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<std::vector<T>> allgather_vec(std::vector<T> v) {
    const int tag = next_coll_tag();
    stats().collectives++;
    if (lockstep_on()) {
      // Per-rank contribution sizes legitimately differ, so only the op,
      // tag and element size are signature material.
      lockstep_record(LockstepOp::Allgather, tag,
                      static_cast<std::uint32_t>(sizeof(T)));
    }
    const int np = nprocs();
    std::vector<std::vector<T>> all(static_cast<std::size_t>(np));
    all[static_cast<std::size_t>(rank_)] = std::move(v);
    // Invariant: before the round with distance d, every rank r holds
    // blocks {r, r+1, ..., r + min(d, P) - 1} (mod P).
    for (int d = 1; d < np; d <<= 1) {
      const int have = std::min(2 * d, np) - d;  // blocks the receiver lacks
      const int dest = (rank_ - d + np) % np;
      const int src = (rank_ + d) % np;
      send_ctl_bytes(dest, tag, detail::pack_ring(all, rank_, have, np));
      auto blob = recv_bytes(src, tag);
      detail::unpack_ring<T>(blob, all, src, have, np);
    }
    return all;
  }

  /// Personalized all-to-all: `out[d]` is the payload for rank d (out[rank()]
  /// is delivered locally without touching the network).  Returns `in` with
  /// `in[s]` = payload received from rank s.
  ///
  /// Protocol: counts are exchanged through an allgather (control traffic),
  /// then only the non-empty payloads travel as data messages -- so the
  /// data-message count matches what the paper's analysis predicts for a
  /// redistribution (at most one message per communicating processor pair).
  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<std::vector<T>> alltoallv(
      std::vector<std::vector<T>> out) {
    const int np = nprocs();
    if (static_cast<int>(out.size()) != np) {
      throw std::invalid_argument("alltoallv: out.size() != nprocs()");
    }
    // Exchange the full count matrix so each rank knows which (possibly
    // empty) payloads to expect, then run the counted exchange.
    std::vector<std::uint64_t> my_counts(static_cast<std::size_t>(np));
    for (int d = 0; d < np; ++d) {
      my_counts[static_cast<std::size_t>(d)] =
          out[static_cast<std::size_t>(d)].size();
    }
    auto counts = allgather_vec(my_counts);  // counts[s][d]
    std::vector<std::uint64_t> expected(static_cast<std::size_t>(np));
    for (int s = 0; s < np; ++s) {
      expected[static_cast<std::size_t>(s)] =
          counts[static_cast<std::size_t>(s)][static_cast<std::size_t>(rank_)];
    }
    return alltoallv_known(std::move(out),
                           std::span<const std::uint64_t>(expected));
  }

  /// Personalized all-to-all with pre-agreed counts: like alltoallv, but
  /// every rank already knows how many elements to expect from every peer
  /// (expected[s] = elements arriving from rank s), so the count-exchange
  /// collective is skipped entirely.  A thin adapter over the one counted
  /// exchange: `out` is packed into a lane that lives for this call, and
  /// each arriving payload is copied straight into its result slot (under
  /// the shared-memory transport, out of the peer's lane).
  ///
  /// The counts are a hard protocol precondition (as with MPI counted
  /// receives); see alltoallv_known_into.  Callers must derive both sides
  /// from one deterministic computation (a RunPlan or Schedule inspector,
  /// or alltoallv's count exchange), never from independent guesses.
  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<std::vector<T>> alltoallv_known(
      std::vector<std::vector<T>> out,
      std::span<const std::uint64_t> expected) {
    const auto np = static_cast<std::size_t>(nprocs());
    if (out.size() != np || expected.size() != np) {
      throw std::invalid_argument(
          "alltoallv_known: out/expected size != nprocs()");
    }
    std::vector<std::uint64_t> counts(np);
    for (std::size_t d = 0; d < np; ++d) counts[d] = out[d].size();
    ExchangeLane lane;
    lane.prepare(counts, expected, sizeof(T));
    for (std::size_t d = 0; d < np; ++d) {
      if (!out[d].empty()) {
        std::memcpy(lane.send_bytes(static_cast<int>(d)).data(),
                    out[d].data(), out[d].size() * sizeof(T));
      }
    }
    out = {};
    std::vector<std::vector<T>> in(np);
    for (std::size_t s = 0; s < np; ++s) in[s].resize(expected[s]);
    end_exchange(lane, begin_exchange(lane),
                 [&](int s, std::span<const std::byte> bytes) {
                   std::memcpy(in[static_cast<std::size_t>(s)].data(),
                               bytes.data(), bytes.size());
                 });
    return in;
  }

  /// The fully reusable counted exchange: both sides of the transfer live
  /// in one ExchangeLane the caller owns and keeps across replays.  The
  /// caller packs lane.send(d) for every destination (sizes fixed by the
  /// last prepare(); they ARE the pre-agreed send counts) and on return
  /// lane.recv(s) holds rank s's payload (its size is the pre-agreed
  /// receive count, enforced against what actually arrived).  The local
  /// slot is copied send -> recv without touching the network.
  ///
  /// This is the executor-replay transport: a warmed-up replay (cached
  /// redistribution RunPlan, PARTI executor, halo exchange) allocates
  /// nothing on either side of the exchange.  The counts are a hard
  /// protocol precondition: both ranks' lane geometries must come from
  /// one deterministic inspector product.  A payload whose size disagrees
  /// with the receiver's count raises an error, but a zero-size send a
  /// peer expects data for blocks that peer in its receive.
  void alltoallv_known_into(ExchangeLane& lane);

  // ---- split-phase counted exchange ---------------------------------------

  /// Starts a counted exchange on `lane` and returns its matching tag:
  /// the active transport ships (or publishes) every non-empty remote
  /// send buffer and returns WITHOUT waiting for anything to arrive.
  /// The caller may now compute on data unrelated to the exchange --
  /// that is the whole point -- and must eventually call end_exchange()
  /// with the returned tag.  The lane's buffers (both sides) must stay
  /// untouched until end_exchange() returns.
  ///
  /// Counts as one collective; the count precondition of
  /// alltoallv_known_into applies unchanged.  Every counted exchange of a
  /// Context -- alltoallv included -- goes through here.
  [[nodiscard]] int begin_exchange(ExchangeLane& lane);

  /// Completes a split-phase exchange: copies the local slot send->recv,
  /// then receives every expected remote payload into lane.recv(s).
  void end_exchange(ExchangeLane& lane, int tag);

  /// As above, but hands each non-empty payload (local slot included) to
  /// `consume(int peer, std::span<const std::byte> bytes)` instead of
  /// unconditionally memcpying into lane.recv(peer).  Under the
  /// shared-memory transport `bytes` aliases the PEER's send buffer --
  /// the consumer unpacks zero-copy; under the mailbox transport it is
  /// lane.recv(peer), already filled.  The consumer must not recurse
  /// into this context.
  template <typename F>
  void end_exchange(ExchangeLane& lane, int tag, F&& consume) {
    detail::FnConsumer<std::remove_reference_t<F>> c(consume);
    end_exchange_impl(lane, tag, c);
  }

  /// Counters of the persistent lane behind the allocation-free
  /// collectives (allreduce / allreduce_vec / allreduce_inplace): once a
  /// warmup reduction has seen the largest byte size, grow_allocs stays
  /// flat across replays -- the collectives-side analogue of the executor
  /// allocs_per_replay == 0 contract.
  [[nodiscard]] const ExchangeLane::Stats& collective_scratch_stats()
      const noexcept {
    return coll_lane_.stats();
  }
  void reset_collective_scratch_stats() noexcept { coll_lane_.reset_stats(); }

 private:
  /// Control-plane send: same transport, separate accounting.
  void send_ctl_bytes(int dest, int tag, std::span<const std::byte> payload);

  /// Argument checks: a receive's source rank, a broadcast's root.
  void check_src(const char* op, int src) const;
  void check_root(int root) const;

  // ---- lockstep checker plumbing ------------------------------------------
  // One relaxed load when disarmed; when armed, each collective records
  // its signature (and, for the counted exchange, its per-peer byte
  // geometry; see begin_exchange) with the machine's LockstepChecker at
  // op ENTRY -- before any byte moves -- so divergence throws here,
  // deterministically, instead of hanging in a receive.

  [[nodiscard]] bool lockstep_on() const noexcept {
    return m_->lockstep_check();
  }

  /// Records a non-counted collective, consuming the pending note.
  void lockstep_record(LockstepOp op, int tag, std::uint32_t elem,
                       std::uint64_t extra = 0) {
    const std::uint64_t note = lockstep_note_ ^ extra;
    lockstep_note_ = 0;
    m_->lockstep().record(rank_, op, tag, elem, note, {}, {});
  }

  /// Binomial-tree broadcast body shared by broadcast_vec and the
  /// broadcast phase of allreduce_vec (does not bump the collectives
  /// counter; the caller owns the tag).
  template <detail::TriviallySendable T>
  [[nodiscard]] std::vector<T> broadcast_tree(std::vector<T> v, int root,
                                              int tag) {
    const int np = nprocs();
    if (np == 1) return v;
    const int rel = (rank_ - root + np) % np;
    int mask = 1;
    while (mask < np) {
      if ((rel & mask) != 0) {
        const int src = (rel - mask + root) % np;
        v = detail::bytes_to_vector<T>(recv_bytes(src, tag));
        break;
      }
      mask <<= 1;
    }
    // Forward to children: every mask below the one that delivered (for
    // the root: below the smallest power of two >= P).
    mask >>= 1;
    while (mask > 0) {
      if (rel + mask < np) {
        const int dst = (rel + mask + root) % np;
        send_ctl_bytes(dst, tag, std::as_bytes(std::span<const T>(v)));
      }
      mask >>= 1;
    }
    return v;
  }

  /// broadcast_tree over caller-owned storage: every rank passes a span
  /// whose length equals the root's payload (SPMD-agreed), so non-root
  /// ranks receive straight into it with a counted receive -- no
  /// bytes_to_vector allocation.  Does not bump the collectives counter;
  /// the caller owns the tag.
  template <detail::TriviallySendable T>
  void broadcast_tree_into(std::span<T> v, int root, int tag) {
    const int np = nprocs();
    if (np == 1) return;
    const int rel = (rank_ - root + np) % np;
    int mask = 1;
    while (mask < np) {
      if ((rel & mask) != 0) {
        const int src = (rel - mask + root) % np;
        recv_bytes_into(src, tag, std::as_writable_bytes(v));
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (rel + mask < np) {
        const int dst = (rel + mask + root) % np;
        send_ctl_bytes(dst, tag, std::as_bytes(v));
      }
      mask >>= 1;
    }
  }

  /// Shared body of the end_exchange overloads: handles the local slot
  /// first (size check + consume), then lets the active transport drain
  /// the remote payloads through `consume`.
  void end_exchange_impl(ExchangeLane& lane, int tag, PeerConsumer& consume);

  [[nodiscard]] int next_coll_tag() {
    // Collective tags live in the negative tag space, below kAnySource:
    // tag = -2 - seq, so seq kMaxCollSeq maps to INT_MIN exactly.  Beyond
    // that the space is exhausted; wrapping would silently re-match stale
    // pending messages from collectives issued ~2^31 calls earlier, so we
    // fail loudly instead.
    if (coll_seq_ > kMaxCollSeq) {
      throw std::overflow_error(
          "Context: collective tag space exhausted after " +
          std::to_string(kMaxCollSeq + 1) + " collectives on rank " +
          std::to_string(rank_));
    }
    return -2 - static_cast<int>(coll_seq_++);
  }

  Machine* m_;
  int rank_;
  std::uint64_t coll_seq_ = 0;
  std::uint64_t lockstep_note_ = 0;
  std::vector<std::uint64_t> lockstep_counts_;
  // Persistent fan-in buffer for the allocation-free collectives.  It
  // only ever holds single-peer geometry (peers() == 1): reusing it
  // across different peer counts would shrink-and-regrow the inner
  // buffers and show up as spurious grow_allocs.
  ExchangeLane coll_lane_;
};

}  // namespace vf::msg
