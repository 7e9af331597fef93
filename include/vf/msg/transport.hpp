// The pluggable transport layer under counted exchanges.
//
// The one counted exchange -- the split-phase begin_exchange /
// end_exchange pair, which alltoallv_known_into and the vector
// alltoallv / alltoallv_known also run -- moves ExchangeLane buffers
// between ranks.  HOW those bytes move is a Transport decision:
//
//   * MailboxTransport (the default) serializes every payload into a
//     mailbox frame through Machine::deliver -- the fully metered path
//     that carries per-link sequence numbers, checksums, the recv
//     watchdog and the fault-injection plan.
//   * ShmTransport exploits that all ranks of the virtual machine share
//     one address space: a counted exchange hands the sender's lane
//     buffer off POINTER-WISE (publish pointer, peer reads it in place),
//     so an on-node halo exchange is two memcpys total -- pack into the
//     lane and unpack out of the peer's lane -- with no frame
//     serialization, no queueing and no intermediate copy.
//
// Only counted exchanges ride the transport.  Point-to-point sends, the
// other collectives (alltoallv's count allgather included) and control
// traffic always travel through Machine::deliver,
// so frame integrity, fault injection and the abort fence stay effective
// under either transport; the shared-memory rendezvous waits are
// fence-registered and watchdog-aware themselves, so a RankAbort fires
// cleanly even mid-exchange.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

namespace vf::msg {

class AbortFence;
class Context;
class ExchangeLane;

/// The available transport implementations.  Selection: per Machine at
/// construction (or via Machine::set_transport between runs); the
/// process-wide default comes from the VF_TRANSPORT environment variable
/// (see default_transport_kind), which is how the CI transport matrix
/// runs the whole test suite over both implementations.
enum class TransportKind {
  Mailbox,       ///< frame-serializing mailbox fabric (default)
  SharedMemory,  ///< zero-copy pointer hand-off between rank threads
};

[[nodiscard]] const char* to_string(TransportKind k) noexcept;

/// Reads VF_TRANSPORT ("mailbox" | "shm"/"shared"/"shared-memory"/
/// "shared_memory"; unset or empty means mailbox) and returns the
/// corresponding kind.  Throws std::invalid_argument on anything else --
/// a typo must not silently fall back to the default in a CI matrix job.
[[nodiscard]] TransportKind default_transport_kind();

/// Receives one peer's payload of a counted exchange.  end_exchange
/// delivers each non-empty expected payload exactly once through this
/// interface; `bytes` is only valid for the duration of the call (under
/// the zero-copy transport it aliases the PEER's send buffer).
class PeerConsumer {
 public:
  virtual void consume(int peer, std::span<const std::byte> bytes) = 0;

 protected:
  ~PeerConsumer() = default;
};

/// One counted-exchange transport of a Machine.  Implementations handle
/// the REMOTE slots only; the local slot is copied (or consumed) by
/// Context::end_exchange before the transport runs.  Thread-safe across
/// ranks: begin/end are called concurrently from every rank's thread.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const noexcept = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Initiates rank ctx.rank()'s side of one counted exchange: makes
  /// every non-empty remote send buffer of `lane` available to its
  /// destination under `tag` and returns without waiting for any
  /// receiver.  The lane's send buffers must stay untouched until the
  /// matching end() returns (the zero-copy transport's peers read them
  /// in place).
  virtual void begin(Context& ctx, ExchangeLane& lane, int tag) = 0;

  /// Completes the exchange begun under `tag`: delivers each non-empty
  /// expected remote payload (lane.recv_bytes(s).size() is the pre-agreed
  /// byte count from rank s) to `consume`, in ascending source-rank
  /// order, then releases the lane's send buffers for reuse.  Blocking;
  /// wakes with a RankAbort once the machine's fence trips, and honours
  /// the recv watchdog.
  virtual void end(Context& ctx, ExchangeLane& lane, int tag,
                   PeerConsumer& consume) = 0;

  /// Reclaims rank `me`'s publications under `tag` WITHOUT completing the
  /// exchange: erases records no peer has started consuming and waits out
  /// any consumer currently reading one, so the lane buffers the records
  /// alias may be freed.  Called during abort unwinding -- a rank dying
  /// between begin() and end(), or end() itself aborting -- and therefore
  /// must be safe to run concurrently with peers still inside end().
  /// No-op for transports that copy payloads at begin() time.
  virtual void withdraw(int /*me*/, int /*tag*/) noexcept {}

  /// Drops any in-flight exchange state (part of
  /// Machine::reset_failure_state; only safe with no rank running).
  virtual void reset() {}
};

/// Factory for the built-in transports.  The shared-memory transport
/// registers its rendezvous wake-ups with `fence` at construction, so a
/// Machine constructs its transports once and keeps them alive for its
/// own lifetime (switching transports swaps an active pointer, never
/// destroys one).
[[nodiscard]] std::unique_ptr<Transport> make_transport(TransportKind k,
                                                        AbortFence& fence,
                                                        int nprocs);

}  // namespace vf::msg
