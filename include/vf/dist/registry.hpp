// Hash-consed distribution descriptors (paper Sections 2.2 and 3.2.2).
//
// The DISTRIBUTE statement makes distributions first-class run-time values
// that are compared, cached and passed across procedure boundaries.  The
// DistRegistry makes those values cheap: it interns Distribution objects
// (together with their per-dimension DimMaps and processor sections; index
// domains are kMaxRank-bounded trivially copyable values that need no
// sharing) into immutable shared DistHandles, so that
//
//   * descriptor equality is pointer identity (one integer compare);
//   * a DISTRIBUTE of a previously-seen distribution costs a hash lookup
//     -- O(rank) thanks to IndirectTable's precomputed content hashes --
//     instead of an owner-table copy plus a DimMap::indirect rebuild;
//   * downstream caches (redistribution plans, PARTI schedule bindings,
//     procedure interface matching) key on handle identity, with no
//     fingerprint-collision re-verification on any hot path.
//
// Structural verification happens exactly once, at admission time; after
// that, two handles are equal iff their distributions are structurally
// equal.  One registry lives in each rt::Env (registries are per virtual
// processor and not thread-safe).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vf/dist/distribution.hpp"
#include "vf/halo/spec.hpp"

namespace vf::dist {

class DistRegistry;

/// Shared immutable reference to an interned Distribution.  Equality is
/// pointer identity; uid() is a small dense id (unique per registry, 0
/// only for the null handle) that downstream caches pack into flat integer
/// keys.
class DistHandle {
 public:
  DistHandle() = default;

  [[nodiscard]] const Distribution& operator*() const noexcept { return *p_; }
  [[nodiscard]] const Distribution* operator->() const noexcept {
    return p_.get();
  }
  [[nodiscard]] const Distribution* get() const noexcept { return p_.get(); }
  [[nodiscard]] const DistributionPtr& ptr() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  /// Dense registry id; 0 only for the null handle.
  [[nodiscard]] std::uint32_t uid() const noexcept { return uid_; }

  friend bool operator==(const DistHandle&, const DistHandle&) = default;
  friend bool operator==(const DistHandle& h, std::nullptr_t) noexcept {
    return h.p_ == nullptr;
  }

 private:
  friend class DistRegistry;
  DistHandle(DistributionPtr p, std::uint32_t uid)
      : p_(std::move(p)), uid_(uid) {}

  DistributionPtr p_;
  std::uint32_t uid_ = 0;
};

/// Interning traffic counters (reported per bench run as registry_* in
/// BENCH_<name>.json), plus the byte accounting that makes long-run
/// growth measurable rather than asserted.
struct RegistryStats {
  std::uint64_t hits = 0;            ///< whole-distribution intern hits
  std::uint64_t misses = 0;          ///< whole-distribution admissions
  std::uint64_t dim_map_hits = 0;    ///< per-dimension map intern hits
  std::uint64_t dim_map_misses = 0;  ///< per-dimension map admissions
  std::uint64_t halo_spec_hits = 0;    ///< halo-spec intern hits
  std::uint64_t halo_spec_misses = 0;  ///< halo-spec admissions
  std::uint64_t halo_family_hits = 0;    ///< halo-family intern hits
  std::uint64_t halo_family_misses = 0;  ///< halo-family admissions
  std::uint64_t resident_bytes = 0;  ///< approx bytes held by live interns
  std::uint64_t swept = 0;           ///< entries reclaimed across all sweeps
  std::uint64_t pinned = 0;          ///< entries kept by the LAST sweep
};

class DistRegistry {
 public:
  DistRegistry() = default;
  DistRegistry(const DistRegistry&) = delete;
  DistRegistry& operator=(const DistRegistry&) = delete;

  /// Interns the distribution `type` would induce on `dom` over `sec`.
  /// On a hit nothing is constructed: the key is hashed (O(rank), owner
  /// tables contribute precomputed hashes), the bucket candidate is
  /// verified component-wise, and the existing handle is returned.  On a
  /// miss the distribution is built from interned sections and dimension
  /// maps and admitted.
  [[nodiscard]] DistHandle intern(const IndexDomain& dom,
                                  const DistributionType& type,
                                  const ProcessorSection& sec);
  [[nodiscard]] DistHandle intern(const IndexDomain& dom,
                                  const DistributionType& type,
                                  ProcessorSectionPtr sec);

  /// Post-hoc interning of an already-constructed distribution (alignment
  /// CONSTRUCT results and other explicit-map forms): structurally keyed;
  /// `d` is dropped when an equal distribution is already interned.
  [[nodiscard]] DistHandle intern(Distribution d);

  /// Canonicalizes an already-shared distribution: a hit returns the
  /// interned handle, a miss admits the pointer as-is (no copy).
  [[nodiscard]] DistHandle intern(DistributionPtr d);

  /// The per-dimension map `dd` induces on `r` over `nprocs` coordinates,
  /// shared across every interned distribution that uses it.
  [[nodiscard]] DimMapPtr intern_dim_map(const DimDist& dd, Range r,
                                         int nprocs);

  [[nodiscard]] ProcessorSectionPtr intern_section(const ProcessorSection& s);

  /// Interns a halo (overlap) spec alongside the distributions: spec
  /// equality becomes handle identity, and the (DistHandle uid, HaloSpec
  /// uid) pair keys the run-based halo-plan cache as one flat integer.
  [[nodiscard]] halo::HaloHandle intern(const halo::HaloSpec& s);

  /// Interns a reconciled per-rank spec family (the product of the
  /// plan-time spec exchange, see halo/exchange.hpp).  Members must be
  /// handles interned in THIS registry, so family equality reduces to
  /// element-wise handle identity and the (DistHandle uid, family uid)
  /// pair keys asymmetric halo plans the same way the (DistHandle uid,
  /// HaloSpec uid) pair keys uniform ones.
  [[nodiscard]] halo::FamilyHandle intern_family(
      std::vector<halo::HaloHandle> specs);

  [[nodiscard]] const RegistryStats& stats() const noexcept { return stats_; }
  /// Zeroes the traffic counters; resident_bytes describes entries that
  /// still exist and survives the reset.
  void reset_stats() noexcept {
    const std::uint64_t resident = stats_.resident_bytes;
    stats_ = RegistryStats{};
    stats_.resident_bytes = resident;
  }

  /// Number of interned distributions.
  [[nodiscard]] std::size_t size() const noexcept { return dists_.size(); }

  /// Epoch-based reclamation: drops every intern nothing outside the
  /// registry still references (a bucket entry is pinned iff some live
  /// array, cached plan, schedule binding or user handle shares its
  /// pointer).  Order matters: distributions retire before the dimension
  /// maps/sections they reference, families before their member specs, so
  /// components unshared after this pass are reclaimed in the same call.
  /// Advances epoch(); uids are NEVER reused across sweeps (or clear()),
  /// so uid-keyed memos can never alias a retired descriptor.  Returns
  /// the number of entries reclaimed; stats().swept accumulates it and
  /// stats().pinned snapshots what this sweep kept.
  std::size_t sweep();

  /// Number of completed sweeps.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Drops everything (pinned or not -- external handles keep their
  /// referents alive independently) and resets stats: counters describe
  /// current contents, and after a clear there are none.  uid counters
  /// stay monotonic, exactly as under sweep().
  void clear();

 private:
  struct DimMapEntry {
    DimDist dd;  // shares the owner table: cheap to keep as the key
    Range r;
    int np = 1;
    DimMapPtr map;
  };

  /// The interns of one kind, bucketed by structural fingerprint (vectors
  /// absorb collisions).  Each entry keeps the bytes it was charged, so a
  /// sweep credits back exactly the admission's charge.
  template <typename Entry>
  class Table {
   public:
    /// The first entry in `key`'s bucket for which same(entry) holds.
    template <typename Same>
    [[nodiscard]] const Entry* find(std::uint64_t key, Same&& same) const;
    /// Stores `e` charged `bytes` to stats.resident_bytes.
    const Entry& admit(std::uint64_t key, Entry e, std::size_t bytes,
                       RegistryStats& stats);
    /// Drops every entry whose shared pointer (shared(entry)) nothing
    /// outside the table references; returns how many.
    template <typename Shared>
    std::size_t sweep(Shared&& shared, RegistryStats& stats);
    void clear() noexcept {
      buckets_.clear();
      size_ = 0;
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    struct Slot {
      Entry entry;
      std::size_t bytes;
    };
    std::unordered_map<std::uint64_t, std::vector<Slot>> buckets_;
    std::size_t size_ = 0;
  };

  [[nodiscard]] DistHandle admit(DistributionPtr d, std::uint64_t key);

  RegistryStats stats_;
  std::uint64_t epoch_ = 0;
  std::uint32_t next_uid_ = 1;
  std::uint32_t next_halo_uid_ = 1;
  std::uint32_t next_family_uid_ = 1;

  Table<DistHandle> dists_;
  Table<DimMapEntry> dim_maps_;
  Table<ProcessorSectionPtr> sections_;
  Table<halo::HaloHandle> halos_;
  Table<halo::FamilyHandle> halo_families_;
};

}  // namespace vf::dist
