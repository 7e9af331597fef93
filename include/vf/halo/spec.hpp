// HaloSpec: the overlap (ghost) description of the paper's OVERLAP
// annotation (Section 3.1 "overlap areas") promoted to a first-class
// interned value, the way distributions already are.
//
// A HaloSpec records, per array dimension, the lower and upper ghost
// widths plus whether diagonal (corner) ghost regions are maintained --
// the difference between a 5-point and a 9-point stencil on a
// (BLOCK, BLOCK) grid.  Specs are interned through dist::DistRegistry
// alongside distributions, so spec equality is pointer identity and the
// (DistHandle uid, HaloSpec uid) pair is a flat integer key for the
// run-based halo-plan cache (see halo/plan.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vf/dist/hash.hpp"
#include "vf/dist/index.hpp"

namespace vf::dist {
class DistRegistry;
}  // namespace vf::dist

namespace vf::halo {

/// Per-dimension ghost widths plus the corners flag.  Immutable after
/// construction; rank 0 means "no overlap areas at all".
class HaloSpec {
 public:
  HaloSpec() = default;

  /// lo[d] / hi[d] are the ghost plane counts below / above this rank's
  /// segment in dimension d; both vectors must have the same rank and
  /// non-negative entries.  `corners` requests diagonal ghost regions
  /// (every direction with more than one non-zero offset) in addition to
  /// the faces.
  HaloSpec(dist::IndexVec lo, dist::IndexVec hi, bool corners = false);

  /// The all-zero spec of the given rank (faces nor corners).
  [[nodiscard]] static HaloSpec none(int rank);

  [[nodiscard]] int rank() const noexcept {
    return static_cast<int>(lo_.size());
  }
  [[nodiscard]] dist::Index lo(int d) const noexcept { return lo_[d]; }
  [[nodiscard]] dist::Index hi(int d) const noexcept { return hi_[d]; }
  [[nodiscard]] const dist::IndexVec& lo_vec() const noexcept { return lo_; }
  [[nodiscard]] const dist::IndexVec& hi_vec() const noexcept { return hi_; }
  [[nodiscard]] bool corners() const noexcept { return corners_; }

  /// Whether every width is zero (no ghost storage, exchange is a no-op).
  [[nodiscard]] bool empty() const noexcept;

  /// Structural hash (the registry's interning bucket key).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  [[nodiscard]] std::string to_string() const;

  /// Bytes held (all storage is inline; registry byte accounting).
  [[nodiscard]] static constexpr std::size_t footprint_bytes() noexcept {
    return sizeof(HaloSpec);
  }

  friend bool operator==(const HaloSpec&, const HaloSpec&) = default;

 private:
  dist::IndexVec lo_;
  dist::IndexVec hi_;
  bool corners_ = false;
};

using HaloSpecPtr = std::shared_ptr<const HaloSpec>;

/// Shared immutable reference to an interned HaloSpec.  Like DistHandle:
/// equality is pointer identity, uid() is a small dense per-registry id (0
/// for the null handle and for unregistered wrappers) that plan caches
/// pack into flat integer keys.
class HaloHandle {
 public:
  HaloHandle() = default;

  [[nodiscard]] const HaloSpec& operator*() const noexcept { return *p_; }
  [[nodiscard]] const HaloSpec* operator->() const noexcept {
    return p_.get();
  }
  [[nodiscard]] const HaloSpec* get() const noexcept { return p_.get(); }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  [[nodiscard]] std::uint32_t uid() const noexcept { return uid_; }
  [[nodiscard]] bool interned() const noexcept { return uid_ != 0; }

  /// Wraps a spec without interning (uid 0; never hits identity caches).
  [[nodiscard]] static HaloHandle wrap(HaloSpec s) {
    return HaloHandle(std::make_shared<const HaloSpec>(std::move(s)), 0);
  }

  friend bool operator==(const HaloHandle&, const HaloHandle&) = default;

 private:
  friend class vf::dist::DistRegistry;
  HaloHandle(HaloSpecPtr p, std::uint32_t uid) : p_(std::move(p)), uid_(uid) {}

  HaloSpecPtr p_;
  std::uint32_t uid_ = 0;
};

/// The reconciled per-rank overlap description of one distributed array:
/// one interned HaloSpec handle per rank of the machine, in rank order.
///
/// Uniform SPMD programs declare the same spec everywhere and never build
/// a family (the local handle alone keys every cache, as before this type
/// existed).  Adaptive codes -- a refinement front widening ghost zones
/// only where it currently sits -- declare per-rank specs; the plan-time
/// spec exchange (halo/exchange.hpp) allgathers every rank's widths and
/// reconciles them into a HaloFamily, so the send side of a halo plan can
/// pack exactly what each neighbour's spec demands.
///
/// Reconciliation detects uniformity: a family whose per-rank handles are
/// all identical reports uniform(), and callers fall back to the uniform
/// plan path and the pre-family (DistHandle uid, HaloSpec uid) cache key.
class HaloFamily {
 public:
  HaloFamily() = default;

  /// One interned handle per rank (all non-null, same rank).  Throws on an
  /// empty vector, a null member or mismatched spec ranks.
  explicit HaloFamily(std::vector<HaloHandle> specs);

  [[nodiscard]] int nprocs() const noexcept {
    return static_cast<int>(specs_.size());
  }
  [[nodiscard]] const HaloHandle& handle_of(int rank) const noexcept {
    return specs_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const HaloSpec& spec_of(int rank) const noexcept {
    return *specs_[static_cast<std::size_t>(rank)];
  }

  /// All per-rank handles identical: the family degenerates to one spec
  /// and callers keep the uniform fast path and cache key.
  [[nodiscard]] bool uniform() const noexcept { return uniform_; }
  /// Every rank's spec has all-zero widths (exchange is a no-op).
  [[nodiscard]] bool empty() const noexcept { return empty_; }

  /// Structural hash over the member specs (the registry's interning
  /// bucket key).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  [[nodiscard]] std::string to_string() const;

  /// Bytes held, excluding the member specs the registry accounts in its
  /// own halo bucket (registry byte accounting).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(HaloFamily) + specs_.capacity() * sizeof(HaloHandle);
  }

  /// Element-wise handle identity: families built from handles interned in
  /// the same registry compare structurally through it.
  friend bool operator==(const HaloFamily&, const HaloFamily&) = default;

 private:
  std::vector<HaloHandle> specs_;
  bool uniform_ = true;
  bool empty_ = true;
};

using HaloFamilyPtr = std::shared_ptr<const HaloFamily>;

/// Shared immutable reference to an interned HaloFamily, mirroring
/// HaloHandle: equality is pointer identity, uid() is a small dense
/// per-registry id (0 for null / unregistered wrappers) that the halo-plan
/// cache packs into flat integer keys alongside the distribution uid.
class FamilyHandle {
 public:
  FamilyHandle() = default;

  [[nodiscard]] const HaloFamily& operator*() const noexcept { return *p_; }
  [[nodiscard]] const HaloFamily* operator->() const noexcept {
    return p_.get();
  }
  [[nodiscard]] const HaloFamily* get() const noexcept { return p_.get(); }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  [[nodiscard]] std::uint32_t uid() const noexcept { return uid_; }
  [[nodiscard]] bool interned() const noexcept { return uid_ != 0; }

  /// Wraps a family without interning (uid 0; never hits identity caches).
  [[nodiscard]] static FamilyHandle wrap(HaloFamily f) {
    return FamilyHandle(std::make_shared<const HaloFamily>(std::move(f)), 0);
  }

  friend bool operator==(const FamilyHandle&, const FamilyHandle&) = default;

 private:
  friend class vf::dist::DistRegistry;
  FamilyHandle(HaloFamilyPtr p, std::uint32_t uid)
      : p_(std::move(p)), uid_(uid) {}

  HaloFamilyPtr p_;
  std::uint32_t uid_ = 0;
};

}  // namespace vf::halo
