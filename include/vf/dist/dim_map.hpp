// DimMap: the closed-form per-dimension ownership and addressing functions
// of a distribution (paper Section 3.2.1).  A DimMap partitions a global
// index range over nprocs processor coordinates and answers, without
// communication:
//
//   proc_of(g)     -- owner coordinate of global index g
//   local_of(g)    -- dense 0-based local index of g on its owner
//   global_of(c,l) -- inverse of local_of
//   count_on(c)    -- number of indices owned by coordinate c
//
// Local indices always enumerate a coordinate's owned set in ascending
// global order, so loc_map is a dense bijection for every kind (the
// Definition 1 invariants; see dist_dim_map_test.cpp).
//
// Side-effect-free lookups (a contract the access functions rely on): a
// DimMap is immutable once built.  proc_of, local_of, contiguous and
// segment only read it -- no lazily built tables, no memo, no mutable
// members -- and throw only for an index outside dom().  The runtime's
// cold access paths (DistArrayBase::storage_offset_cold/halo_offset_cold)
// call them from functions declared [[gnu::pure]] and noexcept, which lets
// the compiler keep an array's access state in registers across an
// owner-computes loop.  A lookup that wrote memory would make that
// declaration false and the hoisted state stale; keep any cache outside
// this class, built before the array installs the descriptor.
#pragma once

#include <optional>
#include <vector>

#include "vf/dist/index.hpp"

namespace vf::dist {

class DimMap {
 public:
  /// BLOCK: contiguous blocks of width ceil(extent / nprocs).
  [[nodiscard]] static DimMap block(Range dom, int nprocs);
  /// BLOCK(M): contiguous blocks of explicit width M; M * nprocs must
  /// cover the domain.
  [[nodiscard]] static DimMap block_width(Range dom, int nprocs, Index w);
  /// CYCLIC(k): round-robin blocks of length k.
  [[nodiscard]] static DimMap cyclic(Range dom, int nprocs, Index k);
  /// General block with explicit per-coordinate sizes (must sum to the
  /// extent, each >= 0).
  [[nodiscard]] static DimMap gen_block(Range dom, std::vector<Index> sizes);
  /// Collapsed dimension: a single coordinate owns everything.
  [[nodiscard]] static DimMap collapsed(Range dom);
  /// User-defined mapping: owners[i - dom.lo] is the owner coordinate of i.
  [[nodiscard]] static DimMap indirect(Range dom, std::vector<int> owners,
                                       int nprocs);

  [[nodiscard]] int nprocs() const noexcept { return np_; }
  [[nodiscard]] Range dom() const noexcept { return dom_; }
  [[nodiscard]] bool is_collapsed() const noexcept { return collapsed_; }

  /// Owner coordinate of g (throws out_of_range outside the domain).
  [[nodiscard]] int proc_of(Index g) const;
  /// Dense local index of g on its owner coordinate.
  [[nodiscard]] Index local_of(Index g) const;
  /// Global index of local slot l on coordinate c.
  [[nodiscard]] Index global_of(int c, Index l) const;
  /// Number of indices owned by coordinate c.
  [[nodiscard]] Index count_on(int c) const;

  /// Whether every coordinate's owned set is a contiguous interval.
  [[nodiscard]] bool contiguous() const noexcept { return contiguous_; }
  /// Owned interval of coordinate c (contiguous maps only; nullopt when c
  /// owns nothing or the map is not contiguous).
  [[nodiscard]] std::optional<Range> segment(int c) const;

  /// Owned global indices of coordinate c in ascending order.
  [[nodiscard]] std::vector<Index> owned_ascending(int c) const;

  /// Semantic equality: same domain and the same owner coordinate for
  /// every index.  (Local orderings always agree because every kind
  /// enumerates ascending.)
  [[nodiscard]] bool same_mapping(const DimMap& o) const;

  /// The map induced on `new_dom` by the affine alignment
  /// i -> stride * i + offset into this map's domain.  stride must be +1
  /// or -1 (invalid_argument otherwise); the image must stay within this
  /// map's domain (out_of_range otherwise).
  [[nodiscard]] DimMap realigned(Range new_dom, Index stride,
                                 Index offset) const;

  /// Heap + inline bytes held by this map (table maps dominate: the
  /// per-element owners/locals arrays).  Feeds registry byte accounting.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  enum class Rep { Contig, Cyclic, Table };

  void check_coord(int c) const;
  void check_index(Index g) const;
  void build_contig_lookup();

  Rep rep_ = Rep::Contig;
  Range dom_;
  int np_ = 1;
  bool collapsed_ = false;
  bool contiguous_ = true;

  // Contig: per-coordinate segments plus a sorted (start, coord) table for
  // O(log P) proc_of.
  std::vector<Range> segs_;
  std::vector<std::pair<Index, int>> starts_;

  // Cyclic.
  Index k_ = 1;

  // Table: per-element owners/locals plus per-coordinate owned lists.
  std::vector<int> owners_;
  std::vector<Index> locals_;
  std::vector<std::vector<Index>> owned_;
};

}  // namespace vf::dist
