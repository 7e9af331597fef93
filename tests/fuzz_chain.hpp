// The chain fuzzer: one seeded generator, one chain driver and one oracle
// for the correctness condition of DISTRIBUTE (paper Section 3.2.2) --
// every element keeps its value and the whole connect class moves
// together -- and for the overlap exchange that rides on it.
//
// Generator: P in {1, 3, 4 line, 4 grid, 9 grid}; domains of rank 1 to 4
// small enough for one-plane segments and coordinates that own nothing;
// BLOCK, BLOCK(M), S_BLOCK, CYCLIC(k), uniform and Zipf INDIRECT; TO
// sections; uniform and asymmetric overlap specs, with corners.  The
// asymmetric admission rule and the filled ghost widths are re-derived
// here, independently of halo::filled_widths.  Every draw is
// SPMD-deterministic: all ranks drawing from one seed see the same values.
//
// Driver and oracle: see Chain.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::testing::fuzz {

using dist::DimDist;
using dist::DistHandle;
using dist::Distribution;
using dist::DistributionType;
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using dist::kMaxRank;
using Array = rt::DistArray<double>;

/// The one fingerprint: element `lin` (column-major, 0-based) holds
/// lin + 0.5, exact in a double and never zero.
inline double fingerprint(Index lin) { return static_cast<double>(lin) + 0.5; }

/// The fingerprint field over `dom`, as an init() callback.
inline auto fingerprint_of(const IndexDomain& dom) {
  return [dom](const IndexVec& i) { return fingerprint(dom.linearize(i)); };
}

// ---- generator --------------------------------------------------------------

struct MachineConfig {
  const char* name;
  int nprocs;
  int rows;  ///< processor grid rows (rank >= 2 domains), or 0: a line
  int cols;
};

inline constexpr MachineConfig kMachines[] = {
    {"p1", 1, 1, 1},
    {"p3", 3, 0, 0},
    {"line4", 4, 0, 0},
    {"grid4", 4, 2, 2},
    {"grid9", 9, 3, 3},
};

/// The processor array a rank-`rank` domain is declared over: the grid
/// for rank >= 2 on a grid machine, a line of every processor otherwise.
inline dist::ProcessorArray processors(const MachineConfig& m, int rank) {
  return m.rows > 0 && rank >= 2 ? dist::ProcessorArray::grid(m.rows, m.cols)
                                 : dist::ProcessorArray::line(m.nprocs);
}

inline IndexDomain domain_of(const std::vector<Index>& n) {
  switch (n.size()) {
    case 1:
      return IndexDomain::of_extents({n[0]});
    case 2:
      return IndexDomain::of_extents({n[0], n[1]});
    case 3:
      return IndexDomain::of_extents({n[0], n[1], n[2]});
    default:
      return IndexDomain::of_extents({n[0], n[1], n[2], n[3]});
  }
}

/// A 1-based domain of rank `rank`: extents from 1 (a one-plane
/// dimension) up to 24, 9, 6 and 4 for ranks 1 to 4; one rank-1 draw in
/// five is 96 long.
inline IndexDomain draw_domain(std::mt19937& rng, int rank) {
  static constexpr Index kMaxExtent[] = {0, 24, 9, 6, 4};
  std::vector<Index> n;
  for (int d = 0; d < rank; ++d) n.push_back(1 + rng() % kMaxExtent[rank]);
  if (rank == 1 && rng() % 5 == 0) n[0] = 96;
  return domain_of(n);
}

/// The domain of chain `seed` of rank `rank`.  The first seeds keep the
/// shapes of the chains this fuzzer replaced -- rank 1: 11 and the skew
/// chain's 96; rank 2: 9x7, 11x7 and 8x8; rank 3: 9x7x3; rank 4: 5x4x3x2
/// -- and later seeds draw.
inline IndexDomain chain_domain(std::mt19937& rng, int rank, unsigned seed) {
  static const std::vector<std::vector<Index>> kPinned[kMaxRank] = {
      {{11}, {96}}, {{9, 7}, {11, 7}, {8, 8}}, {{9, 7, 3}}, {{5, 4, 3, 2}}};
  const auto& pinned = kPinned[rank - 1];
  if (seed <= pinned.size()) return domain_of(pinned[seed - 1]);
  return draw_domain(rng, rank);
}

/// One dimension of extent `n` over `q` coordinates.  `contiguous` limits
/// the draw to the kinds that always map contiguously.
inline DimDist draw_dim(std::mt19937& rng, Index n, int q, bool contiguous) {
  switch (rng() % (contiguous ? 3 : 6)) {
    case 0:
      return dist::block();
    case 1:
      return dist::block_width((n + q - 1) / q + static_cast<Index>(rng() % 2));
    case 2: {
      // S_BLOCK: early coordinates take random shares, so later ones
      // often own nothing.
      std::vector<Index> sizes(static_cast<std::size_t>(q), 0);
      Index rest = n;
      for (int c = 0; c + 1 < q; ++c) {
        sizes[static_cast<std::size_t>(c)] =
            static_cast<Index>(rng() % static_cast<unsigned>(rest + 1));
        rest -= sizes[static_cast<std::size_t>(c)];
      }
      sizes.back() = rest;
      return dist::s_block(std::move(sizes));
    }
    case 3:
      return dist::cyclic(1 + static_cast<Index>(rng() % 5));
    case 4: {
      std::vector<int> owners(static_cast<std::size_t>(n));
      for (int& o : owners) o = static_cast<int>(rng() % static_cast<unsigned>(q));
      return dist::indirect(std::move(owners));
    }
    default: {
      // Zipf-like: an owner below a uniform bound, so coordinate c is
      // drawn with probability (H(q) - H(c)) / q -- skewed toward 0.
      std::vector<int> owners(static_cast<std::size_t>(n));
      for (int& o : owners) {
        const auto bound = 1 + rng() % static_cast<unsigned>(q);
        o = static_cast<int>(rng() % bound);
      }
      return dist::indirect(std::move(owners));
    }
  }
}

/// Dimensions a drawn target must map contiguously.
using Contiguous = std::array<bool, kMaxRank>;

/// A whole distribution: the section (the whole processor array, or one
/// time in three a TO section -- all processors but the last of a line,
/// or one column of a grid), which dimensions are distributed over its
/// free dimensions, and each distributed dimension's kind.
inline DistHandle draw_target(std::mt19937& rng, dist::DistRegistry& reg,
                              const IndexDomain& dom,
                              const dist::ProcessorArray& procs,
                              const Contiguous& contiguous = {}) {
  dist::ProcessorSection sec(procs);
  if (procs.nprocs() > 1 && rng() % 3 == 0) {
    const Index n0 = procs.domain().dim(0).size();
    if (procs.rank() == 1) {
      sec = {procs, {dist::SectionDim::all(dist::Range{1, n0 - 1})}};
    } else {
      const Index column = 1 + rng() % procs.domain().dim(1).size();
      sec = {procs, {dist::SectionDim::all(dist::Range{1, n0}),
                     dist::SectionDim::at(column)}};
    }
  }
  const int r = dom.rank();
  // Every free dimension of extent > 1 must take a distributed dimension;
  // trailing free dimensions of extent 1 may stay unused.
  int m_min = 0;
  for (int f = 0; f < sec.free_rank(); ++f) {
    if (sec.free_extent(f) > 1) m_min = f + 1;
  }
  const int m_max = std::min(sec.free_rank(), r);
  const int m = m_min + static_cast<int>(rng() % static_cast<unsigned>(
                                                     m_max - m_min + 1));
  std::vector<int> order(static_cast<std::size_t>(r));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(static_cast<std::size_t>(m));
  std::sort(order.begin(), order.end());
  std::vector<DimDist> dims(static_cast<std::size_t>(r), dist::col());
  for (int f = 0; f < m; ++f) {
    const int d = order[static_cast<std::size_t>(f)];
    dims[static_cast<std::size_t>(d)] =
        draw_dim(rng, dom.dim(d).size(), sec.free_extent(f),
                 contiguous[static_cast<std::size_t>(d)]);
  }
  return reg.intern(dom, DistributionType(std::move(dims)), sec);
}

/// `d` with only dimension 0 redrawn (same section, same other
/// dimensions): the flip a skew hybrid applies to.  `d` unchanged when
/// dimension 0 is collapsed.
inline DistHandle redraw_dim0(std::mt19937& rng, dist::DistRegistry& reg,
                              const Distribution& d, bool contiguous) {
  if (!d.type().dim(0).distributed()) return reg.intern(d);
  std::vector<DimDist> dims = d.type().dims();
  dims[0] = draw_dim(rng, d.domain().dim(0).size(), d.dim_map(0).nprocs(),
                     contiguous);
  return reg.intern(d.domain(), DistributionType(std::move(dims)),
                    d.section_ptr());
}

/// Whether ghosts may be declared in a dimension mapped by `m`: every
/// coordinate owns an interval and the intervals follow the coordinate
/// order (the neighbours of coordinate c are c - 1 and c + 1).
inline bool ghost_capable(const dist::DimMap& m) {
  if (!m.contiguous()) return false;
  Index prev = m.dom().lo - 1;
  for (int c = 0; c < m.nprocs(); ++c) {
    const auto s = m.segment(c);
    if (!s) continue;
    if (s->lo <= prev) return false;
    prev = s->hi;
  }
  return true;
}

/// One rank's overlap declaration.
struct RankSpec {
  IndexVec lo;
  IndexVec hi;
  bool corners = false;

  [[nodiscard]] bool ghosted(int d) const { return lo[d] > 0 || hi[d] > 0; }
};

/// The nearest coordinate of `m` from `c` in direction `step` that owns
/// something, or -1.
inline int nearest_owner(const dist::DimMap& m, int c, int step) {
  for (int x = c + step; x >= 0 && x < m.nprocs(); x += step) {
    if (m.count_on(x) > 0) return x;
  }
  return -1;
}

/// Draws one spec per rank (identically on every rank).  Widths sit only
/// in ghost-capable dimensions of `d`.  Uniform specs share widths in
/// [0, 3] (a neighbour owning fewer planes clips them); asymmetric specs
/// draw per-rank widths up to the smallest non-zero owned count of the
/// dimension (at most 3), which any neighbour can serve.  One draw in
/// four declares no overlap at all.
inline std::vector<RankSpec> draw_specs(std::mt19937& rng, int np,
                                        bool asymmetric,
                                        const Distribution& d) {
  const int r = d.domain().rank();
  const bool corners = rng() % 2 == 0;
  const bool empty = rng() % 4 == 0;
  std::array<Index, kMaxRank> cap{};
  for (int k = 0; k < r; ++k) {
    const dist::DimMap& m = d.dim_map(k);
    if (empty || !ghost_capable(m)) continue;
    Index& w = cap[static_cast<std::size_t>(k)];
    w = 3;
    for (int c = 0; asymmetric && c < m.nprocs(); ++c) {
      if (m.count_on(c) > 0) w = std::min(w, m.count_on(c));
    }
  }
  const auto draw = [&]() {
    RankSpec s{IndexVec::filled(r, 0), IndexVec::filled(r, 0), corners};
    for (int k = 0; k < r; ++k) {
      const auto w = static_cast<unsigned>(cap[static_cast<std::size_t>(k)]) + 1;
      s.lo[k] = static_cast<Index>(rng() % w);
      s.hi[k] = static_cast<Index>(rng() % w);
    }
    return s;
  };
  std::vector<RankSpec> specs(static_cast<std::size_t>(np));
  if (!asymmetric) {
    const RankSpec s = draw();
    for (RankSpec& out : specs) out = s;
    return specs;
  }
  for (RankSpec& out : specs) out = draw();
  return specs;
}

/// Whether every rank's spec is strictly servable under `d`: the nearest
/// non-empty neighbour in each direction owns at least the width (the
/// asymmetric admission rule, recomputed independently).
inline bool specs_valid(const std::vector<RankSpec>& specs,
                        const Distribution& d) {
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const dist::LocalLayout L = d.layout_for(static_cast<int>(p));
    if (!L.member || L.total == 0) continue;
    for (int k = 0; k < d.domain().rank(); ++k) {
      const dist::DimMap& m = d.dim_map(k);
      const int c = static_cast<int>(L.coords[k]);
      const int nl = nearest_owner(m, c, -1);
      const int nh = nearest_owner(m, c, +1);
      if (nl >= 0 && m.count_on(nl) < specs[p].lo[k]) return false;
      if (nh >= 0 && m.count_on(nh) < specs[p].hi[k]) return false;
    }
  }
  return true;
}

/// The filled widths of one rank: its declared width clipped by the
/// nearest non-empty neighbour's owned count, 0 without a neighbour.
struct Fill {
  std::array<Index, kMaxRank> lo{};
  std::array<Index, kMaxRank> hi{};
};

inline Fill expected_fill(const RankSpec& mine, const Distribution& d,
                          const dist::LocalLayout& L) {
  Fill f;
  for (int k = 0; k < d.domain().rank(); ++k) {
    const dist::DimMap& m = d.dim_map(k);
    const int c = static_cast<int>(L.coords[k]);
    const auto uk = static_cast<std::size_t>(k);
    if (const int x = nearest_owner(m, c, -1); x >= 0) {
      f.lo[uk] = std::min(mine.lo[k], m.count_on(x));
    }
    if (const int x = nearest_owner(m, c, +1); x >= 0) {
      f.hi[uk] = std::min(mine.hi[k], m.count_on(x));
    }
  }
  return f;
}

// ---- oracle: the addressing reference ---------------------------------------

/// The coordinates of a box, one list per dimension.
using Axes = std::array<std::vector<Index>, kMaxRank>;

/// Calls fn(i) for every point of the box spanned by the first `r` axes
/// (none empty), the first dimension fastest.
template <class Fn>
void for_each_point(const Axes& axis, int r, Fn&& fn) {
  const auto ur = static_cast<std::size_t>(r);
  std::array<std::size_t, kMaxRank> pos{};
  IndexVec i = IndexVec::filled(r, 0);
  for (std::size_t d = 0; d < ur;) {
    for (std::size_t k = 0; k < ur; ++k) {
      i[static_cast<int>(k)] = axis[k][pos[k]];
    }
    fn(i);
    for (d = 0; d < ur && ++pos[d] == axis[d].size(); ++d) pos[d] = 0;
  }
}

/// Reference geometry of `a` on this rank, from the DimMaps, the layout
/// and the local overlap spec only.
struct RefGeometry {
  const Array& a;
  IndexVec glo, ghi, stride;

  explicit RefGeometry(const Array& arr) : a(arr) {
    const int r = a.domain().rank();
    const dist::LocalLayout& L = a.layout();
    Index s = 1;
    for (int d = 0; d < r; ++d) {
      glo.push_back(a.halo_spec()->lo(d));
      ghi.push_back(a.halo_spec()->hi(d));
      stride.push_back(s);
      s *= L.member ? L.counts[d] + glo[d] + ghi[d] : 0;
    }
  }

  [[nodiscard]] bool owns_in(int d, Index g) const {
    return a.domain().dim(d).contains(g) &&
           a.distribution().dim_map(d).proc_of(g) == a.layout().coords[d];
  }
  [[nodiscard]] dist::Range segment(int d) const {
    return *a.distribution().dim_map(d).segment(
        static_cast<int>(a.layout().coords[d]));
  }
  [[nodiscard]] Index offset(const IndexVec& i) const {
    Index off = 0;
    for (int d = 0; d < a.domain().rank(); ++d) {
      const Index l = owns_in(d, i[d])
                          ? a.distribution().dim_map(d).local_of(i[d])
                          : i[d] - segment(d).lo;
      off += (l + glo[d]) * stride[d];
    }
    return off;
  }
};

inline void expect_halo_throws(SpmdChecker& ck, int rank, const Array& a,
                               const IndexVec& i, const std::string& what) {
  ck.check(!a.halo_readable(i), rank, what + ": halo_readable " +
                                          i.to_string());
  try {
    (void)a.halo(i);
    ck.fail("[rank " + std::to_string(rank) + "] " + what +
            ": halo() did not throw at " + i.to_string());
  } catch (const std::out_of_range& e) {
    ck.check(std::string(e.what()).find(a.name()) != std::string::npos, rank,
             what + ": message names the array");
  }
}

/// The local access functions (loc_map, Section 3.2.1) of `a` on this
/// rank against the reference: storage_offset/halo_offset of every owned
/// and every readable ghost index, owned values, the for_owned and
/// interior + boundary walks, and the halo() bounds checks one past each
/// face and with an index of the wrong size.
inline void check_state(SpmdChecker& ck, int rank, Array& a,
                        const std::string& where) {
  const IndexDomain& dom = a.domain();
  const int r = dom.rank();
  const RefGeometry ref(a);
  const dist::LocalLayout& L = a.layout();
  const bool owns_some = L.member && L.total > 0;

  // Reference owned set, in global column-major order.
  std::vector<IndexVec> owned;
  a.distribution().for_owned(rank, [&](const IndexVec& i) {
    owned.push_back(i);
  });
  std::vector<std::pair<IndexVec, const double*>> want;
  const std::span<const double> local = std::as_const(a).local_span();
  for (const IndexVec& i : owned) {
    const Index off = ref.offset(i);
    ck.check_eq(a.storage_offset(i), off, rank,
                where + ": storage_offset " + i.to_string());
    ck.check_eq(a.halo_offset(i), off, rank,
                where + ": halo_offset " + i.to_string());
    ck.check_eq(a.at(i), fingerprint(dom.linearize(i)), rank,
                where + ": value " + i.to_string());
    want.emplace_back(i, local.data() + off);
  }

  // for_owned (mutable and const) visits the reference pairs in order.
  std::vector<std::pair<IndexVec, const double*>> got;
  a.for_owned([&](const IndexVec& i, double& x) { got.emplace_back(i, &x); });
  ck.check(got == want, rank, where + ": for_owned pairs");
  got.clear();
  std::as_const(a).for_owned(
      [&](const IndexVec& i, const double& x) { got.emplace_back(i, &x); });
  ck.check(got == want, rank, where + ": const for_owned pairs");

  // Interior + boundary under explicit margins: a disjoint cover.
  const auto column_major = [&](const auto& x, const auto& y) {
    return dom.linearize(x.first) < dom.linearize(y.first);
  };
  for (Index m = 0; m <= 3; ++m) {
    const Array::SplitMargins margins{IndexVec::filled(r, m),
                                      IndexVec::filled(r, (m + 1) % 3)};
    std::vector<std::pair<IndexVec, const double*>> inner;
    a.for_owned_interior(margins, [&](const IndexVec& i, double& x) {
      inner.emplace_back(i, &x);
    });
    ck.check(std::is_sorted(inner.begin(), inner.end(), column_major), rank,
             where + ": interior in column-major order");
    got = inner;
    a.for_owned_boundary(margins, [&](const IndexVec& i, double& x) {
      got.emplace_back(i, &x);
    });
    std::sort(got.begin(), got.end(), column_major);
    ck.check(got == want, rank,
             where + ": interior + boundary cover, m=" + std::to_string(m));
  }

  if (!owns_some) {
    // Nothing to read: every domain point (and a few beyond) throws.
    ck.check(owned.empty(), rank, where + ": empty rank owns nothing");
    IndexVec i = IndexVec::filled(r, 0);
    for (int d = 0; d < r; ++d) i[d] = dom.dim(d).lo;
    expect_halo_throws(ck, rank, a, i, where + " (owns nothing)");
    for (int d = 0; d < r; ++d) i[d] = dom.dim(d).hi + 1;
    expect_halo_throws(ck, rank, a, i, where + " (owns nothing)");
    return;
  }

  // The readable region: the ghost-padded segment in contiguous
  // dimensions, the owned coordinates elsewhere.
  Axes axis;
  for (int d = 0; d < r; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (a.distribution().dim_map(d).contiguous()) {
      const dist::Range s = ref.segment(d);
      for (Index g = s.lo - ref.glo[d]; g <= s.hi + ref.ghi[d]; ++g) {
        axis[ud].push_back(g);
      }
    } else {
      axis[ud] = a.distribution().owned_in_dim(rank, d);
    }
  }
  for_each_point(axis, r, [&](const IndexVec& i) {
    ck.check(a.halo_readable(i), rank, where + ": readable " + i.to_string());
    ck.check_eq(a.halo_offset(i), ref.offset(i), rank,
                where + ": halo_offset " + i.to_string());
  });

  // One past each face, from the first owned point.
  for (int d = 0; d < r; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    IndexVec p = owned.front();
    if (a.distribution().dim_map(d).contiguous()) {
      p[d] = axis[ud].front() - 1;
      expect_halo_throws(ck, rank, a, p, where + ": low face");
      p[d] = axis[ud].back() + 1;
      expect_halo_throws(ck, rank, a, p, where + ": high face");
    } else {
      for (Index g = dom.dim(d).lo; g <= dom.dim(d).hi; ++g) {
        if (ref.owns_in(d, g)) continue;
        p[d] = g;
        expect_halo_throws(ck, rank, a, p, where + ": unowned coordinate");
      }
    }
  }

  // An owned point with one component too many or too few.
  const IndexVec& p0 = owned.front();
  if (r < kMaxRank) {
    IndexVec longer = p0;
    longer.push_back(p0[0]);
    expect_halo_throws(ck, rank, a, longer, where + ": rank + 1");
  }
  IndexVec shorter;
  for (int d = 0; d + 1 < r; ++d) shorter.push_back(p0[d]);
  expect_halo_throws(ck, rank, a, shorter, where + ": rank - 1");
}

// ---- oracle: data, ghosts, twins --------------------------------------------

inline bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Every owned element of `a` holds the fingerprint of its index.
inline void check_owned(SpmdChecker& ck, int rank, const Array& a,
                        const std::string& where) {
  const IndexDomain& dom = a.domain();
  a.for_owned([&](const IndexVec& i, const double& v) {
    ck.check(same_bits(v, fingerprint(dom.linearize(i))), rank,
             where + ": " + a.name() + " owned " + i.to_string());
  });
}

/// Every cell of `a`'s declared ghost frame (`mine` is this rank's spec):
/// a filled cell holds its fingerprint bitwise, an unfilled one (beyond
/// the filled width, or a corner without the corners flag) holds 0.
inline void check_ghosts(SpmdChecker& ck, int rank, const Array& a,
                         const RankSpec& mine, const std::string& where) {
  const Distribution& d = a.distribution();
  const dist::LocalLayout& L = a.layout();
  if (!L.member || L.total == 0) return;
  const IndexDomain& dom = a.domain();
  const int r = dom.rank();
  const Fill fill = expected_fill(mine, d, L);
  std::array<dist::Range, kMaxRank> seg{};
  Axes axis;
  for (int k = 0; k < r; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    if (!d.dim_map(k).contiguous()) {
      axis[uk] = d.owned_in_dim(rank, k);
      continue;
    }
    seg[uk] = *d.dim_map(k).segment(static_cast<int>(L.coords[k]));
    for (Index g = seg[uk].lo - mine.lo[k]; g <= seg[uk].hi + mine.hi[k]; ++g) {
      axis[uk].push_back(g);
    }
  }
  for_each_point(axis, r, [&](const IndexVec& i) {
    int ghost_dims = 0;
    bool reach = true;
    for (int k = 0; k < r; ++k) {
      const auto uk = static_cast<std::size_t>(k);
      if (!d.dim_map(k).contiguous() || seg[uk].contains(i[k])) continue;
      ++ghost_dims;
      reach = reach && (i[k] < seg[uk].lo ? seg[uk].lo - i[k] <= fill.lo[uk]
                                          : i[k] - seg[uk].hi <= fill.hi[uk]);
    }
    if (ghost_dims == 0) return;
    const bool filled = reach && (ghost_dims == 1 || mine.corners);
    const double want = filled ? fingerprint(dom.linearize(i)) : 0.0;
    const double got = a.halo(i);
    ck.check(same_bits(got, want), rank,
             where + ": " + a.name() + " ghost " + i.to_string() + " = " +
                 std::to_string(got) + (filled ? ", filled" : ", unfilled"));
  });
}

// ---- the driver --------------------------------------------------------------

struct ChainConfig {
  MachineConfig machine;
  msg::TransportKind transport;
  int rank;       ///< domain rank, 1..4
  unsigned seed;
};

/// How often the chains reached the cases they are meant to cover;
/// written by rank 0 only.
struct ChainTally {
  int rejected_ghosts = 0;
  /// Ghost violations in a dimension only some ranks ghost.
  int rejected_partial_ghosts = 0;
  int rejected_ranges = 0;
  std::uint64_t hybrid_flips = 0;
};

inline constexpr int kRounds = 10;

/// One chain on one rank: a reference array A with a transposed aligned
/// secondary D (which carries a RANGE attribute), a split-phase twin S
/// and a skew twin K (SkewPolicy::Force; A is the all-to-owner
/// reference).  Each round runs a legal DISTRIBUTE, a set_overlap, and a
/// repeat exchange or an illegal DISTRIBUTE.  After every step A
/// exchanges blocking, S split-phase around the interior/boundary walk
/// and K blocking, and check() runs the oracle.  K carries A's overlap
/// wherever its distribution can; on even seeds it leaves out dimension 0,
/// where a hybrid would decline, so those chains flip through hybrids as
/// the ghost-free skew chains did.  Every decision is drawn from the
/// shared seed, so all ranks take the same path.
class Chain {
 public:
  Chain(msg::Context& ctx, const ChainConfig& cfg, SpmdChecker& ck,
        ChainTally& tally)
      : ctx_(ctx), cfg_(cfg), ck_(ck), tally_(tally),
        me_(ctx.rank()), np_(ctx.nprocs()), rng_(cfg.seed),
        procs_(processors(cfg.machine, cfg.rank)),
        env_(ctx, procs_),
        dom_(chain_domain(rng_, cfg.rank, cfg.seed)),
        h0_(draw_target(rng_, env_.registry(), dom_, procs_)),
        a_(env_, spec("A")),
        s_(env_, spec("S")),
        k_(env_, spec("K")),
        d_(env_, secondary_spec(), transposed(a_)) {
    for (Array* x : {&a_, &s_, &k_, &d_}) x->init(fingerprint_of(x->domain()));
    k_.set_skew_policy(rt::DistArrayBase::SkewPolicy::Force);
    specs_ = draw_specs(rng_, np_, asym_, a_.distribution());
    apply_specs();
  }

  void run() {
    check("initial");
    for (int round = 0; round < kRounds; ++round) {
      const std::string at = "round " + std::to_string(round);
      distribute();
      check(at + " DISTRIBUTE");
      asym_ = rng_() % 2 == 0;
      specs_ = draw_specs(rng_, np_, asym_, a_.distribution());
      apply_specs();
      check(at + " set_overlap");
      const bool rejected = round % 2 == 1 && illegal_distribute(at);
      check(at + (rejected ? " after the rejected DISTRIBUTE" : " repeat"),
            /*addressing=*/false);
    }
    if (me_ == 0) tally_.hybrid_flips += k_.hybrid_flips();
  }

 private:
  [[nodiscard]] Array::Spec spec(const char* name) const {
    return {.name = name, .domain = dom_, .dynamic = true, .initial_dist = h0_};
  }

  /// D(i_0, ..., i_{r-1}) WITH A(i_{r-1}, ..., i_0), RANGE allowing every
  /// kind in its dimension 0 (A's last) but CYCLIC(k) with k > 5, which
  /// the generator never draws.
  Array::Spec secondary_spec() const {
    const int r = dom_.rank();
    std::vector<Index> n;
    for (int k = r - 1; k >= 0; --k) n.push_back(dom_.dim(k).size());
    query::RangeSpec range;
    for (const query::DimPattern& p :
         {query::p_block(), query::p_cyclic(1), query::p_cyclic(2),
          query::p_cyclic(3), query::p_cyclic(4), query::p_cyclic(5),
          query::p_gen_block(), query::p_indirect(), query::p_col()}) {
      std::vector<query::DimPattern> dims(static_cast<std::size_t>(r),
                                          query::any_dim());
      dims[0] = p;
      range.emplace_back(std::move(dims));
    }
    return {.name = "D", .domain = domain_of(n), .dynamic = true,
            .range = std::move(range)};
  }

  static rt::Connection transposed(Array& a) {
    const int r = a.domain().rank();
    std::vector<int> perm(static_cast<std::size_t>(r));
    std::iota(perm.rbegin(), perm.rend(), 0);
    return rt::Connection::alignment(
        a, dist::Alignment::permutation(r, std::move(perm)));
  }

  [[nodiscard]] std::string tag(const std::string& at) const {
    const bool shm = cfg_.transport == msg::TransportKind::SharedMemory;
    return std::string(cfg_.machine.name) + (shm ? " shm" : " mailbox") +
           " rank-" + std::to_string(cfg_.rank) + " seed " +
           std::to_string(cfg_.seed) + " " + at;
  }

  /// Declares specs_ on A and S, and on K without the widths its
  /// (possibly hybrid) distribution cannot carry, and on even seeds
  /// without dimension 0's.
  void apply_specs() {
    const RankSpec& mine = specs_[static_cast<std::size_t>(me_)];
    a_.set_overlap(mine.lo, mine.hi, mine.corners, asym_);
    s_.set_overlap(mine.lo, mine.hi, mine.corners, asym_);
    kspecs_ = specs_;
    for (int k = 0; k < dom_.rank(); ++k) {
      if (ghost_capable(k_.distribution().dim_map(k)) &&
          (k > 0 || cfg_.seed % 2 == 1)) {
        continue;
      }
      for (RankSpec& ks : kspecs_) ks.lo[k] = ks.hi[k] = 0;
    }
    const RankSpec& kmine = kspecs_[static_cast<std::size_t>(me_)];
    k_.set_overlap(kmine.lo, kmine.hi, kmine.corners, asym_);
  }

  [[nodiscard]] bool ghosted_anywhere(int d) const {
    return std::any_of(specs_.begin(), specs_.end(),
                       [&](const RankSpec& s) { return s.ghosted(d); });
  }

  /// A legal DISTRIBUTE of A, S and K.  Half the draws keep every ghosted
  /// dimension contiguous; the other half are unconstrained, and the
  /// overlap is dropped first wherever the target is not contiguous.  One
  /// draw in three redraws dimension 0 only.
  void distribute() {
    const int r = dom_.rank();
    Contiguous keep{};
    if (rng_() % 2 == 0) {
      for (int d = 0; d < r; ++d) {
        keep[static_cast<std::size_t>(d)] = ghosted_anywhere(d);
      }
    }
    const DistHandle t =
        rng_() % 3 == 0
            ? redraw_dim0(rng_, env_.registry(), a_.distribution(), keep[0])
            : draw_target(rng_, env_.registry(), dom_, procs_, keep);
    bool dropped = false;
    for (int d = 0; d < r; ++d) {
      if (ghost_capable(t->dim_map(d))) continue;
      dropped = dropped || ghosted_anywhere(d);
      for (RankSpec& s : specs_) s.lo[d] = s.hi[d] = 0;
    }
    if (dropped) apply_specs();
    // At most P - 1 data messages from this rank per array moved (A's
    // class is A and D).
    const std::string where = tag("DISTRIBUTE " + t->type().to_string());
    const std::pair<Array*, int> moves[] = {{&a_, 2}, {&s_, 1}, {&k_, 1}};
    for (const auto& [x, arrays] : moves) {
      const std::uint64_t before = ctx_.stats().data_messages;
      x->distribute(t);
      const auto sent = static_cast<int>(ctx_.stats().data_messages - before);
      ck_.check(sent <= arrays * (np_ - 1), me_,
                where + ": " + x->name() + " sent " + std::to_string(sent));
    }
    if (asym_ && !specs_valid(specs_, a_.distribution())) {
      specs_ = draw_specs(rng_, np_, asym_, a_.distribution());
    }
    apply_specs();
  }

  /// A, S and D: descriptor, overlap and storage.
  [[nodiscard]] auto members() const {
    const auto state = [](const Array& x) {
      const auto s = x.local_span();
      return std::tuple(x.dist_handle(), x.halo_spec(),
                        std::vector<double>(s.begin(), s.end()));
    };
    return std::tuple(state(a_), state(s_), state(d_));
  }

  /// An illegal DISTRIBUTE of A (and, for a ghost violation, of S): a
  /// non-contiguous target in a dimension where some rank declares
  /// ghosts (under an asymmetric overlap, perhaps not this one), or a
  /// target D's RANGE forbids.  Returns false when A's state admits
  /// neither.  Each must throw the same error on every rank before any
  /// collective (check() has reconciled the asymmetric families) and
  /// leave A, D and S unchanged.
  bool illegal_distribute(const std::string& at) {
    const int r = dom_.rank();
    const Distribution& cur = a_.distribution();
    std::vector<int> ghost_dims;
    for (int d = 0; d < r; ++d) {
      const dist::DimMap& m = cur.dim_map(d);
      if (ghosted_anywhere(d) && m.nprocs() >= 2 &&
          m.dom().size() > m.nprocs()) {
        ghost_dims.push_back(d);
      }
    }
    const bool range_ok =
        cur.type().dim(r - 1).distributed() && !ghosted_anywhere(r - 1);
    if (ghost_dims.empty() && !range_ok) return false;
    const bool ghosts = !ghost_dims.empty() && (!range_ok || rng_() % 2 == 0);
    std::vector<DimDist> dims = cur.type().dims();
    const int bad = ghosts ? ghost_dims[rng_() % ghost_dims.size()] : r - 1;
    dims[static_cast<std::size_t>(bad)] = dist::cyclic(ghosts ? 1 : 6);
    const DistHandle t = env_.registry().intern(
        dom_, DistributionType(std::move(dims)), cur.section_ptr());
    const std::string where = tag(at + " illegal DISTRIBUTE " +
                                  t->type().to_string());
    const auto before = members();
    const msg::CommStats traffic = ctx_.stats();
    const auto expect_rejected = [&](Array& x) {
      try {
        x.distribute(t);
        ck_.check(false, me_, where + ": " + x.name() + " accepted it");
      } catch (const rt::RangeViolationError& e) {
        ck_.check(!ghosts && std::string(e.what()).ends_with("RANGE of D"),
                  me_, where + ": " + e.what());
      } catch (const std::invalid_argument& e) {
        ck_.check(ghosts && e.what() == "array " + x.name() +
                                            ": overlap areas require a "
                                            "contiguous distribution in "
                                            "dimension " +
                                            std::to_string(bad),
                  me_, where + ": " + e.what());
      }
    };
    expect_rejected(a_);
    if (ghosts) expect_rejected(s_);
    ck_.check(members() == before, me_, where + ": a member changed");
    ck_.check(ctx_.stats().collectives == traffic.collectives &&
                  ctx_.stats().data_messages == traffic.data_messages,
              me_, where + ": communicated before rejecting");
    if (me_ == 0) {
      ++(ghosts ? tally_.rejected_ghosts : tally_.rejected_ranges);
      const auto ghosted = [&](const RankSpec& s) { return s.ghosted(bad); };
      if (ghosts && !std::all_of(specs_.begin(), specs_.end(), ghosted)) {
        ++tally_.rejected_partial_ghosts;
      }
    }
    return true;
  }

  /// The exchanges and the oracle: owned fingerprints and owned-count
  /// totality; filled ghost cells bitwise equal to their fingerprint and
  /// unfilled ones zero; S's storage bitwise equal to A's and an exact
  /// interior/boundary partition; K's gather_global equal to the
  /// reference; D colocated with A; and the addressing check_state.
  void check(const std::string& at, bool addressing = true) {
    const std::string where = tag(at);
    a_.exchange_overlap();

    // Split phase: the interior walk runs while the exchange is in
    // flight, the boundary walk after it; together they visit every
    // owned element once and nothing else.
    s_.begin_exchange_overlap();
    const auto m = s_.split_margins();
    std::vector<int> visits(s_.local_span().size(), 0);
    const double* const base = s_.local_span().data();
    const auto visit = [&](const IndexVec&, double& x) {
      ++visits[static_cast<std::size_t>(&x - base)];
    };
    s_.for_owned_interior(m, visit);
    s_.end_exchange_overlap();
    s_.for_owned_boundary(m, visit);
    s_.for_owned([&](const IndexVec&, double& x) {
      --visits[static_cast<std::size_t>(&x - base)];
    });
    ck_.check(std::count(visits.begin(), visits.end(), 0) ==
                  std::ssize(visits),
              me_, where + ": interior + boundary is not a partition");
    const auto sa = a_.local_span();
    const auto ss = s_.local_span();
    ck_.check(std::equal(sa.begin(), sa.end(), ss.begin(), ss.end(), same_bits),
              me_, where + ": split-phase storage differs from blocking");

    // K exchanges whenever its specs are servable under its distribution.
    const bool k_exchanged = !asym_ || specs_valid(kspecs_, k_.distribution());
    if (k_exchanged) k_.exchange_overlap();

    const RankSpec& mine = specs_[static_cast<std::size_t>(me_)];
    check_owned(ck_, me_, a_, where);
    check_ghosts(ck_, me_, a_, mine, where);
    if (k_exchanged) {
      check_ghosts(ck_, me_, k_, kspecs_[static_cast<std::size_t>(me_)],
                   where);
    }
    check_owned(ck_, me_, d_, where);
    // Ownership is total and exclusive.
    std::vector<Index> owned{a_.layout().total, k_.layout().total,
                             d_.layout().total};
    ctx_.allreduce_inplace(std::span<Index>(owned), msg::ReduceOp::Sum);
    ck_.check(owned == std::vector<Index>(3, dom_.size()), me_,
              where + ": owned-count totality");
    // A's owned elements hold the reference, so K agrees with A.
    Index lin = 0;
    const std::vector<double> kg = k_.gather_global();
    ck_.check(std::all_of(kg.begin(), kg.end(),
                          [&](double v) { return same_bits(v, fingerprint(lin++)); }),
              me_, where + ": skew twin differs from the all-to-owner twin");

    // D(i) is colocated with A(reverse(i)).
    const Distribution& ad = a_.distribution();
    d_.for_owned([&](const IndexVec& i, const double&) {
      IndexVec j;
      for (int k = static_cast<int>(i.size()) - 1; k >= 0; --k) j.push_back(i[k]);
      if (ad.owner_rank(j) != me_) {
        ck_.fail("[rank " + std::to_string(me_) + "] " + where + ": D" +
                 i.to_string() + " is not with A" + j.to_string());
      }
    });
    if (addressing) check_state(ck_, me_, a_, where);
  }

  msg::Context& ctx_;
  const ChainConfig& cfg_;
  SpmdChecker& ck_;
  ChainTally& tally_;
  const int me_;
  const int np_;
  std::mt19937 rng_;
  dist::ProcessorArray procs_;
  rt::Env env_;
  IndexDomain dom_;
  DistHandle h0_;
  Array a_;
  Array s_;
  Array k_;
  Array d_;
  bool asym_ = false;
  std::vector<RankSpec> specs_;
  std::vector<RankSpec> kspecs_;
};

/// Runs one chain on a fresh lockstep-armed machine.
inline void run_chain(const ChainConfig& cfg, ChainTally& tally) {
  msg::Machine machine(cfg.machine.nprocs, {}, cfg.transport);
  machine.set_lockstep_check(true);
  SpmdChecker ck;
  msg::run_spmd(machine, [&](msg::Context& ctx) {
    Chain(ctx, cfg, ck, tally).run();
  });
  ck.expect_clean();
  EXPECT_EQ(machine.lockstep().mismatches(), 0u);
}

// ---- the matrix --------------------------------------------------------------

/// Chains per machine (the order of kMachines) and domain rank 1..4: seeds
/// 1..n of each.
inline constexpr unsigned kSeeds[][kMaxRank] = {
    {6, 10, 6, 6},  // p1
    {6, 6, 6, 6},   // p3
    {6, 12, 6, 6},  // line4
    {2, 10, 6, 6},  // grid4
    {2, 10, 2, 2},  // grid9
};

/// Every chain of one machine on one transport.
inline ChainTally run_machine(int machine, msg::TransportKind transport) {
  ChainTally tally;
  for (int rank = 1; rank <= kMaxRank; ++rank) {
    const unsigned seeds = kSeeds[machine][rank - 1];
    for (unsigned seed = 1; seed <= seeds; ++seed) {
      run_chain({kMachines[machine], transport, rank, seed}, tally);
    }
  }
  return tally;
}

/// Hybrid flips per multi-processor machine and transport: twice the ten
/// DISTRIBUTEs of the ghost-free skew chain each machine size had before.
inline constexpr std::uint64_t kMinHybridFlips = 20;

/// Every machine reaches the rejected statements it can -- a ghost
/// violation also in a dimension only some ranks ghost -- and the skew
/// hybrids (none on one processor, where nothing is skewed).
inline void expect_coverage(const ChainTally& t, bool multi) {
  EXPECT_GT(t.rejected_ranges, 0);
  if (!multi) return;
  EXPECT_GT(t.rejected_ghosts, 0);
  EXPECT_GT(t.rejected_partial_ghosts, 0);
  EXPECT_GE(t.hybrid_flips, kMinHybridFlips);
}

}  // namespace vf::testing::fuzz
