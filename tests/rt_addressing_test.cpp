// Property tests for the local access functions (loc_map, paper Section
// 3.2.1): storage_offset/halo_offset, the halo() bounds check and the
// owned-element walkers, against a reference computed from the DimMaps.
//
// Seeded chains of BLOCK, BLOCK(M), S_BLOCK, CYCLIC(k), INDIRECT and
// collapsed distributions are applied at P in {1, 3, 4}, with and without
// a TO section, on domains of every supported rank (1 to kMaxRank),
// through DISTRIBUTE flips and symmetric and asymmetric set_overlap
// reshapes.  In every state each rank checks:
//   * storage_offset(i) and halo_offset(i) equal the reference
//     sum_d (l_d(i) + ghost_lo[d]) * stride[d], where l_d is
//     dim_map(d).local_of for owned coordinates and the segment-relative
//     coordinate in the overlap area;
//   * every index one past an overlap face (and every non-owned index of
//     a CYCLIC/INDIRECT dimension, and an owned index with one component
//     too many or too few) throws std::out_of_range naming the array, and
//     halo_readable agrees with halo() everywhere;
//   * for_owned, and for_owned_interior + for_owned_boundary, visit every
//     owned element exactly once with the reference (i, &element) pairs,
//     for_owned and the interior box in column-major order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::rt {
namespace {

using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using testing::run_checked;
using testing::SpmdChecker;

using Array = DistArray<double>;

double value_of(const IndexVec& i) {
  double v = 0.0;
  for (const Index x : i) v = v * 131.0 + static_cast<double>(x);
  return v;
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

template <typename E, typename F>
void expect_throw(SpmdChecker& ck, int rank, F&& fn, const std::string& what) {
  try {
    fn();
    ck.fail("[rank " + std::to_string(rank) + "] " + what + ": no throw");
  } catch (const E&) {
  }
}

void expect_halo_throws(SpmdChecker& ck, int rank, const Array& a,
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

/// at() and const at() on an index the general path cannot translate:
/// std::out_of_range whose message contains `want` and is not the halo
/// error.
void expect_at_throws(SpmdChecker& ck, int rank, Array& a, const IndexVec& i,
                      const std::string& want, const std::string& what) {
  const auto check = [&](auto&& read, const std::string& which) {
    try {
      (void)read();
      ck.fail("[rank " + std::to_string(rank) + "] " + what + ": " + which +
              " did not throw at " + i.to_string());
    } catch (const std::out_of_range& e) {
      const std::string msg = e.what();
      ck.check(msg.find(want) != std::string::npos &&
                   msg.find("halo") == std::string::npos,
               rank, what + ": " + which + " message '" + msg + "'");
    }
  };
  check([&]() -> double { return a.at(i); }, "at");
  check([&]() -> double { return std::as_const(a).at(i); }, "const at");
}

/// Every check of the file for the array's current state on this rank.
void check_state(SpmdChecker& ck, int rank, Array& a,
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
    ck.check_eq(a.at(i), value_of(i), rank, where + ": value " + i.to_string());
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
  std::array<std::vector<Index>, dist::kMaxRank> axis;
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
  std::array<std::size_t, dist::kMaxRank> pos{};
  IndexVec i = IndexVec::filled(r, 0);
  for (;;) {
    for (int d = 0; d < r; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      i[d] = axis[ud][pos[ud]];
    }
    ck.check(a.halo_readable(i), rank, where + ": readable " + i.to_string());
    ck.check_eq(a.halo_offset(i), ref.offset(i), rank,
                where + ": halo_offset " + i.to_string());
    int d = 0;
    for (; d < r; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (++pos[ud] < axis[ud].size()) break;
      pos[ud] = 0;
    }
    if (d == r) break;
  }

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
  if (r < dist::kMaxRank) {
    IndexVec longer = p0;
    longer.push_back(p0[0]);
    expect_halo_throws(ck, rank, a, longer, where + ": rank + 1");
  }
  IndexVec shorter;
  for (int d = 0; d + 1 < r; ++d) shorter.push_back(p0[d]);
  expect_halo_throws(ck, rank, a, shorter, where + ": rank - 1");
}

/// A random per-dimension distribution of extent n over np coordinates.
dist::DimDist random_dim(std::mt19937& rng, Index n, int np) {
  switch (rng() % 5) {
    case 0:
      return dist::block();
    case 1:
      return dist::block_width((n + np - 1) / np +
                               static_cast<Index>(rng() % 2));
    case 2: {
      std::vector<Index> sizes(static_cast<std::size_t>(np));
      for (Index k = 0; k < n; ++k) ++sizes[rng() % sizes.size()];
      return dist::s_block(sizes);
    }
    case 3:
      return dist::cyclic(1 + static_cast<Index>(rng() % 3));
    default: {
      std::vector<int> owners(static_cast<std::size_t>(n));
      for (int& o : owners) {
        o = static_cast<int>(rng() % static_cast<unsigned>(np));
      }
      return dist::indirect(owners);
    }
  }
}

/// One seeded chain on P ranks over `dom`.  `grid` maps the first two
/// dimensions onto a 2x2 processor grid (P == 4, rank >= 2); otherwise one
/// dimension is distributed over a line and the others are collapsed.
void run_chain(int nprocs, bool grid, unsigned seed, const IndexDomain& dom) {
  run_checked(nprocs, [&](Context& ctx, SpmdChecker& ck) {
    const int me = ctx.rank();
    const int r = dom.rank();
    const dist::ProcessorArray procs =
        grid ? dist::ProcessorArray::grid(2, 2)
             : dist::ProcessorArray::line(nprocs);
    Env env(ctx, procs);
    std::mt19937 rng(seed);  // SPMD-uniform: every rank draws the same

    // Undistributed: every access function refuses.
    Array a(env, {.name = "Addr" + std::to_string(seed),
                  .domain = dom,
                  .dynamic = true});
    const IndexVec first = IndexVec::filled(r, 1);
    expect_throw<NotDistributedError>(
        ck, me, [&] { (void)a.storage_offset(first); }, "storage_offset");
    expect_throw<NotDistributedError>(
        ck, me, [&] { (void)a.halo_offset(first); }, "halo_offset");
    expect_throw<NotDistributedError>(
        ck, me, [&] { (void)a.halo(first); }, "halo");
    expect_throw<NotDistributedError>(
        ck, me, [&] { a.for_owned([](const IndexVec&, double&) {}); },
        "for_owned");
    ck.check(!a.halo_readable(first), me, "undistributed: not readable");

    for (int step = 0; step < 10; ++step) {
      // Pick the target: distributed dimensions, kinds and the section.
      std::vector<dist::DimDist> dims(static_cast<std::size_t>(r),
                                      dist::col());
      dist::ProcessorSection sec(procs);
      const bool to = nprocs > 1 && rng() % 2 == 0;
      if (grid) {
        // With a TO section: one column of the grid, dimension 1 collapsed.
        dims[0] = random_dim(rng, dom.dim(0).size(), 2);
        if (to) {
          const Index column = 1 + static_cast<Index>(rng() % 2);
          sec = dist::ProcessorSection(
              procs, {dist::SectionDim::all(dist::Range{1, 2}),
                      dist::SectionDim::at(column)});
        } else {
          dims[1] = random_dim(rng, dom.dim(1).size(), 2);
        }
      } else {
        const int np = to ? nprocs - 1 : nprocs;
        if (to) {
          sec = dist::ProcessorSection(
              procs, {dist::SectionDim::all(dist::Range{1, np})});
        }
        const auto d = static_cast<std::size_t>(rng() % r);
        dims[d] = random_dim(rng, dom.dim(static_cast<int>(d)).size(), np);
      }
      const dist::DistHandle h = env.registry().intern(
          dom, dist::DistributionType(std::move(dims)), sec);

      // Overlap areas must be dropped before a dimension carrying one
      // becomes non-contiguous.
      bool keep = a.has_distribution();
      for (int d = 0; d < r && keep; ++d) {
        keep = h->dim_map(d).contiguous() ||
               (a.halo_spec()->lo(d) == 0 && a.halo_spec()->hi(d) == 0);
      }
      if (!keep) {
        a.set_overlap(IndexVec::filled(r, 0), IndexVec::filled(r, 0), false,
                      false);
      }
      if (!a.has_distribution()) {
        a.distribute(h);
        a.init(value_of);
      } else {
        a.distribute(h);
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      check_state(ck, me, a, where + " distribute");

      // Reshape the overlap: symmetric, or a per-rank asymmetric spec.
      const bool asym = rng() % 2 == 0;
      const unsigned base = rng();
      IndexVec lo = IndexVec::filled(r, 0);
      IndexVec hi = IndexVec::filled(r, 0);
      for (int d = 0; d < r; ++d) {
        if (!h->dim_map(d).contiguous()) continue;
        const unsigned salt = asym ? static_cast<unsigned>(me) : 0u;
        lo[d] = static_cast<Index>((base >> (2 * d)) + salt) % 3;
        hi[d] = static_cast<Index>((base >> (2 * d + 6)) + 2 * salt) % 3;
      }
      a.set_overlap(lo, hi, rng() % 2 == 0, asym);
      check_state(ck, me, a, where + " set_overlap");
    }
  });
}

/// Runs the chains of seeds [first, last] on one domain per supported rank
/// (rank >= 2 only for the grid, which distributes two dimensions).
void run_chains(int nprocs, bool grid, unsigned first, unsigned last) {
  for (const IndexDomain& dom :
       {IndexDomain::of_extents({11}), IndexDomain::of_extents({9, 7}),
        IndexDomain::of_extents({9, 7, 3}),
        IndexDomain::of_extents({5, 4, 3, 2})}) {
    if (grid && dom.rank() < 2) continue;
    for (unsigned seed = first; seed <= last; ++seed) {
      run_chain(nprocs, grid, seed, dom);
    }
  }
}

TEST(Addressing, SeededChainsP1) { run_chains(1, false, 1, 6); }

TEST(Addressing, SeededChainsP3) { run_chains(3, false, 11, 16); }

TEST(Addressing, SeededChainsP4Line) { run_chains(4, false, 21, 26); }

TEST(Addressing, SeededChainsP4Grid) { run_chains(4, true, 31, 36); }

// Regression: a rank outside the TO section used to pass the halo bounds
// check (its layout has no counts and a zero segment base), so halo()
// read through the empty local storage.
TEST(Addressing, NonMemberHaloThrows) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const dist::ProcessorSection sec(
        env.processors(), {dist::SectionDim::all(dist::Range{1, 2})});
    Array a(env, {.name = "NM",
                  .domain = IndexDomain::of_extents({16}),
                  .dynamic = true,
                  .initial = dist::DistributionType{dist::block()},
                  .to = sec,
                  .overlap_lo = {2},
                  .overlap_hi = {2}});
    a.init(value_of);
    if (ctx.rank() < 2) {
      ck.check(a.halo_readable({1}) == (ctx.rank() == 0), ctx.rank(),
               "member: own segment or overlap");
      ck.check(a.halo_readable({10}), ctx.rank(), "member: ghost of 9|10");
      return;
    }
    for (Index g = -2; g <= 18; ++g) {
      expect_halo_throws(ck, ctx.rank(), a, IndexVec{g}, "non-member");
    }
  });
}

// Regression: halo() used to accept an index whose size differs from the
// array's rank -- a longer one was read through its first components, a
// shorter one read its missing components as 0 (inside the low ghost).
// Now every access path rejects it, affine or general.
TEST(Addressing, WrongRankHaloThrows) {
  run_checked(1, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx, dist::ProcessorArray::grid(1, 1));
    // 8x8 with overlap 1 in every contiguous dimension: (BLOCK, BLOCK)
    // takes the affine path, (CYCLIC(2), BLOCK) the general one.
    const auto make = [&](const std::string& name, dist::DimDist d0,
                          Index w0) {
      return Array(env, {.name = name,
                         .domain = IndexDomain::of_extents({8, 8}),
                         .initial = dist::DistributionType{std::move(d0),
                                                           dist::block()},
                         .overlap_lo = {w0, 1},
                         .overlap_hi = {w0, 1}});
    };
    for (auto [name, d0, w0] :
         {std::tuple{"Affine", dist::block(), Index{1}},
          std::tuple{"General", dist::cyclic(2), Index{0}}}) {
      Array a = make(name, d0, w0);
      a.init(value_of);
      ck.check(a.halo_readable({3, 4}), 0, a.name() + ": (3,4) readable");
      ck.check_eq(a.halo({3, 4}), value_of({3, 4}), 0,
                  a.name() + ": halo (3,4)");
      for (const IndexVec& i :
           {IndexVec{3, 4, 7}, IndexVec{3}, IndexVec{},
            IndexVec{1, 1, 1, 1}}) {
        expect_halo_throws(ck, 0, a, i, a.name() + " rank 2");
        expect_throw<std::out_of_range>(
            ck, 0, [&] { (void)a.halo_offset(i); },
            a.name() + ": halo_offset " + i.to_string());
      }
    }
  });
}

/// The three map kinds the error paths differ on: BLOCK takes the affine
/// inline path, CYCLIC(2) and INDIRECT the general cold one.  8x6 over a
/// line of two processors, dimension 1 collapsed with an overlap of 1.
struct KindCase {
  const char* name;
  dist::DimDist d0;
  Index w0;
};
std::vector<KindCase> kind_cases() {
  return {{"Block", dist::block(), 1},
          {"Cyclic2", dist::cyclic(2), 0},
          {"Indirect", dist::indirect({0, 1, 1, 0, 0, 0, 1, 1}), 0}};
}

Array make_kind_array(Env& env, const KindCase& k, bool distributed) {
  Array::Spec spec{.name = k.name,
                   .domain = IndexDomain::of_extents({8, 6}),
                   .dynamic = true,
                   .overlap_lo = {k.w0, 1},
                   .overlap_hi = {k.w0, 1}};
  if (distributed) spec.initial = dist::DistributionType{k.d0, dist::col()};
  return Array(env, spec);
}

// The inline accessors throw through a [[noreturn]] call after a cold
// translation that reports failure by a sentinel offset; these are the
// errors that path must still raise, per map kind.
TEST(Addressing, ErrorPathsPerMapKind) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    const int me = ctx.rank();
    Env env(ctx, dist::ProcessorArray::line(2));
    for (const KindCase& k : kind_cases()) {
      const std::string name = k.name;
      // Before any distribution every accessor refuses.
      Array u = make_kind_array(env, k, false);
      const IndexVec first{1, 1};
      expect_throw<NotDistributedError>(
          ck, me, [&] { (void)u.at(first); }, name + ": at undistributed");
      expect_throw<NotDistributedError>(
          ck, me, [&] { (void)std::as_const(u).at(first); },
          name + ": const at undistributed");
      expect_throw<NotDistributedError>(
          ck, me, [&] { (void)u.halo(first); },
          name + ": halo undistributed");
      expect_throw<NotDistributedError>(
          ck, me, [&] { (void)u.storage_offset(first); },
          name + ": storage_offset undistributed");

      Array a = make_kind_array(env, k, true);
      a.init(value_of);
      std::vector<IndexVec> owned;
      a.distribution().for_owned(me, [&](const IndexVec& i) {
        owned.push_back(i);
      });
      ck.check(!owned.empty(), me, name + ": owns something");
      const IndexVec p0 = owned.front();
      ck.check_eq(a.halo(p0), value_of(p0), me, name + ": halo of owned");

      // Out of the readable box: every unreadable coordinate of
      // dimension 0 (one past the ghosts, unowned CYCLIC/INDIRECT
      // coordinates, outside the domain), each naming the array.
      int unreadable = 0;
      for (Index x = -2; x <= 11; ++x) {
        const IndexVec i{x, p0[1]};
        if (a.halo_readable(i)) continue;
        ++unreadable;
        expect_halo_throws(ck, me, a, i, name + ": out of box");
      }
      ck.check(unreadable >= 4, me, name + ": unreadable points exist");

      // Indices of the wrong size.
      for (const IndexVec& i :
           {IndexVec{p0[0]}, IndexVec{p0[0], p0[1], 1}, IndexVec{}}) {
        expect_halo_throws(ck, me, a, i, name + ": wrong size");
        expect_throw<std::out_of_range>(
            ck, me, [&] { (void)a.halo_offset(i); },
            name + ": halo_offset wrong size " + i.to_string());
      }

      // at() checks nothing on the affine path; on the general one, an
      // index it cannot translate keeps the storage error: DimMap's
      // domain message, or one naming the array for a wrong size.
      if (k.w0 == 0) {
        for (const Index x : {Index{0}, Index{9}}) {
          expect_at_throws(ck, me, a, IndexVec{x, p0[1]},
                           "DimMap: index " + std::to_string(x) +
                               " outside domain",
                           name + ": at out of domain");
        }
        for (const IndexVec& i : {IndexVec{p0[0]}, IndexVec{p0[0], p0[1], 1}}) {
          expect_at_throws(ck, me, a, i, "local storage of " + name,
                           name + ": at wrong size");
        }
      }
    }
  });
}

// A throw caught inside the for_owned callback must not disturb the rest
// of the sweep: the accessors' state is read once for the loop, and the
// catch re-enters it on the path the throw left from.  Every third point
// reads an unreadable index -- out of the domain, or of the wrong size --
// catches the out_of_range, and goes on reading through at() and halo();
// both sweeps must match the reference bit for bit.
TEST(Addressing, ThrowCaughtInsideSweep) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    const int me = ctx.rank();
    Env env(ctx, dist::ProcessorArray::line(2));
    for (const KindCase& k : kind_cases()) {
      const std::string name = k.name;
      Array a = make_kind_array(env, k, true);
      a.init(value_of);
      a.exchange_overlap();
      Array b = make_kind_array(env, k, true);
      // The next point along dimension 0 under BLOCK (a ghost at the
      // block's high face), along the collapsed dimension 1 otherwise.
      const auto up = [&](const IndexVec& i) {
        return k.w0 > 0 ? IndexVec{std::min<Index>(i[0] + 1, 8), i[1]}
                        : IndexVec{i[0], std::min<Index>(i[1] + 1, 6)};
      };
      for (int sweep = 0; sweep < 2; ++sweep) {
        std::size_t caught = 0;
        std::size_t missed = 0;
        b.for_owned([&](const IndexVec& i, double& out) {
          double v = a.at(i);
          if ((i[0] + 2 * i[1]) % 3 == 0) {
            const IndexVec bad =
                i[1] % 2 == 0 ? IndexVec{i[0] + 100, i[1]} : IndexVec{i[0]};
            try {
              v += a.halo(bad);
              ++missed;
            } catch (const std::out_of_range&) {
              ++caught;
              v += 0.25;
            }
          }
          out = 2.0 * v + a.halo(up(i)) + a.at(i);
        });
        std::size_t want_caught = 0;
        b.for_owned([&](const IndexVec& i, double& got) {
          const bool bad = (i[0] + 2 * i[1]) % 3 == 0;
          want_caught += bad ? 1 : 0;
          const double want = 2.0 * (value_of(i) + (bad ? 0.25 : 0.0)) +
                              value_of(up(i)) + value_of(i);
          ck.check(std::bit_cast<std::uint64_t>(got) ==
                       std::bit_cast<std::uint64_t>(want),
                   me,
                   name + " sweep " + std::to_string(sweep) + ": " +
                       i.to_string());
        });
        ck.check_eq(caught, want_caught, me, name + ": every bad read threw");
        ck.check_eq(missed, std::size_t{0}, me, name + ": no bad read passed");
      }
    }
  });
}

}  // namespace
}  // namespace vf::rt
