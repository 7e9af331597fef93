// Tests for the local access functions (loc_map, paper Section 3.2.1)
// at their edges: non-member and wrong-rank halo() reads, the error
// paths per map kind (BLOCK, CYCLIC(2), INDIRECT), and a throw caught
// inside a sweep.  The seeded chains that check storage_offset,
// halo_offset, halo() bounds and the owned walkers against a DimMap
// reference in every state (check_state) are the chain fuzzer's
// (fuzz_chain.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fuzz_chain.hpp"
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
using testing::fuzz::Array;
using testing::fuzz::expect_halo_throws;
using testing::fuzz::fingerprint_of;

template <typename E, typename F>
void expect_throw(SpmdChecker& ck, int rank, F&& fn, const std::string& what) {
  try {
    fn();
    ck.fail("[rank " + std::to_string(rank) + "] " + what + ": no throw");
  } catch (const E&) {
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
    a.init(fingerprint_of(a.domain()));
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
      a.init(fingerprint_of(a.domain()));
      ck.check(a.halo_readable({3, 4}), 0, a.name() + ": (3,4) readable");
      ck.check_eq(a.halo({3, 4}), fingerprint_of(a.domain())({3, 4}), 0,
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
      expect_throw<NotDistributedError>(
          ck, me, [&] { (void)u.halo_offset(first); },
          name + ": halo_offset undistributed");
      expect_throw<NotDistributedError>(
          ck, me, [&] { u.for_owned([](const IndexVec&, double&) {}); },
          name + ": for_owned undistributed");
      ck.check(!u.halo_readable(first), me, name + ": readable undistributed");

      Array a = make_kind_array(env, k, true);
      a.init(fingerprint_of(a.domain()));
      std::vector<IndexVec> owned;
      a.distribution().for_owned(me, [&](const IndexVec& i) {
        owned.push_back(i);
      });
      ck.check(!owned.empty(), me, name + ": owns something");
      const IndexVec p0 = owned.front();
      ck.check_eq(a.halo(p0), fingerprint_of(a.domain())(p0), me,
                  name + ": halo of owned");

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
      const auto value_of = fingerprint_of(a.domain());
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
