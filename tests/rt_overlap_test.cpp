// Tests for overlap (ghost) areas: the descriptor component the compiler
// maintains for stencil communication (paper Section 3.1 "overlap areas")
// and the exchange operation used by the smoothing example of Section 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::rt {
namespace {

using dist::block;
using dist::col;
using dist::cyclic;
using dist::DistributionType;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using testing::run_checked;
using testing::SpmdChecker;

TEST(Overlap, GhostValuesArriveAfterExchange1D) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({16}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
    a.exchange_overlap();
    // Each rank owns 4 elements; interior neighbours must now be readable.
    const dist::Index lo = 4 * ctx.rank() + 1;
    const dist::Index hi = lo + 3;
    if (lo > 1) {
      ck.check(a.halo_readable({lo - 1}), ctx.rank(), "low ghost readable");
      ck.check_eq(a.halo({lo - 1}), static_cast<double>(lo - 1), ctx.rank(),
                  "low ghost value");
    }
    if (hi < 16) {
      ck.check(a.halo_readable({hi + 1}), ctx.rank(), "high ghost readable");
      ck.check_eq(a.halo({hi + 1}), static_cast<double>(hi + 1), ctx.rank(),
                  "high ghost value");
    }
    ck.check(!a.halo_readable({(lo + 8) % 16 + 1}), ctx.rank(),
             "far element not readable");
  });
}

TEST(Overlap, TwoDimFacesExchange) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    dist::ProcessorArray grid = dist::ProcessorArray::grid(2, 2);
    Env env(ctx, grid);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8, 8}),
                              .dynamic = true,
                              .initial = DistributionType{block(), block()},
                              .overlap_lo = {1, 1},
                              .overlap_hi = {1, 1}});
    a.init([](const IndexVec& i) {
      return static_cast<double>(100 * i[0] + i[1]);
    });
    a.exchange_overlap();
    // Check the faces adjacent to each owned 4x4 block.
    a.for_owned([&](const IndexVec& i, double&) {
      for (int d = 0; d < 2; ++d) {
        for (int step : {-1, +1}) {
          IndexVec n = i;
          n[d] += step;
          if (!a.domain().contains(n)) continue;
          // A face neighbour differs from i in exactly one dimension; it
          // must be readable (owned or ghost).
          if (a.halo_readable(n)) {
            ck.check_eq(a.halo(n), static_cast<double>(100 * n[0] + n[1]),
                        ctx.rank(), "face value at " + n.to_string());
          } else {
            ck.fail("face neighbour " + n.to_string() + " not readable");
          }
        }
      }
    });
  });
}

TEST(Overlap, WiderOverlapCarriesTwoPlanes) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> a(env, {.name = "A",
                           .domain = IndexDomain::of_extents({12}),
                           .dynamic = true,
                           .initial = DistributionType{block()},
                           .overlap_lo = {2},
                           .overlap_hi = {2}});
    a.init([](const IndexVec& i) { return static_cast<int>(i[0]); });
    a.exchange_overlap();
    if (ctx.rank() == 0) {
      ck.check_eq(a.halo({7}), 7, 0, "first ghost plane");
      ck.check_eq(a.halo({8}), 8, 0, "second ghost plane");
    } else {
      ck.check_eq(a.halo({6}), 6, 1, "first ghost plane");
      ck.check_eq(a.halo({5}), 5, 1, "second ghost plane");
    }
  });
}

TEST(Overlap, CollapsedDimNeedsNoExchange) {
  // (:, BLOCK): rows are entirely local, ghosts only needed in dim 1.
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({4, 8}),
                              .dynamic = true,
                              .initial = DistributionType{col(), block()},
                              .overlap_lo = {0, 1},
                              .overlap_hi = {0, 1}});
    a.init([](const IndexVec& i) {
      return static_cast<double>(10 * i[0] + i[1]);
    });
    a.exchange_overlap();
    const dist::Index jb = ctx.rank() == 0 ? 5 : 4;  // adjacent column
    for (dist::Index i = 1; i <= 4; ++i) {
      ck.check_eq(a.halo({i, jb}), static_cast<double>(10 * i + jb),
                  ctx.rank(), "column ghost");
    }
  });
}

// Ghosts need a contiguous dimension whose coordinates follow the index
// order: CYCLIC(1) is refused at declaration and by set_overlap (which
// leaves the array as it was), and so is an INDIRECT map whose owned
// intervals are out of coordinate order (the halo plans would take the
// wrong neighbours).
TEST(Overlap, RejectsGhostOnNonContiguousDim) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const auto declare = [&](dist::DimDist d, dist::Index w) {
      return DistArray<double>(env, {.name = "A",
                                     .domain = IndexDomain::of_extents({16}),
                                     .dynamic = true,
                                     .initial = DistributionType{d},
                                     .overlap_lo = {w},
                                     .overlap_hi = {w}});
    };
    std::vector<int> reversed(16, 1);
    std::fill(reversed.begin() + 8, reversed.end(), 0);
    for (const dist::DimDist& d : {cyclic(1), dist::indirect(reversed)}) {
      try {
        (void)declare(d, 1);
        ck.fail("expected invalid_argument for " + d.to_string());
      } catch (const std::invalid_argument&) {
      }
    }
    DistArray<double> c = declare(cyclic(1), 0);
    const halo::HaloHandle spec = c.halo_spec();
    try {
      c.set_overlap({1}, {1});
      ck.fail("expected invalid_argument (set_overlap on CYCLIC(1))");
    } catch (const std::invalid_argument&) {
    }
    ck.check(c.halo_spec() == spec && c.alloc_total() == 8, ctx.rank(),
             "set_overlap left the array as it was");
  });
}

// A DISTRIBUTE whose target cannot carry the declared ghosts was refused
// only when the new storage shape was built, after the exchange and the
// descriptor swap: the array then reported CYCLIC(1) over the old padded
// storage.  It is refused before any data message, the array unchanged,
// and alike on every rank -- also under an asymmetric declaration that
// gives only rank 1 widths, where rank 0 used to go on into the exchange
// alone.  There the verdict reads the reconciled family, which the
// DISTRIBUTE reconciles itself when set_overlap has left it stale.
TEST(Overlap, RejectedDistributeLeavesArrayUnchanged) {
  msg::Machine m(2);
  m.set_lockstep_check(true);
  m.set_recv_watchdog(std::chrono::seconds(10));
  testing::run_checked_on(m, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({16}),
                              .dynamic = true,
                              .initial = DistributionType{dist::block_width(8)},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return 0.5 + static_cast<double>(i[0]); });
    const IndexVec w{ctx.rank()};
    for (const char* at : {"uniform: ", "stale: ", "reconciled: "}) {
      const bool stale = at[0] == 's';
      if (at[0] != 'u') a.set_overlap(w, w);  // asymmetric
      if (!stale) a.exchange_overlap();
      const dist::DistHandle before = a.dist_handle();
      const std::vector<double> storage(a.local_span().begin(),
                                        a.local_span().end());
      const msg::CommStats traffic = ctx.stats();
      try {
        a.distribute(DistributionType{cyclic(1)});
        ck.fail(std::string(at) + "expected invalid_argument");
      } catch (const std::invalid_argument& e) {
        ck.check(std::string(e.what()) ==
                     "array A: overlap areas require a contiguous "
                     "distribution in dimension 0",
                 ctx.rank(), at + std::string(e.what()));
      }
      ck.check(a.dist_handle() == before &&
                   std::equal(storage.begin(), storage.end(),
                              a.local_span().begin(), a.local_span().end()),
               ctx.rank(), at + std::string("descriptor and storage kept"));
      ck.check(ctx.stats().data_messages == traffic.data_messages, ctx.rank(),
               at + std::string("refused before any data message"));
      ck.check_eq(ctx.stats().collectives - traffic.collectives,
                  std::uint64_t{stale ? 1u : 0u}, ctx.rank(),
                  at + std::string("collectives: a stale family's exchange"));
    }
    // Every rank is still in step: the exchange fills rank 1's ghosts.
    a.exchange_overlap();
    if (ctx.rank() == 1) ck.check_eq(a.halo({8}), 8.5, 1, "low ghost");
  });
  EXPECT_EQ(m.lockstep().mismatches(), 0u);
}

TEST(Overlap, SurvivesRedistribution) {
  // Ghost widths persist across a DISTRIBUTE between contiguous layouts.
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8, 8}),
                              .dynamic = true,
                              .initial = DistributionType{col(), block()},
                              .overlap_lo = {0, 1},
                              .overlap_hi = {0, 1}});
    a.init([](const IndexVec& i) {
      return static_cast<double>(100 * i[0] + i[1]);
    });
    // Redistribution must refuse: ghosts declared on dim 1, and after the
    // remap dim 1 stays contiguous (col->block in dim 0 is invalid because
    // ghost widths were declared per dimension and dim 1 keeps them).
    a.distribute(DistributionType{col(), cyclic(4)});  // still contiguous
    a.exchange_overlap();
    a.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, static_cast<double>(100 * i[0] + i[1]), ctx.rank(),
                  "data preserved");
    });
  });
}

// DISTRIBUTE writes every owned element through the plan's unpack; the
// install zeroes reused storage first only where it has ghost padding.
// Each flip lands on storage that still holds the previous layout's owned
// values (and, padded, the ghosts of an exchange), so a ghost the install
// failed to zero, or an owned element the unpack missed, shows up as a
// stale value.  Unpadded, no element is zeroed before the unpack.
void check_distribute_chain(bool padded) {
  run_checked(4, [padded](Context& ctx, SpmdChecker& ck) {
    const int me = ctx.rank();
    Env env(ctx, dist::ProcessorArray::grid(2, 2));
    const auto value_of = [](const IndexVec& i) {
      return static_cast<double>(1 + 100 * i[0] + i[1]);
    };
    const dist::Index w = padded ? 1 : 0;
    DistArray<double> a(env, {.name = "Z",
                              .domain = IndexDomain::of_extents({12, 10}),
                              .dynamic = true,
                              .initial = DistributionType{block(), block()},
                              .overlap_lo = {w, 2 * w},
                              .overlap_hi = {2 * w, w},
                              .overlap_corners = padded});
    a.init(value_of);
    const DistributionType chain[] = {
        DistributionType{dist::s_block({3, 9}), block()},
        DistributionType{block(), dist::s_block({7, 3})},
        DistributionType{block(), block()},
        DistributionType{dist::s_block({9, 3}), dist::s_block({2, 8})}};
    for (int round = 0; round < 2; ++round) {
      for (const DistributionType& t : chain) {
        a.exchange_overlap();
        a.distribute(t);
        const std::string where = "after " + t.to_string();
        std::size_t readable = 0;
        for (dist::Index y = -1; y <= 12; ++y) {
          for (dist::Index x = -1; x <= 14; ++x) {
            const IndexVec i{x, y};
            if (!a.halo_readable(i)) continue;
            ++readable;
            const bool owned =
                a.domain().contains(i) && a.distribution().owns(me, i);
            const double want = owned ? value_of(i) : 0.0;
            ck.check(std::bit_cast<std::uint64_t>(a.halo(i)) ==
                         std::bit_cast<std::uint64_t>(want),
                     me,
                     where + (owned ? ": owned " : ": ghost ") +
                         i.to_string() + " reads " +
                         std::to_string(a.halo(i)));
          }
        }
        ck.check_eq(readable, a.local_span().size(), me,
                    where + ": every storage element checked");
      }
    }
  });
}

TEST(Overlap, DistributeZeroesGhostsAndWritesOwned) {
  check_distribute_chain(/*padded=*/true);
}

TEST(Overlap, DistributeWritesOwnedWithoutPadding) {
  check_distribute_chain(/*padded=*/false);
}

TEST(Overlap, HaloAccessOutsideRegionThrows) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({16}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.exchange_overlap();
    if (ctx.rank() == 0) {
      try {
        (void)a.halo({7});  // two past my segment 1..4
        ck.fail("expected out_of_range");
      } catch (const std::out_of_range&) {
      }
    }
  });
}

}  // namespace
}  // namespace vf::rt
