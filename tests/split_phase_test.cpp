// Split-phase halo exchange: the in-flight misuse guards must throw the
// documented structured errors without corrupting the array, and the
// split-phase application paths (smoothing, AMR front, ADI coupled RHS)
// must reproduce their blocking checksums bitwise.  Bitwise equality with
// the blocking exchange and the exact interior/boundary partition under
// random distributions and specs are checked by the chain fuzzer
// (fuzz_chain.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz_chain.hpp"
#include "spmd_test_util.hpp"
#include "vf/apps/adi_sim.hpp"
#include "vf/apps/amr_front.hpp"
#include "vf/apps/smoothing_sim.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::rt {
namespace {

using dist::block;
using dist::DistributionType;
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using testing::SpmdChecker;
using testing::fuzz::fingerprint;

/// The in-flight misuse guards: DISTRIBUTE, set_overlap and a second
/// begin throw ExchangeInFlightError naming the array, the operation and
/// the pending tag; the exchange then completes normally and the array
/// (ghosts included) is intact, so the guard never corrupts state.
TEST(SplitPhaseGuards, GeometryChangesInFlightThrowStructuredErrors) {
  constexpr int kP = 4;
  msg::Machine machine(kP);
  SpmdChecker ck;
  msg::run_spmd(machine, [&](Context& ctx) {
    Env env(ctx, dist::ProcessorArray::line(kP));
    const IndexDomain dom = IndexDomain::of_extents({16});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([&](const IndexVec& i) { return fingerprint(dom.linearize(i)); });
    a.begin_exchange_overlap();
    ck.check(a.exchange_in_flight(), ctx.rank(), "in-flight flag set");

    const auto expect_in_flight = [&](const char* op, auto&& call) {
      try {
        call();
        ck.fail("[rank " + std::to_string(ctx.rank()) + "] " +
                std::string(op) + " in flight did not throw");
      } catch (const ExchangeInFlightError& e) {
        ck.check_eq(e.array_name, std::string("A"), ctx.rank(),
                    std::string(op) + ": array_name");
        ck.check_eq(e.operation, std::string(op), ctx.rank(), "operation");
        ck.check(e.pending_tag < 0, ctx.rank(),
                 std::string(op) + ": pending_tag is a collective tag");
      }
    };
    expect_in_flight("distribute", [&] {
      a.distribute(DistributionType{dist::cyclic(1)});
    });
    expect_in_flight("set_overlap", [&] { a.set_overlap({2}, {2}); });
    expect_in_flight("begin_exchange_overlap",
                     [&] { a.begin_exchange_overlap(); });

    // The pending exchange is untouched by the rejected calls: it
    // completes, fills the ghosts, and the array accepts geometry
    // changes again.
    a.end_exchange_overlap();
    ck.check(!a.exchange_in_flight(), ctx.rank(), "in-flight flag cleared");
    const auto seg = a.distribution().dim_map(0).segment(
        static_cast<int>(a.layout().coords[0]));
    if (seg && ctx.rank() > 0) {
      ck.check_eq(a.halo({seg->lo - 1}), fingerprint(seg->lo - 2),
                  ctx.rank(), "low ghost after guarded exchange");
    }
    a.distribute(DistributionType{dist::s_block({2, 6, 4, 4})});
    a.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, fingerprint(dom.linearize(i)), ctx.rank(),
                  "data after post-guard distribute");
    });
  });
  ck.expect_clean();
}

TEST(SplitPhaseGuards, EndWithoutBeginThrows) {
  testing::run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return 1.0 * i[0]; });
    try {
      a.end_exchange_overlap();
      ck.fail("end without begin did not throw");
    } catch (const NoExchangeInFlightError& e) {
      ck.check_eq(e.array_name, std::string("A"), ctx.rank(), "array_name");
    }
    // A completed pair re-arms the guard: a second end throws again.
    a.begin_exchange_overlap();
    a.end_exchange_overlap();
    try {
      a.end_exchange_overlap();
      ck.fail("double end did not throw");
    } catch (const NoExchangeInFlightError&) {
    }
  });
}

/// DISTRIBUTE on a connect-class member is also blocked while any OTHER
/// member has an exchange in flight -- the redistribution would drag the
/// in-flight array's storage along.
TEST(SplitPhaseGuards, ConnectClassDistributeBlockedBySecondaryInFlight) {
  testing::run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({8});
    DistArray<double> b(env, {.name = "B",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    DistArray<double> a(env,
                        {.name = "A", .domain = dom, .dynamic = true},
                        Connection::extraction(b));
    a.set_overlap({1}, {1});
    a.begin_exchange_overlap();
    try {
      b.distribute(DistributionType{dist::s_block({2, 6})});
      ck.fail("distribute with secondary in flight did not throw");
    } catch (const ExchangeInFlightError& e) {
      ck.check_eq(e.array_name, std::string("A"), ctx.rank(), "array_name");
      ck.check_eq(e.operation, std::string("distribute (via connect class)"),
                  ctx.rank(), "operation");
    }
    a.end_exchange_overlap();
    b.distribute(DistributionType{dist::s_block({2, 6})});
  });
}

/// split_margins() is local: the margins are the declared ghost widths,
/// so asking for them -- directly or through the margin-less traversal
/// overloads -- never resolves a halo plan.  An asymmetric set_overlap
/// leaves the reconciled family stale, which a plan lookup would have to
/// repair with the spec-exchange collective.
TEST(SplitPhaseGuards, SplitMarginsIsCommunicationFree) {
  testing::run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({32}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1},
                              .overlap_asymmetric = true});
    a.init([](const IndexVec& i) { return 1.0 * i[0]; });
    a.exchange_overlap();
    const Index w = 1 + ctx.rank() % 2;
    a.set_overlap({w}, {1}, false, /*asymmetric=*/true);
    ck.check(!a.halo_family(), ctx.rank(), "family stale after set_overlap");

    ctx.barrier();
    const std::uint64_t spec_exchanges = a.halo_spec_exchanges();
    const std::uint64_t collectives = ctx.stats().collectives;
    const std::uint64_t builds = halo::plan_builds();
    const auto m = a.split_margins();
    std::size_t visited = 0;
    a.for_owned_interior([&](const IndexVec&, double&) { ++visited; });
    a.for_owned_boundary([&](const IndexVec&, double&) { ++visited; });
    ck.check_eq(a.halo_spec_exchanges(), spec_exchanges, ctx.rank(),
                "no spec exchange");
    ck.check_eq(ctx.stats().collectives, collectives, ctx.rank(),
                "no collective");
    ck.check_eq(halo::plan_builds(), builds, ctx.rank(), "no plan build");
    ctx.barrier();

    ck.check(m.lo == IndexVec{w} && m.hi == IndexVec{1}, ctx.rank(),
             "margins are the declared widths");
    ck.check_eq(visited, std::size_t{8}, ctx.rank(), "owned set partitioned");
    ck.check(!a.halo_family(), ctx.rank(), "family still stale");
  });
}

// ---- application paths: split-phase reproduces blocking bitwise -----------

TEST(SplitPhaseApps, SmoothingMatchesBlockingBitwise) {
  for (const apps::SmoothStencil st :
       {apps::SmoothStencil::FivePoint, apps::SmoothStencil::NinePoint}) {
    for (const apps::SmoothLayout ly :
         {apps::SmoothLayout::Columns, apps::SmoothLayout::Grid2D}) {
      SCOPED_TRACE(std::string(to_string(st)) + "/" + to_string(ly));
      double blocking = 0.0;
      double split = 0.0;
      testing::run_checked(4, [&](Context& ctx, SpmdChecker&) {
        const auto r = apps::run_smoothing(
            ctx, {.n = 16, .steps = 3, .stencil = st}, ly);
        if (ctx.rank() == 0) blocking = r.checksum;
      });
      testing::run_checked(4, [&](Context& ctx, SpmdChecker&) {
        const auto r = apps::run_smoothing(
            ctx, {.n = 16, .steps = 3, .stencil = st, .split_phase = true},
            ly);
        if (ctx.rank() == 0) split = r.checksum;
      });
      EXPECT_EQ(blocking, split);
    }
  }
}

TEST(SplitPhaseApps, AmrFrontMatchesBlockingAndReferenceBitwise) {
  const apps::AmrFrontConfig base{.n = 16, .steps = 3};
  double blocking = 0.0;
  double split = 0.0;
  testing::run_checked(4, [&](Context& ctx, SpmdChecker&) {
    const auto r = apps::run_amr_front(ctx, base);
    if (ctx.rank() == 0) blocking = r.checksum;
  });
  apps::AmrFrontConfig cfg = base;
  cfg.split_phase = true;
  testing::run_checked(4, [&](Context& ctx, SpmdChecker&) {
    const auto r = apps::run_amr_front(ctx, cfg);
    if (ctx.rank() == 0) split = r.checksum;
  });
  EXPECT_EQ(blocking, split);
  EXPECT_EQ(split, apps::amr_checksum(apps::amr_front_reference(base)));
}

TEST(SplitPhaseApps, AdiCoupledRhsMatchesBlockingBitwise) {
  for (const apps::AdiStrategy strat :
       {apps::AdiStrategy::DynamicRedistribution,
        apps::AdiStrategy::StaticGatherLines,
        apps::AdiStrategy::StaticTwoCopies}) {
    SCOPED_TRACE(apps::to_string(strat));
    const apps::AdiConfig base{
        .nx = 12, .ny = 12, .iterations = 3, .rhs_halo = true};
    double blocking = 0.0;
    double split = 0.0;
    testing::run_checked(4, [&](Context& ctx, SpmdChecker&) {
      const auto r = apps::run_adi(ctx, base, strat);
      if (ctx.rank() == 0) blocking = r.checksum;
    });
    apps::AdiConfig cfg = base;
    cfg.split_phase = true;
    testing::run_checked(4, [&](Context& ctx, SpmdChecker&) {
      const auto r = apps::run_adi(ctx, cfg, strat);
      if (ctx.rank() == 0) split = r.checksum;
    });
    EXPECT_EQ(blocking, split);
    // The coupled RHS actually exercises the halo path.
    EXPECT_NE(blocking, 0.0);
  }
}

}  // namespace
}  // namespace vf::rt
