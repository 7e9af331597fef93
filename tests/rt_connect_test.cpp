// Tests for connect classes (paper Section 2.3) and the NOTRANSFER
// attribute (Section 2.4): secondary arrays follow the primary through
// DISTRIBUTE, extraction and alignment connections are maintained, and
// NOTRANSFER suppresses data motion.
#include <gtest/gtest.h>

#include <string>

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

TEST(Connect, SecondaryMustBeDynamic) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b(env, {.name = "B",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    try {
      DistArray<int> a(env,
                       {.name = "A",
                        .domain = IndexDomain::of_extents({8})},
                       Connection::extraction(b));
      ck.fail("expected invalid_argument");
    } catch (const std::invalid_argument&) {
    }
  });
}

TEST(Connect, ExtractionAdoptsPrimaryTypeImmediately) {
  // Example 2: A1(N,N) DYNAMIC, CONNECT(=B4).
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    dist::ProcessorArray grid = dist::ProcessorArray::grid(2, 2);
    Env env(ctx, grid);
    DistArray<double> b4(env, {.name = "B4",
                               .domain = IndexDomain::of_extents({8, 8}),
                               .dynamic = true,
                               .initial = DistributionType{block(), cyclic(1)}});
    DistArray<double> a1(env,
                         {.name = "A1",
                          .domain = IndexDomain::of_extents({6, 6}),
                          .dynamic = true},
                         Connection::extraction(b4));
    ck.check(a1.has_distribution(), ctx.rank(), "adopted at declaration");
    ck.check(a1.is_secondary(), ctx.rank(), "secondary");
    ck.check(b4.is_primary(), ctx.rank(), "primary");
    ck.check_eq(a1.distribution().type(), b4.distribution().type(),
                ctx.rank(), "same type");
    ck.check_eq(b4.connect_class().secondaries().size(), std::size_t{1},
                ctx.rank(), "C(B4) = {B4, A1}");
  });
}

TEST(Connect, DistributePropagatesThroughClass) {
  // Example 3, fourth statement: distributing B4 redistributes A1 and A2.
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    dist::ProcessorArray grid = dist::ProcessorArray::grid(2, 2);
    Env env(ctx, grid);
    const IndexDomain dom = IndexDomain::of_extents({8, 8});
    DistArray<double> b4(env, {.name = "B4",
                               .domain = dom,
                               .dynamic = true,
                               .initial = DistributionType{block(), cyclic(1)}});
    DistArray<double> a1(env, {.name = "A1", .domain = dom, .dynamic = true},
                         Connection::extraction(b4));
    DistArray<double> a2(env, {.name = "A2", .domain = dom, .dynamic = true},
                         Connection::alignment(
                             b4, dist::Alignment::identity(2)));
    a1.init([&](const IndexVec& i) { return 1.0 * dom.linearize(i); });
    a2.init([&](const IndexVec& i) { return 2.0 * dom.linearize(i); });

    b4.distribute(DistributionType{cyclic(2), cyclic(3)});

    ck.check_eq(a1.distribution().type(), b4.distribution().type(),
                ctx.rank(), "A1 follows");
    ck.check_eq(a2.distribution().type(), b4.distribution().type(),
                ctx.rank(), "A2 follows");
    // Identity alignment: same mapping as the primary.
    ck.check(a2.distribution().same_mapping(b4.distribution()), ctx.rank(),
             "A2 identical mapping");
    a1.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, 1.0 * dom.linearize(i), ctx.rank(), "A1 data moved");
    });
    a2.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, 2.0 * dom.linearize(i), ctx.rank(), "A2 data moved");
    });
  });
}

TEST(Connect, AlignmentConnectionKeepsColocation) {
  // A transposed secondary stays colocated across redistributions.
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({8, 8});
    DistArray<double> b(env, {.name = "B",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{col(), block()}});
    DistArray<double> d(env, {.name = "D", .domain = dom, .dynamic = true},
                        Connection::alignment(
                            b, dist::Alignment::permutation(2, {1, 0})));
    b.distribute(DistributionType{block(), col()});
    d.for_owned([&](const IndexVec& i, double&) {
      ck.check_eq(b.distribution().owner_rank({i[1], i[0]}), ctx.rank(),
                  ctx.rank(), "D(i,j) with B(j,i)");
    });
  });
}

TEST(Connect, DistributeOnSecondaryIsRejected) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b(env, {.name = "B",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    DistArray<int> a(env,
                     {.name = "A",
                      .domain = IndexDomain::of_extents({8}),
                      .dynamic = true},
                     Connection::extraction(b));
    try {
      a.distribute(DistributionType{cyclic(1)});
      ck.fail("expected logic_error (secondary)");
    } catch (const std::logic_error&) {
    }
  });
}

TEST(Connect, SecondaryOfSecondaryIsRejected) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b(env, {.name = "B",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    DistArray<int> a(env,
                     {.name = "A",
                      .domain = IndexDomain::of_extents({8}),
                      .dynamic = true},
                     Connection::extraction(b));
    try {
      DistArray<int> c(env,
                       {.name = "C",
                        .domain = IndexDomain::of_extents({8}),
                        .dynamic = true},
                       Connection::extraction(a));
      ck.fail("expected invalid_argument (secondary primary)");
    } catch (const std::invalid_argument&) {
    }
  });
}

TEST(Connect, NoTransferSkipsDataMotion) {
  msg::Machine m(4);
  msg::run_spmd(m, [](Context& ctx) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({64});
    DistArray<double> b(env, {.name = "B",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    DistArray<double> a(env, {.name = "A", .domain = dom, .dynamic = true},
                        Connection::extraction(b));
    b.fill(1.0);
    a.fill(2.0);
    ctx.barrier();
    if (ctx.rank() == 0) ctx.machine().reset_stats();
    ctx.barrier();
    b.distribute(DistributionType{cyclic(1)}, NoTransfer{&a});
    // A's descriptor changed even though its data did not move.
    if (a.distribution().type().dim(0).kind != dist::DimDistKind::Cyclic) {
      throw std::runtime_error("descriptor not updated");
    }
  });
  // Only B's elements travelled: 64 - 16 stay-at-home = 48 doubles.
  EXPECT_EQ(m.total_stats().data_bytes, 48 * sizeof(double));
}

TEST(Connect, NoTransferValidatesMembership) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b(env, {.name = "B",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    DistArray<int> x(env, {.name = "X",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    try {
      b.distribute(DistributionType{cyclic(1)}, NoTransfer{&x});
      ck.fail("expected invalid_argument (X not in C(B))");
    } catch (const std::invalid_argument&) {
    }
    try {
      x.distribute(DistributionType{cyclic(1)}, NoTransfer{&x});
      ck.fail("expected invalid_argument (primary in NOTRANSFER)");
    } catch (const std::invalid_argument&) {
    }
  });
}

TEST(Connect, IndependentClassesDoNotInterfere) {
  // "The distributions of arrays in different equivalence classes are
  // independent of each other."
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b1(env, {.name = "B1",
                            .domain = IndexDomain::of_extents({8}),
                            .dynamic = true,
                            .initial = DistributionType{block()}});
    DistArray<int> b2(env, {.name = "B2",
                            .domain = IndexDomain::of_extents({8}),
                            .dynamic = true,
                            .initial = DistributionType{block()}});
    b1.distribute(DistributionType{cyclic(1)});
    ck.check_eq(b2.distribution().type().dim(0).kind,
                dist::DimDistKind::Block, ctx.rank(), "B2 untouched");
  });
}

TEST(Connect, SecondaryRangeIsCheckedOnPropagation) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b(env, {.name = "B",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    DistArray<int> a(env,
                     {.name = "A",
                      .domain = IndexDomain::of_extents({8}),
                      .dynamic = true,
                      .range = {query::TypePattern{query::p_block()}}},
                     Connection::extraction(b));
    b.init([](const IndexVec& i) { return 10 * i[0]; });
    const dist::DistHandle b_before = b.dist_handle();
    const dist::DistHandle a_before = a.dist_handle();
    try {
      b.distribute(DistributionType{cyclic(1)});
      ck.fail("expected RangeViolationError via secondary");
    } catch (const RangeViolationError&) {
    }
    // The statement is rejected before the primary moves: the class stays
    // on BLOCK together.
    ck.check(b.dist_handle() == b_before, ctx.rank(), "primary unchanged");
    ck.check(a.dist_handle() == a_before, ctx.rank(), "secondary unchanged");
    b.for_owned([&](const IndexVec& i, int& v) {
      ck.check_eq(v, 10 * i[0], ctx.rank(), "primary values kept");
    });
  });
}

// A secondary's ghost widths are checked against its derived target
// before anything moves, like its RANGE.
TEST(Connect, SecondaryGhostsAreCheckedBeforeMotion) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b(env, {.name = "B",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    DistArray<int> a(env,
                     {.name = "A",
                      .domain = IndexDomain::of_extents({8}),
                      .dynamic = true,
                      .overlap_lo = {1},
                      .overlap_hi = {1}},
                     Connection::extraction(b));
    const dist::DistHandle before = b.dist_handle();
    try {
      b.distribute(DistributionType{cyclic(1)});
      ck.fail("expected invalid_argument via the secondary's ghosts");
    } catch (const std::invalid_argument& e) {
      ck.check(std::string(e.what()).starts_with("array A:"), ctx.rank(),
               e.what());
    }
    ck.check(b.dist_handle() == before && a.dist_handle() == before &&
                 a.alloc_total() == 6,
             ctx.rank(), "class unchanged");
  });
}

}  // namespace
}  // namespace vf::rt
