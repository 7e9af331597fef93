// Tests for the hash-consed descriptor registry (DistRegistry/DistHandle):
// interning must be sound (equal distributions -- including INDIRECT with
// independently constructed equal owner tables -- intern to one handle;
// unequal ones never share a handle), handle identity must drive the
// runtime's caches, and the hit/miss counters must behave across a
// DISTRIBUTE flip loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/dist/registry.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::dist {
namespace {

using rt::DistArray;
using rt::Env;
using msg::Context;
using testing::run_checked;
using testing::SpmdChecker;

std::vector<int> pseudo_owners(Index n, int nprocs, int salt) {
  std::vector<int> owners;
  owners.reserve(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    owners.push_back(static_cast<int>((k * 7 + salt) % nprocs));
  }
  return owners;
}

TEST(DistRegistry, EqualDistributionsInternToOneHandle) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({24});
  const ProcessorSection sec(ProcessorArray::line(4));

  // A family of types, each constructed twice from independent inputs.
  const std::vector<std::pair<DistributionType, DistributionType>> pairs = {
      {{block()}, {block()}},
      {{cyclic(3)}, {cyclic(3)}},
      {{s_block({10, 2, 5, 7})}, {s_block({10, 2, 5, 7})}},
      {{indirect(pseudo_owners(24, 4, 1))},
       {indirect(pseudo_owners(24, 4, 1))}},
  };
  for (const auto& [ta, tb] : pairs) {
    const DistHandle a = reg.intern(dom, ta, sec);
    const DistHandle b = reg.intern(dom, tb, sec);
    EXPECT_EQ(a, b) << ta.to_string();
    EXPECT_EQ(a.get(), b.get()) << ta.to_string();
    EXPECT_EQ(a.uid(), b.uid());
    EXPECT_NE(a.uid(), 0u);
  }
}

TEST(DistRegistry, UnequalDistributionsNeverShareAHandle) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({24});
  const ProcessorSection sec4(ProcessorArray::line(4));

  std::vector<DistHandle> handles;
  handles.push_back(reg.intern(dom, {block()}, sec4));
  handles.push_back(reg.intern(dom, {cyclic(1)}, sec4));
  handles.push_back(reg.intern(dom, {cyclic(2)}, sec4));
  handles.push_back(reg.intern(dom, {s_block({10, 2, 5, 7})}, sec4));
  handles.push_back(
      reg.intern(dom, {indirect(pseudo_owners(24, 4, 1))}, sec4));
  handles.push_back(
      reg.intern(dom, {indirect(pseudo_owners(24, 4, 2))}, sec4));
  // Same type, different domain.
  handles.push_back(reg.intern(IndexDomain::of_extents({25}),
                               {block()}, sec4));
  for (std::size_t i = 0; i < handles.size(); ++i) {
    for (std::size_t j = i + 1; j < handles.size(); ++j) {
      EXPECT_NE(handles[i], handles[j]) << i << " vs " << j;
      EXPECT_NE(handles[i].uid(), handles[j].uid());
    }
  }
  EXPECT_EQ(reg.size(), handles.size());
}

TEST(DistRegistry, IndirectOwnerTablesAreSharedAndDimMapsInterned) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({16});
  const ProcessorSection sec(ProcessorArray::line(4));
  const DimDist ind = indirect(pseudo_owners(16, 4, 5));

  // Same DimDist (shared table) interned twice: the per-dimension map is
  // built once and shared by pointer.
  const DistHandle a = reg.intern(dom, {ind}, sec);
  const std::uint64_t misses_after_first = reg.stats().dim_map_misses;
  const DistHandle b =
      reg.intern(dom, {indirect(pseudo_owners(16, 4, 5))}, sec);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.stats().dim_map_misses, misses_after_first);
  EXPECT_EQ(&a->dim_map(0), &b->dim_map(0));
}

TEST(DistRegistry, PostHocInterningMatchesFastPath) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({12});
  const ProcessorSection sec(ProcessorArray::line(3));
  const DistributionType t{cyclic(2)};

  const DistHandle fast = reg.intern(dom, t, sec);
  const DistHandle post = reg.intern(Distribution(dom, t, sec));
  EXPECT_EQ(fast, post);
}

/// Counters across a DISTRIBUTE flip loop: after the two warmup misses,
/// every flip resolves its target descriptor as a registry hit, arrays
/// keep handle-identical descriptors across flips, and the plan cache
/// keys on those identities.
TEST(DistRegistry, CountersAcrossDistributeFlipLoop) {
  constexpr Index kN = 32;
  constexpr int kProcs = 4;
  run_checked(kProcs, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const DistributionType ta{indirect(pseudo_owners(kN, kProcs, 1))};
    const DistributionType tb{indirect(pseudo_owners(kN, kProcs, 3))};
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({kN}),
                              .dynamic = true,
                              .initial = ta});
    const std::uint64_t base_misses = env.registry().stats().misses;
    const DistHandle h0 = a.dist_handle();
    ck.check(h0.uid() != 0, ctx.rank(), "initial descriptor interned");

    a.init([](const IndexVec& i) { return 2.0 * i[0]; });
    for (int f = 0; f < 6; ++f) {
      a.distribute(f % 2 == 0 ? tb : ta);
    }
    // Exactly one admission per direction; every later flip is a hit.
    ck.check_eq(env.registry().stats().misses - base_misses,
                std::uint64_t{1}, ctx.rank(), "one miss for the new type");
    ck.check(env.registry().stats().hits >= 5, ctx.rank(),
             "flips resolve as registry hits");
    // Handle identity across flips: the array ends back on ta's handle.
    ck.check(a.dist_handle() == h0, ctx.rank(),
             "flip loop returns the identical interned handle");
    // Plan cache keyed on handle identity: one miss per direction.
    ck.check_eq(a.redist_plan_misses(), std::uint64_t{2}, ctx.rank(),
                "one plan miss per direction");
    ck.check(a.redist_plan_hits() >= 4, ctx.rank(), "plans replay");
    a.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, 2.0 * i[0], ctx.rank(), "data preserved");
    });
  });
}

/// Distributing to the identical handle is a pure no-op: no data motion,
/// no descriptor swap, no plan traffic.
TEST(DistRegistry, DistributeToIdenticalHandleIsNoOp) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> a(env, {.name = "A",
                           .domain = IndexDomain::of_extents({16}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return static_cast<int>(i[0]); });
    const DistHandle before = a.dist_handle();
    a.distribute(DistributionType{block()});
    ck.check(a.dist_handle() == before, ctx.rank(),
             "identical target keeps the identical handle");
    ck.check_eq(a.redist_plan_misses(), std::uint64_t{0}, ctx.rank(),
                "no plan traffic for an identity DISTRIBUTE");
    a.for_owned([&](const IndexVec& i, int& v) {
      ck.check_eq(v, static_cast<int>(i[0]), ctx.rank(), "data untouched");
    });
  });
}

}  // namespace
}  // namespace vf::dist
