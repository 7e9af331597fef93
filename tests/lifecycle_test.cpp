// Lifecycle tests: epoch-based registry reclamation (pin/sweep
// semantics, uid monotonicity, resident-byte accounting) and the
// byte-budgeted LRU caches (halo plans, redistribution plans, PARTI
// bindings), including the stats-reset-on-clear bugfixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/dist/registry.hpp"
#include "vf/halo/plan.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/rt/dist_array.hpp"
#include "vf/rt/env.hpp"

namespace vf::dist {
namespace {

using halo::HaloPlanCache;
using halo::HaloSpec;
using msg::Context;
using parti::Schedule;
using rt::DistArray;
using rt::Env;
using rt::ExchangeInFlightError;
using testing::run_checked;
using testing::SpmdChecker;

// ---- registry pin/sweep (standalone, no machine) --------------------------

TEST(RegistrySweep, ReclaimsUnpinnedKeepsPinned) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({24});
  const ProcessorSection sec(ProcessorArray::line(4));

  const DistHandle live = reg.intern(dom, {block()}, sec);
  {
    const DistHandle dead = reg.intern(dom, {cyclic(3)}, sec);
    (void)dead;
  }
  ASSERT_EQ(reg.size(), 2u);

  const std::size_t reclaimed = reg.sweep();
  EXPECT_GE(reclaimed, 1u);  // the cyclic descriptor (+ its dim map)
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_GE(reg.stats().pinned, 1u);  // `live` and its components
  EXPECT_EQ(reg.stats().swept, reclaimed);

  // The pinned handle is untouched: re-interning its spelling is a hit on
  // the very same object.
  const DistHandle again = reg.intern(dom, {block()}, sec);
  EXPECT_EQ(again, live);
  EXPECT_EQ(again.uid(), live.uid());

  // Idempotent: with nothing newly unpinned, a second sweep reclaims
  // nothing and leaves the cumulative counter alone.
  const auto swept_before = reg.stats().swept;
  EXPECT_EQ(reg.sweep(), 0u);
  EXPECT_EQ(reg.stats().swept, swept_before);
  EXPECT_EQ(reg.epoch(), 2u);  // each sweep advanced the epoch
}

TEST(RegistrySweep, ResidentBytesReturnToZeroWhenAllHandlesDrop) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({40, 12});
  const ProcessorSection sec(ProcessorArray::grid(2, 2));
  {
    const DistHandle a = reg.intern(dom, {block(), block()}, sec);
    const DistHandle b = reg.intern(dom, {s_block({10, 30}), block()}, sec);
    EXPECT_GT(reg.stats().resident_bytes, 0u);
    // A hit charges nothing.
    const auto r = reg.stats().resident_bytes;
    const DistHandle c = reg.intern(dom, {block(), block()}, sec);
    EXPECT_EQ(c, a);
    EXPECT_EQ(reg.stats().resident_bytes, r);
    (void)b;
  }
  // Every handle is gone: one sweep must drain descriptors, dim maps and
  // sections alike, and the byte gauge must return exactly to zero (the
  // admission charge and the sweep credit are computed from the same
  // stored objects).
  reg.sweep();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.stats().resident_bytes, 0u);
  EXPECT_EQ(reg.stats().pinned, 0u);
}

TEST(RegistrySweep, UidsAreNeverReusedAcrossSweepOrClear) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({24});
  const ProcessorSection sec(ProcessorArray::line(4));

  std::uint32_t first_uid = 0;
  {
    const DistHandle d = reg.intern(dom, {cyclic(2)}, sec);
    first_uid = d.uid();
  }
  reg.sweep();

  // Re-interning the identical spelling after reclamation yields a NEW
  // uid: stale uid-keyed memos (skew hybrids, DCASE) can never produce a
  // false hit against the reincarnated descriptor.
  const DistHandle d2 = reg.intern(dom, {cyclic(2)}, sec);
  EXPECT_GT(d2.uid(), first_uid);

  const std::uint32_t before_clear = d2.uid();
  reg.clear();
  EXPECT_EQ(reg.stats().resident_bytes, 0u);  // clear resets the stats...
  EXPECT_EQ(reg.stats().misses, 0u);
  const DistHandle d3 = reg.intern(dom, {cyclic(2)}, sec);
  EXPECT_GT(d3.uid(), before_clear);  // ...but never the uid counters
}

// ---- halo-plan cache lifecycle (standalone, purely local builds) ----------

TEST(HaloPlanCacheLifecycle, ClearResetsStats) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({16});
  const ProcessorSection sec(ProcessorArray::line(4));
  const DistHandle d = reg.intern(dom, {block()}, sec);
  const halo::HaloHandle h = reg.intern(HaloSpec({1}, {1}));

  HaloPlanCache cache;
  ASSERT_NE(cache.lookup_or_build(d, h, 1, 4), nullptr);  // miss
  ASSERT_NE(cache.lookup_or_build(d, h, 1, 4), nullptr);  // hit
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_GT(cache.resident_bytes(), 0u);

  // The bugfix: clear() drops the counters with the contents, so a
  // reader comparing hit ratios across the clear sees only post-clear
  // traffic.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(HaloPlanCacheLifecycle, ByteBudgetEvictsLruKeepsTouched) {
  DistRegistry reg;
  const IndexDomain dom = IndexDomain::of_extents({16});
  const ProcessorSection sec(ProcessorArray::line(4));
  // Three distinct splits of the same structure: equal-sized plans, so
  // a budget of exactly two entries admits the third only by evicting.
  const DistHandle da = reg.intern(dom, {s_block({4, 4, 4, 4})}, sec);
  const DistHandle db = reg.intern(dom, {s_block({3, 5, 4, 4})}, sec);
  const DistHandle dc = reg.intern(dom, {s_block({5, 3, 4, 4})}, sec);
  const halo::HaloHandle h = reg.intern(HaloSpec({1}, {1}));

  HaloPlanCache cache;
  ASSERT_NE(cache.lookup_or_build(da, h, 1, 4), nullptr);
  ASSERT_NE(cache.lookup_or_build(db, h, 1, 4), nullptr);
  const std::size_t two_entries = cache.resident_bytes();
  ASSERT_NE(cache.lookup_or_build(da, h, 1, 4), nullptr);  // touch A
  cache.set_max_bytes(two_entries);  // both fit; nothing evicted yet
  EXPECT_EQ(cache.evictions(), 0u);

  // Inserting C must evict the cold end -- B, not the just-touched A.
  ASSERT_NE(cache.lookup_or_build(dc, h, 1, 4), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.resident_bytes(), two_entries);

  const auto hits_before = cache.stats().hits;
  ASSERT_NE(cache.lookup_or_build(da, h, 1, 4), nullptr);
  EXPECT_EQ(cache.stats().hits, hits_before + 1) << "A survived";
  const auto misses_before = cache.stats().misses;
  ASSERT_NE(cache.lookup_or_build(db, h, 1, 4), nullptr);
  EXPECT_EQ(cache.stats().misses, misses_before + 1)
      << "B was evicted and rebuilds transparently";
}

// ---- Env::sweep pin semantics (SPMD) --------------------------------------

TEST(EnvSweep, LiveArrayPinsItsHandleChain) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({16});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return 3.0 * i[0]; });
    a.exchange_overlap();
    const std::uint32_t uid0 = a.dist_handle().uid();

    const Env::SweepReport rep = env.sweep();
    (void)rep;

    // The array's chain survived: re-interning its spelling is a hit on
    // the identical handle, and the halo machinery still works.
    ck.check_eq(env.intern(dom, DistributionType{block()}).uid(), uid0,
                ctx.rank(), "live descriptor survives the sweep");
    a.exchange_overlap();
    const auto seg = a.distribution().dim_map(0).segment(
        static_cast<int>(a.layout().coords[0]));
    if (seg && seg->lo > 1) {
      ck.check_eq(a.halo({seg->lo - 1}), 3.0 * (seg->lo - 1), ctx.rank(),
                  "ghosts intact after sweep");
    }
  });
}

TEST(EnvSweep, CachedPlanPinsRetiredDescriptorUntilDropped) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({16});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 7.0 * i[0]; });
    const std::uint32_t old_uid = a.dist_handle().uid();

    a.distribute(DistributionType{s_block({2, 6, 4, 4})});
    env.sweep();
    // The cached (old, new) plan holds the retired BLOCK handle for
    // flip-back replay, so the sweep must keep it.
    ck.check_eq(env.intern(dom, DistributionType{block()}).uid(), old_uid,
                ctx.rank(), "plan-pinned descriptor survives");

    // Dropping the plan cache un-pins it; the next sweep reclaims it and
    // a re-intern mints a strictly larger uid (never reused).
    a.clear_redist_plans();
    env.sweep();
    const std::uint32_t fresh =
        env.intern(dom, DistributionType{block()}).uid();
    ck.check(fresh > old_uid, ctx.rank(),
             "reclaimed spelling reincarnates under a fresh uid");

    a.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, 7.0 * i[0], ctx.rank(), "values intact");
    });
  });
}

TEST(EnvSweep, RankDependentReclaimKeepsLockstepQuiet) {
  // Which interns a sweep reclaims depends on each rank's cache contents,
  // so a re-interned descriptor may carry a different uid on each rank.
  // The lockstep notes of DISTRIBUTE and the halo exchange must not
  // depend on uids, or an armed run reports a divergence that is not one.
  msg::Machine m(4);
  m.set_lockstep_check(true);
  testing::run_checked_on(m, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({16});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return 2.0 * i[0]; });
    const std::uint32_t block_uid = a.dist_handle().uid();
    // Only rank 0 drops its plans, so only there does the sweep reclaim
    // BLOCK, and re-interning it mints a fresh uid.
    a.distribute(DistributionType{s_block({2, 6, 4, 4})});
    if (ctx.rank() == 0) a.clear_redist_plans();
    env.sweep();
    a.distribute(DistributionType{block()});
    ck.check_eq(a.dist_handle().uid() != block_uid, ctx.rank() == 0,
                ctx.rank(), "uids diverged across ranks");
    a.exchange_overlap();
    a.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, 2.0 * i[0], ctx.rank(), "values intact");
    });
  });
}

/// Clearing the registry while a live array still holds its handles (the
/// benchmarks' cold rows clear before each timed flip or exchange) must
/// not change a value: later statements intern fresh handles, and an
/// asymmetric declaration whose widths agree on every rank still
/// reconciles to a uniform family, so a width wider than a neighbour's
/// segment clips as in the uniform case instead of being rejected.
TEST(RegistryClear, LiveArrayComputesAsWithoutClears) {
  constexpr int kProcs = 4;
  constexpr Index kWidth = 3;
  const IndexDomain dom = IndexDomain::of_extents({8});
  // Each distribution the loop exchanges under, with its per-rank counts.
  const std::vector<std::pair<DistributionType, std::vector<Index>>> dists =
      {{{block()}, {2, 2, 2, 2}},
       {{s_block({1, 3, 2, 2})}, {1, 3, 2, 2}},
       {{s_block({2, 2, 3, 1})}, {2, 2, 3, 1}}};
  const auto run = [&](bool clear) {
    msg::Machine m(kProcs);
    m.set_lockstep_check(true);
    // Every rank's owned and filled ghost values, in exchange order.
    std::vector<std::vector<double>> seen(kProcs);
    testing::run_checked_on(m, [&](Context& ctx, SpmdChecker& ck) {
      const int me = ctx.rank();
      Env env(ctx);
      DistArray<double> a(env, {.name = "A",
                                .domain = dom,
                                .dynamic = true,
                                .initial = dists.front().first,
                                .overlap_lo = {kWidth},
                                .overlap_hi = {kWidth},
                                .overlap_asymmetric = true});
      a.init([](const IndexVec& i) { return 1.5 * i[0]; });
      for (std::size_t k = 0; k < dists.size(); ++k) {
        if (k > 0) {
          if (clear) env.registry().clear();
          a.distribute(dists[k].first);
        }
        if (clear) env.registry().clear();
        a.set_overlap({kWidth}, {kWidth}, false, /*asymmetric=*/true);
        if (clear) env.registry().clear();
        a.exchange_overlap();
        ck.check(a.halo_family()->uniform(), me, "equal widths: uniform");
        // Owned segment [first, last] and the widths clipped to the
        // neighbours' counts.
        const auto count = [&](int r) {
          return r < 0 || r >= kProcs
                     ? Index{0}
                     : dists[k].second[static_cast<std::size_t>(r)];
        };
        Index first = 1;
        for (int r = 0; r < me; ++r) first += count(r);
        const Index last = first + count(me) - 1;
        const Index lo = std::min(kWidth, count(me - 1));
        const Index hi = std::min(kWidth, count(me + 1));
        for (Index j = first - lo; j <= last + hi; ++j) {
          ck.check_eq(a.halo({j}), 1.5 * j, me, "owned or clipped ghost");
          seen[static_cast<std::size_t>(me)].push_back(a.halo({j}));
        }
      }
    });
    EXPECT_EQ(m.lockstep().mismatches(), 0u);
    return seen;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(EnvSweep, ThrowsWhileAnExchangeIsInFlight) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({16});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return 1.0 * i[0]; });
    a.begin_exchange_overlap();
    try {
      (void)env.sweep();
      ck.fail("[rank " + std::to_string(ctx.rank()) +
              "] Env::sweep mid-exchange did not throw");
    } catch (const ExchangeInFlightError& e) {
      ck.check_eq(e.array_name, std::string("A"), ctx.rank(), "array_name");
      ck.check_eq(e.operation, std::string("Env::sweep"), ctx.rank(),
                  "operation");
      ck.check_eq(e.pending_tag, a.pending_exchange_tag(), ctx.rank(),
                  "pending_tag");
    }
    // The rejected sweep touched nothing: the exchange completes and a
    // subsequent sweep succeeds.
    a.end_exchange_overlap();
    (void)env.sweep();
  });
}

TEST(EnvSweep, SkewMemoIsDroppedSoPairsRecheckAfterSweep) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({16});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 2.0 * i[0]; });
    a.set_skew_policy(DistArray<double>::SkewPolicy::Auto);

    a.distribute(DistributionType{cyclic(1)});
    a.distribute(DistributionType{block()});
    const auto checks = a.skew_checks();
    ck.check_eq(checks, std::uint64_t{2}, ctx.rank(),
                "one detection pass per first-seen pair");
    a.distribute(DistributionType{cyclic(1)});
    a.distribute(DistributionType{block()});
    ck.check_eq(a.skew_checks(), checks, ctx.rank(), "memoized pairs");

    // The sweep drops the uid-keyed memo; the same flips re-check
    // instead of silently reusing entries keyed on potentially-reclaimed
    // uids.
    env.sweep();
    a.distribute(DistributionType{cyclic(1)});
    a.distribute(DistributionType{block()});
    ck.check_eq(a.skew_checks(), checks + 2, ctx.rank(),
                "pairs re-check after the memo is swept");
  });
}

// ---- redistribution-plan cache budget + stats reset (SPMD) ----------------

TEST(RedistPlanCacheLifecycle, ByteBudgetEvictsAndReplayStaysCorrect) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({64});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 5.0 * i[0]; });

    a.distribute(DistributionType{cyclic(1)});  // plan #1 cached
    const std::size_t one_plan = a.redist_plan_resident_bytes();
    ck.check(one_plan > 0, ctx.rank(), "plan bytes charged");
    // Room for one-and-a-half plans: caching the reverse plan must evict
    // the forward one.
    a.set_redist_plan_budget(one_plan + one_plan / 2);
    a.distribute(DistributionType{block()});  // plan #2 evicts #1
    ck.check(a.redist_plan_evictions() >= 1, ctx.rank(),
             "budget pressure evicted the cold plan");
    ck.check(a.redist_plan_resident_bytes() <= one_plan + one_plan / 2,
             ctx.rank(), "residency within the ceiling");

    // The evicted plan rebuilds transparently and data stays right.
    a.distribute(DistributionType{cyclic(1)});
    a.distribute(DistributionType{block()});
    a.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, 5.0 * i[0], ctx.rank(), "values after evict/rebuild");
    });
  });
}

TEST(RedistPlanCacheLifecycle, ClearResetsStatsWithContents) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({32});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 1.0 * i[0]; });
    a.distribute(DistributionType{cyclic(1)});
    a.distribute(DistributionType{block()});
    a.distribute(DistributionType{cyclic(1)});  // replay: a hit
    ck.check(a.redist_plan_hits() >= 1, ctx.rank(), "warm replay hit");
    ck.check(a.redist_plan_misses() >= 2, ctx.rank(), "two cold builds");

    // The bugfix, mirrored from the halo cache: dropping the contents
    // drops the counters too.
    a.clear_redist_plans();
    ck.check_eq(a.redist_plan_hits(), std::uint64_t{0}, ctx.rank(),
                "hits reset");
    ck.check_eq(a.redist_plan_misses(), std::uint64_t{0}, ctx.rank(),
                "misses reset");
    ck.check_eq(a.redist_plan_count(), std::size_t{0}, ctx.rank(),
                "plans dropped");
    ck.check_eq(a.redist_plan_resident_bytes(), std::size_t{0}, ctx.rank(),
                "bytes credited back");
  });
}

// ---- PARTI binding cache: LRU recency + byte budget (SPMD) ----------------

TEST(BindingCacheLifecycle, HotBindingSurvivesCapacityColdInsertions) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({40});
    const DistributionType t{cyclic(2)};
    DistArray<int> hot(env, {.name = "HOT", .domain = dom, .initial = t});
    hot.init([](const IndexVec& i) { return static_cast<int>(i[0]); });
    // More cold arrays than kBindingCapacity slots (8), all sharing the
    // interned descriptor so one schedule serves them all.
    std::vector<std::unique_ptr<DistArray<int>>> cold;
    for (int k = 0; k < 9; ++k) {
      std::string nm = "C";
      nm += std::to_string(k);
      cold.push_back(std::make_unique<DistArray<int>>(
          env, DistArray<int>::Spec{.name = nm, .domain = dom,
                                    .initial = t}));
      const int base = 100 * (k + 1);
      cold.back()->init([base](const IndexVec& i) {
        return base + static_cast<int>(i[0]);
      });
    }

    std::vector<IndexVec> wanted;
    for (Index g = 1 + ctx.rank(); g <= 40; g += 4) wanted.push_back({g});
    Schedule s(ctx, hot.dist_handle(), wanted);
    std::vector<int> out(wanted.size());

    // Interleave: the hot binding is re-touched after every cold
    // insertion, so LRU keeps it at the front while the cold tail cycles
    // through the capacity-bounded slots.
    s.gather(ctx, hot, out);
    for (std::size_t k = 0; k < cold.size(); ++k) {
      s.gather(ctx, *cold[k], out);
      s.gather(ctx, hot, out);
      for (std::size_t q = 0; q < wanted.size(); ++q) {
        ck.check_eq(out[q], static_cast<int>(wanted[q][0]), ctx.rank(),
                    "hot data after cold insertion");
      }
    }
    ck.check_eq(s.binding_misses(), std::uint64_t{10}, ctx.rank(),
                "exactly one translation per array: the hot binding was "
                "never evicted");
    ck.check(s.binding_evictions() >= 2, ctx.rank(),
             "10 bindings through 8 slots evicted the excess");
  });
}

TEST(BindingCacheLifecycle, ByteBudgetBoundsBindingsButNeverDropsIncoming) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({24});
    const DistributionType t{block()};
    DistArray<int> a(env, {.name = "A", .domain = dom, .initial = t});
    DistArray<int> b(env, {.name = "B", .domain = dom, .initial = t});
    a.init([](const IndexVec& i) { return static_cast<int>(i[0]); });
    b.init([](const IndexVec& i) { return 500 + static_cast<int>(i[0]); });

    std::vector<IndexVec> wanted;
    for (Index g = 1 + ctx.rank(); g <= 24; g += 4) wanted.push_back({g});
    Schedule s(ctx, a.dist_handle(), wanted);
    // A ceiling below any single binding: every insert evicts its
    // predecessor, but the incoming binding always lands (the executor
    // about to run needs it).
    s.set_binding_budget(1);
    std::vector<int> out(wanted.size());
    s.gather(ctx, a, out);
    s.gather(ctx, b, out);
    s.gather(ctx, a, out);
    for (std::size_t q = 0; q < wanted.size(); ++q) {
      ck.check_eq(out[q], static_cast<int>(wanted[q][0]), ctx.rank(),
                  "data correct under thrash");
    }
    ck.check_eq(s.binding_misses(), std::uint64_t{3}, ctx.rank(),
                "every gather re-translates under a one-byte budget");
    ck.check_eq(s.binding_evictions(), std::uint64_t{2}, ctx.rank(),
                "each landing evicted its predecessor");
  });
}

}  // namespace
}  // namespace vf::dist
