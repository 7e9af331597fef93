// Tests for the exchange lane (msg::ExchangeLane /
// Context::alltoallv_known_into) and the allocation-free executor replays
// built on it: PARTI gather/scatter/scatter_add, cached DISTRIBUTE
// replay, and halo exchange all draw their serve/combine/receive buffers
// from one persistent byte lane per owner, so a warmed-up replay performs
// no heap allocation -- asserted here through the lane's grow_allocs
// counter -- while interleaved paths and alternating element types must
// never observe each other's scratch contents.
#include <gtest/gtest.h>

#include <random>

#include "spmd_test_util.hpp"
#include "vf/msg/exchange_scratch.hpp"
#include "vf/parti/schedule.hpp"

namespace vf {
namespace {

using dist::block;
using dist::col;
using dist::DistributionType;
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using msg::ExchangeLane;
using parti::Schedule;
using rt::DistArray;
using rt::Env;
using testing::run_checked;
using testing::SpmdChecker;

TEST(ExchangeLaneUnit, PrepareSizesBuffers) {
  ExchangeLane lane;
  EXPECT_EQ(lane.elem_size(), 0u);
  const std::vector<std::uint64_t> snd = {3, 0, 2};
  const std::vector<std::uint64_t> rcv = {1, 4, 0};
  lane.prepare(snd, rcv, sizeof(double));
  EXPECT_EQ(lane.elem_size(), sizeof(double));
  EXPECT_EQ(lane.peers(), 3);
  EXPECT_EQ(lane.send<double>(0).size(), 3u);
  EXPECT_EQ(lane.send<double>(1).size(), 0u);
  EXPECT_EQ(lane.recv<double>(1).size(), 4u);
  EXPECT_EQ(lane.send_bytes(2).size(), 2 * sizeof(double));
  // The same lane re-sized for 4-byte elements: byte sizes follow.
  lane.prepare(snd, rcv, sizeof(int));
  EXPECT_EQ(lane.send_bytes(0).size(), 3 * sizeof(int));
  EXPECT_EQ(lane.recv<int>(1).size(), 4u);
  EXPECT_THROW(lane.prepare(snd, std::vector<std::uint64_t>{1, 2}, 8),
               std::invalid_argument);
  EXPECT_THROW(lane.prepare(snd, rcv, 0), std::invalid_argument);
}

TEST(ExchangeLaneUnit, CopyStartsEmptyAndMoveKeepsWarmBuffers) {
  ExchangeLane a;
  const std::vector<std::uint64_t> cnt = {2, 2};
  a.prepare(cnt, cnt, sizeof(int));
  const auto warm_allocs = a.stats().grow_allocs;
  EXPECT_GT(warm_allocs, 0u);

  ExchangeLane b(std::move(a));
  EXPECT_EQ(b.stats().grow_allocs, warm_allocs);  // counters travel too
  EXPECT_EQ(a.stats().prepares, 0u);
  b.reset_stats();
  b.prepare(cnt, cnt, sizeof(int));  // the moved buffers are still warm
  EXPECT_EQ(b.stats().prepares, 1u);
  EXPECT_EQ(b.stats().grow_allocs, 0u);

  ExchangeLane c;
  c = std::move(b);
  c.prepare(cnt, cnt, sizeof(int));
  EXPECT_EQ(c.stats().prepares, 2u);
  EXPECT_EQ(c.stats().grow_allocs, 0u);

  // Copies start empty: scratch is transient replay state.  Both copy
  // forms honor it -- assignment drops the destination's buffers too.
  const ExchangeLane& cref = c;
  ExchangeLane d(cref);
  EXPECT_EQ(d.peers(), 0);
  EXPECT_EQ(d.stats().prepares, 0u);
  ExchangeLane e;
  e.prepare(cnt, cnt, sizeof(double));
  e = cref;
  EXPECT_EQ(e.peers(), 0);
  EXPECT_EQ(e.stats().grow_allocs, 0u);
}

TEST(ExchangeLaneUnit, RepeatPreparesAllocateNothing) {
  ExchangeLane lane;
  const std::vector<std::uint64_t> big = {100, 0, 50, 7};
  const std::vector<std::uint64_t> small = {1, 1, 1, 1};
  // Warmup covers the loop's per-peer maximum envelope (peer 1 sends
  // nothing in `big` but one element in `small`).
  lane.prepare(big, big, sizeof(int));
  lane.prepare(small, small, sizeof(int));
  EXPECT_GT(lane.stats().grow_allocs, 0u);
  lane.reset_stats();
  for (int k = 0; k < 20; ++k) {
    lane.prepare(k % 2 ? big : small, k % 2 ? small : big, sizeof(int));
  }
  EXPECT_EQ(lane.stats().grow_allocs, 0u);  // capacity is remembered
  EXPECT_EQ(lane.stats().prepares, 20u);
  // Growing past the warmed-up maximum is (counted as) an allocation.
  lane.prepare(std::vector<std::uint64_t>{200, 0, 0, 0}, big, sizeof(int));
  EXPECT_GT(lane.stats().grow_allocs, 0u);
}

TEST(ExchangeLaneUnit, AlltoallvKnownIntoMovesLaneContents) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    ExchangeLane lane;
    // Rank r sends r*10+d to destination d, except nothing to rank 0
    // (exercising the empty-payload slots on both sides).
    std::vector<std::uint64_t> snd(4), rcv(4);
    for (int d = 0; d < 4; ++d) snd[static_cast<std::size_t>(d)] = d ? 1 : 0;
    for (int s = 0; s < 4; ++s) {
      rcv[static_cast<std::size_t>(s)] = ctx.rank() ? 1 : 0;
    }
    for (int round = 0; round < 3; ++round) {
      lane.prepare(snd, rcv, sizeof(int));
      for (int d = 1; d < 4; ++d) {
        lane.send<int>(d)[0] = ctx.rank() * 10 + d + round;
      }
      ctx.alltoallv_known_into(lane);
      for (int s = 0; s < 4; ++s) {
        const auto got = lane.recv<int>(s);
        if (ctx.rank() == 0) {
          ck.check_eq(got.size(), std::size_t{0}, ctx.rank(), "empty slot");
        } else {
          ck.check_eq(got[0], s * 10 + ctx.rank() + round, ctx.rank(),
                      "exchanged value");
        }
      }
    }
  });
}

/// One schedule alternating element types: the binding cache serves a
/// double array and an int array with the identical interned descriptor,
/// and the schedule's one byte lane keeps the capacity of the larger
/// (double) geometry, so alternating executor calls stay allocation-free
/// after one warm round of each type.
TEST(ExchangeLaneExec, AlternatingElementTypesReplayAllocationFree) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({64});
    DistArray<double> d(env, {.name = "D",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    DistArray<int> n(env, {.name = "N",
                           .domain = dom,
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    ck.check(d.dist_handle() == n.dist_handle(), ctx.rank(),
             "same interned descriptor");
    d.init([](const IndexVec& i) { return 0.5 * i[0]; });
    n.init([](const IndexVec& i) { return static_cast<int>(7 * i[0]); });

    std::mt19937 rng(99 + ctx.rank());
    std::uniform_int_distribution<Index> pick(1, 64);
    std::vector<IndexVec> pts;
    for (int k = 0; k < 40; ++k) pts.push_back({pick(rng)});
    Schedule s(ctx, d.dist_handle(), pts);

    std::vector<double> dout(pts.size());
    std::vector<int> nout(pts.size());
    s.gather(ctx, d, dout);  // warm the lane at the double geometry
    s.gather(ctx, n, nout);  // and at the int geometry
    s.reset_scratch_stats();
    for (int round = 0; round < 5; ++round) {
      s.gather(ctx, d, dout);
      s.gather(ctx, n, nout);
      for (std::size_t k = 0; k < pts.size(); ++k) {
        ck.check_eq(dout[k], 0.5 * pts[k][0], ctx.rank(), "double gather");
        ck.check_eq(nout[k], static_cast<int>(7 * pts[k][0]), ctx.rank(),
                    "int gather");
      }
    }
    ck.check_eq(s.scratch_stats().grow_allocs, std::uint64_t{0}, ctx.rank(),
                "alternating-type replays allocate nothing");
    ck.check_eq(s.scratch_stats().prepares, std::uint64_t{10}, ctx.rank(),
                "every executor call routed through the scratch");
  });
}

/// scatter_add with duplicate-heavy request lists, property-tested
/// bitwise-identical against a sequential reference.  Values are dyadic
/// rationals, so floating-point addition is exact in every combine order
/// and "bitwise identical" is a meaningful cross-implementation check.
TEST(ExchangeLaneExec, ScatterAddDuplicateHeavyMatchesSequentialReference) {
  constexpr int kProcs = 4;
  constexpr Index kN = 48;
  constexpr int kReqs = 300;  // >> kN: heavy duplication per rank
  // Deterministic per-rank request streams every rank can reproduce.
  auto requests_of = [](int rank) {
    std::mt19937 rng(1000 + rank);
    std::uniform_int_distribution<Index> pick(1, kN);
    std::vector<std::pair<Index, double>> reqs;
    for (int k = 0; k < kReqs; ++k) {
      const Index g = pick(rng);
      reqs.emplace_back(g, 0.25 * static_cast<double>((g + k + rank) % 64));
    }
    return reqs;
  };
  run_checked(kProcs, [&](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({kN}),
                              .dynamic = true,
                              .initial = DistributionType{dist::cyclic(3)}});
    a.init([](const IndexVec& i) { return 2.0 * i[0]; });

    const auto mine = requests_of(ctx.rank());
    std::vector<IndexVec> pts;
    std::vector<double> vals;
    for (const auto& [g, v] : mine) {
      pts.push_back({g});
      vals.push_back(v);
    }
    Schedule s(ctx, a.dist_handle(), pts);
    ck.check(s.n_unique_offproc() < static_cast<std::size_t>(kReqs),
             ctx.rank(), "duplicates were combined before transport");
    for (int round = 0; round < 3; ++round) {
      s.scatter_add(ctx, vals, a);
    }
    ctx.barrier();

    // Sequential reference: every contribution of every rank, three
    // rounds, applied to the initial contents.
    std::vector<double> expect(static_cast<std::size_t>(kN));
    for (Index g = 1; g <= kN; ++g) {
      expect[static_cast<std::size_t>(g - 1)] = 2.0 * g;
    }
    for (int round = 0; round < 3; ++round) {
      for (int r = 0; r < kProcs; ++r) {
        for (const auto& [g, v] : requests_of(r)) {
          expect[static_cast<std::size_t>(g - 1)] += v;
        }
      }
    }
    a.for_owned([&](const IndexVec& i, double& x) {
      ck.check_eq(x, expect[static_cast<std::size_t>(i[0] - 1)], ctx.rank(),
                  "bitwise-identical scatter_add at " + i.to_string());
    });
  });
}

/// Interleaved gather / scatter_add / halo-exchange replays: three replay
/// paths with different per-peer geometries share lanes (the schedule's
/// gather and scatter alternate send/recv sizes on one lane; the array's
/// halo exchange and DISTRIBUTE replay share another).  Results
/// must stay correct every round -- scratch from one path leaking into
/// another would corrupt values -- and the steady state allocates
/// nothing.
TEST(ExchangeLaneExec, InterleavedReplaysStayIsolatedAndAllocationFree) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({32});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    // Gather the opposite rank's segment; scatter_add into the next
    // rank's segment -- geometries differ, so lane sizes alternate.
    std::vector<IndexVec> gpts, spts;
    const Index gbase = ((ctx.rank() + 2) % 4) * 8 + 1;
    const Index sbase = ((ctx.rank() + 1) % 4) * 8 + 1;
    for (Index k = 0; k < 8; ++k) {
      gpts.push_back({gbase + k});
      gpts.push_back({gbase + k});  // duplicates ride along
      spts.push_back({sbase + k});
    }
    Schedule gs(ctx, a.dist_handle(), gpts);
    Schedule ss(ctx, a.dist_handle(), spts);
    std::vector<double> gout(gpts.size());
    std::vector<double> ones(spts.size(), 0.125);

    auto run_round = [&](int round) {
      a.init([&](const IndexVec& i) {
        return static_cast<double>(i[0]) + 16.0 * round;
      });
      ctx.barrier();
      a.exchange_overlap();
      // Ghost plane below my segment (ranks 1..3): filled by the
      // neighbour, readable through halo().
      if (ctx.rank() > 0) {
        const Index left = 8 * ctx.rank();  // neighbour's last element
        ck.check_eq(a.halo({left}), static_cast<double>(left) + 16.0 * round,
                    ctx.rank(), "halo value after exchange");
      }
      gs.gather(ctx, a, gout);
      for (std::size_t k = 0; k < gpts.size(); ++k) {
        ck.check_eq(gout[k],
                    static_cast<double>(gpts[k][0]) + 16.0 * round,
                    ctx.rank(), "gathered value between halo replays");
      }
      ss.scatter_add(ctx, ones, a);
      ctx.barrier();
      // My segment received +0.125 per element from rank (me+3)%4.
      a.for_owned([&](const IndexVec& i, double& v) {
        ck.check_eq(v,
                    static_cast<double>(i[0]) + 16.0 * round + 0.125,
                    ctx.rank(), "scattered value at " + i.to_string());
      });
    };

    run_round(0);  // warmup: lanes grow to their steady-state sizes
    gs.reset_scratch_stats();
    ss.reset_scratch_stats();
    a.reset_exchange_scratch_stats();
    for (int round = 1; round <= 4; ++round) run_round(round);
    ck.check_eq(gs.scratch_stats().grow_allocs, std::uint64_t{0}, ctx.rank(),
                "gather replays allocation-free");
    ck.check_eq(ss.scratch_stats().grow_allocs, std::uint64_t{0}, ctx.rank(),
                "scatter replays allocation-free");
    ck.check_eq(a.exchange_scratch_stats().grow_allocs, std::uint64_t{0},
                ctx.rank(), "halo replays allocation-free");
    ck.check_eq(a.exchange_scratch_stats().prepares, std::uint64_t{4},
                ctx.rank(), "one halo exchange per round");
  });
}

/// Cached DISTRIBUTE replay draws pack/unpack buffers from the array's
/// lane: after one flip in each direction, further flips allocate
/// nothing in the facility and move the data correctly.
TEST(ExchangeLaneExec, RedistributionReplayAllocationFree) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({64}),
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 1.5 * i[0]; });
    const DistributionType t_cyc{dist::cyclic(1)};
    const DistributionType t_blk{block()};
    a.distribute(t_cyc);  // warmup: plans + scratch for both directions
    a.distribute(t_blk);
    a.reset_exchange_scratch_stats();
    for (int flip = 0; flip < 6; ++flip) {
      a.distribute(flip % 2 ? t_blk : t_cyc);
      a.for_owned([&](const IndexVec& i, double& v) {
        ck.check_eq(v, 1.5 * i[0], ctx.rank(), "data after flip");
      });
    }
    ck.check_eq(a.exchange_scratch_stats().grow_allocs, std::uint64_t{0},
                ctx.rank(), "cached flips allocate nothing in the scratch");
    ck.check_eq(a.exchange_scratch_stats().prepares, std::uint64_t{6},
                ctx.rank(), "every flip replayed through the facility");
    ck.check_eq(a.redist_plan_hits(), std::uint64_t{6}, ctx.rank(),
                "all six flips hit the plan cache");
  });
}

}  // namespace
}  // namespace vf
