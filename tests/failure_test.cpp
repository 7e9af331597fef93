// Failure-injection tests: every documented error path of the public API
// must throw the documented exception type and must not corrupt state that
// is observable afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

#include "spmd_test_util.hpp"
#include "vf/compile/parteval.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/parti/translation_table.hpp"
#include "vf/query/dcase.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf {
namespace {

using dist::block;
using dist::cyclic;
using dist::DistributionType;
using dist::IndexDomain;
using msg::Context;
using rt::DistArray;
using rt::Env;
using testing::run_checked;
using testing::run_checked_on;
using testing::SpmdChecker;

TEST(Failure, EnvRejectsOversizedProcessorArray) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    try {
      Env env(ctx, dist::ProcessorArray::line(8));  // machine has 2
      ck.fail("expected invalid_argument");
    } catch (const std::invalid_argument&) {
    }
  });
}

TEST(Failure, DuplicateGenBlockSizesRejected) {
  EXPECT_THROW(dist::DimMap::gen_block(dist::Range{1, 4}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)dist::s_block({}), std::invalid_argument);
  EXPECT_THROW((void)dist::b_block({}), std::invalid_argument);
  EXPECT_THROW((void)dist::b_block({5, 3}), std::invalid_argument);
  EXPECT_THROW((void)dist::cyclic(0), std::invalid_argument);
  EXPECT_THROW((void)dist::indirect(std::vector<int>{}), std::invalid_argument);
}

TEST(Failure, ArrayStateSurvivesRangeViolation) {
  // A rejected DISTRIBUTE must leave the old distribution and data intact.
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(
        env, {.name = "A",
              .domain = IndexDomain::of_extents({16}),
              .dynamic = true,
              .initial = DistributionType{block()},
              .range = {query::TypePattern{query::p_block()},
                        query::TypePattern{query::p_gen_block()}}});
    a.init([](const dist::IndexVec& i) { return 1.0 * i[0]; });
    try {
      a.distribute(DistributionType{cyclic(1)});
      ck.fail("expected RangeViolationError");
    } catch (const rt::RangeViolationError&) {
    }
    ck.check_eq(a.distribution().type().dim(0).kind, dist::DimDistKind::Block,
                ctx.rank(), "old descriptor intact");
    a.for_owned([&](const dist::IndexVec& i, double& v) {
      ck.check_eq(v, 1.0 * i[0], ctx.rank(), "data intact");
    });
    // And the class remains usable afterwards.
    a.distribute(DistributionType{dist::s_block({4, 4, 4, 4})});
    a.for_owned([&](const dist::IndexVec& i, double& v) {
      ck.check_eq(v, 1.0 * i[0], ctx.rank(), "data moves after recovery");
    });
  });
}

TEST(Failure, OrphanedConnectClassRejectsDistribute) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    auto b = std::make_unique<DistArray<int>>(
        env, DistArray<int>::Spec{.name = "B",
                                  .domain = IndexDomain::of_extents({8}),
                                  .dynamic = true,
                                  .initial = DistributionType{block()}});
    DistArray<int> a(env,
                     {.name = "A",
                      .domain = IndexDomain::of_extents({8}),
                      .dynamic = true},
                     rt::Connection::extraction(*b));
    b.reset();  // primary dies first: the class is orphaned
    try {
      a.distribute(DistributionType{cyclic(1)});
      ck.fail("expected logic_error (orphaned class)");
    } catch (const std::logic_error&) {
    }
  });
}

TEST(Failure, AccessOutsideDomainThrows) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> a(env, {.name = "A",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    try {
      (void)a.distribution().owner_rank({9});
      ck.fail("expected out_of_range");
    } catch (const std::out_of_range&) {
    }
    try {
      (void)a.distribution().owner_rank({0});
      ck.fail("expected out_of_range");
    } catch (const std::out_of_range&) {
    }
  });
}

TEST(Failure, ScheduleRejectsOutOfDomainPoints) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8}),
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    // The inspector validates every point against the target domain
    // before planting anything in its serve/request structures, and the
    // error names the offending point.
    try {
      parti::Schedule s(ctx, a.dist_handle(), {{99}});
      ck.fail("expected out_of_range");
    } catch (const std::out_of_range& e) {
      ck.check(std::string(e.what()).find("(99)") != std::string::npos,
               ctx.rank(), "error message names the point");
    }
    // Below-range and zero (the domain is 1-based) fail the same way.
    try {
      parti::Schedule s(ctx, a.dist_handle(), {{1}, {0}});
      ck.fail("expected out_of_range for index 0");
    } catch (const std::out_of_range&) {
    }
    // A point whose rank does not match the domain is out of domain too.
    try {
      parti::Schedule s(ctx, a.dist_handle(), {{1, 1}});
      ck.fail("expected out_of_range for rank mismatch");
    } catch (const std::out_of_range&) {
    }
    // Both ranks threw before communicating; the machine is still usable,
    // and a valid schedule built afterwards works.
    ctx.barrier();
    a.init([](const dist::IndexVec& i) { return 2.0 * i[0]; });
    parti::Schedule good(ctx, a.dist_handle(),
                         {{static_cast<dist::Index>(1 + ctx.rank() * 4)}});
    std::vector<double> out(1);
    good.gather(ctx, a, out);
    ck.check_eq(out[0], 2.0 * (1 + ctx.rank() * 4), ctx.rank(),
                "machine usable after rejected inspectors");
  });
}

TEST(Failure, ScheduleRejectsOutOfDomainPoints2D) {
  // Per-dimension validity is not enough: each component may lie inside
  // its own dimension's range of SOME point while the tuple as a whole is
  // outside the domain (wrong rank), or one component strays while the
  // others are fine.  The inspector must catch all of it up front.
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> a(env, {.name = "A",
                           .domain = IndexDomain::of_extents({6, 4}),
                           .dynamic = true,
                           .initial = DistributionType{block(), dist::col()}});
    for (const dist::IndexVec bad :
         {dist::IndexVec{7, 1}, dist::IndexVec{1, 5}, dist::IndexVec{3}}) {
      try {
        parti::Schedule s(ctx, a.dist_handle(), {bad});
        ck.fail("expected out_of_range for " + bad.to_string());
      } catch (const std::out_of_range&) {
      }
    }
    ctx.barrier();
  });
}

TEST(Failure, TranslationTableRejectsBadQueries) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    parti::TranslationTable t(ctx, 8, [](dist::Index) { return 0; });
    try {
      (void)t.page_owner(8);
      ck.fail("expected out_of_range");
    } catch (const std::out_of_range&) {
    }
    try {
      (void)t.page_owner(-1);
      ck.fail("expected out_of_range");
    } catch (const std::out_of_range&) {
    }
  });
}

TEST(Failure, DcaseRunWithUndistributedSelectorThrows) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> b(env, {.name = "B",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true});
    try {
      (void)query::dcase({&b}).otherwise([] {}).run();
      ck.fail("expected NotDistributedError");
    } catch (const rt::NotDistributedError&) {
    }
  });
}

TEST(Failure, BuilderRejectsUndeclaredArrays) {
  compile::ProgramBuilder b;
  EXPECT_THROW(b.distribute("ghost", query::TypePattern::wildcard()),
               std::invalid_argument);
  EXPECT_THROW(b.use({"ghost"}), std::invalid_argument);
  EXPECT_THROW(b.dcase({"ghost"}, {}), std::invalid_argument);
  b.declare({.name = "A", .rank = 1, .dynamic = true});
  EXPECT_THROW(b.declare({.name = "A", .rank = 1, .dynamic = true}),
               std::invalid_argument);
}

TEST(Failure, AlltoallvSizeMismatchThrows) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    std::vector<std::vector<int>> wrong(1);  // should be nprocs()==2
    try {
      (void)ctx.alltoallv(std::move(wrong));
      ck.fail("expected invalid_argument");
    } catch (const std::invalid_argument&) {
    }
  });
}

TEST(Failure, IndexVecOverflowThrows) {
  EXPECT_THROW((dist::IndexVec{1, 2, 3, 4, 5}), std::length_error);
  EXPECT_THROW((void)dist::IndexDomain::of_extents({1, 2, 3, 4, 5}),
               std::length_error);
}

/// Asymmetric overlap negative paths: a set_overlap whose width vectors
/// do not match the array rank (or carry negative widths) must throw
/// without corrupting the array, which stays usable afterwards.
TEST(Failure, SetOverlapRejectsBadWidths) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env,
                        {.name = "A",
                         .domain = IndexDomain::of_extents({8, 6}),
                         .dynamic = true,
                         .initial = DistributionType{block(), dist::col()}});
    a.init([](const dist::IndexVec& i) {
      return static_cast<double>(i[0] * 10 + i[1]);
    });
    try {
      a.set_overlap({1}, {1});  // rank-1 widths on a rank-2 array
      ck.fail("expected invalid_argument (rank mismatch)");
    } catch (const std::invalid_argument&) {
    }
    try {
      a.set_overlap({1, -1}, {1, 0});
      ck.fail("expected invalid_argument (negative width)");
    } catch (const std::invalid_argument&) {
    }
    // State intact: a legal declaration and exchange still work, and the
    // owned values survived the rejected calls.
    a.set_overlap({1, 0}, {1, 0}, false, /*asymmetric=*/true);
    a.exchange_overlap();
    a.for_owned([&](const dist::IndexVec& i, const double& v) {
      ck.check_eq(v, static_cast<double>(i[0] * 10 + i[1]), ctx.rank(),
                  "owned value after rejected set_overlap");
    });
  });
}

/// Ghost-satisfied points are read-only under asymmetric specs too: a
/// halo-aware schedule that planted overlap reads must reject scatter
/// executors, and stay usable for gathers afterwards.
TEST(Failure, AsymmetricGhostScatterRejected) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({8});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([&](const dist::IndexVec& i) {
      return static_cast<double>(dom.linearize(i)) + 0.5;
    });
    const dist::Index w = ctx.rank() == 0 ? 1 : 2;  // per-rank widths
    a.set_overlap({w}, {w}, false, /*asymmetric=*/true);
    a.exchange_overlap();
    // One owned point and one filled ghost point per rank.
    const dist::Index ghost = ctx.rank() == 0 ? 5 : 3;
    std::vector<dist::IndexVec> pts{{ctx.rank() == 0 ? 2 : 6}, {ghost}};
    parti::Schedule sched(ctx, a.dist_handle(), pts, a.halo_spec());
    ck.check(sched.n_halo() == 1, ctx.rank(), "expected one halo point");
    std::vector<double> in(pts.size(), 1.0);
    try {
      sched.scatter(ctx, in, a);
      ck.fail("expected logic_error (scatter through ghost region)");
    } catch (const std::logic_error&) {
    }
    std::vector<double> out(pts.size());
    sched.gather(ctx, a, out);
    for (std::size_t k = 0; k < pts.size(); ++k) {
      ck.check_eq(out[k],
                  static_cast<double>(dom.linearize(pts[k])) + 0.5,
                  ctx.rank(), "gather after rejected scatter");
    }
  });
}

/// The asymmetric spec contract is exact: a rank requesting a ghost wider
/// than its neighbour's owned segment is rejected at plan time with a
/// clear error (every rank throws identically -- the family is
/// replicated -- so no rank hangs in the exchange), and the machine is
/// usable after shrinking the width.
TEST(Failure, AsymmetricGhostWiderThanNeighbourSegmentThrows) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({4});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const dist::IndexVec& i) { return 1.0 * i[0]; });
    // BLOCK of 4 over 4 ranks: one cell each.  Rank 1 asks for 2 low
    // ghost planes; rank 0 owns only 1.
    a.set_overlap({ctx.rank() == 1 ? 2 : 1}, {1}, false,
                  /*asymmetric=*/true);
    try {
      a.exchange_overlap();
      ck.fail("expected invalid_argument (ghost wider than neighbour)");
    } catch (const std::invalid_argument& e) {
      ck.check(std::string(e.what()).find("owns only") != std::string::npos,
               ctx.rank(), std::string("unclear error: ") + e.what());
    }
    // Shrinking the request makes the family servable again.
    a.set_overlap({1}, {1}, false, /*asymmetric=*/true);
    a.exchange_overlap();
    a.for_owned([&](const dist::IndexVec& i, const double& v) {
      ck.check_eq(v, 1.0 * i[0], ctx.rank(), "owned value after recovery");
    });
  });
}

// ---- abort-fence containment: rank-local failures no longer deadlock ------

/// A DISTRIBUTE aborted inside its exchange must leave the old state too:
/// the new distribution and storage are installed only after the exchange
/// completes.  Rank 0 aborts instead of distributing; every peer expects
/// values from rank 0 under the BLOCK -> CYCLIC(1) flip, so each one's
/// exchange wakes with the RankAbort before anything is installed.
TEST(Failure, ArrayStateSurvivesAbortMidDistribute) {
  msg::Machine m(4);
  SpmdChecker ck;
  try {
    msg::run_spmd(m, [&](Context& ctx) {
      Env env(ctx);
      DistArray<double> a(env, {.name = "A",
                                .domain = IndexDomain::of_extents({16}),
                                .dynamic = true,
                                .initial = DistributionType{block()}});
      a.init([](const dist::IndexVec& i) { return 1.0 * i[0]; });
      const dist::DistHandle before = a.dist_handle();
      ctx.barrier();
      if (ctx.rank() == 0) ctx.abort("rank 0 abandons the flip");
      try {
        a.distribute(DistributionType{cyclic(1)});
        ck.fail("rank " + std::to_string(ctx.rank()) +
                ": DISTRIBUTE completed without rank 0");
      } catch (const msg::RankAbort& e) {
        ck.check_eq(e.origin_rank, 0, ctx.rank(), "abort origin");
      }
      ck.check(a.dist_handle() == before, ctx.rank(), "old descriptor kept");
      ck.check_eq(a.distribution().type().dim(0).kind,
                  dist::DimDistKind::Block, ctx.rank(), "still BLOCK");
      std::size_t owned = 0;
      a.for_owned([&](const dist::IndexVec& i, double& v) {
        ck.check_eq(v, 1.0 * i[0], ctx.rank(), "owned value intact");
        ++owned;
      });
      ck.check_eq(owned, std::size_t{4}, ctx.rank(), "old owned block");
    });
    FAIL() << "expected RankAbort";
  } catch (const msg::RankAbort& e) {
    EXPECT_EQ(e.origin_rank, 0);
  }
  ck.expect_clean();
}

/// A single rank throwing out of its body (while every peer sits in a
/// collective) used to deadlock the machine; the fence now wakes the peers
/// with RankAbort and run_spmd rethrows the origin's ORIGINAL error type.
TEST(Failure, LoneRankThrowIsContained) {
  msg::Machine m(4);
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 2) throw std::out_of_range("rank 2 local failure");
      (void)ctx.allreduce(1, msg::ReduceOp::Sum);  // peers block here
    });
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "rank 2 local failure");
  }
  const msg::FailureReport rep = m.last_failure_report();
  EXPECT_TRUE(rep.any_failed);
  EXPECT_EQ(rep.origin_rank, 2);
  for (const msg::RankFailure& f : rep.ranks) {
    EXPECT_TRUE(f.failed) << "rank " << f.rank;
    if (f.rank != 2) {
      EXPECT_EQ(f.abort_origin, 2) << "rank " << f.rank;
    }
  }
  EXPECT_EQ(m.fence_trips(), 1u);
}

/// Context::abort trips the fence explicitly: peers blocked in a barrier
/// wake with the origin's reason.
TEST(Failure, ContextAbortPropagatesToAllRanks) {
  msg::Machine m(4);
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 1) ctx.abort("unrecoverable input on rank 1");
      ctx.barrier();
    });
    FAIL() << "expected RankAbort";
  } catch (const msg::RankAbort& e) {
    EXPECT_EQ(e.origin_rank, 1);
    EXPECT_EQ(e.reason, "unrecoverable input on rank 1");
  }
  for (const msg::RankFailure& f : m.last_failure_report().ranks) {
    EXPECT_TRUE(f.failed);
    EXPECT_EQ(f.abort_origin, 1);
  }
}

/// Plan-time validation failure on ONE rank only: rank 0 hands the
/// inspector an out-of-domain point while the others build a valid
/// schedule and block in its collectives.  Pre-fence this required every
/// rank to throw identically; now the lone bad rank aborts the machine
/// and the original out_of_range surfaces.
TEST(Failure, InspectorBadPointOnOneRankIsContained) {
  msg::Machine m(4);
  EXPECT_THROW(
      msg::run_spmd(m,
                    [](Context& ctx) {
                      Env env(ctx);
                      DistArray<double> a(
                          env, {.name = "A",
                                .domain = IndexDomain::of_extents({16}),
                                .dynamic = true,
                                .initial = DistributionType{block()}});
                      a.init([](const dist::IndexVec& i) { return 1.0 * i[0]; });
                      const dist::IndexVec pt =
                          ctx.rank() == 0 ? dist::IndexVec{99}
                                          : dist::IndexVec{1};
                      parti::Schedule s(ctx, a.dist_handle(), {pt});
                      std::vector<double> out(1);
                      s.gather(ctx, a, out);
                    }),
      std::out_of_range);
  EXPECT_EQ(m.last_failure_report().origin_rank, 0);
}

/// Too-wide ghost with ASYMMETRIC handling: ranks 1-3 let the plan-time
/// invalid_argument propagate, rank 0 catches it locally and walks into a
/// barrier.  The fence turns rank 0's barrier into a secondary RankAbort
/// instead of a deadlock, and run_spmd still rethrows the original
/// invalid_argument.
TEST(Failure, TooWideGhostWithLocalCatchOnOneRank) {
  msg::Machine m(4);
  EXPECT_THROW(
      msg::run_spmd(
          m,
          [](Context& ctx) {
            Env env(ctx);
            DistArray<double> a(env,
                                {.name = "A",
                                 .domain = IndexDomain::of_extents({4}),
                                 .dynamic = true,
                                 .initial = DistributionType{block()}});
            a.init([](const dist::IndexVec& i) { return 1.0 * i[0]; });
            // One cell per rank; rank 1 requests 2 low ghost planes.
            a.set_overlap({ctx.rank() == 1 ? 2 : 1}, {1}, false,
                          /*asymmetric=*/true);
            if (ctx.rank() == 0) {
              try {
                a.exchange_overlap();
              } catch (const std::invalid_argument&) {
                // Swallowed locally -- pre-fence this rank would now hang
                // forever in the barrier below.
              }
              ctx.barrier();
            } else {
              a.exchange_overlap();
              ctx.barrier();
            }
          }),
      std::invalid_argument);
  const msg::FailureReport rep = m.last_failure_report();
  EXPECT_TRUE(rep.any_failed);
  EXPECT_NE(rep.origin_rank, 0);  // rank 0 swallowed its own error
  const msg::RankFailure& r0 = rep.ranks.at(0);
  EXPECT_TRUE(r0.failed);
  EXPECT_EQ(r0.abort_origin, rep.origin_rank);
}

/// A count mismatch sends nothing, so nothing throws -- only the recv
/// watchdog can surface it.  The deadlock report must name what the stuck
/// rank was blocked on.
TEST(Failure, CountMismatchSurfacesViaWatchdog) {
  msg::Machine m(2);
  m.set_recv_watchdog(std::chrono::milliseconds(300));
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 0) {
        (void)ctx.recv_bytes(1, 7);  // rank 1 never sends
      }
    });
    FAIL() << "expected RankAbort";
  } catch (const msg::RankAbort& e) {
    EXPECT_EQ(e.origin_rank, 0);
    EXPECT_NE(e.reason.find("recv watchdog expired"), std::string::npos)
        << e.reason;
    EXPECT_NE(e.reason.find("blocked in recv(src=1, tag=7)"),
              std::string::npos)
        << e.reason;
  }
}

/// Watchdog coverage for barriers: a rank that never arrives is reported
/// with the blocked ranks' barrier generation.
TEST(Failure, MissingBarrierArrivalSurfacesViaWatchdog) {
  msg::Machine m(2);
  m.set_recv_watchdog(std::chrono::milliseconds(300));
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 0) ctx.barrier();  // rank 1 never arrives
    });
    FAIL() << "expected RankAbort";
  } catch (const msg::RankAbort& e) {
    EXPECT_NE(e.reason.find("blocked in barrier"), std::string::npos)
        << e.reason;
  }
  m.set_recv_watchdog(std::chrono::milliseconds(0));
}

/// The machine is reusable after an aborted run: reset_failure_state
/// clears queued frames, link sequences and the fence, so a healthy run
/// on the same machine completes with correct results.
TEST(Failure, MachineIsReusableAfterAbort) {
  msg::Machine m(4);
  EXPECT_THROW(msg::run_spmd(m,
                             [](Context& ctx) {
                               if (ctx.rank() == 3) {
                                 throw std::runtime_error("boom");
                               }
                               // Peers with in-flight traffic and a
                               // collective in progress when the fence
                               // trips.
                               ctx.send_value(3, 5, ctx.rank());
                               (void)ctx.allreduce(1, msg::ReduceOp::Sum);
                             }),
               std::runtime_error);
  EXPECT_EQ(m.fence_trips(), 1u);
  run_checked_on(m, [](Context& ctx, SpmdChecker& ck) {
    const int sum = ctx.allreduce(ctx.rank(), msg::ReduceOp::Sum);
    ck.check_eq(sum, 6, ctx.rank(), "allreduce after reset");
    const int right = (ctx.rank() + 1) % ctx.nprocs();
    const int left = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
    ctx.send_value(right, 9, ctx.rank());
    ck.check_eq(ctx.recv_value<int>(left, 9), left, ctx.rank(),
                "point-to-point after reset");
  });
  EXPECT_FALSE(m.last_failure_report().any_failed);
}

/// Which points a ghost region satisfies is a per-rank fact, but the
/// rejection of a scatter through a halo-aware schedule must not be: here
/// only rank 0 reads a ghost (point 5), while rank 1 requests an owned and
/// a remote point.  Every rank must throw, so that both ranks can catch
/// the error and carry on in step; a rank that went on into the exchange
/// would wait for rank 0 forever (the armed watchdog turns that hang into
/// a failure).
TEST(Failure, OneSidedGhostScatterRejectedOnEveryRank) {
  for (const msg::TransportKind tk :
       {msg::TransportKind::Mailbox, msg::TransportKind::SharedMemory}) {
    msg::Machine m(2, {}, tk);
    m.set_recv_watchdog(std::chrono::milliseconds(2000));
    std::atomic<int> rejected{0};
    run_checked_on(m, [&](Context& ctx, SpmdChecker& ck) {
      Env env(ctx);
      DistArray<double> a(env, {.name = "A",
                                .domain = IndexDomain::of_extents({8}),
                                .initial = DistributionType{block()},
                                .overlap_lo = {1},
                                .overlap_hi = {1}});
      a.fill(1.0);
      a.exchange_overlap();
      const std::vector<dist::IndexVec> pts =
          ctx.rank() == 0 ? std::vector<dist::IndexVec>{{2}, {5}, {7}}
                          : std::vector<dist::IndexVec>{{6}, {1}};
      const parti::Schedule sched(ctx, a.dist_handle(), pts, a.halo_spec());
      ck.check_eq(sched.n_halo(), ctx.rank() == 0 ? std::size_t{1}
                                                  : std::size_t{0},
                  ctx.rank(), "ghost reads");
      const std::vector<double> vals(pts.size(), 2.0);
      try {
        sched.scatter(ctx, vals, a);
        ck.fail("scatter through a halo-aware schedule must throw");
      } catch (const std::logic_error&) {
        ++rejected;
      }
      ctx.barrier();
      // Still in step: the schedule gathers normally.
      std::vector<double> out(pts.size());
      sched.gather(ctx, a, out);
      for (const double v : out) ck.check_eq(v, 1.0, ctx.rank(), "gather");
    });
    EXPECT_EQ(rejected.load(), 2) << msg::to_string(tk);
  }
}

}  // namespace
}  // namespace vf
