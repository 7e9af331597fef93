// The runtime lockstep checker (msg/lockstep.hpp): armed machines must
// convert collective divergence -- mismatched tags, mismatched exchange
// counts, op-order disagreement, one rank skipping an exchange -- into a
// deterministic LockstepMismatch naming the first diverging op, instead of
// a watchdog timeout or a silent hang.  Every scenario runs at P in {4, 9}
// on both transports, and the machine must stay reusable afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <cstdlib>
#include <string>
#include <vector>

#include "schedule_test_access.hpp"
#include "spmd_test_util.hpp"
#include "vf/msg/exchange_scratch.hpp"
#include "vf/msg/lockstep.hpp"
#include "vf/msg/transport.hpp"
#include "vf/parti/schedule.hpp"

namespace vf::msg {
namespace {

using testing::SpmdChecker;

struct LockstepParam {
  int np;
  TransportKind transport;
};

std::string param_name(const ::testing::TestParamInfo<LockstepParam>& pinfo) {
  std::string s = "P";
  s += std::to_string(pinfo.param.np);
  s += '_';
  s += to_string(pinfo.param.transport);
  return s;
}

class LockstepSuite : public ::testing::TestWithParam<LockstepParam> {
 protected:
  // Machine owns mutexes and atomics (immovable): heap-construct it.
  [[nodiscard]] std::unique_ptr<Machine> make_armed() const {
    auto m = std::make_unique<Machine>(GetParam().np, CostModel{},
                                       GetParam().transport);
    m->set_lockstep_check(true);
    return m;
  }
};

/// One symmetric alltoallv round, `count` doubles per peer.
void ring_round(Context& ctx, SpmdChecker& ck, std::uint64_t count) {
  const int np = ctx.nprocs();
  ExchangeLane lane;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(np), count);
  lane.prepare(counts, counts, sizeof(double));
  for (int d = 0; d < np; ++d) {
    for (std::uint64_t i = 0; i < count; ++i) {
      lane.send<double>(d)[i] = ctx.rank() * 1000.0 + d + 0.25 * double(i);
    }
  }
  ctx.alltoallv_known_into(lane);
  for (int s = 0; s < np; ++s) {
    ck.check_eq(lane.recv<double>(s)[0], s * 1000.0 + ctx.rank(), ctx.rank(),
                "ring value");
  }
}

/// Runs `body` on an armed machine and asserts the run fails with a
/// type-preserved LockstepMismatch whose reason mentions `expect_in_what`;
/// returns the caught mismatch description.
std::string expect_mismatch(Machine& m,
                            const std::function<void(Context&)>& body,
                            const std::string& expect_in_what) {
  try {
    run_spmd(m, body);
  } catch (const LockstepMismatch& e) {
    EXPECT_NE(std::string(e.what()).find("lockstep mismatch"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(expect_in_what), std::string::npos)
        << "expected '" << expect_in_what << "' in: " << e.what();
    EXPECT_GE(m.lockstep().mismatches(), 1u);
    EXPECT_TRUE(m.last_failure_report().any_failed);
    EXPECT_NE(m.last_failure_report().reason.find("lockstep mismatch"),
              std::string::npos);
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected LockstepMismatch, got: " << e.what();
    return {};
  }
  ADD_FAILURE() << "expected LockstepMismatch, run completed cleanly";
  return {};
}

/// Proves the machine is healthy (and the checker still armed) after a
/// mismatch by running a clean collective workload on it.
void expect_reusable(Machine& m) {
  ASSERT_TRUE(m.lockstep_check()) << "mismatch recovery disarmed the checker";
  SpmdChecker ck;
  run_spmd(m, [&](Context& ctx) {
    ring_round(ctx, ck, 2);
    const int sum = ctx.allreduce(1, ReduceOp::Sum);
    ck.check_eq(sum, ctx.nprocs(), ctx.rank(), "post-recovery allreduce");
    ctx.barrier();
  });
  ck.expect_clean();
}

TEST_P(LockstepSuite, CleanRunChainsAgree) {
  auto mp = make_armed();
  Machine& m = *mp;
  SpmdChecker ck;
  run_spmd(m, [&](Context& ctx) {
    ctx.barrier();
    const int sum = ctx.allreduce(ctx.rank(), ReduceOp::Sum);
    ck.check_eq(sum, ctx.nprocs() * (ctx.nprocs() - 1) / 2, ctx.rank(),
                "allreduce sum");
    ring_round(ctx, ck, 3);
    ctx.barrier();
  });
  ck.expect_clean();
  EXPECT_EQ(m.lockstep().mismatches(), 0u);
  EXPECT_EQ(m.fence_trips(), 0u);
  const std::uint64_t ops0 = m.lockstep().ops(0);
  const std::uint64_t chain0 = m.lockstep().chain(0);
  EXPECT_GE(ops0, 4u);  // barrier + allreduce + exchange + barrier
  for (int r = 1; r < m.nprocs(); ++r) {
    EXPECT_EQ(m.lockstep().ops(r), ops0) << "rank " << r;
    EXPECT_EQ(m.lockstep().chain(r), chain0) << "rank " << r;
  }
}

TEST_P(LockstepSuite, MismatchedTagCaught) {
  auto mp = make_armed();
  Machine& m = *mp;
  expect_mismatch(
      m,
      [](Context& ctx) {
        // One rank burns a collective tag: its next collective signature
        // disagrees with everyone else's even though the op kind matches.
        if (ctx.rank() == 2) ctx.skip_coll_tags(1);
        (void)ctx.allreduce(1, ReduceOp::Sum);
        ctx.barrier();
      },
      "allreduce");
  expect_reusable(m);
}

TEST_P(LockstepSuite, CountMismatchCaught) {
  // Without the checker this is the watchdog-only failure mode: the
  // divergent rank publishes short payloads and every peer blocks waiting
  // for bytes that never come.  Armed, the divergence surfaces at op
  // entry, deterministically, with the byte counts named.
  auto mp = make_armed();
  Machine& m = *mp;
  const std::string what = expect_mismatch(
      m,
      [](Context& ctx) {
        SpmdChecker ignored;
        ring_round(ctx, ignored, ctx.rank() == 1 ? 2 : 3);
      },
      "exchange");
  EXPECT_NE(what.find("bytes"), std::string::npos) << what;
  expect_reusable(m);
}

TEST_P(LockstepSuite, OpOrderDivergenceCaught) {
  auto mp = make_armed();
  Machine& m = *mp;
  try {
    run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 0) {
        (void)ctx.allreduce(1, ReduceOp::Sum);
      } else {
        ctx.barrier();
      }
    });
    ADD_FAILURE() << "expected LockstepMismatch";
  } catch (const LockstepMismatch& e) {
    EXPECT_EQ(e.op_seq, 0u);  // the FIRST diverging op is named
    const std::string what = e.what();
    EXPECT_NE(what.find("allreduce"), std::string::npos) << what;
    EXPECT_NE(what.find("barrier"), std::string::npos) << what;
  }
  expect_reusable(m);
}

TEST_P(LockstepSuite, SkippedExchangeCaught) {
  auto mp = make_armed();
  Machine& m = *mp;
  expect_mismatch(
      m,
      [](Context& ctx) {
        SpmdChecker ignored;
        // Rank 2 "optimizes away" its exchange and goes straight to the
        // next collective -- the classic rank-local-shortcut deadlock.
        if (ctx.rank() != 2) ring_round(ctx, ignored, 2);
        ctx.barrier();
      },
      "lockstep mismatch");
  expect_reusable(m);
}

TEST_P(LockstepSuite, DisabledHasNoFootprint) {
  Machine m(GetParam().np, {}, GetParam().transport);
  // Explicit disarm: the machine may have been armed by VF_LOCKSTEP=1 in
  // the environment (the CI lockstep leg runs this whole suite armed).
  m.set_lockstep_check(false);
  ASSERT_FALSE(m.lockstep_check());
  SpmdChecker ck;
  run_spmd(m, [&](Context& ctx) {
    ring_round(ctx, ck, 2);
    ctx.barrier();
  });
  ck.expect_clean();
  EXPECT_EQ(m.lockstep().ops(0), 0u);
  EXPECT_EQ(m.lockstep().chain(0), 0u);
  EXPECT_EQ(m.lockstep().mismatches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LockstepSuite,
    ::testing::Values(LockstepParam{4, TransportKind::Mailbox},
                      LockstepParam{4, TransportKind::SharedMemory},
                      LockstepParam{9, TransportKind::Mailbox},
                      LockstepParam{9, TransportKind::SharedMemory}),
    param_name);

TEST(LockstepEnv, VfLockstepArmsTheMachine) {
  const char* old = std::getenv("VF_LOCKSTEP");
  std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;

  ::setenv("VF_LOCKSTEP", "1", 1);
  {
    Machine m(2);
    EXPECT_TRUE(m.lockstep_check());
  }
  ::setenv("VF_LOCKSTEP", "0", 1);
  {
    Machine m(2);
    EXPECT_FALSE(m.lockstep_check());
  }
  ::unsetenv("VF_LOCKSTEP");
  {
    Machine m(2);
    EXPECT_FALSE(m.lockstep_check());
  }

  if (had) {
    ::setenv("VF_LOCKSTEP", saved.c_str(), 1);
  } else {
    ::unsetenv("VF_LOCKSTEP");
  }
}

TEST(LockstepEnv, ManualArmDisarm) {
  Machine m(3);
  m.set_lockstep_check(false);  // VF_LOCKSTEP=1 may have armed the ctor
  EXPECT_FALSE(m.lockstep_check());
  m.set_lockstep_check(true);
  EXPECT_TRUE(m.lockstep_check());
  m.set_lockstep_check(false);
  EXPECT_FALSE(m.lockstep_check());
}

/// PARTI executors note their kind: a rank calling gather while its peer
/// calls scatter on the same schedule moves the same byte counts, so only
/// the note tells the two apart.  Without it rank 0 silently returned
/// rank 1's scatter input.
TEST(LockstepParti, ExecutorKindDivergenceCaught) {
  for (const TransportKind tk :
       {TransportKind::Mailbox, TransportKind::SharedMemory}) {
    Machine m(2, CostModel{}, tk);
    m.set_lockstep_check(true);
    std::atomic<std::uint64_t> gather_note{0};
    std::atomic<std::uint64_t> scatter_note{0};
    try {
      run_spmd(m, [&](Context& ctx) {
        rt::Env env(ctx);
        rt::DistArray<double> a(
            env, {.name = "A",
                  .domain = dist::IndexDomain::of_extents({8}),
                  .initial = dist::DistributionType{dist::block()}});
        a.init([](const dist::IndexVec& i) { return 4.5 + i[0]; });
        // Each rank asks the other for two elements: symmetric counts.
        const std::vector<dist::IndexVec> pts =
            ctx.rank() == 0 ? std::vector<dist::IndexVec>{{5}, {6}}
                            : std::vector<dist::IndexVec>{{1}, {2}};
        const parti::Schedule s(ctx, a.dist_handle(), pts);
        using Access = parti::ScheduleTestAccess;
        gather_note = mix64(Access::gather_note(s));
        scatter_note = mix64(Access::scatter_note(s));
        std::vector<double> buf(2, 100.0);
        if (ctx.rank() == 0) {
          s.gather(ctx, a, buf);
        } else {
          s.scatter(ctx, buf, a);
        }
      });
      ADD_FAILURE() << "expected LockstepMismatch, run completed cleanly";
    } catch (const LockstepMismatch& e) {
      const std::string both = e.mine + " " + e.theirs;
      EXPECT_NE(both.find("exchange"), std::string::npos) << both;
      EXPECT_NE(both.find("note=" + std::to_string(gather_note.load())),
                std::string::npos)
          << both;
      EXPECT_NE(both.find("note=" + std::to_string(scatter_note.load())),
                std::string::npos)
          << both;
    }
    expect_reusable(m);
  }
}

}  // namespace
}  // namespace vf::msg
