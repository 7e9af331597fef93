// The pluggable counted-exchange transport layer: VF_TRANSPORT parsing,
// mailbox/shared-memory equivalence (results AND data-traffic accounting,
// alltoallv included, with an inspector overlapping a split exchange),
// switching transports on a live machine, the zero-copy rendezvous's
// failure containment (RankAbort mid-exchange, pre-agreed count mismatch,
// machine reuse after an abort), and the allocation-free collective
// scratch the transports feed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/apps/amr_front.hpp"
#include "vf/apps/smoothing_sim.hpp"
#include "vf/msg/exchange_scratch.hpp"
#include "vf/msg/transport.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf {
namespace {

using dist::block;
using dist::DistributionType;
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using msg::ExchangeLane;
using msg::Machine;
using msg::RankAbort;
using msg::TransportKind;
using testing::run_checked_on;
using testing::SpmdChecker;

/// Scoped VF_TRANSPORT override that restores the previous value.
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    const char* old = std::getenv("VF_TRANSPORT");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value == nullptr) {
      ::unsetenv("VF_TRANSPORT");
    } else {
      ::setenv("VF_TRANSPORT", value, 1);
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv("VF_TRANSPORT", saved_.c_str(), 1);
    } else {
      ::unsetenv("VF_TRANSPORT");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(TransportSelect, EnvVariableParsing) {
  {
    EnvGuard g(nullptr);
    EXPECT_EQ(msg::default_transport_kind(), TransportKind::Mailbox);
  }
  {
    EnvGuard g("mailbox");
    EXPECT_EQ(msg::default_transport_kind(), TransportKind::Mailbox);
  }
  for (const char* shm : {"shm", "shared", "shared-memory", "shared_memory"}) {
    EnvGuard g(shm);
    EXPECT_EQ(msg::default_transport_kind(), TransportKind::SharedMemory)
        << shm;
  }
  {
    EnvGuard g("carrier-pigeon");
    EXPECT_THROW((void)msg::default_transport_kind(), std::invalid_argument);
  }
  EXPECT_STREQ(msg::to_string(TransportKind::Mailbox), "mailbox");
  EXPECT_STREQ(msg::to_string(TransportKind::SharedMemory), "shm");
}

TEST(TransportSelect, MachineExposesAndSwitchesKind) {
  Machine m(2, {}, TransportKind::Mailbox);
  EXPECT_EQ(m.transport_kind(), TransportKind::Mailbox);
  m.set_transport(TransportKind::SharedMemory);
  EXPECT_EQ(m.transport_kind(), TransportKind::SharedMemory);
  m.set_transport(TransportKind::Mailbox);
  EXPECT_EQ(m.transport_kind(), TransportKind::Mailbox);
}

/// A ring alltoallv_known_into round on an existing machine; returns
/// nothing but checks every received value.
void ring_exchange_round(Context& ctx, SpmdChecker& ck, int round) {
  const int np = ctx.nprocs();
  ExchangeLane lane;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(np), 2);
  lane.prepare(counts, counts, sizeof(double));
  for (int d = 0; d < np; ++d) {
    lane.send<double>(d)[0] = ctx.rank() * 100.0 + d + round;
    lane.send<double>(d)[1] = 0.5 * ctx.rank();
  }
  ctx.alltoallv_known_into(lane);
  for (int s = 0; s < np; ++s) {
    ck.check_eq(lane.recv<double>(s)[0], s * 100.0 + ctx.rank() + round,
                ctx.rank(), "ring value");
    ck.check_eq(lane.recv<double>(s)[1], 0.5 * s, ctx.rank(), "ring value 2");
  }
}

/// The same workloads under both transports must produce bitwise-equal
/// results and, by design, identical data-message accounting: the
/// zero-copy transport meters every published payload exactly as the
/// framed path does.
TEST(TransportEquivalence, WorkloadResultsAndAccountingMatch) {
  double checksum[2] = {0.0, 0.0};
  msg::CommStats stats[2];
  const TransportKind kinds[2] = {TransportKind::Mailbox,
                                  TransportKind::SharedMemory};
  for (int t = 0; t < 2; ++t) {
    Machine m(4, {}, kinds[t]);
    SpmdChecker ck;
    msg::run_spmd(m, [&](Context& ctx) {
      ring_exchange_round(ctx, ck, 7);
      const auto r = apps::run_smoothing(
          ctx,
          {.n = 16, .steps = 3, .stencil = apps::SmoothStencil::NinePoint,
           .split_phase = true},
          apps::SmoothLayout::Grid2D);
      if (ctx.rank() == 0) checksum[t] = r.checksum;
    });
    ck.expect_clean();
    stats[t] = m.total_stats();
  }
  EXPECT_EQ(checksum[0], checksum[1]);
  EXPECT_EQ(stats[0].data_messages, stats[1].data_messages);
  EXPECT_EQ(stats[0].data_bytes, stats[1].data_bytes);
  EXPECT_EQ(stats[0].collectives, stats[1].collectives);
}

TEST(TransportEquivalence, SetTransportBetweenRunsOnOneMachine) {
  Machine m(4);
  double first = 0.0;
  double second = 0.0;
  run_checked_on(m, [&](Context& ctx, SpmdChecker& ck) {
    ring_exchange_round(ctx, ck, 1);
    const auto r = apps::run_amr_front(ctx, {.n = 16, .steps = 2});
    if (ctx.rank() == 0) first = r.checksum;
  });
  m.set_transport(TransportKind::SharedMemory);
  run_checked_on(m, [&](Context& ctx, SpmdChecker& ck) {
    ring_exchange_round(ctx, ck, 2);
    const auto r = apps::run_amr_front(
        ctx, {.n = 16, .steps = 2, .split_phase = true});
    if (ctx.rank() == 0) second = r.checksum;
  });
  EXPECT_EQ(first, second);
}

/// alltoallv and alltoallv_known ride the one counted exchange, so on
/// either transport they deliver the same payloads with the same
/// accounting: ragged lengths, empty payloads (no message) and the self
/// slot (no network).  Rank r sends (r + 2d) % 4 ints to rank d.
TEST(TransportEquivalence, AlltoallvRaggedEmptyAndSelfPayloadsMatch) {
  constexpr int kP = 4;
  const auto len = [](int s, int d) {
    return static_cast<std::size_t>((s + 2 * d) % 4);
  };
  const auto payload = [&](int s, int d) {
    std::vector<int> v(len(s, d));
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k] = s * 1000 + d * 10 + static_cast<int>(k);
    }
    return v;
  };
  std::vector<std::vector<std::vector<int>>> got[2];
  msg::CommStats stats[2];
  const TransportKind kinds[2] = {TransportKind::Mailbox,
                                  TransportKind::SharedMemory};
  for (int t = 0; t < 2; ++t) {
    got[t].resize(kP);
    Machine m(kP, {}, kinds[t]);
    m.set_recv_watchdog(std::chrono::milliseconds(5000));
    run_checked_on(m, [&](Context& ctx, SpmdChecker& ck) {
      const int me = ctx.rank();
      std::vector<std::vector<int>> out(kP);
      std::vector<std::uint64_t> expected(kP);
      for (int d = 0; d < kP; ++d) {
        out[static_cast<std::size_t>(d)] = payload(me, d);
        expected[static_cast<std::size_t>(d)] = len(d, me);
      }
      auto in = ctx.alltoallv(out);
      auto known = ctx.alltoallv_known(std::move(out), expected);
      for (int s = 0; s < kP; ++s) {
        const auto us = static_cast<std::size_t>(s);
        ck.check(in[us] == payload(s, me), me, "alltoallv payload");
        ck.check(known[us] == payload(s, me), me, "alltoallv_known payload");
      }
      in.insert(in.end(), known.begin(), known.end());
      got[t][static_cast<std::size_t>(me)] = std::move(in);
    });
    stats[t] = m.total_stats();
  }
  EXPECT_EQ(got[0], got[1]);
  // One data message per non-empty remote payload, per call.
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  for (int s = 0; s < kP; ++s) {
    for (int d = 0; d < kP; ++d) {
      if (s == d || len(s, d) == 0) continue;
      msgs += 2;
      bytes += 2 * len(s, d) * sizeof(int);
    }
  }
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(stats[t].data_messages, msgs) << msg::to_string(kinds[t]);
    EXPECT_EQ(stats[t].data_bytes, bytes) << msg::to_string(kinds[t]);
    // alltoallv: count allgather + exchange; alltoallv_known: exchange.
    EXPECT_EQ(stats[t].collectives, std::uint64_t{3 * kP})
        << msg::to_string(kinds[t]);
  }
  EXPECT_EQ(stats[0].data_messages, stats[1].data_messages);
  EXPECT_EQ(stats[0].data_bytes, stats[1].data_bytes);
  EXPECT_EQ(stats[0].collectives, stats[1].collectives);
}

/// A PARTI inspector -- whose request exchange is an alltoallv -- runs
/// while an array's split-phase overlap exchange is in flight, so two
/// counted exchanges are outstanding on different tags.  Both complete,
/// the schedule gathers correctly, and the ghosts are bitwise equal to a
/// blocking exchange_overlap of a twin array.
TEST(TransportEquivalence, InspectorDuringSplitPhaseExchange) {
  for (const TransportKind kind :
       {TransportKind::Mailbox, TransportKind::SharedMemory}) {
    Machine m(4, {}, kind);
    m.set_recv_watchdog(std::chrono::milliseconds(5000));
    run_checked_on(m, [&](Context& ctx, SpmdChecker& ck) {
      rt::Env env(ctx, dist::ProcessorArray::grid(2, 2));
      const IndexDomain dom = IndexDomain::of_extents({12, 10});
      const auto spec = [&](const char* name) {
        return rt::DistArray<double>::Spec{
            .name = name,
            .domain = dom,
            .dynamic = true,
            .initial = DistributionType{block(), block()},
            .overlap_lo = {1, 2},
            .overlap_hi = {2, 1},
            .overlap_corners = true};
      };
      rt::DistArray<double> spl(env, spec("SPL"));
      rt::DistArray<double> blk(env, spec("BLK"));
      const auto f = [](const IndexVec& i) { return 100.0 * i[0] + i[1]; };
      spl.init(f);
      blk.init(f);

      std::mt19937 rng(17 + ctx.rank());
      std::vector<IndexVec> pts;
      for (int k = 0; k < 30; ++k) {
        pts.push_back({1 + static_cast<Index>(rng() % 12),
                       1 + static_cast<Index>(rng() % 10)});
      }
      spl.begin_exchange_overlap();
      const parti::Schedule sched(ctx, spl.dist_handle(), pts);
      spl.end_exchange_overlap();
      blk.exchange_overlap();

      const auto a = spl.local_span();
      const auto b = blk.local_span();
      ck.check(a.size() == b.size() &&
                   std::memcmp(a.data(), b.data(), a.size_bytes()) == 0,
               ctx.rank(), std::string("ghosts differ from blocking on ") +
                               msg::to_string(kind));
      std::vector<double> vals(pts.size());
      sched.gather(ctx, blk, vals);
      for (std::size_t k = 0; k < pts.size(); ++k) {
        ck.check_eq(vals[k], f(pts[k]), ctx.rank(), "gathered value");
      }
    });
  }
}

/// A lane moved between begin_exchange and end_exchange takes its
/// in-flight publication along (its buffers are the ones published):
/// the moved-from lane dies with nothing to withdraw, and the exchange
/// completes on the new lane.
TEST(TransportEquivalence, LaneMovedMidExchangeCompletes) {
  Machine m(4, {}, TransportKind::SharedMemory);
  m.set_recv_watchdog(std::chrono::milliseconds(2000));
  run_checked_on(m, [](Context& ctx, SpmdChecker& ck) {
    const std::vector<std::uint64_t> counts(4, 1);
    ExchangeLane moved;
    int tag = 0;
    {
      ExchangeLane lane;
      lane.prepare(counts, counts, sizeof(double));
      for (int d = 0; d < 4; ++d) {
        lane.send<double>(d)[0] = 10.0 * ctx.rank() + d;
      }
      tag = ctx.begin_exchange(lane);
      moved = std::move(lane);
    }
    ctx.end_exchange(moved, tag);
    for (int s = 0; s < 4; ++s) {
      ck.check_eq(moved.recv<double>(s)[0], 10.0 * s + ctx.rank(),
                  ctx.rank(), "value through the moved lane");
    }
  });
}

// ---- zero-copy failure containment ----------------------------------------

/// One rank dies between begin and end while its peers are already
/// blocked in the zero-copy rendezvous (waiting for rank 2's acks that
/// will never come).  The fence must wake every peer with a RankAbort --
/// not a hang -- and run_spmd rethrows the origin's original error.
TEST(TransportAbort, RankDeathMidExchangeWakesBlockedPeers) {
  Machine m(4, {}, TransportKind::SharedMemory);
  m.set_recv_watchdog(std::chrono::milliseconds(2000));
  try {
    msg::run_spmd(m, [](Context& ctx) {
      ExchangeLane lane;
      const std::vector<std::uint64_t> counts(4, 1);
      lane.prepare(counts, counts, sizeof(double));
      for (int d = 0; d < 4; ++d) lane.send<double>(d)[0] = 1.0 * ctx.rank();
      const int tag = ctx.begin_exchange(lane);
      if (ctx.rank() == 2) {
        throw std::runtime_error("rank 2 dies mid-exchange");
      }
      ctx.end_exchange(lane, tag);  // peers block on rank 2's ack
    });
    FAIL() << "expected the origin's runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 dies mid-exchange");
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
  // reset_failure_state drops the orphaned publications: the machine is
  // fully reusable for a clean zero-copy run.
  run_checked_on(m, [](Context& ctx, SpmdChecker& ck) {
    ring_exchange_round(ctx, ck, 3);
  });
  EXPECT_FALSE(m.last_failure_report().any_failed);
}

/// Disagreeing pre-agreed counts (sender publishes 2 elements, receiver
/// expects 3) surface as a structured RankAbort naming the mismatch, on
/// both ranks, instead of reading past a buffer.
TEST(TransportAbort, PreAgreedCountMismatchAborts) {
  Machine m(2, {}, TransportKind::SharedMemory);
  m.set_recv_watchdog(std::chrono::milliseconds(2000));
  try {
    msg::run_spmd(m, [](Context& ctx) {
      ExchangeLane lane;
      if (ctx.rank() == 0) {
        // Sends 2 to rank 1, expects 1 back.
        lane.prepare(std::vector<std::uint64_t>{0, 2},
                     std::vector<std::uint64_t>{0, 1}, sizeof(double));
      } else {
        // Sends 1 to rank 0, expects 3 -- but rank 0 published 2.
        lane.prepare(std::vector<std::uint64_t>{1, 0},
                     std::vector<std::uint64_t>{3, 0}, sizeof(double));
      }
      ctx.end_exchange(lane, ctx.begin_exchange(lane));
    });
    FAIL() << "expected RankAbort";
  } catch (const RankAbort& e) {
    // Unarmed, the shared-memory rendezvous itself detects the
    // disagreement on the receiver ("pre-agreed counts disagree"); with
    // the lockstep checker armed (the VF_LOCKSTEP=1 CI leg) the same
    // divergence is caught one layer earlier, at op entry, by whichever
    // rank records second ("pre-agreed counts diverged").
    if (e.reason.find("lockstep mismatch") != std::string::npos) {
      EXPECT_NE(e.reason.find("pre-agreed counts diverged"),
                std::string::npos)
          << e.reason;
      EXPECT_TRUE(e.origin_rank == 0 || e.origin_rank == 1) << e.origin_rank;
    } else {
      EXPECT_EQ(e.origin_rank, 1);  // the receiver detects the mismatch
      EXPECT_NE(e.reason.find("pre-agreed counts disagree"),
                std::string::npos)
          << e.reason;
    }
  }
  EXPECT_TRUE(m.last_failure_report().any_failed);
}

// ---- allocation-free collectives ------------------------------------------

/// Warm allreduce / allreduce_vec replays draw their fan-in buffers from
/// the context's persistent collective scratch: after one warmup round
/// the grow_allocs counter must stay flat on every rank (this is the
/// allocs_per_exchange == 0 gate CI enforces on the bench side).
TEST(CollectiveScratch, WarmAllreduceReplaysAllocationFree) {
  testing::run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    std::vector<double> v(32);
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k] = 0.25 * static_cast<double>(k) + ctx.rank();
    }
    // Warmup: both the scalar and the vector shape.
    (void)ctx.allreduce(1 + ctx.rank(), msg::ReduceOp::Sum);
    std::vector<double> w = ctx.allreduce_vec(v, msg::ReduceOp::Max);
    ctx.reset_collective_scratch_stats();

    for (int round = 0; round < 10; ++round) {
      const int s = ctx.allreduce(1 + ctx.rank(), msg::ReduceOp::Sum);
      ck.check_eq(s, 10, ctx.rank(), "scalar allreduce value");
      w = ctx.allreduce_vec(std::move(w), msg::ReduceOp::Max);
      for (std::size_t k = 0; k < w.size(); ++k) {
        ck.check_eq(w[k], 0.25 * static_cast<double>(k) + 3, ctx.rank(),
                    "vector allreduce value");
      }
    }
    ck.check_eq(ctx.collective_scratch_stats().grow_allocs, std::uint64_t{0},
                ctx.rank(), "warm collective replays allocate nothing");
  });
}

}  // namespace
}  // namespace vf
