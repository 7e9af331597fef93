// Tests for the message-passing substrate: mailboxes, point-to-point,
// collectives, statistics and the cost model.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <string>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/msg/context.hpp"
#include "vf/msg/machine.hpp"
#include "vf/msg/spmd.hpp"

namespace vf {
namespace {

using msg::CommStats;
using msg::Context;
using msg::CostModel;
using msg::Machine;
using msg::ReduceOp;
using testing::run_checked;
using testing::SpmdChecker;

TEST(CostModel, MessageCostIsAffine) {
  CostModel cm{.alpha_us = 100.0, .beta_us_per_byte = 0.5};
  EXPECT_DOUBLE_EQ(cm.message_us(0), 100.0);
  EXPECT_DOUBLE_EQ(cm.message_us(200), 200.0);
}

TEST(CostModel, StatsModeledTime) {
  CommStats s;
  s.data_messages = 4;
  s.data_bytes = 1000;
  CostModel cm{.alpha_us = 10.0, .beta_us_per_byte = 0.1};
  EXPECT_DOUBLE_EQ(s.modeled_us(cm), 4 * 10.0 + 1000 * 0.1);
  EXPECT_DOUBLE_EQ(s.modeled_data_us(cm), s.modeled_us(cm));
  s.ctl_messages = 2;
  s.ctl_bytes = 100;
  EXPECT_DOUBLE_EQ(s.modeled_us(cm), 6 * 10.0 + 1100 * 0.1);
  EXPECT_DOUBLE_EQ(s.modeled_data_us(cm), 4 * 10.0 + 1000 * 0.1);
}

TEST(CostModel, StatsAccumulate) {
  CommStats a{1, 2, 3, 4, 5};
  CommStats b{10, 20, 30, 40, 50};
  CommStats c = a + b;
  EXPECT_EQ(c.data_messages, 11u);
  EXPECT_EQ(c.data_bytes, 22u);
  EXPECT_EQ(c.ctl_messages, 33u);
  EXPECT_EQ(c.ctl_bytes, 44u);
  EXPECT_EQ(c.collectives, 55u);
}

TEST(Mailbox, TryPopMatchesWithoutBlocking) {
  msg::Mailbox box;
  msg::Message out;
  EXPECT_FALSE(box.try_pop(msg::kAnySource, 0, out));  // empty: no block
  box.push(msg::Message{0, 5, {std::byte{1}}});
  box.push(msg::Message{1, 7, {std::byte{2}}});
  EXPECT_FALSE(box.try_pop(0, 7, out));  // (src, tag) must BOTH match
  EXPECT_FALSE(box.try_pop(1, 5, out));
  ASSERT_TRUE(box.try_pop(1, 7, out));
  EXPECT_EQ(out.src, 1);
  EXPECT_EQ(out.payload.at(0), std::byte{2});
  EXPECT_EQ(box.size(), 1u);
  ASSERT_TRUE(box.try_pop(msg::kAnySource, 5, out));
  EXPECT_EQ(out.src, 0);
  EXPECT_FALSE(box.try_pop(msg::kAnySource, 5, out));
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, AnySourcePopsFifoAmongMatching) {
  // The documented guarantee: among messages satisfying the filter,
  // matching is in arrival order -- even with non-matching messages
  // interleaved ahead of them.
  msg::Mailbox box;
  box.push(msg::Message{3, 9, {std::byte{30}}});  // wrong tag, stays queued
  box.push(msg::Message{2, 4, {std::byte{20}}});
  box.push(msg::Message{0, 4, {std::byte{0}}});
  box.push(msg::Message{1, 4, {std::byte{10}}});
  EXPECT_EQ(box.pop(msg::kAnySource, 4).src, 2);
  EXPECT_EQ(box.pop(msg::kAnySource, 4).src, 0);
  EXPECT_EQ(box.pop(msg::kAnySource, 4).src, 1);
  EXPECT_EQ(box.pop(msg::kAnySource, 9).src, 3);
}

TEST(Mailbox, PerSourceFifoWithExplicitSource) {
  msg::Mailbox box;
  for (int k = 0; k < 3; ++k) {
    box.push(msg::Message{0, 1, {std::byte(k)}});
    box.push(msg::Message{1, 1, {std::byte(100 + k)}});
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(box.pop(1, 1).payload.at(0), std::byte(100 + k));
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(box.pop(0, 1).payload.at(0), std::byte(k));
  }
}

TEST(Machine, RejectsNonPositiveProcs) {
  EXPECT_THROW(Machine(0), std::invalid_argument);
  EXPECT_THROW(Machine(-3), std::invalid_argument);
}

TEST(Spmd, EveryRankRuns) {
  std::vector<int> seen(8, 0);
  Machine m(8);
  msg::run_spmd(m, [&](Context& ctx) { seen[ctx.rank()] = 1; });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 8);
}

TEST(Spmd, ExceptionsPropagate) {
  Machine m(3);
  EXPECT_THROW(
      msg::run_spmd(m,
                    [&](Context& ctx) {
                      if (ctx.rank() == 2) throw std::runtime_error("boom");
                    }),
      std::runtime_error);
}

TEST(PointToPoint, RingPassesValues) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    const int next = (ctx.rank() + 1) % ctx.nprocs();
    const int prev = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
    ctx.send_value<int>(next, 7, ctx.rank() * 10);
    const int got = ctx.recv_value<int>(prev, 7);
    ck.check_eq(got, prev * 10, ctx.rank(), "ring value");
  });
}

TEST(PointToPoint, TagsAreMatched) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    if (ctx.rank() == 0) {
      ctx.send_value<int>(1, /*tag=*/5, 55);
      ctx.send_value<int>(1, /*tag=*/9, 99);
    } else {
      // Receive in the opposite order of sending: matching is by tag.
      ck.check_eq(ctx.recv_value<int>(0, 9), 99, 1, "tag 9");
      ck.check_eq(ctx.recv_value<int>(0, 5), 55, 1, "tag 5");
    }
  });
}

TEST(PointToPoint, AnySourceReceives) {
  run_checked(3, [](Context& ctx, SpmdChecker& ck) {
    if (ctx.rank() == 0) {
      int sum = 0;
      for (int k = 0; k < 2; ++k) {
        auto m = ctx.recv_msg(msg::kAnySource, 1);
        sum += m.src;
      }
      ck.check_eq(sum, 3, 0, "received from both peers");
    } else {
      ctx.send_value<int>(0, 1, ctx.rank());
    }
  });
}

TEST(PointToPoint, VectorPayloadRoundTrips) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    if (ctx.rank() == 0) {
      std::vector<double> v(100);
      std::iota(v.begin(), v.end(), 0.5);
      ctx.send<double>(1, 3, v);
    } else {
      auto v = ctx.recv<double>(0, 3);
      ck.check_eq(v.size(), std::size_t{100}, 1, "size");
      ck.check_eq(v[99], 99.5, 1, "last element");
    }
  });
}

TEST(PointToPoint, StatsCountSenderSide) {
  Machine m(2);
  msg::run_spmd(m, [](Context& ctx) {
    if (ctx.rank() == 0) {
      std::vector<std::byte> payload(64);
      ctx.send_bytes(1, 0, payload);
      ctx.send_bytes(1, 0, payload);
    } else {
      (void)ctx.recv_bytes(0, 0);
      (void)ctx.recv_bytes(0, 0);
    }
  });
  EXPECT_EQ(m.stats(0).data_messages, 2u);
  EXPECT_EQ(m.stats(0).data_bytes, 128u);
  EXPECT_EQ(m.stats(1).data_messages, 0u);
}

TEST(Collectives, Barrier) {
  // A barrier between two phases forces phase-1 sends to be visible.
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    ctx.send_value<int>((ctx.rank() + 1) % 4, 1, ctx.rank());
    ctx.barrier();
    ck.check_eq(ctx.machine().mailbox(ctx.rank()).size(), std::size_t{1},
                ctx.rank(), "message waiting after barrier");
    (void)ctx.recv_value<int>(msg::kAnySource, 1);
  });
}

TEST(Collectives, Broadcast) {
  run_checked(5, [](Context& ctx, SpmdChecker& ck) {
    const double v = ctx.broadcast(ctx.rank() == 2 ? 3.25 : -1.0, 2);
    ck.check_eq(v, 3.25, ctx.rank(), "broadcast value");
  });
}

TEST(Collectives, AllreduceSumMinMax) {
  run_checked(6, [](Context& ctx, SpmdChecker& ck) {
    const int r = ctx.rank();
    ck.check_eq(ctx.allreduce(r, ReduceOp::Sum), 15, r, "sum");
    ck.check_eq(ctx.allreduce(r, ReduceOp::Min), 0, r, "min");
    ck.check_eq(ctx.allreduce(r, ReduceOp::Max), 5, r, "max");
  });
}

TEST(Collectives, AllreduceVector) {
  run_checked(3, [](Context& ctx, SpmdChecker& ck) {
    std::vector<long> v{static_cast<long>(ctx.rank()), 1, 100};
    auto r = ctx.allreduce_vec(v, ReduceOp::Sum);
    ck.check_eq(r[0], 3L, ctx.rank(), "sum of ranks");
    ck.check_eq(r[1], 3L, ctx.rank(), "sum of ones");
    ck.check_eq(r[2], 300L, ctx.rank(), "sum of hundreds");
  });
}

TEST(Collectives, Allgather) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    auto all = ctx.allgather<int>(ctx.rank() * ctx.rank());
    for (int p = 0; p < 4; ++p) {
      ck.check_eq(all[static_cast<std::size_t>(p)], p * p, ctx.rank(),
                  "allgather slot");
    }
  });
}

TEST(Collectives, AllgatherVariableLengths) {
  run_checked(3, [](Context& ctx, SpmdChecker& ck) {
    std::vector<int> mine(static_cast<std::size_t>(ctx.rank()), ctx.rank());
    auto all = ctx.allgather_vec(mine);
    for (int p = 0; p < 3; ++p) {
      ck.check_eq(all[static_cast<std::size_t>(p)].size(),
                  static_cast<std::size_t>(p), ctx.rank(), "length");
    }
  });
}

TEST(Collectives, AlltoallvExchangesPersonalizedData) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    const int np = ctx.nprocs();
    std::vector<std::vector<int>> out(static_cast<std::size_t>(np));
    for (int d = 0; d < np; ++d) {
      // Send d copies of my rank to rank d.
      out[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d),
                                              ctx.rank());
    }
    auto in = ctx.alltoallv(std::move(out));
    for (int s = 0; s < np; ++s) {
      auto& v = in[static_cast<std::size_t>(s)];
      ck.check_eq(v.size(), static_cast<std::size_t>(ctx.rank()), ctx.rank(),
                  "count from " + std::to_string(s));
      for (int x : v) ck.check_eq(x, s, ctx.rank(), "value from sender");
    }
  });
}

TEST(Collectives, AlltoallvEmptyPayloadsSendNoDataMessages) {
  Machine m(4);
  msg::run_spmd(m, [](Context& ctx) {
    std::vector<std::vector<int>> out(4);
    if (ctx.rank() == 0) out[1] = {1, 2, 3};
    auto in = ctx.alltoallv(std::move(out));
    if (ctx.rank() == 1) {
      if (in[0].size() != 3) throw std::runtime_error("bad payload");
    }
  });
  // Only one non-empty pair (0 -> 1): exactly one data message in total.
  EXPECT_EQ(m.total_stats().data_messages, 1u);
  EXPECT_EQ(m.total_stats().data_bytes, 3 * sizeof(int));
  EXPECT_GT(m.total_stats().ctl_messages, 0u);
}

TEST(Collectives, InterleavedCollectivesStayMatched) {
  run_checked(3, [](Context& ctx, SpmdChecker& ck) {
    for (int iter = 0; iter < 10; ++iter) {
      const int s = ctx.allreduce(1, ReduceOp::Sum);
      ck.check_eq(s, 3, ctx.rank(), "sum stays 3");
      const int b = ctx.broadcast(ctx.rank() == 0 ? iter : -1, 0);
      ck.check_eq(b, iter, ctx.rank(), "broadcast iteration");
    }
  });
}

TEST(PointToPoint, RecvValueRejectsEmptyPayloadWithProtocolError) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    if (ctx.rank() == 0) {
      ctx.send_bytes(1, 11, {});  // zero bytes where one element is expected
    } else {
      try {
        (void)ctx.recv_value<int>(0, 11);
        ck.fail("expected runtime_error");
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        ck.check(what.find("src=0") != std::string::npos, 1, what);
        ck.check(what.find("tag=11") != std::string::npos, 1, what);
      }
    }
  });
}

/// A receive from a rank outside [0, P) other than kAnySource can never
/// match, so every receive form throws std::out_of_range instead of
/// blocking.  The watchdog turns a regression into a RankAbort, not a
/// hang.
TEST(PointToPoint, ReceivesRejectBadSourceRank) {
  Machine m(3);
  m.set_recv_watchdog(std::chrono::milliseconds(2000));
  SpmdChecker ck;
  msg::run_spmd(m, [&](Context& ctx) {
    std::byte buf[4]{};
    for (const int src : {ctx.nprocs(), -2}) {
      const auto expect_oor = [&](const char* what, const auto& recv) {
        try {
          recv();
          ck.fail(std::string(what) + ": expected out_of_range");
        } catch (const std::out_of_range&) {
        }
      };
      expect_oor("recv_bytes", [&] { (void)ctx.recv_bytes(src, 1); });
      expect_oor("recv_bytes_into",
                 [&] { ctx.recv_bytes_into(src, 1, std::span(buf)); });
      expect_oor("recv_msg", [&] { (void)ctx.recv_msg(src, 1); });
      expect_oor("recv", [&] { (void)ctx.recv<int>(src, 1); });
      expect_oor("recv_value", [&] { (void)ctx.recv_value<int>(src, 1); });
    }
  });
  ck.expect_clean();
}

/// A broadcast root outside [0, P) throws std::invalid_argument naming
/// the root and P on every rank, before any tag is consumed: the next
/// collectives still match.
TEST(Collectives, BroadcastRejectsBadRootOnEveryRank) {
  Machine m(4);
  m.set_recv_watchdog(std::chrono::milliseconds(2000));
  SpmdChecker ck;
  msg::run_spmd(m, [&](Context& ctx) {
    for (const int root : {ctx.nprocs(), -1}) {
      const auto expect_bad_root = [&](const auto& bcast) {
        try {
          bcast();
          ck.fail("root " + std::to_string(root) + ": expected throw");
        } catch (const std::invalid_argument& e) {
          const std::string what = e.what();
          ck.check(what.find("root " + std::to_string(root)) !=
                           std::string::npos &&
                       what.find("P = 4") != std::string::npos,
                   ctx.rank(), what);
        }
      };
      expect_bad_root(
          [&] { (void)ctx.broadcast_vec(std::vector<int>{1, 2}, root); });
      expect_bad_root([&] { (void)ctx.broadcast(2.5, root); });
    }
    ck.check_eq(ctx.allreduce(ctx.rank() + 1, ReduceOp::Sum), 10, ctx.rank(),
                "allreduce after the rejected broadcasts");
    ck.check_eq(ctx.broadcast(ctx.rank() == 3 ? 7 : 0, 3), 7, ctx.rank(),
                "broadcast after the rejected ones");
  });
  ck.expect_clean();
}

TEST(Collectives, TagSpaceExhaustionFailsLoudly) {
  // Near the top of the sequence space collectives still work (the last
  // usable tag is INT_MIN exactly); one step beyond throws instead of
  // silently recycling tags that may still have pending messages.
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    ctx.skip_coll_tags(Context::kMaxCollSeq - 1);
    ck.check_eq(ctx.allreduce(1, ReduceOp::Sum), 2, ctx.rank(),
                "collective near the tag-space edge");
    // allreduce consumed seq kMaxCollSeq-1 and kMaxCollSeq; the space is
    // now exhausted on every rank.
    try {
      (void)ctx.broadcast(1, 0);
      ck.fail("expected overflow_error");
    } catch (const std::overflow_error&) {
    }
  });
}

TEST(Machine, ResetStatsClearsCounters) {
  Machine m(2);
  msg::run_spmd(m, [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send_value<int>(1, 0, 1);
    } else {
      (void)ctx.recv_value<int>(0, 0);
    }
  });
  EXPECT_GT(m.total_stats().data_messages, 0u);
  m.reset_stats();
  EXPECT_EQ(m.total_stats().data_messages, 0u);
}

TEST(Machine, MaxRankModeledTime) {
  Machine m(2, CostModel{.alpha_us = 1.0, .beta_us_per_byte = 0.0});
  msg::run_spmd(m, [](Context& ctx) {
    if (ctx.rank() == 0) {
      for (int k = 0; k < 5; ++k) ctx.send_value<int>(1, 0, k);
    } else {
      for (int k = 0; k < 5; ++k) (void)ctx.recv_value<int>(0, 0);
    }
  });
  EXPECT_DOUBLE_EQ(m.max_rank_modeled_us(), 5.0);
}

}  // namespace
}  // namespace vf
