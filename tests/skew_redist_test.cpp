// Skew-aware redistribution (PRPD hybrid plans): detection, hybridization,
// end-to-end DISTRIBUTE equivalence, the PARTI partial-duplication
// schedule, per-peer CommStats, and fault containment.  The random
// DISTRIBUTE chains of a forced-hybrid twin against the all-to-owner
// reference are the chain fuzzer's (fuzz_chain.hpp).
//
// The correctness bar throughout is BITWISE equality with the plain
// all-to-owner reference on dyadic values: hybridization only reroutes
// data motion (and, in the Schedule, replaces per-requester serves with a
// deterministic rank-ascending reduction), so results must be identical,
// not merely close.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/dist/skew.hpp"
#include "vf/msg/fault.hpp"
#include "vf/msg/spmd.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::rt {
namespace {

using dist::DimDistKind;
using dist::DistHandle;
using dist::DistRegistry;
using dist::DistributionType;
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using testing::run_checked;
using testing::run_checked_on;
using testing::SpmdChecker;

// ---- per-peer CommStats (the detection counters) --------------------------

TEST(PeerStats, AddPeerMergeAndZeroPaddedEquality) {
  msg::CommStats a;
  a.add_peer(2, 100);
  a.add_peer(2, 20);
  a.add_peer(0, 5);
  ASSERT_EQ(a.peer_bytes.size(), 3u);
  EXPECT_EQ(a.peer_bytes[2], 120u);
  EXPECT_EQ(a.peer_messages[2], 2u);
  EXPECT_EQ(a.peer_bytes[0], 5u);
  EXPECT_EQ(a.peer_bytes[1], 0u);

  msg::CommStats b;
  b.add_peer(5, 7);
  msg::CommStats sum = a;
  sum += b;
  ASSERT_EQ(sum.peer_bytes.size(), 6u);
  EXPECT_EQ(sum.peer_bytes[2], 120u);
  EXPECT_EQ(sum.peer_bytes[5], 7u);
  EXPECT_EQ(sum.peer_messages[5], 1u);

  // A fresh counter and one resized by traffic to silent peers compare
  // equal: trailing zero slots are not observable state.
  msg::CommStats fresh;
  msg::CommStats padded;
  padded.peer_bytes.resize(4, 0);
  padded.peer_messages.resize(4, 0);
  EXPECT_TRUE(fresh == padded);
  padded.peer_bytes[3] = 1;
  EXPECT_FALSE(fresh == padded);
}

/// Every data-payload bump site also bumps the per-peer counters, so the
/// per-peer rows partition the aggregate exactly -- on both transports.
TEST(PeerStats, RowsPartitionAggregateOnBothTransports) {
  for (const auto kind :
       {msg::TransportKind::Mailbox, msg::TransportKind::SharedMemory}) {
    msg::Machine m(4, {}, kind);
    run_checked_on(m, [](Context& ctx, SpmdChecker& ck) {
      Env env(ctx);
      const IndexDomain dom({dist::Range{1, 64}});
      DistArray<double> a(env, {.name = "A",
                                .domain = dom,
                                .dynamic = true,
                                .initial = {{dist::block()}}});
      a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
      a.distribute(DistributionType{dist::cyclic(1)});
      const msg::CommStats& st = ctx.stats();
      std::uint64_t bytes = 0;
      std::uint64_t msgs = 0;
      for (const std::uint64_t b : st.peer_bytes) bytes += b;
      for (const std::uint64_t n : st.peer_messages) msgs += n;
      ck.check_eq(bytes, st.data_bytes, ctx.rank(), "peer bytes partition");
      ck.check_eq(msgs, st.data_messages, ctx.rank(),
                  "peer messages partition");
      ck.check(st.data_bytes > 0, ctx.rank(), "redistribution moved data");
    });
  }
}

/// The per-peer data rows agree across transports for the same program
/// (ctl traffic differs by design and is deliberately not counted
/// per-peer).
TEST(PeerStats, PerPeerDataRowsAreTransportInvariant) {
  constexpr int kProcs = 4;
  std::vector<std::vector<std::uint64_t>> rows[2];
  int which = 0;
  for (const auto kind :
       {msg::TransportKind::Mailbox, msg::TransportKind::SharedMemory}) {
    rows[which].assign(kProcs, {});
    msg::Machine m(kProcs, {}, kind);
    run_checked_on(m, [&](Context& ctx, SpmdChecker&) {
      Env env(ctx);
      const IndexDomain dom({dist::Range{1, 96}});
      DistArray<double> a(env, {.name = "A",
                                .domain = dom,
                                .dynamic = true,
                                .initial = {{dist::block()}}});
      a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
      a.distribute(DistributionType{dist::cyclic(2)});
      a.distribute(DistributionType{dist::block()});
      std::vector<std::uint64_t> mine = ctx.stats().peer_bytes;
      mine.resize(kProcs, 0);
      rows[which][static_cast<std::size_t>(ctx.rank())] = std::move(mine);
    });
    ++which;
  }
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(rows[0][static_cast<std::size_t>(r)],
              rows[1][static_cast<std::size_t>(r)])
        << "per-peer data bytes of rank " << r << " differ across transports";
  }
}

// ---- detection + hybridization units --------------------------------------

TEST(SkewDetect, HistogramAndMaxOverMean) {
  DistRegistry reg;
  const IndexDomain dom({dist::Range{1, 64}});
  const dist::ProcessorSection sec(dist::ProcessorArray::line(4));

  const DistHandle block = reg.intern(dom, {dist::block()}, sec);
  const auto balanced = dist::ownership_skew(*block, 4);
  EXPECT_EQ(balanced.total, 64);
  EXPECT_EQ(balanced.members, 4);
  EXPECT_DOUBLE_EQ(balanced.max_over_mean(), 1.0);
  EXPECT_FALSE(balanced.skewed(1.5));

  // 40 elements on rank 0, 8 on each of ranks 1..3: max/mean = 40/16.
  std::vector<int> owners(64);
  for (int i = 0; i < 64; ++i) owners[i] = i < 40 ? 0 : 1 + (i % 3);
  const DistHandle skewed =
      reg.intern(dom, {dist::indirect(std::move(owners))}, sec);
  const auto rep = dist::ownership_skew(*skewed, 4);
  EXPECT_EQ(rep.rank_elems[0], 40);
  EXPECT_EQ(rep.rank_elems[1], 8);
  EXPECT_DOUBLE_EQ(rep.max_over_mean(), 2.5);
  EXPECT_TRUE(rep.skewed(2.0));
  EXPECT_FALSE(rep.skewed(2.5));  // strict: at-threshold is not skewed
}

TEST(SkewHybridize, CapsExcessAndKeepsOldOwners) {
  DistRegistry reg;
  const IndexDomain dom({dist::Range{1, 64}});
  const dist::ProcessorSection sec(dist::ProcessorArray::line(4));
  const DistHandle od = reg.intern(dom, {dist::block()}, sec);
  // Every element wants rank 0: ownership skew 4.0, fair-share cap 16.
  const DistHandle nd =
      reg.intern(dom, {dist::indirect(std::vector<int>(64, 0))}, sec);

  const DistHandle h = dist::hybridize(reg, od, nd, {});
  ASSERT_TRUE(h);
  EXPECT_NE(h.uid(), 0u);
  EXPECT_EQ(h->type().dim(0).kind, DimDistKind::Indirect);
  // The first 16 globals (ascending cap walk) stay with rank 0; the
  // excess keeps its BLOCK owner -- a perfectly rebalanced table here.
  const auto& table = h->type().dim(0).owners->owners();
  ASSERT_EQ(table.size(), 64u);
  for (int g = 0; g < 64; ++g) {
    EXPECT_EQ(table[static_cast<std::size_t>(g)], g < 16 ? 0 : g / 16)
        << "global " << g + 1;
  }
  EXPECT_DOUBLE_EQ(dist::ownership_skew(*h, 4).max_over_mean(), 1.0);

  // Determinism/idempotence: the same pair interns the same handle.
  EXPECT_TRUE(dist::hybridize(reg, od, nd, {}) == h);

  // cap_factor scales the bound: 2x fair share keeps 32 on rank 0, and
  // the excess (globals 33..64) falls back to its BLOCK owners 2 and 3.
  const DistHandle loose =
      dist::hybridize(reg, od, nd, {.threshold = 4.0, .cap_factor = 2.0});
  ASSERT_TRUE(loose);
  const auto rep = dist::ownership_skew(*loose, 4);
  EXPECT_EQ(rep.rank_elems[0], 32);
  EXPECT_EQ(rep.rank_elems[1], 0);
  EXPECT_EQ(rep.rank_elems[2], 16);
  EXPECT_EQ(rep.rank_elems[3], 16);
}

TEST(SkewHybridize, DeclinesWhenItDoesNotApply) {
  DistRegistry reg;
  const IndexDomain dom({dist::Range{1, 64}});
  const dist::ProcessorSection sec(dist::ProcessorArray::line(4));
  const DistHandle od = reg.intern(dom, {dist::block()}, sec);

  // Already balanced: no element exceeds the cap.
  const DistHandle cyc = reg.intern(dom, {dist::cyclic(1)}, sec);
  EXPECT_FALSE(dist::hybridize(reg, od, cyc, {}));

  // Null handles.
  EXPECT_FALSE(dist::hybridize(reg, DistHandle{}, cyc, {}));
  EXPECT_FALSE(dist::hybridize(reg, od, DistHandle{}, {}));

  // Collapsed dimension 0: the cap walk has nothing to reassign.
  const IndexDomain dom2({dist::Range{1, 8}, dist::Range{1, 64}});
  const DistHandle row =
      reg.intern(dom2, {dist::col(), dist::block()}, sec);
  const DistHandle hot = reg.intern(
      dom2, {dist::col(), dist::indirect(std::vector<int>(64, 0))}, sec);
  EXPECT_FALSE(dist::hybridize(reg, row, hot, {}));

  // Domain mismatch.
  const IndexDomain dom3({dist::Range{1, 32}});
  const DistHandle other = reg.intern(
      dom3, {dist::indirect(std::vector<int>(32, 0))}, sec);
  EXPECT_FALSE(dist::hybridize(reg, od, other, {}));

  // A dimension >= 1 mapping that differs: only dim 0 may be rewritten.
  const dist::ProcessorSection sec2(dist::ProcessorArray::grid(2, 2));
  const DistHandle od2 =
      reg.intern(dom2, {dist::block(), dist::cyclic(1)}, sec2);
  const DistHandle nd2 = reg.intern(
      dom2, {dist::indirect(std::vector<int>(8, 0)), dist::block()}, sec2);
  EXPECT_FALSE(dist::hybridize(reg, od2, nd2, {}));
}

// ---- end-to-end DISTRIBUTE: hybrid vs all-to-owner ------------------------

TEST(SkewRedist, SkewedTargetIsHybridizedAndBalanced) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom({dist::Range{1, 64}});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = {{dist::block()}}});
    // Dyadic fingerprints: exact under any regrouping.
    a.init([&](const IndexVec& i) {
      return 0.5 * static_cast<double>(dom.linearize(i));
    });
    a.set_skew_policy(DistArrayBase::SkewPolicy::Auto, /*threshold=*/3.0);

    const auto table =
        std::make_shared<const dist::IndirectTable>(std::vector<int>(64, 0));
    const DistributionType target{dist::indirect(table)};
    a.distribute(target);

    ck.check_eq(a.skew_checks(), std::uint64_t{1}, ctx.rank(), "one check");
    ck.check_eq(a.hybrid_flips(), std::uint64_t{1}, ctx.rank(), "one flip");
    ck.check(a.last_target_skew() > 3.9 && a.last_target_skew() < 4.1,
             ctx.rank(), "detector saw the 4.0 ownership skew");
    // The installed mapping is the capped hybrid, not the hot table.
    const auto rep = dist::ownership_skew(a.distribution(), ctx.nprocs());
    ck.check_eq(rep.rank_elems[0], Index{16}, ctx.rank(), "rank 0 capped");
    ck.check(rep.max_over_mean() < 1.01, ctx.rank(), "hybrid balanced");
    ck.check(a.distribution().type().dim(0).kind == DimDistKind::Indirect,
             ctx.rank(), "hybrid is a plain INDIRECT mapping");

    // Data preserved bitwise through the hybrid flip and the flip back.
    const auto g1 = a.gather_global();
    for (std::size_t k = 0; k < g1.size(); ++k) {
      ck.check_eq(g1[k], 0.5 * static_cast<double>(k), ctx.rank(),
                  "fingerprint after hybrid flip");
    }
    a.distribute(DistributionType{dist::block()});
    // The balanced flip-back is not hybridized...
    ck.check_eq(a.hybrid_flips(), std::uint64_t{1}, ctx.rank(),
                "flip back stays plain");
    // ...and the repeat flip replays from the memo without a re-check.
    a.distribute(target);
    ck.check_eq(a.hybrid_flips(), std::uint64_t{2}, ctx.rank(), "memo hit");
    ck.check_eq(a.skew_checks(), std::uint64_t{2}, ctx.rank(),
                "one check per distinct (old, new) pair");
    const auto g2 = a.gather_global();
    ck.check(g1 == g2, ctx.rank(), "fingerprints stable across replay");
  });
}

/// A hybrid's INDIRECT dimension 0 cannot carry ghost widths, so an
/// array with dimension-0 ghosts on some rank gets the nominal target and
/// no hybrid flip, on every rank.  Before, the flip threw after the
/// exchange and left INDIRECT(64) over the padded storage.  The decision
/// is memoized per (old, new) pair, so every set_overlap drops the memo,
/// also on a rank whose own widths did not change.
TEST(SkewRedist, GhostedDimensionZeroIsNotHybridized) {
  run_checked(8, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom({dist::Range{1, 64}});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = {{dist::block()}},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([&](const IndexVec& i) {
      return 0.5 + static_cast<double>(dom.linearize(i));
    });
    a.set_skew_policy(DistArrayBase::SkewPolicy::Auto);
    const DistributionType skewed{dist::s_block({57, 1, 1, 1, 1, 1, 1, 1})};
    const auto check = [&](Index w, bool hybrid, std::uint64_t flips) {
      ck.check_eq(a.hybrid_flips(), flips, ctx.rank(), "hybrid flips");
      ck.check((a.distribution().type() == skewed) != hybrid, ctx.rank(),
               "nominal target installed exactly when not hybridized");
      ck.check_eq(a.alloc_total(), a.layout().total + 2 * w, ctx.rank(),
                  "storage shape");
      double want = 0.5;
      for (const double v : a.gather_global()) {
        ck.check_eq(v, want++, ctx.rank(), "fingerprint");
      }
    };
    a.distribute(skewed);  // the uniform declaration of the Spec
    check(1, false, 0);
    // Asymmetric: no widths (hybridized), then widths on rank 1 only.
    for (const bool ghosts : {false, true}) {
      const Index w = ghosts && ctx.rank() == 1 ? 1 : 0;
      a.distribute(DistributionType{dist::block()});
      a.set_overlap({w}, {w});
      a.exchange_overlap();  // reconciles the family
      a.distribute(skewed);
      check(w, !ghosts, 1);
    }
  });
}

TEST(SkewRedist, UniformTargetKeepsExistingPathAtZeroOverhead) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom({dist::Range{1, 64}});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = {{dist::block()}}});
    a.init([&](const IndexVec& i) {
      return 0.5 * static_cast<double>(dom.linearize(i));
    });
    a.set_skew_policy(DistArrayBase::SkewPolicy::Auto);

    // A rotated block: balanced, but every element moves.
    std::vector<int> owners(64);
    for (int g = 0; g < 64; ++g) owners[static_cast<std::size_t>(g)] =
        (g / 16 + 1) % 4;
    const auto table =
        std::make_shared<const dist::IndirectTable>(std::move(owners));
    const DistributionType target{dist::indirect(table)};
    const DistributionType blockT{dist::block()};
    for (int f = 0; f < 4; ++f) {
      a.distribute(f % 2 ? blockT : target);
      // The nominal target is installed untouched: the table pointer of
      // the INDIRECT flips is the one the program supplied.
      if (f % 2 == 0) {
        ck.check(a.distribution().type().dim(0).owners == table, ctx.rank(),
                 "uniform target installed verbatim");
      }
    }
    ck.check_eq(a.hybrid_flips(), std::uint64_t{0}, ctx.rank(),
                "no hybrid flips on balanced targets");
    ck.check(a.skew_checks() >= 1, ctx.rank(), "detector did run");
    const auto g = a.gather_global();
    for (std::size_t k = 0; k < g.size(); ++k) {
      ck.check_eq(g[k], 0.5 * static_cast<double>(k), ctx.rank(),
                  "fingerprint");
    }
  });
}

// ---- PARTI Schedule: partial duplication ----------------------------------

/// A request pattern with a hot set: every rank reads elements 1..8 (all
/// owned by rank 0 under BLOCK) plus two private elements of its
/// successor's range.  Rank 0's serve load dominates -> hybrid triggers.
std::vector<IndexVec> hot_points(int me, int np, Index n) {
  std::vector<IndexVec> pts;
  for (Index g = 1; g <= 8; ++g) pts.push_back({g});
  const Index blk = n / np;
  const Index base = ((me + 1) % np) * blk + 1;
  pts.push_back({base});
  pts.push_back({base + 1});
  pts.push_back({3});  // duplicate occurrence of a hot element
  return pts;
}

TEST(PartiSkew, HybridGatherAndScatterAddMatchPlainBitwise) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const int np = ctx.nprocs();
    const IndexDomain dom({dist::Range{1, 64}});
    DistArray<double> src(env, {.name = "SRC",
                                .domain = dom,
                                .dynamic = true,
                                .initial = {{dist::block()}}});
    src.init([&](const IndexVec& i) {
      return 0.5 * static_cast<double>(dom.linearize(i));
    });
    const auto points = hot_points(ctx.rank(), np, 64);

    parti::Schedule plain(ctx, src.dist_handle(), points);
    parti::Schedule hybrid(
        ctx, src.dist_handle(), points,
        parti::Schedule::SkewConfig{
            .enabled = true, .threshold = 1.5, .min_fan = 2});
    ck.check(hybrid.hybrid(), ctx.rank(), "hybrid path selected");
    ck.check(hybrid.n_heavy() > 0, ctx.rank(), "heavy elements elected");
    ck.check(hybrid.serve_skew() > 1.5, ctx.rank(), "serve skew observed");
    // Heavy elements left the all-to-owner exchange (rank 0 reads the hot
    // set locally, so its off-proc volume was small to begin with).
    ck.check(hybrid.n_unique_offproc() <= plain.n_unique_offproc(),
             ctx.rank(), "unique off-proc volume never grows");
    if (ctx.rank() != 0) {
      ck.check(hybrid.n_unique_offproc() < plain.n_unique_offproc(),
               ctx.rank(), "heavy requesters shed off-proc volume");
    }

    std::vector<double> out_plain(points.size());
    std::vector<double> out_hybrid(points.size());
    plain.gather(ctx, src, out_plain);
    hybrid.gather(ctx, src, out_hybrid);
    ck.check(out_plain == out_hybrid, ctx.rank(), "gather bitwise");
    for (std::size_t k = 0; k < points.size(); ++k) {
      const double want =
          0.5 * static_cast<double>(dom.linearize(points[k]));
      ck.check_eq(out_plain[k], want, ctx.rank(), "gather value");
    }

    // scatter_add: every occurrence contributes; the hybrid owner-side
    // rank-ascending reduction must agree bitwise on dyadic inputs.
    std::vector<double> contrib(points.size());
    for (std::size_t k = 0; k < contrib.size(); ++k) {
      contrib[k] = 0.25 * static_cast<double>(ctx.rank() + 1) *
                   static_cast<double>(k % 8);
    }
    DistArray<double> dst_plain(env, {.name = "DP",
                                      .domain = dom,
                                      .dynamic = true,
                                      .initial = {{dist::block()}}});
    DistArray<double> dst_hybrid(env, {.name = "DH",
                                       .domain = dom,
                                       .dynamic = true,
                                       .initial = {{dist::block()}}});
    dst_plain.fill(0.0);
    dst_hybrid.fill(0.0);
    plain.scatter_add(ctx, contrib, dst_plain);
    hybrid.scatter_add(ctx, contrib, dst_hybrid);
    const auto gp = dst_plain.gather_global();
    const auto gh = dst_hybrid.gather_global();
    ck.check(gp == gh, ctx.rank(), "scatter_add bitwise");

    // Plain scatter has no single last writer on replicated elements.
    bool threw = false;
    try {
      hybrid.scatter(ctx, contrib, dst_hybrid);
    } catch (const std::logic_error&) {
      threw = true;
    }
    ck.check(threw, ctx.rank(), "plain scatter rejects hybrid schedule");
  });
}

TEST(PartiSkew, UniformRequestsStayAllToOwner) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom({dist::Range{1, 64}});
    DistArray<double> src(env, {.name = "SRC",
                                .domain = dom,
                                .dynamic = true,
                                .initial = {{dist::block()}}});
    src.init([&](const IndexVec& i) {
      return 0.5 * static_cast<double>(dom.linearize(i));
    });
    // Balanced requests: each rank reads its successor's first 4 elements.
    std::vector<IndexVec> pts;
    const Index base = ((ctx.rank() + 1) % 4) * 16 + 1;
    for (Index k = 0; k < 4; ++k) pts.push_back({base + k});

    parti::Schedule s(ctx, src.dist_handle(), pts,
                      parti::Schedule::SkewConfig{.enabled = true});
    ck.check(!s.hybrid(), ctx.rank(), "uniform stays all-to-owner");
    ck.check_eq(s.n_heavy(), std::size_t{0}, ctx.rank(), "no heavy ids");
    std::vector<double> out(pts.size());
    s.gather(ctx, src, out);
    for (std::size_t k = 0; k < pts.size(); ++k) {
      ck.check_eq(out[k], 0.5 * static_cast<double>(dom.linearize(pts[k])),
                  ctx.rank(), "gather value");
    }
  });
}

// ---- fault containment ----------------------------------------------------

/// A rank aborting between hybrid flips surfaces as a structured
/// RankAbort on every peer (the abort fence wakes them out of the flip's
/// exchange), with the failure report naming the origin.
TEST(SkewAbort, AbortMidHybridFlipSurfacesAsRankAbort) {
  msg::Machine m(4, {}, msg::TransportKind::Mailbox);
  m.set_recv_watchdog(std::chrono::milliseconds(5000));
  try {
    msg::run_spmd(m, [](Context& ctx) {
      Env env(ctx);
      const IndexDomain dom({dist::Range{1, 64}});
      // CYCLIC old owners: the hybrid of (cyclic, all-zeros) genuinely
      // moves data on every flip (unlike BLOCK, whose capped hybrid
      // coincides with BLOCK itself), so peers block in the exchange.
      DistArray<double> a(env, {.name = "A",
                                .domain = dom,
                                .dynamic = true,
                                .initial = {{dist::cyclic(1)}}});
      a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
      a.set_skew_policy(DistArrayBase::SkewPolicy::Auto, /*threshold=*/3.0);
      const auto table = std::make_shared<const dist::IndirectTable>(
          std::vector<int>(64, 0));
      const DistributionType target{dist::indirect(table)};
      a.distribute(target);  // hybrid flip completes machine-wide
      a.distribute(DistributionType{dist::cyclic(1)});
      if (ctx.rank() == 2) ctx.abort("skew abort injection");
      a.distribute(target);  // peers block in the exchange until the fence
    });
    FAIL() << "expected RankAbort";
  } catch (const msg::RankAbort& e) {
    EXPECT_EQ(e.origin_rank, 2);
    EXPECT_NE(e.reason.find("skew abort injection"), std::string::npos);
  }
  const msg::FailureReport report = m.last_failure_report();
  EXPECT_TRUE(report.any_failed);
  // The origin and the blocked receiver fail for certain; ranks that only
  // send in this flip may complete before noticing the fence.  Every rank
  // that did fail names the injecting origin.
  EXPECT_TRUE(report.ranks[2].failed);
  EXPECT_TRUE(report.ranks[0].failed);
  for (const msg::RankFailure& f : report.ranks) {
    if (f.failed) {
      EXPECT_EQ(f.abort_origin, 2);
    }
  }
}

}  // namespace
}  // namespace vf::rt
