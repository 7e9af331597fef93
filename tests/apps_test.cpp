// Integration tests for the application engines of Section 4: the three
// ADI strategies must agree numerically, smoothing must be layout-
// independent, and PIC must conserve particles while rebalancing improves
// the load balance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/apps/adi_sim.hpp"
#include "vf/apps/amr_front.hpp"
#include "vf/apps/kernels.hpp"
#include "vf/apps/pic_sim.hpp"
#include "vf/apps/smoothing_sim.hpp"

namespace vf::apps {
namespace {

using msg::Context;
using testing::run_checked;
using testing::SpmdChecker;

/// A deterministic right-hand side of length n.
std::vector<double> test_rhs(std::size_t n, std::size_t salt) {
  std::vector<double> rhs(n);
  for (std::size_t k = 0; k < n; ++k) {
    rhs[k] = std::sin(0.37 * static_cast<double>(k + 1) +
                      static_cast<double>(salt)) +
             0.01 * static_cast<double>(salt);
  }
  return rhs;
}

/// max_k |a x[k-1] + b x[k] + a x[k+1] - rhs[k]|.
double tridiag_residual(const std::vector<double>& x,
                        const std::vector<double>& rhs, double a, double b) {
  double worst = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    double lhs = b * x[k];
    if (k > 0) lhs += a * x[k - 1];
    if (k + 1 < x.size()) lhs += a * x[k + 1];
    worst = std::max(worst, std::abs(lhs - rhs[k]));
  }
  return worst;
}

TEST(Kernels, TridiagSolvesConstantCoefficientSystem) {
  // Lengths in both orders: the per-thread factor table grows to the
  // longest line and shorter lines read a prefix of it.
  for (const std::size_t n : {1, 2, 3, 6, 512, 2048, 3, 2, 1, 512}) {
    const auto rhs = test_rhs(n, n);
    auto x = rhs;
    tridiag(x, -1.0, 4.0);
    EXPECT_LE(tridiag_residual(x, rhs, -1.0, 4.0), 1e-12) << "n=" << n;
  }
}

TEST(Kernels, TridiagHandlesEdgeSizes) {
  std::vector<double> one = {8.0};
  tridiag(one, -1.0, 4.0);
  EXPECT_EQ(one[0], 2.0);  // 8 * (1/4) is exact
  std::vector<double> empty;
  tridiag(empty);  // no-op, no crash
}

TEST(Kernels, TridiagTableStateNeverLeaksIntoResults) {
  struct Solve {
    std::size_t n;
    double a, b;
  };
  const Solve seq[] = {
      {512, -1.0, 4.0}, {7, -1.0, 4.0}, {512, 1.0, 3.0}, {7, -1.0, 4.0}};
  // This thread solves the lines in sequence, so each solve finds the
  // table the previous one left; each reference runs on a fresh thread,
  // whose table starts empty.
  for (std::size_t s = 0; s < std::size(seq); ++s) {
    const auto rhs = test_rhs(seq[s].n, s);
    auto here = rhs;
    tridiag(here, seq[s].a, seq[s].b);
    auto fresh = rhs;
    std::thread([&] { tridiag(fresh, seq[s].a, seq[s].b); }).join();
    ASSERT_EQ(here.size(), fresh.size());
    for (std::size_t k = 0; k < here.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(here[k]),
                std::bit_cast<std::uint64_t>(fresh[k]))
          << "solve " << s << " row " << k;
    }
    EXPECT_LE(tridiag_residual(here, rhs, seq[s].a, seq[s].b), 1e-12);
  }
}

TEST(Kernels, TridiagConcurrentThreadsKeepTheirOwnTables) {
  const double coeffs[4][2] = {{-1.0, 4.0}, {1.0, 3.0}, {-2.0, 5.0},
                               {0.5, 2.5}};
  double worst[4] = {0, 0, 0, 0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const double a = coeffs[t][0];
      const double b = coeffs[t][1];
      for (int rep = 0; rep < 50; ++rep) {
        const std::size_t n = 64 + static_cast<std::size_t>((rep * 37) % 400);
        const auto rhs = test_rhs(n, static_cast<std::size_t>(t + rep));
        auto x = rhs;
        tridiag(x, a, b);
        worst[t] = std::max(worst[t], tridiag_residual(x, rhs, a, b));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_LE(worst[t], 1e-12) << "thread " << t;
}

TEST(Kernels, BalancePartitionsEqualWork) {
  std::vector<std::int64_t> per_cell(16, 10);
  auto bounds = balance(per_cell, 4);
  EXPECT_EQ(bounds, (std::vector<dist::Index>{4, 8, 12, 16}));
}

TEST(Kernels, BalanceHandlesSkew) {
  // All work in the first 4 cells: they get split across processors.
  std::vector<std::int64_t> per_cell(16, 0);
  for (int c = 0; c < 4; ++c) per_cell[static_cast<std::size_t>(c)] = 100;
  auto bounds = balance(per_cell, 4);
  EXPECT_EQ(bounds.back(), 16);
  EXPECT_LE(bounds[0], 2);  // first processor's segment ends early
  // Bounds non-decreasing.
  for (std::size_t p = 1; p < bounds.size(); ++p) {
    EXPECT_GE(bounds[p], bounds[p - 1]);
  }
}

TEST(Kernels, ImbalanceMetric) {
  std::vector<std::int64_t> even = {10, 10, 10, 10};
  EXPECT_DOUBLE_EQ(imbalance(even), 1.0);
  std::vector<std::int64_t> skew = {40, 0, 0, 0};
  EXPECT_DOUBLE_EQ(imbalance(skew), 4.0);
}

TEST(AdiStrategies, AllThreeAgreeNumerically) {
  // The same computation under the three data-layout strategies of E2
  // must produce identical results -- redistribution, gathered lines and
  // two-copy assignment are different communications of the same math.
  constexpr int kProcs = 4;
  const AdiConfig cfg{.nx = 24, .ny = 24, .iterations = 2};
  double sums[3] = {0, 0, 0};
  for (int s = 0; s < 3; ++s) {
    msg::Machine machine(kProcs);
    msg::run_spmd(machine, [&](Context& ctx) {
      auto r = run_adi(ctx, cfg, static_cast<AdiStrategy>(s));
      if (ctx.rank() == 0) sums[s] = r.checksum;
    });
  }
  // Every strategy solves each line with the same tridiag in the same
  // order and ends with V in (:, BLOCK), so the checksum reduction sums
  // the same values in the same order: the results agree bitwise.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[0]),
            std::bit_cast<std::uint64_t>(sums[1]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[0]),
            std::bit_cast<std::uint64_t>(sums[2]));
}

TEST(AdiStrategies, DynamicConfinesCommunicationToRedistribute) {
  constexpr int kProcs = 4;
  msg::Machine machine(kProcs);
  msg::run_spmd(machine, [&](Context& ctx) {
    auto r = run_adi(ctx, {.nx = 16, .ny = 16, .iterations = 1},
                     AdiStrategy::DynamicRedistribution);
    (void)r;
  });
  // Two redistributions (over + back), each at most P*(P-1) messages, plus
  // the final reduction's control traffic.
  EXPECT_LE(machine.total_stats().data_messages, 2u * kProcs * (kProcs - 1));
}

TEST(Smoothing, LayoutsAgreeNumerically) {
  const SmoothConfig cfg{.n = 32, .steps = 3};
  double sums[2] = {0, 0};
  {
    msg::Machine machine(4);
    msg::run_spmd(machine, [&](Context& ctx) {
      auto r = run_smoothing(ctx, cfg, SmoothLayout::Columns);
      if (ctx.rank() == 0) sums[0] = r.checksum;
    });
  }
  {
    msg::Machine machine(4);
    msg::run_spmd(machine, [&](Context& ctx) {
      auto r = run_smoothing(ctx, cfg, SmoothLayout::Grid2D);
      if (ctx.rank() == 0) sums[1] = r.checksum;
    });
  }
  EXPECT_NEAR(sums[0], sums[1], 1e-9 * std::abs(sums[0]));
}

TEST(Smoothing, Grid2DRequiresSquareProcessorCount) {
  msg::Machine machine(3);
  EXPECT_THROW(
      msg::run_spmd(machine,
                    [&](Context& ctx) {
                      (void)run_smoothing(ctx, {.n = 16, .steps = 1},
                                          SmoothLayout::Grid2D);
                    }),
      std::invalid_argument);
}

TEST(Smoothing, DecisionRuleFollowsAlphaBeta) {
  // High startup cost favours fewer, larger messages (columns); high
  // per-byte cost favours less volume (2-D blocks).
  const msg::CostModel latency_bound{.alpha_us = 1000.0,
                                     .beta_us_per_byte = 0.001};
  const msg::CostModel bandwidth_bound{.alpha_us = 1.0,
                                       .beta_us_per_byte = 1.0};
  EXPECT_EQ(choose_layout(256, 16, latency_bound, 8), SmoothLayout::Columns);
  EXPECT_EQ(choose_layout(256, 16, bandwidth_bound, 8), SmoothLayout::Grid2D);
}

TEST(Pic, ParticlesConservedWithoutOverflow) {
  constexpr int kProcs = 4;
  PicConfig cfg;
  cfg.ncell = 64;
  cfg.npart_max = 800;
  cfg.particles = 3000;
  cfg.steps = 20;
  cfg.rebalance_period = 10;
  msg::Machine machine(kProcs);
  PicResult result;
  msg::run_spmd(machine, [&](Context& ctx) {
    auto r = run_pic(ctx, cfg);
    if (ctx.rank() == 0) result = std::move(r);
  });
  EXPECT_EQ(result.dropped, 0);
  EXPECT_EQ(result.final_particles, cfg.particles);
  EXPECT_EQ(static_cast<int>(result.steps.size()), cfg.steps);
}

TEST(Pic, RebalancingImprovesLoadBalance) {
  constexpr int kProcs = 4;
  PicConfig cfg;
  cfg.ncell = 96;
  cfg.npart_max = 800;
  cfg.particles = 4000;
  cfg.steps = 30;

  auto run_with = [&](int period) {
    PicConfig c = cfg;
    c.rebalance_period = period;
    msg::Machine machine(kProcs);
    PicResult result;
    msg::run_spmd(machine, [&](Context& ctx) {
      auto r = run_pic(ctx, c);
      if (ctx.rank() == 0) result = std::move(r);
    });
    return result;
  };

  const PicResult statics = run_with(0);
  const PicResult dynamic = run_with(10);
  EXPECT_LT(dynamic.mean_imbalance, statics.mean_imbalance);
  EXPECT_LT(dynamic.makespan_units, statics.makespan_units);
  EXPECT_GT(dynamic.rebalances, 0);
  EXPECT_EQ(statics.rebalances, 0);
}

/// The refinement-front mini-app: per-rank asymmetric ghost widths that
/// follow the front must reproduce the sequential reference BITWISE on
/// every machine size -- including P = 9, where small grids leave whole
/// processor rows without interior cells.
TEST(AmrFront, MatchesSequentialReferenceAcrossMachineSizes) {
  const AmrFrontConfig cfg{
      .n = 30, .steps = 5, .front0 = 3, .front_step = 5};
  const double want = amr_checksum(amr_front_reference(cfg));
  for (const int np : {1, 4, 9}) {
    double got = 0.0;
    msg::Machine m(np);
    msg::run_spmd(m, [&](Context& ctx) {
      const auto r = run_amr_front(ctx, cfg);
      if (ctx.rank() == 0) got = r.checksum;
    });
    EXPECT_EQ(got, want) << "P=" << np;
  }
}

/// Counter contract of the sweep: one spec exchange per rank per step
/// (each step re-declares the overlap), and a stationary front turns
/// every exchange after the first into a family-plan cache hit.
TEST(AmrFront, SpecExchangeAndPlanCacheCounters) {
  constexpr int kP = 4;
  {
    AmrFrontResult res;
    msg::Machine m(kP);
    msg::run_spmd(m, [&](Context& ctx) {
      const auto r = run_amr_front(
          ctx, {.n = 24, .steps = 6, .front0 = 4, .front_step = 4});
      if (ctx.rank() == 0) res = r;
    });
    EXPECT_EQ(res.spec_exchanges, 6u * kP);  // one per rank per step
  }
  {
    // Stationary front: the family re-interns identically each step, so
    // one plan build per rank and hits for every further exchange.
    AmrFrontResult res;
    msg::Machine m(kP);
    msg::run_spmd(m, [&](Context& ctx) {
      const auto r = run_amr_front(
          ctx, {.n = 24, .steps = 6, .front0 = 12, .front_step = 0});
      if (ctx.rank() == 0) res = r;
    });
    EXPECT_EQ(res.spec_exchanges, 6u * kP);
    EXPECT_EQ(res.halo_plan_misses, static_cast<std::uint64_t>(kP));
    EXPECT_EQ(res.halo_plan_hits, 5u * kP);
  }
}

TEST(AmrFront, RejectsNonSquareMachinesAndThinSegments) {
  msg::Machine m(2);
  EXPECT_THROW(msg::run_spmd(m,
                             [&](Context& ctx) {
                               (void)run_amr_front(ctx, {.n = 24});
                             }),
               std::invalid_argument);
  // n = 4 over a 2x2 grid: 2-cell segments cannot serve front_width 3.
  msg::Machine m2(4);
  EXPECT_THROW(msg::run_spmd(m2,
                             [&](Context& ctx) {
                               (void)run_amr_front(ctx, {.n = 4});
                             }),
               std::invalid_argument);
}

}  // namespace
}  // namespace vf::apps
