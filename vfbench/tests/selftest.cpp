// The benchmark's own tests: every workload's traffic equals its closed
// form, the Section 4 smoothing formula prices the measured traffic, the
// two ADI strategies end in the same state, and a perturbed reference is
// counted as a failed check.  Run with `python3 vfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "vf/apps/smoothing_sim.hpp"
#include "workloads.hpp"

namespace vfbench {
namespace {

Workload short_run(const char* name, int steps) {
  Workload w = *find_workload(name, 12345);
  w.steps = steps;
  return w;
}

Episode checked(const Workload& w, bool traced) {
  Tally tally;
  const std::optional<Episode> ep =
      checked_episode(w, traced, reference(w), tally);
  EXPECT_TRUE(ep.has_value());
  EXPECT_EQ(tally.attempted, 1u);
  EXPECT_EQ(tally.failed, 0u);
  return *ep;
}

// smooth9 on the 2x2 grid with corners: per step every rank sends its two
// face neighbours n/2 doubles each and its diagonal neighbour 1 double.
TEST(Traffic, Smooth9MatchesClosedForm) {
  const Workload w = short_run("smooth9", 5);
  const Episode ep = checked(w, false);
  const std::uint64_t K = 4;  // warm steps
  const std::uint64_t face = static_cast<std::uint64_t>(w.n / 2) * 8;
  for (int r = 0; r < kRanks; ++r) {
    const RankLog& log = ep.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(log.warm.data_msgs, 3 * K) << "rank " << r;
    EXPECT_EQ(log.warm.data_bytes, K * (2 * face + 8)) << "rank " << r;
    EXPECT_EQ(log.warm.ctl_msgs, 0u) << "rank " << r;
    int faces = 0, corners = 0;
    for (int p = 0; p < kRanks; ++p) {
      const auto b = log.peer_bytes[static_cast<std::size_t>(p)];
      const auto m = log.peer_msgs[static_cast<std::size_t>(p)];
      if (b == K * face && m == K) ++faces;
      if (b == K * 8 && m == K) ++corners;
    }
    EXPECT_EQ(faces, 2) << "rank " << r;
    EXPECT_EQ(corners, 1) << "rank " << r;
  }
}

// Section 4: on a p x p grid an interior rank sends 4 face messages of
// N/p elements per step.  On the 2x2 grid every rank has two of those
// four neighbours, so its measured face traffic, priced by the same cost
// model, is exactly half of apps::modeled_step_cost_us.
TEST(Traffic, Smooth9FacesMatchSection4Formula) {
  const Workload w = short_run("smooth9", 3);
  const Episode ep = checked(w, false);
  const vf::msg::CostModel cm{};
  const double formula = vf::apps::modeled_step_cost_us(
      vf::apps::SmoothLayout::Grid2D, w.n, kRanks, cm, sizeof(double));
  for (const RankLog& log : ep.ranks) {
    double faces_us = 0.0;
    for (std::size_t p = 0; p < log.peer_bytes.size(); ++p) {
      const std::uint64_t per_step = log.peer_bytes[p] / 2;  // warm steps
      if (per_step > sizeof(double)) faces_us += cm.message_us(per_step);
    }
    EXPECT_DOUBLE_EQ(faces_us, formula / 2.0);
  }
}

// Every DISTRIBUTE flip between (:, BLOCK) and (BLOCK, :) on 4 ranks keeps
// a quarter of each rank's block and moves the rest: 3 n^2 / 4 doubles
// machine-wide, two flips per iteration (3,145,728 B at n = 512), one
// message per communicating pair.
TEST(Traffic, AdiFlipsMoveThreeQuartersOfTheGrid) {
  const Workload w = short_run("adi", 3);
  const Episode ep = checked(w, true);
  const auto cells = static_cast<std::uint64_t>(w.n * w.n);
  const std::uint64_t per_iter = 2 * (3 * cells / 4) * sizeof(double);
  ASSERT_EQ(per_iter, 3145728u);
  std::uint64_t bytes = 0, msgs = 0, span_bytes = 0;
  for (const RankLog& log : ep.ranks) {
    bytes += log.warm.data_bytes;
    msgs += log.warm.data_msgs;
    for (const Span& s : log.spans) {
      if (std::string(s.name) == "rt.distribute" && s.step >= 1) {
        span_bytes += s.data_bytes;
      }
    }
  }
  EXPECT_EQ(bytes, 2 * per_iter);  // two warm steps
  EXPECT_EQ(span_bytes, 2 * per_iter);
  EXPECT_EQ(msgs, 2u * 2u * kRanks * (kRanks - 1));
}

// The static alternative gathers and scatters the same rows through a
// PARTI schedule: the same bytes per warm step (the first step also binds
// the schedule to V), and bitwise the same final state.
TEST(Traffic, AdiGatherMovesTheSameBytesAndEndsInTheSameState) {
  const Workload wg = short_run("adi_gather", 3);
  const Workload wd = short_run("adi", 3);
  const Episode g = checked(wg, true);
  const Episode d = checked(wd, false);
  EXPECT_EQ(g.final_state, d.final_state);
  std::uint64_t parti = 0;
  for (const RankLog& log : g.ranks) {
    for (const Span& s : log.spans) {
      if (layer_of(s) == "parti" && s.step >= 1) parti += s.data_bytes;
    }
  }
  EXPECT_EQ(parti, 2u * 3145728u);
}

// amr_churn runs the cold path: every step interns a new split and misses
// the redistribution plan cache, and the periodic sweeps reclaim.
TEST(Traffic, AmrChurnBuildsAndSweeps) {
  const Workload w = short_run("amr_churn", 128);
  const Episode ep = checked(w, false);
  Counters c;
  for (const RankLog& log : ep.ranks) c += log.counters;
  EXPECT_GT(c.redist_misses, c.redist_hits);
  EXPECT_GT(c.reg_misses, 0u);
  EXPECT_GT(c.reg_swept, 0u);
  EXPECT_GT(c.halo_misses, 0u);
}

TEST(Checks, PerturbedReferenceCountsAsFailure) {
  for (const char* name : {"smooth9", "adi", "adi_gather", "amr_churn"}) {
    const Workload w = short_run(name, 2);
    std::vector<double> ref = reference(w);
    ref[ref.size() / 2] = std::nextafter(ref[ref.size() / 2], 1e300);
    Tally tally;
    (void)checked_episode(w, false, ref, tally);
    EXPECT_EQ(tally.attempted, 1u) << name;
    EXPECT_EQ(tally.failed, 1u) << name;
  }
}

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  std::vector<Span> s(3);
  s[0] = {"step", 0, 100, 1, -1, 0, 0};
  s[1] = {"halo.exchange", 10, 30, 1, 0, 0, 0};
  s[2] = {"apps.kernel", 30, 90, 1, 0, 0, 0};
  const auto self = self_ns(s);
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 60);
  EXPECT_EQ(layer_of(s[1]), "halo");
  EXPECT_EQ(layer_of(s[0]), "step");
}

}  // namespace
}  // namespace vfbench
