// Tests for the first-class halo subsystem: HaloSpec interning through the
// DistRegistry, run-based HaloPlans with corner (diagonal) exchange, and
// the per-Env plan cache keyed on (DistHandle uid, HaloSpec uid) -- in
// particular that a repeat exchange_overlap under an unchanged
// distribution is a pure cache hit that rebuilds no index lists.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "halo_fuzz_util.hpp"
#include "run_plan_util.hpp"
#include "spmd_test_util.hpp"
#include "vf/halo/exchange.hpp"
#include "vf/halo/plan.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::rt {
namespace {

using dist::block;
using dist::col;
using dist::DistributionType;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using testing::run_checked;
using testing::SpmdChecker;

TEST(HaloSpec, InterningIsIdentity) {
  dist::DistRegistry reg;
  const halo::HaloSpec s({1, 2}, {0, 1}, true);
  const halo::HaloHandle h1 = reg.intern(s);
  const halo::HaloHandle h2 = reg.intern(halo::HaloSpec({1, 2}, {0, 1}, true));
  EXPECT_TRUE(h1 == h2);
  EXPECT_EQ(h1.uid(), h2.uid());
  EXPECT_NE(h1.uid(), 0u);
  EXPECT_EQ(reg.stats().halo_spec_hits, 1u);
  EXPECT_EQ(reg.stats().halo_spec_misses, 1u);

  // The corners flag and each width participate in identity.
  const halo::HaloHandle faces =
      reg.intern(halo::HaloSpec({1, 2}, {0, 1}, false));
  EXPECT_FALSE(h1 == faces);
  EXPECT_NE(h1.uid(), faces.uid());
}

TEST(HaloSpec, ValidationRejectsBadWidths) {
  EXPECT_THROW(halo::HaloSpec({1}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(halo::HaloSpec({-1}, {0}), std::invalid_argument);
  EXPECT_TRUE(halo::HaloSpec::none(2).empty());
  EXPECT_FALSE(halo::HaloSpec({0, 1}, {0, 0}).empty());
}

/// Satellite: repeat exchanges must be allocation-free on the planning
/// path -- the second exchange_overlap is a cache hit that invokes
/// halo::build_plan zero times (no send/recv index-list rebuild).
TEST(HaloPlanCache, RepeatExchangeDoesNotRebuildPlans) {
  constexpr int kP = 4;
  run_checked(kP, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({32}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });

    // Barrier-bracketed snapshot: every rank captures the process-wide
    // build counter before any rank can reach its first exchange.
    ctx.barrier();
    const std::uint64_t builds0 = halo::plan_builds();
    ctx.barrier();
    a.exchange_overlap();
    const auto& st = env.halo_plans().stats();
    ck.check_eq(st.misses, std::uint64_t{1}, ctx.rank(), "first is a miss");
    ck.check_eq(st.hits, std::uint64_t{0}, ctx.rank(), "no hit yet");

    // Each rank built exactly one plan; the repeats build none.
    a.exchange_overlap();
    a.exchange_overlap();
    ck.check_eq(st.misses, std::uint64_t{1}, ctx.rank(),
                "repeat exchanges stay misses == 1");
    ck.check_eq(st.hits, std::uint64_t{2}, ctx.rank(), "two hits");
    ctx.barrier();
    if (ctx.rank() == 0) {
      // Machine-wide: kP builds total, all from the first exchange.
      ck.check_eq(halo::plan_builds() - builds0,
                  std::uint64_t{kP}, 0, "one build per rank, ever");
    }
    // Values are still exchanged correctly on the replayed plan.
    const dist::Index lo = 8 * ctx.rank() + 1;
    if (lo > 1) {
      ck.check_eq(a.halo({lo - 1}), static_cast<double>(lo - 1), ctx.rank(),
                  "low ghost value");
    }
  });
}

/// Two arrays with the same interned (distribution, spec) pair share one
/// cached plan: the Env-level cache serves the smoothing ping-pong pair
/// with a single inspector run.
TEST(HaloPlanCache, CrossArrayPlanSharing) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const DistArray<double>::Spec spec{
        .name = "A",
        .domain = IndexDomain::of_extents({32}),
        .dynamic = true,
        .initial = DistributionType{block()},
        .overlap_lo = {1},
        .overlap_hi = {1}};
    DistArray<double> a(env, spec);
    auto bspec = spec;
    bspec.name = "B";
    DistArray<double> b(env, bspec);
    ck.check(a.dist_handle() == b.dist_handle(), ctx.rank(),
             "interning shares the descriptor");
    ck.check(a.halo_spec() == b.halo_spec(), ctx.rank(),
             "interning shares the halo spec");
    a.exchange_overlap();
    b.exchange_overlap();
    const auto& st = env.halo_plans().stats();
    ck.check_eq(st.misses, std::uint64_t{1}, ctx.rank(),
                "second array reuses the first's plan");
    ck.check_eq(st.hits, std::uint64_t{1}, ctx.rank(), "one hit");
  });
}

/// DISTRIBUTE swaps the descriptor handle, so the cached plan is keyed
/// away naturally -- no explicit invalidation -- and the exchange under
/// the new layout is correct.
TEST(HaloPlanCache, DistributeInvalidatesByKey) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8, 8}),
                              .dynamic = true,
                              .initial = DistributionType{col(), block()},
                              .overlap_lo = {0, 1},
                              .overlap_hi = {0, 1}});
    a.init([](const IndexVec& i) {
      return static_cast<double>(100 * i[0] + i[1]);
    });
    a.exchange_overlap();
    const auto& st = env.halo_plans().stats();
    ck.check_eq(st.misses, std::uint64_t{1}, ctx.rank(), "first plan");
    a.distribute(DistributionType{col(), dist::cyclic(4)});
    a.exchange_overlap();
    ck.check_eq(st.misses, std::uint64_t{2}, ctx.rank(),
                "new handle, new plan");
    // Ghost columns adjacent to the new segments carry neighbour values.
    const dist::Index jb = ctx.rank() == 0 ? 5 : 4;
    for (dist::Index i = 1; i <= 8; ++i) {
      ck.check_eq(a.halo({i, jb}), static_cast<double>(100 * i + jb),
                  ctx.rank(), "ghost after redistribute");
    }
  });
}

/// Corner exchange: on a 2x2 (BLOCK, BLOCK) grid with corners enabled,
/// the diagonal ghost element is filled; with corners disabled it stays
/// at its initialized value.
TEST(HaloCorners, DiagonalGhostsFilledWhenRequested) {
  for (const bool corners : {true, false}) {
    run_checked(4, [corners](Context& ctx, SpmdChecker& ck) {
      dist::ProcessorArray grid = dist::ProcessorArray::grid(2, 2);
      Env env(ctx, grid);
      DistArray<double> a(env, {.name = "A",
                                .domain = IndexDomain::of_extents({8, 8}),
                                .dynamic = true,
                                .initial = DistributionType{block(), block()},
                                .overlap_lo = {1, 1},
                                .overlap_hi = {1, 1},
                                .overlap_corners = corners});
      a.init([](const IndexVec& i) {
        return static_cast<double>(100 * i[0] + i[1]);
      });
      a.exchange_overlap();
      // Every rank owns a 4x4 block; its inward diagonal neighbour exists.
      const dist::Index x0 = ctx.rank() % 2 == 0 ? 4 : 5;  // my corner row
      const dist::Index y0 = ctx.rank() / 2 == 0 ? 4 : 5;  // my corner col
      const dist::Index dx = ctx.rank() % 2 == 0 ? 1 : -1;
      const dist::Index dy = ctx.rank() / 2 == 0 ? 1 : -1;
      const IndexVec diag{x0 + dx, y0 + dy};
      ck.check(a.halo_readable(diag), ctx.rank(), "corner storage exists");
      const double expect_filled =
          static_cast<double>(100 * diag[0] + diag[1]);
      if (corners) {
        ck.check_eq(a.halo(diag), expect_filled, ctx.rank(),
                    "diagonal ghost value");
      } else {
        ck.check_eq(a.halo(diag), 0.0, ctx.rank(),
                    "faces-only leaves the corner unfilled");
      }
      // Face ghosts are filled either way.
      ck.check_eq(a.halo({x0 + dx, y0}),
                  static_cast<double>(100 * (x0 + dx) + y0), ctx.rank(),
                  "face ghost value");
    });
  }
}

/// A neighbour owning fewer planes than the overlap width sends what it
/// has (partial fill), for faces and corners alike; coordinates owning
/// nothing are skipped when locating the neighbour.
TEST(HaloCorners, PartialWidthsAndEmptySegments) {
  run_checked(9, [](Context& ctx, SpmdChecker& ck) {
    dist::ProcessorArray grid = dist::ProcessorArray::grid(3, 3);
    Env env(ctx, grid);
    // BLOCK on 4 elements over 3 coords: sizes 2, 2, 0 -- the last
    // coordinate owns nothing in each dimension.
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({4, 4}),
                              .dynamic = true,
                              .initial = DistributionType{block(), block()},
                              .overlap_lo = {2, 2},
                              .overlap_hi = {2, 2},
                              .overlap_corners = true});
    a.init([](const IndexVec& i) {
      return static_cast<double>(10 * i[0] + i[1]);
    });
    a.exchange_overlap();
    const auto& L = a.layout();
    if (L.member && L.total > 0) {
      // Every in-domain neighbour within the exchanged widths is correct.
      a.for_owned([&](const IndexVec& i, double&) {
        for (dist::Index di = -2; di <= 2; ++di) {
          for (dist::Index dj = -2; dj <= 2; ++dj) {
            const IndexVec p{i[0] + di, i[1] + dj};
            if (!a.domain().contains(p)) continue;
            if (!a.halo_readable(p)) continue;
            ck.check_eq(a.halo(p), static_cast<double>(10 * p[0] + p[1]),
                        ctx.rank(), "value at " + p.to_string());
          }
        }
      });
    }
  });
}

/// Arrays without overlap widths still make the (collective) exchange a
/// cheap no-op, and plans for the empty spec move nothing.
TEST(HaloPlanCache, EmptySpecExchangesNothing) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> a(env, {.name = "A",
                           .domain = IndexDomain::of_extents({8}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return static_cast<int>(i[0]); });
    const auto before = ctx.stats().data_messages;
    a.exchange_overlap();
    a.exchange_overlap();
    ck.check_eq(ctx.stats().data_messages, before, ctx.rank(),
                "no data traffic for the empty spec");
  });
}

/// HaloFamily interning: identity, uniformity detection, order
/// sensitivity and the hit/miss counters.
TEST(HaloFamily, InterningAndUniformity) {
  dist::DistRegistry reg;
  const halo::HaloHandle h1 = reg.intern(halo::HaloSpec({1}, {1}));
  const halo::HaloHandle h2 = reg.intern(halo::HaloSpec({2}, {0}));
  const halo::FamilyHandle uni = reg.intern_family({h1, h1});
  EXPECT_TRUE(uni->uniform());
  EXPECT_FALSE(uni->empty());
  EXPECT_NE(uni.uid(), 0u);
  const halo::FamilyHandle asym = reg.intern_family({h1, h2});
  EXPECT_FALSE(asym->uniform());
  const halo::FamilyHandle asym2 = reg.intern_family({h1, h2});
  EXPECT_TRUE(asym == asym2);
  EXPECT_EQ(asym.uid(), asym2.uid());
  EXPECT_EQ(reg.stats().halo_family_hits, 1u);
  EXPECT_EQ(reg.stats().halo_family_misses, 2u);
  // Member order is identity: the family names ranks positionally.
  const halo::FamilyHandle swapped = reg.intern_family({h2, h1});
  EXPECT_NE(asym.uid(), swapped.uid());
  // All-zero members make an empty family.
  const halo::HaloHandle z = reg.intern(halo::HaloSpec::none(1));
  EXPECT_TRUE(reg.intern_family({z, z})->empty());
  // Null members and mismatched ranks are rejected.
  EXPECT_THROW((void)reg.intern_family({}), std::invalid_argument);
  EXPECT_THROW((void)reg.intern_family({h1, halo::HaloHandle{}}),
               std::invalid_argument);
  const halo::HaloHandle r2 = reg.intern(halo::HaloSpec({1, 1}, {1, 1}));
  EXPECT_THROW((void)reg.intern_family({h1, r2}), std::invalid_argument);
  // A leading rank-0 "none" spec is compatible with anything but must not
  // disable the consistency check for the members after it.
  const halo::HaloHandle none = reg.intern(halo::HaloSpec{});
  EXPECT_THROW((void)reg.intern_family({none, h1, r2}),
               std::invalid_argument);
  EXPECT_FALSE(reg.intern_family({none, h1, h1})->uniform());
}

/// Keying satellite: two arrays whose LOCAL spec is identical on this
/// rank but whose families differ must not alias one plan entry -- the
/// pre-family (DistHandle uid, HaloSpec uid) key could not tell them
/// apart on the rank where the local specs coincide, the family uid can.
TEST(HaloPlanCache, AsymmetricFamiliesDoNotAliasLocalSpecs) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({12});
    const auto mk = [&](const char* name) {
      return DistArray<double>(env, {.name = name,
                                     .domain = dom,
                                     .dynamic = true,
                                     .initial = DistributionType{block()}});
    };
    auto a = mk("A");
    auto b = mk("B");
    const auto fp = [&](const IndexVec& i) {
      return static_cast<double>(dom.linearize(i)) + 0.25;
    };
    a.init(fp);
    b.init(fp);
    // Rank 0's local spec is {1}/{1} in BOTH families; rank 1 differs
    // (2 vs 3 low planes), so A and B reconcile to distinct families and
    // rank 0's send side must pack 2 planes for A but 3 for B.
    a.set_overlap({ctx.rank() == 0 ? 1 : 2}, {1}, false, true);
    b.set_overlap({ctx.rank() == 0 ? 1 : 3}, {1}, false, true);
    a.exchange_overlap();
    b.exchange_overlap();
    ck.check(a.halo_family() && !a.halo_family()->uniform(), ctx.rank(),
             "A's family should be asymmetric");
    ck.check(!(a.halo_family() == b.halo_family()), ctx.rank(),
             "families must be distinct handles");
    if (ctx.rank() == 0) {
      // Same local spec handle, same distribution -- the pre-family key
      // would collide here.
      ck.check(a.halo_spec() == b.halo_spec(), 0,
               "local specs should coincide on rank 0");
      ck.check_eq(env.halo_plans().size(), std::size_t{2}, 0,
                  "two distinct family plan entries");
      ck.check_eq(env.halo_plans().stats().misses, std::uint64_t{2}, 0,
                  "no aliasing hit between the families");
    }
    if (ctx.rank() == 1) {
      // The ghosts prove the send sides differed: rank 1's segment is
      // [7, 12], so 2 filled planes under A's family ({5, 6}) and 3
      // under B's ({4, 5, 6}).
      for (dist::Index g = 5; g <= 6; ++g) {
        ck.check_eq(a.halo({g}), fp({g}), 1, "A ghost");
      }
      for (dist::Index g = 4; g <= 6; ++g) {
        ck.check_eq(b.halo({g}), fp({g}), 1, "B ghost");
      }
    }
  });
}

/// Keying satellite: an asymmetric DECLARATION whose widths happen to be
/// equal everywhere reconciles to a uniform family and must hit the very
/// same cache entry a uniform declaration produced -- while the uniform
/// declaration itself never performs a spec exchange at all (the
/// zero-extra-collective fast path, asserted through the counters).
TEST(HaloPlanCache, UniformFamilyHitsPrePRKey) {
  const std::uint64_t global_before = halo::spec_exchanges();
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({12});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    DistArray<double> b(env, {.name = "B",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1},
                              .overlap_asymmetric = true});
    a.init([](const IndexVec&) { return 1.0; });
    b.init([](const IndexVec&) { return 2.0; });
    a.exchange_overlap();
    const auto misses_after_a = env.halo_plans().stats().misses;
    b.exchange_overlap();
    // The uniform declaration paid no spec exchange; the asymmetric one
    // paid exactly one and detected uniformity.
    ck.check_eq(a.halo_spec_exchanges(), std::uint64_t{0}, ctx.rank(),
                "uniform spec must not spec-exchange");
    ck.check_eq(b.halo_spec_exchanges(), std::uint64_t{1}, ctx.rank(),
                "asymmetric declaration reconciles once");
    ck.check(b.halo_family() && b.halo_family()->uniform(), ctx.rank(),
             "family should reconcile to uniform");
    // Same cache entry: B's exchange was a HIT on A's (dist, spec) key.
    ck.check_eq(env.halo_plans().stats().misses, misses_after_a, ctx.rank(),
                "uniform family must reuse the pre-family cache entry");
    ck.check(env.halo_plans().stats().hits >= 1, ctx.rank(),
             "expected a cache hit for the uniform family");
    ck.check_eq(env.halo_plans().size(), std::size_t{1}, ctx.rank(),
                "one shared plan entry");
    // Repeat exchanges stay spec-exchange-free: the family is cached on
    // the array until the next set_overlap.
    b.exchange_overlap();
    ck.check_eq(b.halo_spec_exchanges(), std::uint64_t{1}, ctx.rank(),
                "repeat exchange must not re-reconcile");
  });
  // The process-wide counter agrees: one reconcile per rank for B, none
  // for A, across the whole machine run.
  EXPECT_EQ(halo::spec_exchanges() - global_before, 2u);
}

/// Plan-format invariants of the halo builders over seeded distributions
/// and specs (uniform with clipping, asymmetric families, corners): CSR
/// form, per-peer counts, runs inside the allocation, unpack runs filling
/// each filled ghost cell exactly once and never an owned cell, pack runs
/// reading owned cells only, and both ends of every transfer agreeing on
/// its size.
TEST(HaloPlanFormat, UnpackRunsFillEachGhostCellOnce) {
  int asymmetric_cases = 0;
  int corner_cases = 0;
  for (const testing::FuzzConfig& cfg : testing::kFuzzConfigs) {
    const int np = cfg.nprocs;
    const dist::ProcessorSection sec(
        cfg.grid ? dist::ProcessorArray::grid(cfg.q0, cfg.q1)
                 : dist::ProcessorArray::line(np));
    for (unsigned seed = 1; seed <= 12; ++seed) {
      for (const bool asymmetric : {false, true}) {
        std::mt19937 rng(seed);
        const dist::Index n0 = 2 + static_cast<dist::Index>(rng() % 9);
        const dist::Index n1 = 2 + static_cast<dist::Index>(rng() % 9);
        dist::DistRegistry reg;
        const dist::DistHandle d =
            reg.intern(IndexDomain::of_extents({n0, n1}),
                       testing::random_dist(rng, cfg, n0, n1), sec);
        const std::vector<testing::RankSpec> specs =
            testing::draw_specs(rng, np, asymmetric, *d);
        if (asymmetric && !testing::specs_valid(specs, *d, np)) continue;
        std::vector<halo::HaloHandle> hs;
        for (const testing::RankSpec& s : specs) {
          hs.push_back(reg.intern(halo::HaloSpec(s.lo, s.hi, s.corners)));
        }
        const halo::HaloFamily fam(hs);
        asymmetric_cases += asymmetric && !fam.uniform();
        corner_cases += specs[0].corners;
        const std::string tag = std::string(cfg.name) + " seed " +
                                std::to_string(seed) +
                                (asymmetric ? " asymmetric" : " uniform");
        std::vector<msg::RunPlan> plans;
        for (int me = 0; me < np; ++me) {
          plans.push_back(asymmetric
                              ? halo::build_family_plan(*d, fam, me, np)
                              : halo::build_plan(*d, *hs[0], me, np));
        }
        for (int me = 0; me < np; ++me) {
          const msg::RunPlan& plan = plans[static_cast<std::size_t>(me)];
          const testing::RankSpec& mine = specs[static_cast<std::size_t>(me)];
          const std::string at = tag + " rank " + std::to_string(me);
          testing::expect_csr_form(plan, np, at);
          const testing::StorageShape shape =
              testing::storage_shape(*d, me, mine.lo, mine.hi);
          const std::vector<int> in =
              testing::coverage(plan.unpack, shape.total, at + " unpack");
          const std::vector<int> out =
              testing::coverage(plan.pack, shape.total, at + " pack");
          if (shape.total == 0) continue;
          const testing::Fill fill =
              testing::expected_fill(mine, *d, d->layout_for(me));
          testing::for_each_slot(shape, [&](const auto& pos, bool owned,
                                            std::size_t off) {
            if (owned) {
              EXPECT_EQ(in[off], 0) << at << " owned slot " << off;
              return;
            }
            EXPECT_EQ(out[off], 0) << at << " ghost slot packed " << off;
            bool reach = true;
            int ghost_dims = 0;
            for (std::size_t k = 0; k < 2; ++k) {
              if (pos[k] < 0) {
                reach = reach && -pos[k] <= fill.lo[k];
              } else if (pos[k] >= shape.counts[k]) {
                reach = reach && pos[k] - shape.counts[k] < fill.hi[k];
              } else {
                continue;
              }
              ++ghost_dims;
            }
            const bool filled = reach && (ghost_dims == 1 || mine.corners);
            EXPECT_EQ(in[off], filled ? 1 : 0)
                << at << " ghost slot " << off
                << (filled ? " (filled)" : " (unfilled)");
          });
        }
        testing::expect_counts_agree(plans, tag);
      }
    }
  }
  EXPECT_GT(asymmetric_cases, 0);
  EXPECT_GT(corner_cases, 0);
}

}  // namespace
}  // namespace vf::rt
