// Tests for the run-based redistribution plan cache (Section 3.2.2 +
// inspector/executor amortization): a cached DISTRIBUTE must produce
// bit-identical data to the cold path across the whole distribution
// family, must actually hit the cache on repeated flips, and must not
// re-run any inspector exchange -- the repeated flip performs exactly one
// collective (the value all-to-all) with zero control messages.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "fuzz_chain.hpp"
#include "run_plan_util.hpp"
#include "spmd_test_util.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::rt {
namespace {

using dist::block;
using dist::col;
using dist::cyclic;
using dist::DistributionType;
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using testing::run_checked;
using testing::SpmdChecker;

std::vector<int> pseudo_owners(Index n, int nprocs, int salt) {
  std::vector<int> owners;
  owners.reserve(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    owners.push_back(static_cast<int>((k * 7 + salt) % nprocs));
  }
  return owners;
}

/// Property: flipping A<->B twice replaying cached plans must yield
/// exactly the same global contents as rebuilding every plan (the cache
/// cleared before each flip), for every ordered pair of the family.
TEST(RedistPlanCache, CachedFlipsMatchColdPathAcrossFamily) {
  constexpr int kProcs = 4;
  constexpr Index kN = 29;
  const std::vector<std::pair<std::string, DistributionType>> family = {
      {"block", {block()}},
      {"cyclic3", {cyclic(3)}},
      {"sblock", {dist::s_block({12, 2, 7, 8})}},
      {"indirect", {dist::indirect(pseudo_owners(kN, kProcs, 3))}},
  };
  for (const auto& [na, ta] : family) {
    for (const auto& [nb, tb] : family) {
      if (na == nb) continue;
      std::vector<double> cold;
      std::vector<double> cached;
      for (const bool use_cache : {false, true}) {
        run_checked(kProcs, [&, use_cache](Context& ctx, SpmdChecker& ck) {
          Env env(ctx);
          DistArray<double> a(env, {.name = "A",
                                    .domain = IndexDomain::of_extents({kN}),
                                    .dynamic = true,
                                    .initial = ta});
          a.init([](const IndexVec& i) { return 10.0 * i[0] + 0.5; });
          // Two full round trips: the second exercises cached plans for
          // both directions unless the cold arm cleared them.
          for (int flip = 0; flip < 4; ++flip) {
            if (!use_cache) a.clear_redist_plans();
            a.distribute(flip % 2 == 0 ? tb : ta);
          }
          if (use_cache) {
            ck.check(a.redist_plan_hits() >= 2, ctx.rank(),
                     na + "->" + nb + ": expected plan cache hits");
          } else {
            ck.check_eq(a.redist_plan_hits(), std::uint64_t{0}, ctx.rank(),
                        "cache cleared before each flip: no hits");
          }
          auto full = a.gather_global();
          if (ctx.rank() == 0) {
            (use_cache ? cached : cold) = full;
          }
        });
      }
      EXPECT_EQ(cold, cached) << na << " -> " << nb;
      ASSERT_EQ(cold.size(), static_cast<std::size_t>(kN));
      for (Index k = 0; k < kN; ++k) {
        EXPECT_EQ(cold[static_cast<std::size_t>(k)], 10.0 * (k + 1) + 0.5)
            << na << " -> " << nb << " at " << k;
      }
    }
  }
}

/// A repeated DISTRIBUTE must not re-run any inspector exchange: the plan
/// knows both sides' counts, so each flip is exactly one collective (the
/// value all-to-all) and sends zero control messages.
TEST(RedistPlanCache, RepeatedDistributeRunsNoInspectorExchange) {
  msg::Machine m(4);
  msg::CommStats warm_stats;
  msg::run_spmd(m, [&](Context& ctx) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({16, 16}),
                              .dynamic = true,
                              .initial = DistributionType{col(), block()}});
    a.fill(1.0);
    // Warm the cache with one full row<->column round trip (the ADI
    // pattern of Section 4).
    a.distribute(DistributionType{block(), col()});
    a.distribute(DistributionType{col(), block()});
    ctx.barrier();
    if (ctx.rank() == 0) ctx.machine().reset_stats();
    ctx.barrier();
    a.distribute(DistributionType{block(), col()});
    ctx.barrier();
    if (ctx.rank() == 0) warm_stats = ctx.machine().total_stats();
    ctx.barrier();
    EXPECT_GE(a.redist_plan_hits(), 1u);
  });
  // One alltoallv_known per rank = 4 collectives machine-wide (plus the
  // barriers we injected around the measurement, which send no payload).
  EXPECT_EQ(warm_stats.ctl_messages, 0u);
  EXPECT_EQ(warm_stats.ctl_bytes, 0u);
  EXPECT_GT(warm_stats.data_messages, 0u);
  EXPECT_LE(warm_stats.data_messages, 4u * 3u);
}

/// The cold path already avoids the count exchange (the freshly built plan
/// knows the counts), but must re-run the local inspector; the cache
/// counters expose the difference.
TEST(RedistPlanCache, CountersDistinguishColdAndCachedFlips) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<int> a(env, {.name = "A",
                           .domain = IndexDomain::of_extents({48}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return static_cast<int>(i[0]); });
    a.distribute(DistributionType{cyclic(1)});
    ck.check_eq(a.redist_plan_misses(), std::uint64_t{1}, ctx.rank(),
                "first flip is a miss");
    a.distribute(DistributionType{block()});
    a.distribute(DistributionType{cyclic(1)});
    a.distribute(DistributionType{block()});
    ck.check_eq(a.redist_plan_misses(), std::uint64_t{2}, ctx.rank(),
                "one miss per direction");
    ck.check_eq(a.redist_plan_hits(), std::uint64_t{2}, ctx.rank(),
                "repeats hit");
    a.for_owned([&](const IndexVec& i, int& v) {
      ck.check_eq(v, static_cast<int>(i[0]), ctx.rank(), "data preserved");
    });
  });
}

/// Overlap (ghost) widths change the storage geometry, so plans built with
/// ghosts must still round-trip data exactly.
TEST(RedistPlanCache, GhostPaddedStorageRedistributesCorrectly) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({24}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {2},
                              .overlap_hi = {2}});
    a.init([](const IndexVec& i) { return 3.0 * i[0]; });
    a.distribute(DistributionType{dist::s_block({9, 3, 5, 7})});
    a.distribute(DistributionType{block()});
    a.for_owned([&](const IndexVec& i, double& v) {
      ck.check_eq(v, 3.0 * i[0], ctx.rank(), "ghost-padded round trip");
    });
    a.exchange_overlap();
    const Index lo = 6 * ctx.rank() + 1;
    if (lo > 1) {
      ck.check_eq(a.halo({lo - 1}), 3.0 * (lo - 1), ctx.rank(),
                  "ghost value after redistribute");
    }
  });
}

/// Plan-format invariants of the redistribution builder over seeded
/// (old, new, ghost) triples: CSR form, per-peer counts, runs inside the
/// allocation, each side's runs covering every owned slot of its storage
/// exactly once and no ghost slot, and both ends of every transfer
/// agreeing on its size.
TEST(RedistPlanFormat, RunsCoverOwnedStorageExactlyOnce) {
  int cyclic_or_indirect = 0;
  int ghosted = 0;
  for (const testing::fuzz::MachineConfig& cfg : testing::fuzz::kMachines) {
    const int np = cfg.nprocs;
    for (unsigned seed = 1; seed <= 16; ++seed) {
      std::mt19937 rng(seed);
      const int rank = 1 + static_cast<int>(seed % dist::kMaxRank);
      const dist::ProcessorArray procs = testing::fuzz::processors(cfg, rank);
      const IndexDomain dom = testing::fuzz::draw_domain(rng, rank);
      dist::DistRegistry reg;
      const dist::DistHandle od =
          testing::fuzz::draw_target(rng, reg, dom, procs);
      const dist::DistHandle nd =
          testing::fuzz::draw_target(rng, reg, dom, procs);
      IndexVec glo = IndexVec::filled(rank, 0);
      IndexVec ghi = IndexVec::filled(rank, 0);
      for (int k = 0; k < rank; ++k) {
        if (od->dim_map(k).contiguous() && nd->dim_map(k).contiguous()) {
          glo[k] = static_cast<Index>(rng() % 3);
          ghi[k] = static_cast<Index>(rng() % 3);
        } else {
          ++cyclic_or_indirect;
        }
        ghosted += glo[k] + ghi[k] > 0;
      }
      const std::string tag = std::string(cfg.name) + " seed " +
                              std::to_string(seed) + " " +
                              od->type().to_string() + " -> " +
                              nd->type().to_string();
      std::vector<msg::RunPlan> plans;
      for (int me = 0; me < np; ++me) {
        plans.push_back(build_redist_plan(*od, *nd, me, np, glo, ghi));
      }
      for (int me = 0; me < np; ++me) {
        const msg::RunPlan& plan = plans[static_cast<std::size_t>(me)];
        const std::string at = tag + " rank " + std::to_string(me);
        testing::expect_csr_form(plan, np, at);
        const auto exactly_owned = [&](const dist::Distribution& d,
                                       const msg::RunSide& runs,
                                       const char* side) {
          const testing::StorageShape shape =
              testing::storage_shape(d, me, glo, ghi);
          const std::vector<int> cov =
              testing::coverage(runs, shape.total, at + side);
          testing::for_each_slot(shape, [&](const auto&, bool owned,
                                            std::size_t off) {
            EXPECT_EQ(cov[off], owned ? 1 : 0)
                << at << side << " slot " << off;
          });
        };
        exactly_owned(*od, plan.pack, " pack");
        exactly_owned(*nd, plan.unpack, " unpack");
      }
      testing::expect_counts_agree(plans, tag);
    }
  }
  EXPECT_GT(cyclic_or_indirect, 0);
  EXPECT_GT(ghosted, 0);
}

/// Folds `offsets` (single elements) into one peer's sections and checks
/// that the sections replay exactly that sequence.
msg::RunSide fold_elements(const std::vector<std::size_t>& offsets) {
  msg::RunSideBuilder b(1);
  for (const std::size_t off : offsets) b.add(off, 1);
  b.end_peer();
  const msg::RunSide side = std::move(b).finish();
  testing::expect_side_form(side, 1, "fold");
  EXPECT_EQ(testing::expand(side), offsets);
  return side;
}

/// The fold merges exactly: strided rows become one 2-D section, but a
/// repeated offset, or rows whose elements would coincide, stay apart so
/// the walk order inside a section never matters.
TEST(RunPlanFold, SectionsAreExactAndNeverAlias) {
  // Contiguous rows of 4 at a row stride of 10: one section.
  EXPECT_EQ(fold_elements({0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23})
                .runs.size(),
            1u);
  // The gather-lines serve walk: rows of 4 at step 16, row stride 4.
  EXPECT_EQ(fold_elements({1, 17, 33, 49, 5, 21, 37, 53, 9, 25, 41, 57})
                .runs.size(),
            1u);
  // Overlapping rows would repeat offsets: contiguous rows at row stride
  // 1, and step-2 rows at row stride 2.
  EXPECT_EQ(fold_elements({0, 1, 2, 1, 2, 3}).runs.size(), 2u);
  EXPECT_EQ(fold_elements({0, 2, 4, 2, 4, 6}).runs.size(), 2u);
  // Duplicates and descending offsets never fold into a section; the
  // three single elements are one listed run.
  for (const msg::RunSide& side :
       {fold_elements({5, 5, 5}), fold_elements({9, 7, 5})}) {
    ASSERT_EQ(side.runs.size(), 1u);
    EXPECT_TRUE(side.runs[0].listed());
  }
}

/// A stretch of small sections is listed only where its offsets take
/// fewer bytes than its sections; a listed run keeps the element order.
TEST(RunPlanFold, SmallSectionsAreListedWhereThatIsSmaller) {
  // A lone element between two long rows stays a section.
  std::vector<std::size_t> lone;
  for (std::size_t k = 0; k < 16; ++k) lone.push_back(k);
  lone.push_back(100);
  for (std::size_t k = 200; k < 216; ++k) lone.push_back(k);
  msg::RunSide side = fold_elements(lone);
  ASSERT_EQ(side.runs.size(), 3u);
  for (const msg::Run& r : side.runs) EXPECT_FALSE(r.listed());
  // Rows of 4 and 3 elements: 80 bytes as sections, 96 listed.
  side = fold_elements({0, 1, 2, 3, 10, 11, 12});
  ASSERT_EQ(side.runs.size(), 2u);
  EXPECT_FALSE(side.runs[0].listed() || side.runs[1].listed());
  // Unordered points are one listed run: one offset per element.
  std::vector<std::size_t> points(200);
  std::mt19937 rng(17);
  for (std::size_t& x : points) x = rng() % 1000;
  side = fold_elements(points);
  ASSERT_EQ(side.runs.size(), 1u);
  EXPECT_TRUE(side.runs[0].listed());
  EXPECT_EQ(side.index.size(), points.size());
  // Between long sections, each stretch gets its own listed run.
  std::vector<std::size_t> mixed(points.begin(), points.begin() + 10);
  mixed.insert(mixed.end(), lone.begin(), lone.begin() + 16);
  mixed.insert(mixed.end(), points.begin() + 10, points.begin() + 20);
  side = fold_elements(mixed);
  ASSERT_EQ(side.runs.size(), 3u);
  EXPECT_TRUE(side.runs[0].listed() && side.runs[2].listed());
  EXPECT_FALSE(side.runs[1].listed());
}

/// build_like keeps a section of the given shape where the offsets fold
/// into one exactly and lists every other run; zip_runs then pairs the
/// two sides element by element.
TEST(RunPlanFold, BuildLikeKeepsMatchingSectionsAndZipPairsInOrder) {
  // The shape: rows of 3 at row stride 4 (positions 0-2, 4-6, 8-10),
  // then three unordered positions (listed).
  const msg::RunSide like =
      fold_elements({0, 1, 2, 4, 5, 6, 8, 9, 10, 30, 20, 25});
  ASSERT_EQ(like.runs.size(), 2u);
  ASSERT_TRUE(like.runs[1].listed());
  // Offsets at step 2 with a row stride of 100 fit the section; a
  // second set breaks it in its last row.
  const std::vector<std::size_t> fit = {7, 9, 11, 107, 109, 111, 207, 209,
                                        211, 3, 1, 2};
  const std::vector<std::size_t> broken = {7, 9, 11, 107, 109, 111, 207, 209,
                                           210, 3, 1, 2};
  for (const auto* offs : {&fit, &broken}) {
    const msg::RunSide side =
        msg::build_like(like, [&](std::size_t e) { return (*offs)[e]; });
    testing::expect_side_form(side, 1, "build_like");
    EXPECT_TRUE(testing::same_shape(like, side));
    EXPECT_EQ(testing::expand(side), *offs);
    EXPECT_EQ(side.runs[0].listed(), offs == &broken);
    EXPECT_TRUE(side.runs[1].listed());
    // zip_runs pairs the i-th element of each side, in order.
    std::vector<int> src(256, 0);
    std::vector<int> dst(32, -1);
    for (std::size_t k = 0; k < offs->size(); ++k) {
      src[(*offs)[k]] = static_cast<int>(k);
    }
    msg::zip_runs(side, src.data(), like, dst.data(),
                  [](const int& s, int& d) { d = s; });
    const std::vector<std::size_t> pos = testing::expand(like);
    for (std::size_t k = 0; k < pos.size(); ++k) {
      EXPECT_EQ(dst[pos[k]], static_cast<int>(k)) << "element " << k;
    }
  }
}

/// A BLOCK -> CYCLIC(1) flip is one strided section per peer on the pack
/// side and one contiguous section per peer on the unpack side, not one
/// run per element.
TEST(RunPlanFold, CyclicFlipIsOneSectionPerPeer) {
  constexpr int kNp = 4;
  const IndexDomain dom = IndexDomain::of_extents({1024});
  const dist::ProcessorSection procs(dist::ProcessorArray::line(kNp));
  const dist::Distribution od(dom, DistributionType{block()}, procs);
  const dist::Distribution nd(dom, DistributionType{cyclic(1)}, procs);
  const IndexVec none = IndexVec::filled(1, 0);
  std::vector<msg::RunPlan> plans;
  for (int me = 0; me < kNp; ++me) {
    plans.push_back(build_redist_plan(od, nd, me, kNp, none, none));
    const msg::RunPlan& plan = plans.back();
    testing::expect_csr_form(plan, kNp, "flip");
    for (int p = 0; p < kNp; ++p) {
      EXPECT_EQ(plan.pack.peer(p).size(), 1u) << me << " -> " << p;
      EXPECT_EQ(plan.unpack.peer(p).size(), 1u) << p << " -> " << me;
    }
  }
  testing::expect_counts_agree(plans, "flip");
}

}  // namespace
}  // namespace vf::rt
