// Tests for the PARTI-style runtime support (paper Section 3.2, [15]):
// distributed translation tables and inspector/executor schedules.
#include <gtest/gtest.h>

#include <random>

#include "spmd_test_util.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/parti/translation_table.hpp"

namespace vf::parti {
namespace {

using dist::block;
using dist::col;
using dist::cyclic;
using dist::Distribution;
using dist::DistributionType;
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;
using msg::Context;
using rt::DistArray;
using rt::Env;
using testing::run_checked;
using testing::SpmdChecker;

TEST(TranslationTable, PagesAreBlockDistributed) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    TranslationTable t(ctx, 10, [](Index i) { return static_cast<int>(i % 3); });
    // ceil(10/4) = 3 entries per page.
    const std::size_t expect =
        ctx.rank() < 3 ? 3u : 1u;
    ck.check_eq(t.local_page().size(), expect, ctx.rank(), "page size");
    ck.check_eq(t.page_owner(0), 0, ctx.rank(), "page 0");
    ck.check_eq(t.page_owner(9), 3, ctx.rank(), "page 3");
  });
}

TEST(TranslationTable, DereferenceAnswersFromRemotePages) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    const Index n = 64;
    TranslationTable t(ctx, n,
                       [](Index i) { return static_cast<int>((i * 7) % 4); });
    // Every rank queries a different scattered subset.
    std::vector<Index> queries;
    for (Index i = ctx.rank(); i < n; i += 5) queries.push_back(i);
    auto owners = t.dereference(ctx, queries);
    ck.check_eq(owners.size(), queries.size(), ctx.rank(), "answer count");
    for (std::size_t k = 0; k < queries.size(); ++k) {
      ck.check_eq(owners[k], static_cast<int>((queries[k] * 7) % 4),
                  ctx.rank(), "owner of " + std::to_string(queries[k]));
    }
  });
}

TEST(TranslationTable, MatchesClosedFormDistribution) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    const IndexDomain dom = IndexDomain::of_extents({12, 4});
    Distribution d(dom, {cyclic(2), col()},
                   dist::ProcessorSection(dist::ProcessorArray::line(4)));
    TranslationTable t(ctx, d);
    std::vector<Index> queries;
    for (Index i = 0; i < dom.size(); i += 3) queries.push_back(i);
    auto owners = t.dereference(ctx, queries);
    for (std::size_t k = 0; k < queries.size(); ++k) {
      ck.check_eq(owners[k], d.owner_rank(dom.delinearize(queries[k])),
                  ctx.rank(), "table vs closed form");
    }
  });
}

TEST(Schedule, GatherFetchesRemoteValues) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({32});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 10.0 * i[0]; });
    // Every rank wants the 8 elements "opposite" to its own segment.
    std::vector<IndexVec> wanted;
    const Index base = ((ctx.rank() + 2) % 4) * 8 + 1;
    for (Index k = 0; k < 8; ++k) wanted.push_back({base + k});
    Schedule s(ctx, a.dist_handle(), wanted);
    ck.check_eq(s.n_points(), std::size_t{8}, ctx.rank(), "points");
    ck.check_eq(s.n_local(), std::size_t{0}, ctx.rank(), "all remote");
    std::vector<double> out(8);
    s.gather(ctx, a, out);
    for (Index k = 0; k < 8; ++k) {
      ck.check_eq(out[static_cast<std::size_t>(k)], 10.0 * (base + k),
                  ctx.rank(), "gathered value");
    }
  });
}

TEST(Schedule, DuplicateRequestsTravelOnce) {
  msg::Machine m(2);
  msg::run_spmd(m, [](Context& ctx) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8}),
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 1.0 * i[0]; });
    // Rank 0 asks for element 5 (owned by rank 1) four times.
    std::vector<IndexVec> wanted;
    if (ctx.rank() == 0) {
      wanted = {{5}, {5}, {5}, {5}};
    }
    ctx.barrier();
    if (ctx.rank() == 0) ctx.machine().reset_stats();
    ctx.barrier();
    Schedule s(ctx, a.dist_handle(), wanted);
    if (ctx.rank() == 0 && s.n_unique_offproc() != 1) {
      throw std::runtime_error("dedup failed");
    }
    std::vector<double> out(wanted.size());
    s.gather(ctx, a, out);
    for (double v : out) {
      if (v != 5.0) throw std::runtime_error("bad gather value");
    }
  });
  // Data traffic: 1 id (8B) in the inspector + 1 value (8B) in the
  // executor; duplicates add nothing.
  EXPECT_EQ(m.total_stats().data_bytes, 16u);
}

TEST(Schedule, GatherMixedLocalAndRemote) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({16, 4});
    DistArray<int> a(env, {.name = "A",
                           .domain = dom,
                           .dynamic = true,
                           .initial = DistributionType{block(), col()}});
    a.init([](const IndexVec& i) {
      return static_cast<int>(100 * i[0] + i[1]);
    });
    // A stencil-like pattern: my rows plus one remote row.
    std::vector<IndexVec> wanted;
    const Index my_first = 4 * ctx.rank() + 1;
    wanted.push_back({my_first, 1});                       // local
    wanted.push_back({(my_first + 4 - 1) % 16 + 1, 2});    // mostly remote
    wanted.push_back({my_first, 3});                       // local
    Schedule s(ctx, a.dist_handle(), wanted);
    std::vector<int> out(wanted.size());
    s.gather(ctx, a, out);
    for (std::size_t k = 0; k < wanted.size(); ++k) {
      ck.check_eq(out[k],
                  static_cast<int>(100 * wanted[k][0] + wanted[k][1]),
                  ctx.rank(), "value " + std::to_string(k));
    }
  });
}

TEST(Schedule, ScatterWritesRemoteValues) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({32});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.fill(0.0);
    // Rank r writes to the segment of rank (r+1)%4.
    std::vector<IndexVec> targets;
    const Index base = ((ctx.rank() + 1) % 4) * 8 + 1;
    for (Index k = 0; k < 8; ++k) targets.push_back({base + k});
    Schedule s(ctx, a.dist_handle(), targets);
    std::vector<double> vals;
    for (Index k = 0; k < 8; ++k) {
      vals.push_back(100.0 * ctx.rank() + static_cast<double>(k));
    }
    s.scatter(ctx, std::span<const double>(vals), a);
    ctx.barrier();
    // My segment was written by rank (me+3)%4.
    const int writer = (ctx.rank() + 3) % 4;
    a.for_owned([&](const IndexVec& i, double& v) {
      const Index k = (i[0] - 1) % 8;
      ck.check_eq(v, 100.0 * writer + static_cast<double>(k), ctx.rank(),
                  "scattered value at " + i.to_string());
    });
  });
}

TEST(Schedule, ScatterAddAccumulatesAllContributions) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<long> a(env, {.name = "A",
                            .domain = IndexDomain::of_extents({4}),
                            .dynamic = true,
                            .initial = DistributionType{block()}});
    a.fill(0);
    // Every rank adds 1 to every element, twice (duplicates must count).
    std::vector<IndexVec> targets = {{1}, {2}, {3}, {4}, {1}, {2}, {3}, {4}};
    Schedule s(ctx, a.dist_handle(), targets);
    std::vector<long> ones(targets.size(), 1);
    s.scatter_add(ctx, std::span<const long>(ones), a);
    ctx.barrier();
    a.for_owned([&](const IndexVec& i, long& v) {
      ck.check_eq(v, 8L, ctx.rank(), "sum at " + i.to_string());
    });
  });
}

TEST(Schedule, ReusedScheduleSeesUpdatedData) {
  // The inspector/executor split: one inspection, many executions.
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8}),
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    std::vector<IndexVec> wanted = {{1}, {8}};
    Schedule s(ctx, a.dist_handle(), wanted);
    std::vector<double> out(2);
    for (int round = 0; round < 3; ++round) {
      a.init([&](const IndexVec& i) {
        return 10.0 * round + static_cast<double>(i[0]);
      });
      ctx.barrier();
      s.gather(ctx, a, out);
      ck.check_eq(out[0], 10.0 * round + 1.0, ctx.rank(), "round value 1");
      ck.check_eq(out[1], 10.0 * round + 8.0, ctx.rank(), "round value 8");
    }
  });
}

TEST(Schedule, ExecutorBufferSizeIsValidated) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8}),
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    Schedule s(ctx, a.dist_handle(), {{1}, {2}});
    std::vector<double> wrong(3);
    try {
      s.gather(ctx, a, std::span<double>(wrong));
      ck.fail("expected invalid_argument");
    } catch (const std::invalid_argument&) {
      // Re-synchronize: the other rank entered the collective.  Use a
      // correctly sized buffer to drain it.
    }
    std::vector<double> right(2);
    s.gather(ctx, a, right);
  });
}

TEST(Schedule, MultiArrayBindingCacheServesSeveralArrays) {
  // One schedule, several arrays with the identical interned descriptor:
  // alternating executors must not re-translate offsets on every call
  // (the ROADMAP multi-array binding item), and every array still gets
  // correct data.
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({40});
    const DistributionType t{cyclic(2)};
    DistArray<int> a(env, {.name = "A", .domain = dom, .initial = t});
    DistArray<int> b(env, {.name = "B", .domain = dom, .initial = t});
    DistArray<int> c(env, {.name = "C", .domain = dom, .initial = t});
    ck.check(a.dist_handle() == b.dist_handle(), ctx.rank(),
             "identical specs intern to one descriptor");
    a.init([](const IndexVec& i) { return static_cast<int>(i[0]); });
    b.init([](const IndexVec& i) { return static_cast<int>(100 + i[0]); });
    c.init([](const IndexVec& i) { return static_cast<int>(200 + i[0]); });

    std::vector<IndexVec> wanted;
    for (Index g = 1 + ctx.rank(); g <= 40; g += 4) wanted.push_back({g});
    Schedule s(ctx, a.dist_handle(), wanted);
    std::vector<int> out(wanted.size());
    for (int round = 0; round < 3; ++round) {
      for (DistArray<int>* arr : {&a, &b, &c}) {
        s.gather(ctx, *arr, out);
        const int base = arr == &a ? 0 : (arr == &b ? 100 : 200);
        for (std::size_t k = 0; k < wanted.size(); ++k) {
          ck.check_eq(out[k], base + static_cast<int>(wanted[k][0]),
                      ctx.rank(), "multi-array gather");
        }
      }
    }
    ck.check_eq(s.n_bound_arrays(), std::size_t{3}, ctx.rank(),
                "three bindings cached");
    ck.check_eq(s.binding_misses(), std::uint64_t{3}, ctx.rank(),
                "one translation per array");
    ck.check_eq(s.binding_hits(), std::uint64_t{6}, ctx.rank(),
                "later rounds hit the binding cache");
  });
}

TEST(Schedule, BindingCachePurgesStaleEntriesAcrossFlips) {
  // Repeated DISTRIBUTE flips between mapping-equivalent spellings swap
  // the array's descriptor handle without moving data, so the schedule
  // keeps serving it -- through a fresh binding each flip.  The stale
  // (serial, old-handle) entries must be purged on the miss path, or each
  // flip leaks one of the kBindingCapacity slots until LRU eviction and
  // can squeeze out live bindings of other arrays.
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({16});
    DistArray<double> a(env, {.name = "A",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    a.init([](const IndexVec& i) { return 3.0 * i[0]; });
    // A second array with the same descriptor: its binding must survive
    // A's flips.
    DistArray<double> b(env, {.name = "B",
                              .domain = dom,
                              .dynamic = true,
                              .initial = DistributionType{block()}});
    b.init([](const IndexVec& i) { return 1000.0 + i[0]; });

    std::vector<IndexVec> wanted;
    for (Index g = 1 + ctx.rank(); g <= 16; g += 4) wanted.push_back({g});
    Schedule s(ctx, a.dist_handle(), wanted);
    std::vector<double> out(wanted.size());
    s.gather(ctx, b, out);  // bind B once, up front

    // Four spellings of the identical BLOCK mapping over 4 ranks; each
    // interns to a distinct handle, so each flip is an adopt-descriptor
    // swap (no data motion) that invalidates A's previous binding.
    std::vector<int> owners;
    for (int p = 0; p < 4; ++p) {
      for (int k = 0; k < 4; ++k) owners.push_back(p);
    }
    const std::vector<DistributionType> spellings = {
        DistributionType{dist::s_block({4, 4, 4, 4})},
        DistributionType{dist::block()},
        DistributionType{dist::b_block({4, 8, 12, 16})},
        DistributionType{dist::indirect(owners)},
    };
    for (int round = 0; round < 4; ++round) {
      for (const auto& t : spellings) {
        a.distribute(t);
        s.gather(ctx, a, out);
        for (std::size_t k = 0; k < wanted.size(); ++k) {
          ck.check_eq(out[k], 3.0 * wanted[k][0], ctx.rank(),
                      "gather across spelling flip");
        }
        ck.check(s.n_bound_arrays() <= 2, ctx.rank(),
                 "stale bindings purged (A keeps exactly one slot)");
      }
    }
    // B's binding never went stale and must still be cached: gathering
    // from B now is a pure hit, not a re-translation.
    const auto misses_before = s.binding_misses();
    s.gather(ctx, b, out);
    ck.check_eq(s.binding_misses(), misses_before, ctx.rank(),
                "B's binding survived A's flips");
    for (std::size_t k = 0; k < wanted.size(); ++k) {
      ck.check_eq(out[k], 1000.0 + wanted[k][0], ctx.rank(), "B data");
    }
  });
}

/// set_overlap re-pads the local storage of the SAME array under the SAME
/// descriptor, so every storage offset a binding translated moves with it.
/// The binding cache keys on the array serial and checks the array's
/// current (dist, halo) handles, so the next executor call re-translates
/// and the new binding replaces the stale one.
void gather_across_overlap_change(const IndexVec& from, const IndexVec& to) {
  run_checked(4, [&](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({32}),
                              .initial = DistributionType{block()},
                              .overlap_lo = from,
                              .overlap_hi = from});
    a.init([](const IndexVec& i) { return 10.0 * i[0]; });
    // Scattered points: some owned here, most owned by other ranks.
    std::vector<IndexVec> wanted;
    for (Index g = 1 + ctx.rank(); g <= 32; g += 3) wanted.push_back({g});
    Schedule s(ctx, a.dist_handle(), wanted);
    std::vector<double> out(wanted.size());
    const auto check = [&](const std::string& when) {
      std::fill(out.begin(), out.end(), -1.0);
      s.gather(ctx, a, out);
      for (std::size_t k = 0; k < wanted.size(); ++k) {
        ck.check_eq(out[k], 10.0 * wanted[k][0], ctx.rank(),
                    "gather " + when + " at " + std::to_string(wanted[k][0]));
      }
    };
    check("before set_overlap");
    a.set_overlap(to, to, /*corners=*/false, /*asymmetric=*/false);
    check("after set_overlap");
    ck.check_eq(s.binding_misses(), std::uint64_t{2}, ctx.rank(),
                "the reshape forced one re-translation");
    ck.check_eq(s.n_bound_arrays(), std::size_t{1}, ctx.rank(),
                "the rebuilt binding replaced the stale one");
  });
}

TEST(Schedule, BindingRetranslatesWhenOverlapGrows) {
  gather_across_overlap_change({0}, {2});
}

TEST(Schedule, BindingRetranslatesWhenOverlapShrinks) {
  gather_across_overlap_change({2}, {0});
}

TEST(Schedule, RandomizedGatherAgainstGlobalTruth) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    const IndexDomain dom = IndexDomain::of_extents({19, 7});
    DistArray<int> a(env, {.name = "A",
                           .domain = dom,
                           .dynamic = true,
                           .initial = DistributionType{cyclic(3), col()}});
    a.init([&](const IndexVec& i) {
      return static_cast<int>(dom.linearize(i));
    });
    std::mt19937 rng(1234 + ctx.rank());
    std::uniform_int_distribution<Index> pick(0, dom.size() - 1);
    std::vector<IndexVec> wanted;
    for (int k = 0; k < 100; ++k) wanted.push_back(dom.delinearize(pick(rng)));
    Schedule s(ctx, a.dist_handle(), wanted);
    std::vector<int> out(wanted.size());
    s.gather(ctx, a, out);
    for (std::size_t k = 0; k < wanted.size(); ++k) {
      ck.check_eq(out[k], static_cast<int>(dom.linearize(wanted[k])),
                  ctx.rank(), "random gather");
    }
  });
}

/// Halo reuse: a schedule built with the target's halo spec satisfies
/// overlap-area reads from ghost storage a preceding exchange_overlap
/// filled, so a stencil gather moves NO data at all -- the inspector
/// plants those points in the halo list instead of the request lists.
TEST(Schedule, HaloAwareGatherReadsGhostsWithoutTransport) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({16}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return static_cast<double>(7 * i[0]); });
    a.exchange_overlap();

    // Every rank reads its owned points plus their +-1 neighbours (the
    // 3-point stencil support): all off-processor reads land in the halo.
    std::vector<IndexVec> pts;
    const Index lo = 4 * ctx.rank() + 1;
    for (Index i = lo; i < lo + 4; ++i) {
      for (Index d = -1; d <= 1; ++d) {
        const Index x = i + d;
        if (x >= 1 && x <= 16) pts.push_back({x});
      }
    }
    Schedule sched(ctx, a.dist_handle(), pts, a.halo_spec());
    ck.check(sched.n_halo() > 0, ctx.rank(),
             "boundary neighbours are halo-satisfied");
    ck.check_eq(sched.n_unique_offproc(), std::size_t{0}, ctx.rank(),
                "no off-processor uniques remain");

    const auto before = ctx.stats().data_messages;
    std::vector<double> out(pts.size());
    sched.gather(ctx, a, out);
    ck.check_eq(ctx.stats().data_messages, before, ctx.rank(),
                "gather sent no data messages");
    for (std::size_t k = 0; k < pts.size(); ++k) {
      ck.check_eq(out[k], static_cast<double>(7 * pts[k][0]), ctx.rank(),
                  "gathered value at " + pts[k].to_string());
    }

    // Halo-satisfied points are read-only.
    try {
      sched.scatter(ctx, out, a);
      ck.fail("scatter through a halo-aware schedule must throw");
    } catch (const std::logic_error&) {
    }
  });
}

/// Reads beyond the filled ghost width still travel: the inspector only
/// plants points the exchange actually made current.
TEST(Schedule, HaloAwareInspectorRespectsFilledWidths) {
  run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({16}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    a.init([](const IndexVec& i) { return static_cast<double>(3 * i[0]); });
    a.exchange_overlap();
    // Distance-2 neighbours are outside the width-1 halo: they must be
    // fetched from their owners, and the gather still returns the truth.
    std::vector<IndexVec> pts;
    const Index lo = 4 * ctx.rank() + 1;
    for (const Index d : {Index{-2}, Index{2}}) {
      const Index x = lo + (d < 0 ? 0 : 3) + d;
      if (x >= 1 && x <= 16) pts.push_back({x});
    }
    Schedule sched(ctx, a.dist_handle(), pts, a.halo_spec());
    ck.check_eq(sched.n_halo(), std::size_t{0}, ctx.rank(),
                "distance-2 points are not halo-satisfied");
    ck.check_eq(sched.n_unique_offproc(), pts.size(), ctx.rank(),
                "they travel as off-processor uniques");
    std::vector<double> out(pts.size());
    sched.gather(ctx, a, out);
    for (std::size_t k = 0; k < pts.size(); ++k) {
      ck.check_eq(out[k], static_cast<double>(3 * pts[k][0]), ctx.rank(),
                  "fetched value");
    }
  });
}

/// Binding validates the array's halo spec by identity: an array with a
/// different overlap description cannot serve halo-satisfied reads.
TEST(Schedule, HaloAwareBindingRejectsMismatchedSpec) {
  run_checked(2, [](Context& ctx, SpmdChecker& ck) {
    Env env(ctx);
    DistArray<double> a(env, {.name = "A",
                              .domain = IndexDomain::of_extents({8}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {1},
                              .overlap_hi = {1}});
    DistArray<double> c(env, {.name = "C",
                              .domain = IndexDomain::of_extents({8}),
                              .dynamic = true,
                              .initial = DistributionType{block()},
                              .overlap_lo = {2},
                              .overlap_hi = {2}});
    a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
    c.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
    a.exchange_overlap();
    c.exchange_overlap();
    // A boundary neighbour: halo-satisfied under A's spec.
    const Index x = ctx.rank() == 0 ? 5 : 4;
    std::vector<IndexVec> pts{{x}};
    Schedule sched(ctx, a.dist_handle(), pts, a.halo_spec());
    ck.check_eq(sched.n_halo(), std::size_t{1}, ctx.rank(), "halo point");
    std::vector<double> out(1);
    sched.gather(ctx, a, out);  // same spec: fine
    ck.check_eq(out[0], static_cast<double>(x), ctx.rank(), "value");
    try {
      sched.gather(ctx, c, out);
      ck.fail("gather against a different halo spec must throw");
    } catch (const std::logic_error&) {
    }
  });
}

}  // namespace
}  // namespace vf::parti
