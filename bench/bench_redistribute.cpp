// E4 -- the cost of the DISTRIBUTE statement itself (Sections 2.4 and
// 3.2.2): "At run time, this includes the cost of performing the actual
// data transfers and the cost of maintaining runtime information about the
// current distribution."
//
// Patterns swept:
//   block_to_cyclic1   BLOCK -> CYCLIC(1)      (max scatter)
//   block_to_cyclic8   BLOCK -> CYCLIC(8)      (coarser scatter)
//   shift_section      BLOCK on P(1:P) -> BLOCK on shifted segment sizes
//   bblock_delta       B_BLOCK rebalance moving ~1/8 of the data
//   transpose2d        (:,BLOCK) -> (BLOCK,:)  (the ADI remap)
//   naive_elementwise  BLOCK -> CYCLIC(1) with one message per element --
//                      the aggregation ablation of DESIGN.md section 6
//
// Counters: data_msgs (bounded by P*(P-1) for aggregated patterns),
// moved_frac (fraction of elements that changed processor), modeled_ms.
//   flip_*             repeated DISTRIBUTE flips between two distributions
//                      (the ADI row<->column remap done over and over),
//                      replayed vs cleared before every flip (cold): the
//                      cached path replays memcpy runs and skips the
//                      inspector entirely, so ns_per_flip measures the
//                      amortization the paper's dynamic-distribution
//                      argument depends on.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>

#include "vf/msg/spmd.hpp"
#include "vf/rt/dist_array.hpp"
#include "vf/rt/redist_plan.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

/// Element-wise (unaggregated) BLOCK -> CYCLIC redistribution: ships every
/// moving element as its own (index, value) message.
void naive_redistribute(msg::Context& ctx, Index n) {
  rt::Env env(ctx);
  const IndexDomain dom = IndexDomain::of_extents({n});
  const dist::Distribution from(dom, {dist::block()}, env.whole());
  const dist::Distribution to(dom, {dist::cyclic(1)}, env.whole());
  const int me = ctx.rank();

  std::vector<double> old_local(
      static_cast<std::size_t>(from.local_size(me)));
  const auto old_layout = from.layout_for(me);
  from.for_owned(me, [&](const IndexVec& i) {
    old_local[static_cast<std::size_t>(from.local_offset(old_layout, i))] =
        static_cast<double>(i[0]);
  });

  // Count how many elements this rank will receive from elsewhere.
  std::size_t expected = 0;
  to.for_owned(me, [&](const IndexVec& i) {
    if (from.owner_rank(i) != me) ++expected;
  });

  struct Wire {
    Index idx;
    double val;
  };
  constexpr int kTag = 99;
  from.for_owned(me, [&](const IndexVec& i) {
    const int dest = to.owner_rank(i);
    if (dest == me) return;
    const Wire w{i[0],
                 old_local[static_cast<std::size_t>(
                     from.local_offset(old_layout, i))]};
    ctx.send_value(dest, kTag, w);
  });

  std::vector<double> new_local(static_cast<std::size_t>(to.local_size(me)));
  const auto new_layout = to.layout_for(me);
  for (std::size_t k = 0; k < expected; ++k) {
    const auto w = ctx.recv_value<Wire>(msg::kAnySource, kTag);
    new_local[static_cast<std::size_t>(
        to.local_offset(new_layout, {w.idx}))] = w.val;
  }
  benchmark::DoNotOptimize(new_local.data());
  ctx.barrier();
}

void BM_Redistribute(benchmark::State& state) {
  const int pattern = static_cast<int>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  const int nprocs = static_cast<int>(state.range(2));
  const msg::CostModel cm{};

  static const char* kNames[] = {"block_to_cyclic1", "block_to_cyclic8",
                                 "shift_section",    "bblock_delta",
                                 "transpose2d",      "naive_elementwise"};
  state.SetLabel(kNames[pattern]);

  msg::CommStats stats;
  for (auto _ : state) {
    msg::Machine machine(nprocs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      if (pattern == 5) {
        naive_redistribute(ctx, n);
        return;
      }
      rt::Env env(ctx);
      if (pattern == 4) {
        const auto side = static_cast<Index>(std::llround(std::sqrt(
            static_cast<double>(n))));
        rt::DistArray<double> a(
            env, {.name = "A",
                  .domain = IndexDomain::of_extents({side, side}),
                  .dynamic = true,
                  .initial = {{dist::col(), dist::block()}}});
        a.fill(1.0);
        ctx.barrier();
        if (ctx.rank() == 0) machine.reset_stats();
        ctx.barrier();
        a.distribute(dist::DistributionType{dist::block(), dist::col()});
        return;
      }
      rt::DistArray<double> a(env, {.name = "A",
                                    .domain = IndexDomain::of_extents({n}),
                                    .dynamic = true,
                                    .initial = {{dist::block()}}});
      a.fill(1.0);
      ctx.barrier();
      if (ctx.rank() == 0) machine.reset_stats();
      ctx.barrier();
      switch (pattern) {
        case 0:
          a.distribute(dist::DistributionType{dist::cyclic(1)});
          break;
        case 1:
          a.distribute(dist::DistributionType{dist::cyclic(8)});
          break;
        case 2: {
          // Shift segment boundaries by n/(4P): a small-delta remap.
          std::vector<Index> sizes(static_cast<std::size_t>(nprocs),
                                   n / nprocs);
          const Index delta = std::max<Index>(1, n / (4 * nprocs));
          sizes.front() += delta;
          sizes.back() -= delta;
          a.distribute(dist::DistributionType{dist::s_block(sizes)});
          break;
        }
        case 3: {
          // B_BLOCK rebalance moving roughly 1/8 of the array.
          std::vector<Index> bounds;
          for (int p = 1; p <= nprocs; ++p) {
            bounds.push_back(std::min<Index>(
                n, p * (n / nprocs) + (p < nprocs ? n / 8 : 0)));
          }
          a.distribute(dist::DistributionType{dist::b_block(bounds)});
          break;
        }
        default:
          break;
      }
    });
    stats = machine.total_stats();
  }

  const auto elements = static_cast<double>(n);
  state.counters["data_msgs"] = static_cast<double>(stats.data_messages);
  state.counters["pair_bound"] = static_cast<double>(nprocs) * (nprocs - 1);
  state.counters["moved_frac"] =
      static_cast<double>(stats.data_bytes) / sizeof(double) / elements;
  state.counters["modeled_ms"] = stats.modeled_data_us(cm) / 1000.0;
}

/// Repeated-flip benchmark: DISTRIBUTE back and forth between two
/// distributions many times on one machine, measuring steady-state
/// ns/flip.  `cached == 0` clears BOTH the plan cache and the descriptor
/// registry before every timed flip, so each flip re-runs descriptor
/// construction (owner-table copy + DimMap build) and the run-construction
/// inspector -- the per-statement cost the paper's Section 3.2.2 charges a
/// naive runtime.  `cached == 1` interns descriptors (each flip resolves the
/// target via a registry hash hit) and replays plans keyed on the
/// (old, new) handle-identity pair.  The gap matters most for
/// flip_indirect, where descriptor construction used to dominate and
/// made plan caching alone net-neutral (ROADMAP).
void BM_RedistributeFlip(benchmark::State& state) {
  const int pattern = static_cast<int>(state.range(0));
  const bool cached = state.range(1) != 0;
  const auto n = static_cast<Index>(state.range(2));
  const int nprocs = static_cast<int>(state.range(3));
  constexpr int kFlips = 10;

  static const char* kNames[] = {"flip_block_cyclic1", "flip_transpose2d",
                                 "flip_indirect"};
  state.SetLabel(std::string(kNames[pattern]) +
                 (cached ? "/cached" : "/cold"));

  msg::CommStats stats;
  double total_seconds = 0;
  std::int64_t total_flips = 0;
  std::atomic<std::uint64_t> reg_hits{0};
  std::atomic<std::uint64_t> reg_misses{0};
  std::atomic<std::uint64_t> reg_size{0};
  std::atomic<std::uint64_t> plan_hits{0};
  std::atomic<std::uint64_t> plan_misses{0};
  std::atomic<std::uint64_t> plan_bytes{0};
  for (auto _ : state) {
    msg::Machine machine(nprocs);
    std::atomic<double> secs{0.0};
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      dist::DistributionType ta;
      dist::DistributionType tb;
      IndexDomain dom = IndexDomain::of_extents({n});
      switch (pattern) {
        case 0:
          ta = {dist::block()};
          tb = {dist::cyclic(1)};
          break;
        case 1: {
          const auto side = static_cast<Index>(
              std::llround(std::sqrt(static_cast<double>(n))));
          dom = IndexDomain::of_extents({side, side});
          ta = {dist::col(), dist::block()};
          tb = {dist::block(), dist::col()};
          break;
        }
        default: {
          std::vector<int> oa(static_cast<std::size_t>(n));
          std::vector<int> ob(static_cast<std::size_t>(n));
          for (Index k = 0; k < n; ++k) {
            oa[static_cast<std::size_t>(k)] =
                static_cast<int>((k * 7 + 1) % nprocs);
            ob[static_cast<std::size_t>(k)] =
                static_cast<int>((k * 5 + 3) % nprocs);
          }
          ta = {dist::indirect(std::move(oa))};
          tb = {dist::indirect(std::move(ob))};
          break;
        }
      }
      rt::DistArray<double> a(env, {.name = "A",
                                    .domain = dom,
                                    .dynamic = true,
                                    .initial = ta});
      a.fill(1.0);
      // Warmup round trip: builds both plans (the cached rows replay
      // them).
      a.distribute(tb);
      const dist::DistHandle hb = a.dist_handle();
      a.distribute(ta);
      const dist::DistHandle ha = a.dist_handle();
      // Each rank zeroes its OWN counters between two barriers: no rank
      // ever writes another rank's (non-atomic) stats concurrently.
      ctx.barrier();
      ctx.stats() = msg::CommStats{};
      const auto t0 = std::chrono::steady_clock::now();
      ctx.barrier();
      for (int f = 0; f < kFlips; ++f) {
        if (!cached) {
          env.registry().clear();
          a.clear_redist_plans();
        }
        a.distribute(f % 2 == 0 ? tb : ta);
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        secs.store(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
        reg_hits.store(env.registry().stats().hits);
        reg_misses.store(env.registry().stats().misses);
        reg_size.store(env.registry().size());
        plan_hits.store(a.redist_plan_hits());
        plan_misses.store(a.redist_plan_misses());
        const dist::IndexVec none =
            dist::IndexVec::filled(dom.rank(), 0);
        plan_bytes.store(
            rt::build_redist_plan(*ha, *hb, 0, nprocs, none, none)
                .footprint_bytes() +
            rt::build_redist_plan(*hb, *ha, 0, nprocs, none, none)
                .footprint_bytes());
      }
    });
    total_seconds += secs.load();
    total_flips += kFlips;
    stats = machine.total_stats();
  }

  state.counters["ns_per_flip"] =
      total_seconds * 1e9 / static_cast<double>(total_flips);
  state.counters["plan_cached"] = cached ? 1 : 0;
  // Descriptor-registry traffic on rank 0 of the last run: a healthy
  // cached flip loop shows hits ~= flips (every DISTRIBUTE resolves its
  // target descriptor by hash lookup) and a small constant miss count.
  state.counters["registry_hits"] = static_cast<double>(reg_hits.load());
  state.counters["registry_misses"] = static_cast<double>(reg_misses.load());
  state.counters["registry_hit_rate"] =
      reg_hits.load() + reg_misses.load() == 0
          ? 0.0
          : static_cast<double>(reg_hits.load()) /
                static_cast<double>(reg_hits.load() + reg_misses.load());
  state.counters["registry_interned"] = static_cast<double>(reg_size.load());
  // Plan-cache traffic on rank 0 of the last run: a cached loop misses
  // only on the warmup round trip's two cold builds and hits on every
  // timed flip.
  state.counters["redist_plan_hits"] = static_cast<double>(plan_hits.load());
  state.counters["redist_plan_misses"] =
      static_cast<double>(plan_misses.load());
  // Bytes rank 0 holds for the flip's two plans (A -> B and B -> A),
  // built the same way whether or not the cache is on.
  state.counters["plan_footprint_bytes"] =
      static_cast<double>(plan_bytes.load());
  state.counters["data_msgs_per_flip"] =
      static_cast<double>(stats.data_messages) / kFlips;
  state.counters["data_bytes_per_flip"] =
      static_cast<double>(stats.data_bytes) / kFlips;
  state.counters["ctl_msgs_per_flip"] =
      static_cast<double>(stats.ctl_messages) / kFlips;
}

}  // namespace

BENCHMARK(BM_RedistributeFlip)
    ->ArgNames({"pattern", "cached", "n", "P"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {1 << 14, 1 << 17}, {4}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK(BM_Redistribute)
    ->ArgNames({"pattern", "n", "P"})
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1 << 14, 1 << 17, 1 << 20}, {4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// The unaggregated ablation is quadratic in messages: keep it to the small
// size so the bench suite stays fast.
BENCHMARK(BM_Redistribute)
    ->ArgNames({"pattern", "n", "P"})
    ->Args({5, 1 << 14, 4})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
