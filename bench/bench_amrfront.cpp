// E12 -- asymmetric per-rank halo exchange on a refinement front: the
// family-keyed halo-plan cache must amortize the asymmetric inspector
// (spec-family validation + per-neighbour-spec run lists) exactly the way
// the uniform cache amortizes the symmetric one (bench_halo / E11).
//
//   cold   -- the Env's halo-plan cache is cleared before every timed
//             exchange: each exchange re-validates the reconciled family and
//             re-derives its asymmetric pack/unpack run lists;
//   cached -- family plans are built once per (distribution, family) pair
//             and replayed as memcpy runs plus one pre-counted
//             all-to-all.
//
// Either way the spec exchange itself runs exactly ONCE per rank (at the
// warmup exchange after the asymmetric declaration) -- asserted through
// the spec_exchanges_per_rank counter: reconciliation is per declaration,
// not per exchange, and repeat exchanges must not re-collect widths.
//
// Two shapes, mirroring bench_halo:
//   amrgrid -- (BLOCK, BLOCK) on a 2x2 grid, per-rank widths 1..3 in both
//              dimensions (the refinement front crossing a corner);
//   amrrows -- (BLOCK, :) over a processor line with per-rank widths in
//              the stride-1 dimension: every ghost plane fragments into n
//              short runs, so the plan construction the cold path repays
//              per call is maximal.  CI gates on this shape
//              (cached >= 1.5x cold via ns_per_exchange) plus
//              allocs_per_exchange == 0 and spec_exchanges_per_rank == 1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "vf/msg/spmd.hpp"
#include "vf/rt/dist_array.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

void BM_AmrFrontExchange(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const bool cached = state.range(1) != 0;
  const auto n = static_cast<Index>(state.range(2));
  const int nprocs = static_cast<int>(state.range(3));
  constexpr int kExchanges = 64;

  state.SetLabel(std::string(shape == 0 ? "amrgrid" : "amrrows") +
                 (cached ? "/cached" : "/cold"));

  msg::CommStats stats;
  // Median over iterations, as in bench_halo: whole iterations are
  // outliers under host load and the CI gate needs a robust estimate.
  std::vector<double> iter_seconds;
  std::atomic<std::uint64_t> plan_hits{0};
  std::atomic<std::uint64_t> plan_misses{0};
  std::atomic<std::uint64_t> scratch_allocs{0};
  std::atomic<std::uint64_t> spec_exchanges{0};
  for (auto _ : state) {
    msg::Machine machine(nprocs);
    scratch_allocs = 0;
    spec_exchanges = 0;
    std::atomic<double> secs{0.0};
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx, shape == 0 ? dist::ProcessorArray::grid(2, 2)
                                  : dist::ProcessorArray::line(nprocs));
      const int me = ctx.rank();
      // Per-rank asymmetric widths, 1..3 planes: the refinement front
      // sitting on this rank's side of the grid.
      const Index wl = 1 + (me % 3);
      const Index wh = 1 + ((me * 2 + 1) % 3);
      rt::DistArray<double> a(
          env,
          {.name = "A",
           .domain = IndexDomain::of_extents({n, n}),
           .dynamic = true,
           .initial =
               shape == 0
                   ? dist::DistributionType{dist::block(), dist::block()}
                   : dist::DistributionType{dist::block(), dist::col()},
           .overlap_lo = {wl, shape == 0 ? wh : 0},
           .overlap_hi = {wh, shape == 0 ? wl : 0},
           .overlap_corners = shape == 0,
           .overlap_asymmetric = true});
      a.init([](const IndexVec& i) {
        return static_cast<double>(i[0] + i[1]);
      });
      // Warmup: reconciles the spec family (the ONE allgather) and builds
      // and caches the family plan (the cold rows clear and rebuild it in
      // every timed exchange).  The exchange scratch is warm either way,
      // so the timed loop must not grow it.
      a.exchange_overlap();
      a.reset_exchange_scratch_stats();
      ctx.barrier();
      ctx.stats() = msg::CommStats{};
      const auto t0 = std::chrono::steady_clock::now();
      ctx.barrier();
      for (int e = 0; e < kExchanges; ++e) {
        if (!cached) env.halo_plans().clear();
        a.exchange_overlap();
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        secs.store(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
        plan_hits.store(env.halo_plans().stats().hits);
        plan_misses.store(env.halo_plans().stats().misses);
      }
      scratch_allocs.fetch_add(a.exchange_scratch_stats().grow_allocs);
      spec_exchanges.fetch_add(a.halo_spec_exchanges());
    });
    iter_seconds.push_back(secs.load());
    stats = machine.total_stats();
  }

  std::sort(iter_seconds.begin(), iter_seconds.end());
  const double median = iter_seconds[iter_seconds.size() / 2];
  state.counters["ns_per_exchange"] =
      median * 1e9 / static_cast<double>(kExchanges);
  state.counters["plan_cached"] = cached ? 1 : 0;
  state.counters["halo_plan_hits"] = static_cast<double>(plan_hits.load());
  state.counters["halo_plan_misses"] =
      static_cast<double>(plan_misses.load());
  state.counters["halo_plan_hit_rate"] =
      plan_hits.load() + plan_misses.load() == 0
          ? 0.0
          : static_cast<double>(plan_hits.load()) /
                static_cast<double>(plan_hits.load() + plan_misses.load());
  // Spec-exchange traffic of the last iteration: exactly one per rank
  // (the warmup), never in the timed loop.
  state.counters["spec_exchanges_per_rank"] =
      static_cast<double>(spec_exchanges.load()) / nprocs;
  state.counters["data_msgs_per_exchange"] =
      static_cast<double>(stats.data_messages) / kExchanges;
  state.counters["data_bytes_per_exchange"] =
      static_cast<double>(stats.data_bytes) / kExchanges;
  state.counters["allocs_per_exchange"] =
      static_cast<double>(scratch_allocs.load()) /
      (static_cast<double>(kExchanges) * nprocs);
}

}  // namespace

BENCHMARK(BM_AmrFrontExchange)
    ->ArgNames({"shape", "cached", "n", "P"})
    ->ArgsProduct({{0, 1}, {0, 1}, {512, 1024}, {4}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(13);
