// E11 -- the halo-plan cache: ghost (overlap-area) exchange as a cached
// run-based plan, mirroring what E4 (bench_redistribute) shows for
// DISTRIBUTE.
//
//   cold   -- the Env's halo-plan cache is cleared before every timed
//             exchange: each exchange re-derives its neighbour analysis and
//             pack/unpack run lists before moving a single byte (what the
//             pre-halo-subsystem runtime did on every call);
//   cached -- plans are built once per (distribution, spec) pair and
//             replayed: an exchange is memcpy runs plus one pre-counted
//             all-to-all.
//
// Two shapes:
//   halo9    -- width-2 overlap WITH corners on a (BLOCK, BLOCK) grid:
//               the 9-point stencil of Section 4, widened one plane
//               (12 messages per exchange on 2x2);
//   halorows -- width-2 overlap on (BLOCK, :) over a processor line: the
//               ghost planes are thin in the stride-1 storage dimension,
//               so every face fragments into n short runs -- the
//               run-list construction the cold path repays per call is
//               maximal while only 2 messages per rank travel.  This is
//               the configuration CI gates on (cached >= 1.5x cold via
//               ns_per_exchange).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "vf/msg/spmd.hpp"
#include "vf/rt/dist_array.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

void BM_HaloExchange(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const bool cached = state.range(1) != 0;
  const auto n = static_cast<Index>(state.range(2));
  const int nprocs = static_cast<int>(state.range(3));
  const bool watchdog = state.range(4) != 0;
  const auto transport = state.range(5) != 0 ? msg::TransportKind::SharedMemory
                                             : msg::TransportKind::Mailbox;
  const bool split = state.range(6) != 0;
  const bool lockstep = state.range(7) != 0;
  constexpr int kExchanges = 64;

  state.SetLabel(std::string(shape == 0 ? "halo9" : "halorows") +
                 (cached ? "/cached" : "/cold") + (watchdog ? "/wd" : "") +
                 (lockstep ? "/lock" : "") + "/" + msg::to_string(transport) +
                 (split ? "/split" : "/blocking"));

  msg::CommStats stats;
  // Median over iterations: the threaded transport makes whole iterations
  // outliers under host load, and the CI gate needs a robust estimate.
  std::vector<double> iter_seconds;
  std::atomic<std::uint64_t> plan_hits{0};
  std::atomic<std::uint64_t> plan_misses{0};
  std::atomic<std::uint64_t> scratch_allocs{0};
  std::uint64_t fence_trips = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t lockstep_mismatches = 0;
  for (auto _ : state) {
    msg::Machine machine(nprocs, {}, transport);
    // Armed watchdog = the containment layer's overhead configuration:
    // every blocking recv and barrier waits with a deadline instead of
    // indefinitely.  The deadline is far above any healthy exchange, so
    // a trip means a real hang; the CI gate proves the armed cached
    // replay still clearly beats the cold path.
    if (watchdog) {
      machine.set_recv_watchdog(std::chrono::milliseconds(30000));
    }
    // Armed lockstep = the divergence-checker's overhead configuration:
    // every collective folds its signature into the per-rank hash chain
    // and cross-checks its peers' rings.  A healthy loop records zero
    // mismatches, and the CI gate proves the armed cached replay still
    // clearly beats the cold path with zero scratch growth.
    if (lockstep) machine.set_lockstep_check(true);
    scratch_allocs = 0;
    std::atomic<double> secs{0.0};
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      int q = 1;
      while (q * q < nprocs) ++q;  // P is a perfect square for halo9 rows
      rt::Env env(ctx, shape == 0
                           ? dist::ProcessorArray::grid(q, q)
                           : dist::ProcessorArray::line(nprocs));
      rt::DistArray<double> a(
          env,
          {.name = "A",
           .domain = IndexDomain::of_extents({n, n}),
           .dynamic = true,
           .initial =
               shape == 0
                   ? dist::DistributionType{dist::block(), dist::block()}
                   : dist::DistributionType{dist::block(), dist::col()},
           .overlap_lo = {2, shape == 0 ? 2 : 0},
           .overlap_hi = {2, shape == 0 ? 2 : 0},
           .overlap_corners = shape == 0});
      a.init([](const IndexVec& i) {
        return static_cast<double>(i[0] + i[1]);
      });
      // Warmup: builds (and caches) the plan; the cold rows clear it and
      // rebuild inside every timed exchange.  The exchange scratch is warm
      // either way, so the timed loop must not grow it
      // (allocs_per_exchange == 0 in steady state).
      a.exchange_overlap();
      a.reset_exchange_scratch_stats();
      ctx.barrier();
      ctx.stats() = msg::CommStats{};
      const auto t0 = std::chrono::steady_clock::now();
      ctx.barrier();
      // The split rows run the identical byte movement through the
      // begin/end pair back-to-back: the delta against the blocking rows
      // is the split-phase bookkeeping itself, and under the shm
      // transport the zero-copy hand-off (no compute is overlapped here
      // -- that methodology row lives in bench_smoothing).
      for (int e = 0; e < kExchanges; ++e) {
        if (!cached) env.halo_plans().clear();
        if (split) {
          a.begin_exchange_overlap();
          a.end_exchange_overlap();
        } else {
          a.exchange_overlap();
        }
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
    });
    iter_seconds.push_back(secs.load());
    stats = machine.total_stats();
    fence_trips = machine.fence_trips();
    faults_injected = machine.faults_injected();
    lockstep_mismatches = machine.lockstep().mismatches();
  }

  std::sort(iter_seconds.begin(), iter_seconds.end());
  const double median = iter_seconds[iter_seconds.size() / 2];
  state.counters["ns_per_exchange"] =
      median * 1e9 / static_cast<double>(kExchanges);
  state.counters["plan_cached"] = cached ? 1 : 0;
  // Halo-plan cache traffic on rank 0 of the last run: the cached loop
  // shows hits == exchanges after the warmup's single miss.
  state.counters["halo_plan_hits"] = static_cast<double>(plan_hits.load());
  state.counters["halo_plan_misses"] =
      static_cast<double>(plan_misses.load());
  state.counters["halo_plan_hit_rate"] =
      plan_hits.load() + plan_misses.load() == 0
          ? 0.0
          : static_cast<double>(plan_hits.load()) /
                static_cast<double>(plan_hits.load() + plan_misses.load());
  state.counters["data_msgs_per_exchange"] =
      static_cast<double>(stats.data_messages) / kExchanges;
  state.counters["data_bytes_per_exchange"] =
      static_cast<double>(stats.data_bytes) / kExchanges;
  // Machine-wide scratch growth of the last iteration's timed loop:
  // zero after warmup, cold or cached (the scratch outlives the plan).
  state.counters["allocs_per_exchange"] =
      static_cast<double>(scratch_allocs.load()) /
      (static_cast<double>(kExchanges) * nprocs);
  // Containment-layer health of the last iteration: a healthy exchange
  // loop must never trip the fence or inject anything (CI-gated zeros).
  state.counters["watchdog_armed"] = watchdog ? 1 : 0;
  state.counters["fence_trips"] = static_cast<double>(fence_trips);
  state.counters["faults_injected"] = static_cast<double>(faults_injected);
  state.counters["transport_shm"] =
      transport == msg::TransportKind::SharedMemory ? 1 : 0;
  state.counters["split_phase"] = split ? 1 : 0;
  state.counters["lockstep_armed"] = lockstep ? 1 : 0;
  state.counters["lockstep_mismatches"] =
      static_cast<double>(lockstep_mismatches);
}

}  // namespace

BENCHMARK(BM_HaloExchange)
    ->ArgNames({"shape", "cached", "n", "P", "wd", "tr", "split", "lock"})
    ->ArgsProduct({{0, 1}, {0, 1}, {512, 1024}, {4}, {0}, {0}, {0}, {0}})
    // Watchdog-armed cached replays: the fence-overhead configuration the
    // CI gate compares against the cold path.
    ->ArgsProduct({{0, 1}, {1}, {512, 1024}, {4}, {1}, {0}, {0}, {0}})
    // Lockstep-armed cached replays: the divergence-checker-overhead
    // configuration (CI gates armed cached >= 1.5x cold on halorows with
    // zero mismatches and zero scratch growth).
    ->ArgsProduct({{0, 1}, {1}, {512, 1024}, {4}, {0}, {0}, {0}, {1}})
    // Transport matrix: the same cached exchange over the framed mailbox
    // and the zero-copy shared-memory transport, blocking and split-phase
    // (CI gates shm >= 1.2x mailbox on ns_per_exchange here).
    ->ArgsProduct({{0, 1}, {1}, {512}, {4, 16}, {0}, {0, 1}, {0, 1}, {0}})
    // Scale grid for the CI bench job: thin-plane rows at P in {16, 64}.
    ->ArgsProduct({{1}, {1}, {256}, {16, 64}, {0}, {0, 1}, {0, 1}, {0}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(13);
