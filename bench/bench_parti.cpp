// E7 -- inspector/executor amortization (Section 3.2, PARTI [15]): the
// inspector (schedule construction, including translation) is paid once
// and reused across executor calls.  Sweeping the reuse count shows the
// per-access cost converging to the pure executor cost; the
// rebuild-every-time column is the strawman a compiler without schedule
// reuse would produce.
//
// BM_ExecutorReplay and BM_ExecutorSteadyStateAllocs measure the replay
// discipline itself: a warmed-up executor call must beat the
// rebuild-per-call path on wall time (CI gates warm >= 1.5x cold) and
// must perform zero heap allocations in the exchange-scratch facility
// (allocs_per_replay == 0 for gather, scatter and scatter_add; CI-gated).
//
// BM_ExecutorRowGather is the static gather-lines strategy of the Section 4
// ADI: a (:, BLOCK) array whose rows are gathered cyclically, rank r
// taking rows r+1, r+1+P, ..., then scattered back.  Every served row
// crosses the owner's storage at a stride of n elements, which the
// storage side holds as one 2-D section per peer.  It reports the replay
// time, the steady-state allocations and the bytes one binding holds
// (CI-gated: allocs == 0, footprint far below one offset per element).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>

#include "vf/msg/spmd.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/parti/translation_table.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

constexpr int kProcs = 4;
constexpr Index kN = 1 << 16;
constexpr int kRequests = 4096;

std::vector<IndexVec> random_points(int rank, Index n, int count) {
  std::mt19937 rng(777 + rank);
  std::uniform_int_distribution<Index> pick(1, n);
  std::vector<IndexVec> pts;
  pts.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) pts.push_back({pick(rng)});
  return pts;
}

void BM_GatherWithScheduleReuse(benchmark::State& state) {
  const int reuse = static_cast<int>(state.range(0));
  const msg::CostModel cm{};

  msg::CommStats stats;
  for (auto _ : state) {
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> a(env, {.name = "A",
                                    .domain = IndexDomain::of_extents({kN}),
                                    .dynamic = true,
                                    .initial = {{dist::block()}}});
      a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
      auto pts = random_points(ctx.rank(), kN, kRequests);
      ctx.barrier();
      if (ctx.rank() == 0) machine.reset_stats();
      ctx.barrier();
      parti::Schedule sched(ctx, a.dist_handle(), pts);  // inspector, once
      std::vector<double> out(pts.size());
      for (int r = 0; r < reuse; ++r) {
        sched.gather(ctx, a, out);  // executor, `reuse` times
      }
      benchmark::DoNotOptimize(out.data());
    });
    stats = machine.total_stats();
  }

  state.counters["reuse"] = reuse;
  state.counters["modeled_us_per_gather"] =
      stats.modeled_data_us(cm) / reuse;
  state.counters["bytes_per_gather"] =
      static_cast<double>(stats.data_bytes) / reuse;
}

void BM_GatherRebuildEveryTime(benchmark::State& state) {
  const int repeats = static_cast<int>(state.range(0));
  const msg::CostModel cm{};

  msg::CommStats stats;
  for (auto _ : state) {
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> a(env, {.name = "A",
                                    .domain = IndexDomain::of_extents({kN}),
                                    .dynamic = true,
                                    .initial = {{dist::block()}}});
      a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
      auto pts = random_points(ctx.rank(), kN, kRequests);
      ctx.barrier();
      if (ctx.rank() == 0) machine.reset_stats();
      ctx.barrier();
      std::vector<double> out(pts.size());
      for (int r = 0; r < repeats; ++r) {
        parti::Schedule sched(ctx, a.dist_handle(), pts);  // every time
        sched.gather(ctx, a, out);
      }
      benchmark::DoNotOptimize(out.data());
    });
    stats = machine.total_stats();
  }

  state.counters["modeled_us_per_gather"] =
      stats.modeled_data_us(cm) / repeats;
  state.counters["bytes_per_gather"] =
      static_cast<double>(stats.data_bytes) / repeats;
}

/// Warm executor replay (persistent schedule + scratch) vs cold
/// rebuild-per-call (inspector + first-touch translation + fresh scratch
/// every time).  ns_per_call medians feed the CI cached-vs-cold executor
/// timing gate.
void BM_ExecutorReplay(benchmark::State& state) {
  // mode 0 = cold rebuild-per-call, 1 = warm replay, 2 = warm replay with
  // the recv watchdog armed (the containment layer's overhead
  // configuration: every blocking wait carries a deadline).
  const int mode = static_cast<int>(state.range(0));
  const bool warm = mode != 0;
  constexpr int kCalls = 24;
  const msg::CostModel cm{};
  state.SetLabel(mode == 0   ? "executor/cold"
                 : mode == 1 ? "executor/warm"
                             : "executor/warm_wd");

  std::vector<double> iter_seconds;
  std::uint64_t fence_trips = 0;
  std::uint64_t faults_injected = 0;
  std::atomic<std::uint64_t> footprint{0};
  for (auto _ : state) {
    footprint = 0;
    msg::Machine machine(kProcs, cm);
    if (mode == 2) {
      machine.set_recv_watchdog(std::chrono::milliseconds(30000));
    }
    std::atomic<double> secs{0.0};
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> a(env, {.name = "A",
                                    .domain = IndexDomain::of_extents({kN}),
                                    .dynamic = true,
                                    .initial = {{dist::block()}}});
      a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
      auto pts = random_points(ctx.rank(), kN, kRequests);
      parti::Schedule sched(ctx, a.dist_handle(), pts);
      std::vector<double> out(pts.size());
      sched.gather(ctx, a, out);  // warm the binding and the scratch
      ctx.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      ctx.barrier();
      for (int c = 0; c < kCalls; ++c) {
        if (warm) {
          sched.gather(ctx, a, out);
        } else {
          parti::Schedule fresh(ctx, a.dist_handle(), pts);
          fresh.gather(ctx, a, out);
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        secs.store(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
      }
      footprint.fetch_add(sched.binding_footprint_bytes());
      benchmark::DoNotOptimize(out.data());
    });
    iter_seconds.push_back(secs.load());
    fence_trips = machine.fence_trips();
    faults_injected = machine.faults_injected();
  }
  std::sort(iter_seconds.begin(), iter_seconds.end());
  const double median = iter_seconds[iter_seconds.size() / 2];
  state.counters["ns_per_call"] = median * 1e9 / kCalls;
  state.counters["warm"] = warm ? 1 : 0;
  state.counters["watchdog_armed"] = mode == 2 ? 1 : 0;
  state.counters["fence_trips"] = static_cast<double>(fence_trips);
  state.counters["faults_injected"] = static_cast<double>(faults_injected);
  // Bytes one rank's binding holds for the random points (mean over
  // ranks).
  state.counters["footprint_bytes"] =
      static_cast<double>(footprint.load()) / kProcs;
}

/// Steady-state allocation audit of the executor replay paths: after one
/// warmup call per executor, kReplays replays of each must not grow the
/// schedule's exchange scratch at all.  Counters are machine-wide sums,
/// so allocs_per_replay_* == 0 certifies every rank.
void BM_ExecutorSteadyStateAllocs(benchmark::State& state) {
  constexpr int kReplays = 24;
  const msg::CostModel cm{};
  std::atomic<std::uint64_t> grow_gather{0}, grow_scatter{0},
      grow_scatter_add{0}, prepares{0};

  for (auto _ : state) {
    grow_gather = grow_scatter = grow_scatter_add = prepares = 0;
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> a(env, {.name = "A",
                                    .domain = IndexDomain::of_extents({kN}),
                                    .dynamic = true,
                                    .initial = {{dist::block()}}});
      a.init([](const IndexVec& i) { return static_cast<double>(i[0]); });
      auto pts = random_points(ctx.rank(), kN, kRequests);
      parti::Schedule sched(ctx, a.dist_handle(), pts);
      std::vector<double> out(pts.size());
      std::vector<double> vals(pts.size(), 1.0);
      // Warmup: one call of each executor grows the lanes to their
      // steady-state envelope.
      sched.gather(ctx, a, out);
      sched.scatter(ctx, vals, a);
      sched.scatter_add(ctx, vals, a);

      auto audit = [&](std::atomic<std::uint64_t>& sink, auto&& call) {
        sched.reset_scratch_stats();
        for (int r = 0; r < kReplays; ++r) call();
        sink.fetch_add(sched.scratch_stats().grow_allocs);
        prepares.fetch_add(sched.scratch_stats().prepares);
      };
      audit(grow_gather, [&] { sched.gather(ctx, a, out); });
      audit(grow_scatter, [&] { sched.scatter(ctx, vals, a); });
      audit(grow_scatter_add, [&] { sched.scatter_add(ctx, vals, a); });
      benchmark::DoNotOptimize(out.data());
    });
  }
  const double denom = static_cast<double>(kReplays) * kProcs;
  state.counters["allocs_per_replay_gather"] =
      static_cast<double>(grow_gather.load()) / denom;
  state.counters["allocs_per_replay_scatter"] =
      static_cast<double>(grow_scatter.load()) / denom;
  state.counters["allocs_per_replay_scatter_add"] =
      static_cast<double>(grow_scatter_add.load()) / denom;
  state.counters["scratch_prepares"] =
      static_cast<double>(prepares.load());
}

constexpr Index kRowN = 512;

void BM_ExecutorRowGather(benchmark::State& state) {
  constexpr int kCalls = 16;
  const msg::CostModel cm{};
  state.SetLabel("executor/row_gather");
  std::vector<double> iter_seconds;
  std::atomic<std::uint64_t> grow_gather{0}, grow_scatter{0},
      grow_scatter_add{0}, footprint{0};
  for (auto _ : state) {
    grow_gather = grow_scatter = grow_scatter_add = footprint = 0;
    msg::Machine machine(kProcs, cm);
    std::atomic<double> secs{0.0};
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> a(
          env, {.name = "V",
                .domain = IndexDomain::of_extents({kRowN, kRowN}),
                .initial = {{dist::col(), dist::block()}}});
      a.init([](const IndexVec& i) {
        return static_cast<double>(i[0] * kRowN + i[1]);
      });
      std::vector<IndexVec> pts;
      for (Index i = 1 + ctx.rank(); i <= kRowN; i += ctx.nprocs()) {
        for (Index j = 1; j <= kRowN; ++j) pts.push_back({i, j});
      }
      parti::Schedule sched(ctx, a.dist_handle(), pts);
      std::vector<double> buf(pts.size());
      sched.gather(ctx, a, buf);  // warm the binding and the scratch
      sched.scatter(ctx, buf, a);
      sched.scatter_add(ctx, buf, a);
      ctx.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      ctx.barrier();
      for (int c = 0; c < kCalls; ++c) {
        sched.gather(ctx, a, buf);
        sched.scatter(ctx, buf, a);
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        secs.store(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
      }
      auto audit = [&](std::atomic<std::uint64_t>& sink, auto&& call) {
        sched.reset_scratch_stats();
        for (int r = 0; r < kCalls; ++r) call();
        sink.fetch_add(sched.scratch_stats().grow_allocs);
      };
      audit(grow_gather, [&] { sched.gather(ctx, a, buf); });
      audit(grow_scatter, [&] { sched.scatter(ctx, buf, a); });
      audit(grow_scatter_add, [&] { sched.scatter_add(ctx, buf, a); });
      footprint.fetch_add(sched.binding_footprint_bytes());
      benchmark::DoNotOptimize(buf.data());
    });
    iter_seconds.push_back(secs.load());
  }
  std::sort(iter_seconds.begin(), iter_seconds.end());
  const double median = iter_seconds[iter_seconds.size() / 2];
  // One call is one gather or one scatter.
  state.counters["ns_per_call"] = median * 1e9 / (2 * kCalls);
  const double denom = static_cast<double>(kCalls) * kProcs;
  state.counters["allocs_per_replay_gather"] =
      static_cast<double>(grow_gather.load()) / denom;
  state.counters["allocs_per_replay_scatter"] =
      static_cast<double>(grow_scatter.load()) / denom;
  state.counters["allocs_per_replay_scatter_add"] =
      static_cast<double>(grow_scatter_add.load()) / denom;
  // Bytes one rank's binding cache holds for the array (mean over ranks).
  state.counters["footprint_bytes"] =
      static_cast<double>(footprint.load()) / kProcs;
}

void BM_TranslationTableDereference(benchmark::State& state) {
  const msg::CostModel cm{};
  msg::CommStats stats;
  for (auto _ : state) {
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      const IndexDomain dom = IndexDomain::of_extents({kN});
      const dist::Distribution d(dom, {dist::cyclic(3)}, env.whole());
      parti::TranslationTable table(ctx, d);
      std::mt19937 rng(55 + ctx.rank());
      std::uniform_int_distribution<Index> pick(0, kN - 1);
      std::vector<Index> queries;
      for (int k = 0; k < kRequests; ++k) queries.push_back(pick(rng));
      ctx.barrier();
      if (ctx.rank() == 0) machine.reset_stats();
      ctx.barrier();
      auto owners = table.dereference(ctx, queries);
      benchmark::DoNotOptimize(owners.data());
    });
    stats = machine.total_stats();
  }
  state.counters["bytes_per_query"] =
      static_cast<double>(stats.data_bytes) / (kRequests * kProcs);
}

}  // namespace

BENCHMARK(BM_GatherWithScheduleReuse)
    ->ArgNames({"reuse"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

BENCHMARK(BM_GatherRebuildEveryTime)
    ->ArgNames({"repeats"})
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

BENCHMARK(BM_TranslationTableDereference)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

BENCHMARK(BM_ExecutorReplay)
    ->ArgNames({"mode"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(9);

BENCHMARK(BM_ExecutorSteadyStateAllocs)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(BM_ExecutorRowGather)->Unit(benchmark::kMillisecond)->Iterations(5);
