// E2 -- the Figure 1 ADI claim: with dynamic redistribution both sweeps
// run with zero communication; "all the communication is confined to the
// redistribution operation", which can be "implemented by an efficient
// pre-compiled routine".  Static layouts either communicate during the
// y-sweep (gathered lines) or keep a second, transposed copy of the array
// ("This approach, clearly, wastes storage space").
//
// Counters per (strategy, N):
//   data_msgs_iter / data_kb_iter -- communication per ADI iteration
//   modeled_us_iter               -- modeled communication per iteration
// Expected shape: dynamic-redistribution and static-two-copies move the
// same volume (the whole array, twice per iteration), but the dynamic
// version needs no second array; static-gather-lines moves a comparable
// volume with additional inspector traffic on the first iteration.
//
// The line-solve rows isolate the sweeps' compute, single-threaded:
//   BM_Tridiag/512        -- apps::tridiag on 128 lines of 512, the
//                            per-rank share of one vfbench `adi` sweep
//   BM_TridiagDivide/512  -- the same lines through the division form
//                            tridiag used before its factor table (a
//                            scratch vector per call, two divisions per
//                            element on dependency chains); kept here
//                            only as the baseline
// Both report ns_per_element; CI gates Tridiag/TridiagDivide <= 0.75.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "vf/apps/adi_sim.hpp"
#include "vf/apps/kernels.hpp"
#include "vf/msg/spmd.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)

void BM_Adi(benchmark::State& state) {
  const auto strat = static_cast<apps::AdiStrategy>(state.range(0));
  const auto n = static_cast<dist::Index>(state.range(1));
  constexpr int kProcs = 4;
  constexpr int kIters = 3;
  const msg::CostModel cm{};

  msg::CommStats stats;
  double checksum = 0.0;
  std::uint64_t halo_hits = 0;
  std::uint64_t halo_misses = 0;
  for (auto _ : state) {
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      auto r = apps::run_adi(ctx, {.nx = n, .ny = n, .iterations = kIters},
                             strat);
      if (ctx.rank() == 0) {
        checksum = r.checksum;
        halo_hits = r.halo_plan_hits;
        halo_misses = r.halo_plan_misses;
      }
    });
    stats = machine.total_stats();
  }
  benchmark::DoNotOptimize(checksum);

  state.SetLabel(apps::to_string(strat));
  state.counters["data_msgs_iter"] =
      static_cast<double>(stats.data_messages) / kIters;
  state.counters["data_kb_iter"] =
      static_cast<double>(stats.data_bytes) / 1024.0 / kIters;
  state.counters["modeled_us_iter"] = stats.modeled_data_us(cm) / kIters;
  // Halo-plan cache traffic (machine-wide): 0 for every current strategy
  // -- ADI sweeps need no ghost planes -- but emitted so BENCH json diffs
  // cover every halo consumer uniformly.
  state.counters["halo_plan_hits"] = static_cast<double>(halo_hits);
  state.counters["halo_plan_misses"] = static_cast<double>(halo_misses);
}

/// The division-form Thomas solve apps::tridiag used before its factor
/// table: allocates and fills c[] per call and divides by m on both the
/// factor chain and the right-hand-side chain.
void tridiag_divide(std::span<double> rhs, double a, double b) {
  const std::size_t n = rhs.size();
  if (n == 0) return;
  std::vector<double> c(n);
  c[0] = a / b;
  rhs[0] /= b;
  for (std::size_t k = 1; k < n; ++k) {
    const double m = b - a * c[k - 1];
    c[k] = a / m;
    rhs[k] = (rhs[k] - a * rhs[k - 1]) / m;
  }
  for (std::size_t k = n - 1; k-- > 0;) {
    rhs[k] -= c[k] * rhs[k + 1];
  }
}

/// Solves 128 lines of length range(0) one at a time, each copied from a
/// fixed right-hand side first (as a sweep gathers its line), so every
/// iteration solves the same values.
template <void (*Solve)(std::span<double>, double, double)>
void solve_lines(benchmark::State& state) {
  constexpr std::size_t kLines = 128;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> rhs(kLines * n);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    rhs[k] = static_cast<double>((k * 7919) % 1000) / 1000.0 - 0.5;
  }
  std::vector<double> line(n);
  for (auto _ : state) {
    for (std::size_t l = 0; l < kLines; ++l) {
      std::copy_n(rhs.begin() + static_cast<std::ptrdiff_t>(l * n), n,
                  line.begin());
      Solve(line, -1.0, 4.0);
      benchmark::DoNotOptimize(line.data());
      benchmark::ClobberMemory();
    }
  }
  state.counters["ns_per_element"] = benchmark::Counter(
      static_cast<double>(kLines * n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_Tridiag(benchmark::State& state) {
  solve_lines<apps::tridiag>(state);
}

void BM_TridiagDivide(benchmark::State& state) {
  solve_lines<tridiag_divide>(state);
}

}  // namespace

BENCHMARK(BM_Adi)
    ->ArgNames({"strategy", "N"})
    ->ArgsProduct({{0, 1, 2}, {32, 64, 128, 256}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
// Five repetitions each: the CI gate reads each row's fastest.
BENCHMARK(BM_Tridiag)->Arg(512)->Repetitions(5)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TridiagDivide)
    ->Arg(512)
    ->Repetitions(5)
    ->Unit(benchmark::kMicrosecond);
