// E9 -- access functions and overlap areas (Section 3.2.1): local access
// through loc_map is O(1); non-local access is worth batching.  Eight
// measurements:
//   * LocalAccess: at() on owned elements (ns/element);
//   * Stencil9Halo / Stencil9Raw: one 9-point smoothing sweep at P = 1,
//     n = 512, through for_owned/at/halo and on a raw std::vector
//     (ns_per_point); their ratio is the access-function overhead over a
//     plain array sweep;
//   * Stencil9Hoisted: the Stencil9Halo sweep with the source's base
//     pointer, strides and halo box read once into locals and the bounds
//     check kept: what at()/halo() cost when the access state stays in
//     registers, and the row their own overhead is read against;
//   * Stencil7Halo / Stencil7Raw: the same comparison for a 7-point sweep
//     on an n^3 (BLOCK,BLOCK,BLOCK) array, n = 64 -- the rank-3 access
//     path, which no rank-2 row exercises;
//   * OverlapStencil: a stencil step with one bulk overlap exchange;
//   * ElementwiseRemote: the same boundary data fetched through
//     per-element schedules -- one message per element, the cost the
//     overlap-area descriptor component exists to avoid.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "vf/apps/smoothing_sim.hpp"
#include "vf/msg/spmd.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/rt/dist_array.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

void BM_LocalAccess(benchmark::State& state) {
  msg::Machine machine(1);
  msg::Context ctx(machine, 0);
  rt::Env env(ctx);
  const Index n = 512;
  rt::DistArray<double> a(env, {.name = "A",
                                .domain = IndexDomain::of_extents({n, n}),
                                .dynamic = true,
                                .initial = {{dist::col(), dist::block()}}});
  a.fill(1.0);
  double sum = 0.0;
  for (auto _ : state) {
    sum = 0.0;
    for (Index j = 1; j <= n; ++j) {
      for (Index i = 1; i <= n; ++i) {
        sum += a.at({i, j});
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}

/// Counter reporting nanoseconds per grid point of one sweep.
benchmark::Counter ns_per_point(Index points) {
  return benchmark::Counter(static_cast<double>(points) * 1e-9,
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

double seed_value(Index i, Index j) {
  return static_cast<double>((i * 7919 + j * 104729) % 1000) / 1000.0;
}

// The vfbench smooth9 kernel: (BLOCK, BLOCK) with a corner overlap of 1,
// boundary points reading their own value for the missing neighbours.
void BM_Stencil9Halo(benchmark::State& state) {
  msg::Machine machine(1);
  msg::Context ctx(machine, 0);
  rt::Env env(ctx, dist::ProcessorArray::grid(1, 1));
  const Index n = state.range(0);
  rt::DistArray<double>::Spec spec{
      .name = "A",
      .domain = IndexDomain::of_extents({n, n}),
      .initial = dist::DistributionType{dist::block(), dist::block()},
      .overlap_lo = {1, 1},
      .overlap_hi = {1, 1},
      .overlap_corners = true};
  rt::DistArray<double> a(env, spec);
  spec.name = "B";
  rt::DistArray<double> b(env, spec);
  a.init([](const IndexVec& i) { return seed_value(i[0], i[1]); });
  a.exchange_overlap();
  benchmark::DoNotOptimize(b.local_span().data());
  for (auto _ : state) {
    const rt::DistArray<double>& s = a;
    b.for_owned([&](const IndexVec& i, double& out) {
      const double c = s.at(i);
      const auto rd = [&](Index di, Index dj) {
        const Index x = i[0] + di;
        const Index y = i[1] + dj;
        return (x < 1 || x > n || y < 1 || y > n) ? c : s.halo({x, y});
      };
      out = apps::smooth9_combine(c, rd(-1, 0), rd(+1, 0), rd(0, -1),
                                  rd(0, +1), rd(-1, -1), rd(-1, +1),
                                  rd(+1, -1), rd(+1, +1));
    });
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_point"] = ns_per_point(n * n);
}

// The same sweep through the same for_owned walker, with the source's base
// pointer, strides and halo box read once into locals from its public
// geometry (layout, overlap spec, owned segment).  Neighbour reads keep
// halo()'s runtime bounds check, so this is what at()/halo() cost when
// the array's access state stays in registers across the loop.
void BM_Stencil9Hoisted(benchmark::State& state) {
  msg::Machine machine(1);
  msg::Context ctx(machine, 0);
  rt::Env env(ctx, dist::ProcessorArray::grid(1, 1));
  const Index n = state.range(0);
  rt::DistArray<double>::Spec spec{
      .name = "A",
      .domain = IndexDomain::of_extents({n, n}),
      .initial = dist::DistributionType{dist::block(), dist::block()},
      .overlap_lo = {1, 1},
      .overlap_hi = {1, 1},
      .overlap_corners = true};
  rt::DistArray<double> a(env, spec);
  spec.name = "B";
  rt::DistArray<double> b(env, spec);
  a.init([](const IndexVec& i) { return seed_value(i[0], i[1]); });
  a.exchange_overlap();
  benchmark::DoNotOptimize(b.local_span().data());

  // offset(x, y) = (x - lo0) + (y - lo1) * stride1 over the ghost-padded
  // block, readable for x in [lo0, lo0 + span0], y in [lo1, lo1 + span1].
  const dist::LocalLayout& L = a.layout();
  std::array<Index, 2> lo{};
  std::array<Index, 2> span{};
  for (int d = 0; d < 2; ++d) {
    const Index glo = a.halo_spec()->lo(d);
    const Index ghi = a.halo_spec()->hi(d);
    const auto ud = static_cast<std::size_t>(d);
    lo[ud] = a.distribution().dim_map(d).segment(
                 static_cast<int>(L.coords[d]))->lo - glo;
    span[ud] = glo + L.counts[d] + ghi - 1;
  }
  const Index stride1 = span[0] + 1;
  const Index base_off = -lo[0] - lo[1] * stride1;
  const double* data = a.local_span().data();
  const auto at = [=](Index x, Index y) {
    return data[base_off + x + y * stride1];
  };
  const auto halo = [=](Index x, Index y) {
    const bool in =
        (static_cast<std::uint64_t>(x - lo[0]) <=
         static_cast<std::uint64_t>(span[0])) &
        (static_cast<std::uint64_t>(y - lo[1]) <=
         static_cast<std::uint64_t>(span[1]));
    if (!in) [[unlikely]] {
      throw std::out_of_range("halo access outside overlap area");
    }
    return data[base_off + x + y * stride1];
  };
  for (auto _ : state) {
    b.for_owned([&](const IndexVec& i, double& out) {
      const double c = at(i[0], i[1]);
      const auto rd = [&](Index di, Index dj) {
        const Index x = i[0] + di;
        const Index y = i[1] + dj;
        return (x < 1 || x > n || y < 1 || y > n) ? c : halo(x, y);
      };
      out = apps::smooth9_combine(c, rd(-1, 0), rd(+1, 0), rd(0, -1),
                                  rd(0, +1), rd(-1, -1), rd(-1, +1),
                                  rd(+1, -1), rd(+1, +1));
    });
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_point"] = ns_per_point(n * n);
}

// The same sweep on a raw column-major std::vector: the floor the access
// functions are measured against.
void BM_Stencil9Raw(benchmark::State& state) {
  const Index n = state.range(0);
  const auto at = [n](Index i, Index j) {
    return static_cast<std::size_t>((i - 1) + (j - 1) * n);
  };
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(a.size());
  for (Index j = 1; j <= n; ++j) {
    for (Index i = 1; i <= n; ++i) a[at(i, j)] = seed_value(i, j);
  }
  benchmark::DoNotOptimize(b.data());
  for (auto _ : state) {
    for (Index j = 1; j <= n; ++j) {
      for (Index i = 1; i <= n; ++i) {
        const double c = a[at(i, j)];
        const auto rd = [&](Index di, Index dj) {
          const Index x = i + di;
          const Index y = j + dj;
          return (x < 1 || x > n || y < 1 || y > n) ? c : a[at(x, y)];
        };
        b[at(i, j)] = apps::smooth9_combine(
            c, rd(-1, 0), rd(+1, 0), rd(0, -1), rd(0, +1), rd(-1, -1),
            rd(-1, +1), rd(+1, -1), rd(+1, +1));
      }
    }
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_point"] = ns_per_point(n * n);
}

/// The 7-point combine: centre weight 1/2, each face neighbour 1/12.
double stencil7_combine(double c, double w, double e, double s, double n,
                        double b, double t) {
  return 0.5 * c + (w + e + s + n + b + t) / 12.0;
}

double seed_value3(Index i, Index j, Index k) {
  return static_cast<double>((i * 7919 + j * 104729 + k * 1299709) % 1000) /
         1000.0;
}

// A 7-point sweep on (BLOCK, BLOCK, BLOCK) with an overlap of 1, boundary
// points reading their own value for the missing neighbours.
void BM_Stencil7Halo(benchmark::State& state) {
  msg::Machine machine(1);
  msg::Context ctx(machine, 0);
  rt::Env env(ctx, dist::ProcessorArray("R3", IndexDomain::of_extents(
                                                  {1, 1, 1})));
  const Index n = state.range(0);
  rt::DistArray<double>::Spec spec{
      .name = "A",
      .domain = IndexDomain::of_extents({n, n, n}),
      .initial = dist::DistributionType{dist::block(), dist::block(),
                                        dist::block()},
      .overlap_lo = {1, 1, 1},
      .overlap_hi = {1, 1, 1}};
  rt::DistArray<double> a(env, spec);
  spec.name = "B";
  rt::DistArray<double> b(env, spec);
  a.init([](const IndexVec& i) { return seed_value3(i[0], i[1], i[2]); });
  a.exchange_overlap();
  benchmark::DoNotOptimize(b.local_span().data());
  for (auto _ : state) {
    const rt::DistArray<double>& s = a;
    b.for_owned([&](const IndexVec& i, double& out) {
      const double c = s.at(i);
      const auto rd = [&](Index di, Index dj, Index dk) {
        const Index x = i[0] + di;
        const Index y = i[1] + dj;
        const Index z = i[2] + dk;
        return (x < 1 || x > n || y < 1 || y > n || z < 1 || z > n)
                   ? c
                   : s.halo({x, y, z});
      };
      out = stencil7_combine(c, rd(-1, 0, 0), rd(+1, 0, 0), rd(0, -1, 0),
                             rd(0, +1, 0), rd(0, 0, -1), rd(0, 0, +1));
    });
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_point"] = ns_per_point(n * n * n);
}

// The same 7-point sweep on a raw column-major std::vector.
void BM_Stencil7Raw(benchmark::State& state) {
  const Index n = state.range(0);
  const auto at = [n](Index i, Index j, Index k) {
    return static_cast<std::size_t>((i - 1) + ((j - 1) + (k - 1) * n) * n);
  };
  std::vector<double> a(static_cast<std::size_t>(n * n * n));
  std::vector<double> b(a.size());
  for (Index k = 1; k <= n; ++k) {
    for (Index j = 1; j <= n; ++j) {
      for (Index i = 1; i <= n; ++i) a[at(i, j, k)] = seed_value3(i, j, k);
    }
  }
  benchmark::DoNotOptimize(b.data());
  for (auto _ : state) {
    for (Index k = 1; k <= n; ++k) {
      for (Index j = 1; j <= n; ++j) {
        for (Index i = 1; i <= n; ++i) {
          const double c = a[at(i, j, k)];
          const auto rd = [&](Index di, Index dj, Index dk) {
            const Index x = i + di;
            const Index y = j + dj;
            const Index z = k + dk;
            return (x < 1 || x > n || y < 1 || y > n || z < 1 || z > n)
                       ? c
                       : a[at(x, y, z)];
          };
          b[at(i, j, k)] = stencil7_combine(
              c, rd(-1, 0, 0), rd(+1, 0, 0), rd(0, -1, 0), rd(0, +1, 0),
              rd(0, 0, -1), rd(0, 0, +1));
        }
      }
    }
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_point"] = ns_per_point(n * n * n);
}

void BM_OverlapStencil(benchmark::State& state) {
  constexpr int kProcs = 4;
  constexpr Index kN = 256;
  const msg::CostModel cm{};
  msg::CommStats stats;
  for (auto _ : state) {
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> a(env,
                              {.name = "A",
                               .domain = IndexDomain::of_extents({kN, kN}),
                               .dynamic = true,
                               .initial = {{dist::col(), dist::block()}},
                               .overlap_lo = {0, 1},
                               .overlap_hi = {0, 1}});
      a.fill(1.0);
      double acc = 0.0;
      for (int s = 0; s < 4; ++s) {
        a.exchange_overlap();
        a.for_owned([&](const IndexVec& i, double& v) {
          const double e = i[1] < kN ? a.halo({i[0], i[1] + 1}) : v;
          acc += 0.5 * (v + e);
        });
      }
      benchmark::DoNotOptimize(acc);
    });
    stats = machine.total_stats();
  }
  state.counters["data_msgs"] = static_cast<double>(stats.data_messages);
  state.counters["modeled_us"] = stats.modeled_data_us(cm);
}

void BM_ElementwiseRemote(benchmark::State& state) {
  constexpr int kProcs = 4;
  constexpr Index kN = 256;
  const msg::CostModel cm{};
  msg::CommStats stats;
  for (auto _ : state) {
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> a(env,
                              {.name = "A",
                               .domain = IndexDomain::of_extents({kN, kN}),
                               .dynamic = true,
                               .initial = {{dist::col(), dist::block()}}});
      a.fill(1.0);
      ctx.barrier();
      if (ctx.rank() == 0) machine.reset_stats();
      ctx.barrier();
      // Fetch my right-boundary neighbours one element at a time: kN
      // single-point schedules (4 steps' worth amortized as one).
      const auto cols = a.distribution().owned_in_dim(ctx.rank(), 1);
      const Index jb = cols.back();
      double acc = 0.0;
      for (Index i = 1; i <= kN; ++i) {
        IndexVec pt{i, std::min<Index>(jb + 1, kN)};
        parti::Schedule one(ctx, a.dist_handle(), {pt});
        std::vector<double> v(1);
        one.gather(ctx, a, v);
        acc += v[0];
      }
      benchmark::DoNotOptimize(acc);
    });
    stats = machine.total_stats();
  }
  state.counters["data_msgs"] = static_cast<double>(stats.data_messages);
  state.counters["modeled_us"] = stats.modeled_data_us(cm);
}

}  // namespace

BENCHMARK(BM_LocalAccess)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stencil9Halo)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stencil9Hoisted)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stencil9Raw)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stencil7Halo)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stencil7Raw)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OverlapStencil)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_ElementwiseRemote)->Unit(benchmark::kMillisecond)->Iterations(2);
