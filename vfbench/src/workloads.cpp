#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <span>
#include <utility>

#include "vf/apps/amr_front.hpp"
#include "vf/apps/kernels.hpp"
#include "vf/apps/smoothing_sim.hpp"
#include "vf/apps/soak.hpp"
#include "vf/msg/spmd.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/rt/dist_array.hpp"

namespace vfbench {

namespace {

using vf::dist::Index;
using vf::dist::IndexDomain;
using vf::dist::IndexVec;
using Array = vf::rt::DistArray<double>;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded value in [0, 1) for cell (i, j).
double seeded(std::uint64_t seed, Index i, Index j) {
  const std::uint64_t x =
      splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(i) * 0x10001ULL +
                                   static_cast<std::uint64_t>(j)));
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::size_t lin(Index i, Index j, Index n) {
  return static_cast<std::size_t>((i - 1) + n * (j - 1));
}

/// 0-based offset of 1-based index j.
std::size_t zero_based(Index j) { return static_cast<std::size_t>(j - 1); }

// ---- shared step-loop scaffolding -------------------------------------

/// CPU time consumed so far by the calling thread.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}



/// Runs `steps` steps of `step` between barriers, recording each barrier
/// release on this rank, its CPU time and traffic over the steps after
/// the first, and the registry / halo-cache counters over the loop.
/// Traced, every step is a "step" span from the previous release to its
/// own, and the barrier wait is "msg.barrier".
template <typename Step>
void step_loop(vf::msg::Context& ctx, vf::rt::Env& env, Tracer& tr,
               RankLog& log, int steps, Step&& step) {
  log.release_ns.reserve(static_cast<std::size_t>(steps) + 1);
  const vf::msg::CommStats& st = ctx.stats();
  ctx.barrier();
  log.release_ns.push_back(now_ns());
  const vf::dist::RegistryStats r0 = env.registry().stats();
  // Snapshots at the end of the first (cold) step.
  std::int64_t cpu1 = 0;
  Traffic t1;
  std::vector<std::uint64_t> pm1, pb1;
  for (int k = 0; k < steps; ++k) {
    tr.set_step(k);
    const int s = tr.on() ? tr.open("step", log.release_ns.back()) : -1;
    step(k);
    const int b = tr.on() ? tr.open("msg.barrier", now_ns()) : -1;
    ctx.barrier();
    const std::int64_t t = now_ns();
    log.release_ns.push_back(t);
    if (tr.on()) {
      tr.close(b, t);
      tr.close(s, t);
    }
    if (k == 0) {
      cpu1 = thread_cpu_ns();
      log.setup_cpu_ns = cpu1;
      t1 = Traffic::of(st);
      pm1 = st.peer_messages;
      pb1 = st.peer_bytes;
    }
  }
  log.warm_cpu_ns = thread_cpu_ns() - cpu1;
  log.warm = Traffic::of(st) - t1;
  const auto delta = [](const std::vector<std::uint64_t>& now,
                        const std::vector<std::uint64_t>& before) {
    std::vector<std::uint64_t> d(static_cast<std::size_t>(kRanks), 0);
    for (std::size_t p = 0; p < now.size() && p < d.size(); ++p) {
      d[p] = now[p] - (p < before.size() ? before[p] : 0);
    }
    return d;
  };
  log.peer_msgs = delta(st.peer_messages, pm1);
  log.peer_bytes = delta(st.peer_bytes, pb1);
  const vf::dist::RegistryStats& r1 = env.registry().stats();
  Counters& c = log.counters;
  c.reg_hits = r1.hits - r0.hits;
  c.reg_misses = r1.misses - r0.misses;
  c.reg_swept = r1.swept - r0.swept;
  c.reg_resident = r1.resident_bytes;
  c.halo_hits = env.halo_plans().stats().hits;
  c.halo_misses = env.halo_plans().stats().misses;
  c.halo_evictions = env.halo_plans().evictions();
  c.halo_resident = env.halo_plans().resident_bytes();
}

void add_redist(Counters& c, const Array& a) {
  c.redist_hits += a.redist_plan_hits();
  c.redist_misses += a.redist_plan_misses();
  c.redist_evictions += a.redist_plan_evictions();
}

// ---- smooth9 ----------------------------------------------------------

std::vector<double> smooth9_body(vf::msg::Context& ctx, Tracer& tr,
                                 RankLog& log, const Workload& w) {
  const Index n = w.n;
  vf::rt::Env env(ctx, vf::dist::ProcessorArray::grid(2, 2));
  Array::Spec spec{.name = "A",
                   .domain = IndexDomain::of_extents({n, n}),
                   .initial = vf::dist::DistributionType{vf::dist::block(),
                                                         vf::dist::block()},
                   .overlap_lo = {1, 1},
                   .overlap_hi = {1, 1},
                   .overlap_corners = true};
  Array a(env, spec);
  spec.name = "B";
  Array b(env, spec);
  a.init([&](const IndexVec& i) { return seeded(w.seed, i[0], i[1]); });

  Array* src = &a;
  Array* dst = &b;
  step_loop(ctx, env, tr, log, w.steps, [&](int) {
    tr.span("halo.exchange", [&] { src->exchange_overlap(); });
    tr.span("apps.kernel", [&] {
      const Array& s = *src;
      dst->for_owned([&](const IndexVec& i, double& out) {
        const double c = s.at(i);
        const auto rd = [&](Index di, Index dj) {
          const Index x = i[0] + di;
          const Index y = i[1] + dj;
          return (x < 1 || x > n || y < 1 || y > n) ? c : s.halo({x, y});
        };
        out = vf::apps::smooth9_combine(c, rd(-1, 0), rd(+1, 0), rd(0, -1),
                                        rd(0, +1), rd(-1, -1), rd(-1, +1),
                                        rd(+1, -1), rd(+1, +1));
      });
    });
    std::swap(src, dst);
  });
  return src->gather_global();
}

std::vector<double> smooth9_reference(const Workload& w) {
  const Index n = w.n;
  std::vector<double> cur(static_cast<std::size_t>(n * n));
  for (Index j = 1; j <= n; ++j) {
    for (Index i = 1; i <= n; ++i) cur[lin(i, j, n)] = seeded(w.seed, i, j);
  }
  std::vector<double> next(cur.size());
  for (int k = 0; k < w.steps; ++k) {
    for (Index j = 1; j <= n; ++j) {
      for (Index i = 1; i <= n; ++i) {
        const double c = cur[lin(i, j, n)];
        const auto rd = [&](Index di, Index dj) {
          const Index x = i + di;
          const Index y = j + dj;
          return (x < 1 || x > n || y < 1 || y > n) ? c : cur[lin(x, y, n)];
        };
        next[lin(i, j, n)] = vf::apps::smooth9_combine(
            c, rd(-1, 0), rd(+1, 0), rd(0, -1), rd(0, +1), rd(-1, -1),
            rd(-1, +1), rd(+1, -1), rd(+1, +1));
      }
    }
    std::swap(cur, next);
  }
  return cur;
}

// ---- adi / adi_gather -------------------------------------------------

/// Seeded right-hand-side factors:
/// rhs(v, i, j, k) = 0.5 v + rx[i] cy[j] wk[k % 8].
struct AdiInputs {
  std::vector<double> rx, cy, wk;

  explicit AdiInputs(const Workload& w) {
    for (Index i = 1; i <= w.n; ++i) rx.push_back(seeded(w.seed, i, -1));
    for (Index j = 1; j <= w.n; ++j) cy.push_back(seeded(w.seed, -2, j));
    for (Index k = 0; k < 8; ++k) wk.push_back(1.0 + seeded(w.seed, -3, k));
  }

  [[nodiscard]] double rhs(double v, Index i, Index j, int k) const {
    return 0.5 * v + rx[zero_based(i)] * cy[zero_based(j)] *
                         wk[static_cast<std::size_t>(k % 8)];
  }
};

IndexDomain adi_domain(const Workload& w) {
  return IndexDomain({vf::dist::Range{1, w.n}, vf::dist::Range{1, w.n}});
}

/// Solves every owned line along dimension d of v (d must be collapsed).
void solve_local_lines(Array& v, int d, int me) {
  const int other = 1 - d;
  const auto lines = v.distribution().owned_in_dim(me, other);
  const vf::dist::Range r = v.distribution().domain().dim(d);
  std::vector<double> line(static_cast<std::size_t>(r.size()));
  for (const Index fixed : lines) {
    IndexVec idx{0, 0};
    idx[other] = fixed;
    for (Index k = r.lo; k <= r.hi; ++k) {
      idx[d] = k;
      line[static_cast<std::size_t>(k - r.lo)] = v.at(idx);
    }
    vf::apps::tridiag(line);
    for (Index k = r.lo; k <= r.hi; ++k) {
      idx[d] = k;
      v.at(idx) = line[static_cast<std::size_t>(k - r.lo)];
    }
  }
}

void fill_rhs(Array& v, const AdiInputs& in, int k) {
  v.for_owned(
      [&](const IndexVec& i, double& x) { x = in.rhs(x, i[0], i[1], k); });
}

std::vector<double> adi_body(vf::msg::Context& ctx, Tracer& tr, RankLog& log,
                             const Workload& w) {
  const AdiInputs in(w);
  vf::rt::Env env(ctx);
  Array v(env, {.name = "V",
                .domain = adi_domain(w),
                .dynamic = true,
                .initial = vf::dist::DistributionType{vf::dist::col(),
                                                      vf::dist::block()}});
  v.init([&](const IndexVec& i) { return seeded(w.seed, i[0], i[1]); });
  const int me = ctx.rank();
  step_loop(ctx, env, tr, log, w.steps, [&](int k) {
    tr.span("apps.rhs", [&] { fill_rhs(v, in, k); });
    tr.span("apps.xsweep", [&] { solve_local_lines(v, 0, me); });
    tr.span("rt.distribute", [&] {
      v.distribute(vf::dist::DistributionType{vf::dist::block(),
                                              vf::dist::col()});
    });
    tr.span("apps.ysweep", [&] { solve_local_lines(v, 1, me); });
    tr.span("rt.distribute", [&] {
      v.distribute(vf::dist::DistributionType{vf::dist::col(),
                                              vf::dist::block()});
    });
  });
  add_redist(log.counters, v);
  return v.gather_global();
}

std::vector<double> adi_gather_body(vf::msg::Context& ctx, Tracer& tr,
                                    RankLog& log, const Workload& w) {
  const AdiInputs in(w);
  vf::rt::Env env(ctx);
  Array v(env, {.name = "V",
                .domain = adi_domain(w),
                .initial = vf::dist::DistributionType{vf::dist::col(),
                                                      vf::dist::block()}});
  v.init([&](const IndexVec& i) { return seeded(w.seed, i[0], i[1]); });
  // The y-lines (rows) are distributed under (:, BLOCK): rank r gathers
  // rows r+1, r+1+P, ... through one reusable schedule.
  std::vector<IndexVec> points;
  for (Index i = 1 + ctx.rank(); i <= w.n; i += ctx.nprocs()) {
    for (Index j = 1; j <= w.n; ++j) points.push_back({i, j});
  }
  std::optional<vf::parti::Schedule> rows;
  tr.span("parti.schedule_build",
          [&] { rows.emplace(ctx, v.dist_handle(), std::move(points)); });
  std::vector<double> buf(rows->n_points());
  const int me = ctx.rank();
  const auto len = static_cast<std::size_t>(w.n);
  step_loop(ctx, env, tr, log, w.steps, [&](int k) {
    tr.span("apps.rhs", [&] { fill_rhs(v, in, k); });
    tr.span("apps.xsweep", [&] { solve_local_lines(v, 0, me); });
    tr.span("parti.gather",
            [&] { rows->gather(ctx, v, std::span<double>(buf)); });
    tr.span("apps.ysweep", [&] {
      for (std::size_t r = 0; r * len < buf.size(); ++r) {
        vf::apps::tridiag(std::span<double>(buf.data() + r * len, len));
      }
    });
    tr.span("parti.scatter",
            [&] { rows->scatter(ctx, std::span<const double>(buf), v); });
  });
  log.counters.bind_hits = rows->binding_hits();
  log.counters.bind_misses = rows->binding_misses();
  return v.gather_global();
}

std::vector<double> adi_reference(const Workload& w) {
  const AdiInputs in(w);
  const Index n = w.n;
  std::vector<double> v(static_cast<std::size_t>(n * n));
  for (Index j = 1; j <= n; ++j) {
    for (Index i = 1; i <= n; ++i) v[lin(i, j, n)] = seeded(w.seed, i, j);
  }
  const auto len = static_cast<std::size_t>(n);
  std::vector<double> line(len);
  for (int k = 0; k < w.steps; ++k) {
    for (Index j = 1; j <= n; ++j) {
      for (Index i = 1; i <= n; ++i) {
        v[lin(i, j, n)] = in.rhs(v[lin(i, j, n)], i, j, k);
      }
    }
    for (Index j = 1; j <= n; ++j) {  // x-lines are contiguous
      vf::apps::tridiag(std::span<double>(v.data() + lin(1, j, n), len));
    }
    for (Index i = 1; i <= n; ++i) {  // y-lines are strided
      for (Index j = 1; j <= n; ++j) line[zero_based(j)] = v[lin(i, j, n)];
      vf::apps::tridiag(line);
      for (Index j = 1; j <= n; ++j) v[lin(i, j, n)] = line[zero_based(j)];
    }
  }
  return v;
}

// ---- amr_churn --------------------------------------------------------
// The apps::soak step, written out so each call is timed.  front_at and
// dim0_widths restate soak.cpp's internal rules; soak_reference checks
// the result, so a drift between the two shows as a failed check.

vf::apps::SoakConfig soak_config(const Workload& w) {
  vf::apps::SoakConfig cfg;
  cfg.n = w.n;
  cfg.steps = w.steps;
  cfg.sweep_every = 64;
  cfg.redist_every = 1;
  cfg.front0 = 1 + static_cast<Index>(splitmix64(w.seed) %
                                      static_cast<std::uint64_t>(w.n));
  cfg.seed = splitmix64(w.seed ^ 0x5eed5eedULL);
  return cfg;
}

Index front_at(const vf::apps::SoakConfig& cfg, int step) {
  const Index raw = cfg.front0 - 1 + static_cast<Index>(step) * cfg.front_step;
  return 1 + ((raw % cfg.n) + cfg.n) % cfg.n;
}

std::pair<Index, Index> dim0_widths(Index a, Index b, Index f,
                                    const vf::apps::SoakConfig& cfg) {
  Index lo = 0;
  Index hi = 0;
  for (Index i = a; i <= b && i <= a + cfg.front_width; ++i) {
    lo = std::max(lo, vf::apps::amr_radius(i, f, cfg.front_halfspan,
                                           cfg.base_width, cfg.front_width) -
                          (i - a));
  }
  for (Index i = std::max(a, b - cfg.front_width); i <= b; ++i) {
    hi = std::max(hi, vf::apps::amr_radius(i, f, cfg.front_halfspan,
                                           cfg.base_width, cfg.front_width) -
                          (b - i));
  }
  return {lo, hi};
}

std::vector<double> amr_body(vf::msg::Context& ctx, Tracer& tr, RankLog& log,
                             const Workload& w) {
  const vf::apps::SoakConfig cfg = soak_config(w);
  const int q = 2;
  const Index n = cfg.n;
  const Index min_seg = std::max(cfg.front_width, cfg.base_width);
  vf::rt::Env env(ctx, vf::dist::ProcessorArray::grid(q, q));
  const IndexDomain dom = IndexDomain::of_extents({n, n});
  Array::Spec spec{.name = "SOAK_A",
                   .domain = dom,
                   .dynamic = true,
                   .initial = vf::dist::DistributionType{vf::dist::block(),
                                                         vf::dist::block()},
                   .overlap_lo = {cfg.base_width, 1},
                   .overlap_hi = {cfg.base_width, 1},
                   .overlap_corners = false,
                   .overlap_asymmetric = true};
  Array a(env, spec);
  spec.name = "SOAK_B";
  Array b(env, spec);
  a.init([n](const IndexVec& i) { return vf::apps::amr_seed(i[0], i[1], n); });

  Array* src = &a;
  Array* dst = &b;
  step_loop(ctx, env, tr, log, w.steps, [&](int k) {
    const Index f = front_at(cfg, k);
    auto sizes = vf::apps::soak_split_sizes(n, q, min_seg, cfg.seed, k);
    vf::dist::DistHandle nd;
    tr.span("dist.intern", [&] {
      nd = env.intern(dom, vf::dist::DistributionType{
                               vf::dist::s_block(std::move(sizes)),
                               vf::dist::block()});
    });
    tr.span("rt.distribute", [&] { src->distribute(nd); });
    tr.span("rt.distribute", [&] { dst->distribute(nd); });
    Index lo0 = cfg.base_width;
    Index hi0 = cfg.base_width;
    if (src->layout().member) {
      const auto seg = src->distribution().dim_map(0).segment(
          static_cast<int>(src->layout().coords[0]));
      if (seg) {
        const auto [lo, hi] = dim0_widths(seg->lo, seg->hi, f, cfg);
        lo0 = std::max(lo0, lo);
        hi0 = std::max(hi0, hi);
      }
    }
    tr.span("halo.set_overlap", [&] {
      src->set_overlap({lo0, 1}, {hi0, 1}, /*corners=*/false,
                       /*asymmetric=*/true);
    });
    tr.span("halo.exchange", [&] { src->exchange_overlap(); });
    tr.span("apps.kernel", [&] {
      dst->for_owned([&](const IndexVec& i, double& out) {
        const Index r = vf::apps::amr_radius(i[0], f, cfg.front_halfspan,
                                             cfg.base_width, cfg.front_width);
        out = vf::apps::amr_point(i[0], i[1], n, r, [&](Index x, Index y) {
          return src->halo({x, y});
        });
      });
    });
    std::swap(src, dst);
    if ((k + 1) % cfg.sweep_every == 0) {
      tr.span("rt.sweep", [&] { (void)env.sweep(); });
    }
  });
  add_redist(log.counters, a);
  add_redist(log.counters, b);
  return src->gather_global();
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name,
                                      std::uint64_t seed) {
  // Episode lengths: long enough that the warm steps dominate an episode,
  // short enough that a run holds a dozen episodes (set-up samples).
  static const Workload table[] = {
      {Kind::Smooth9, "smooth9", 512, 160, 0},
      {Kind::Adi, "adi", 512, 48, 0},
      {Kind::AdiGather, "adi_gather", 512, 48, 0},
      {Kind::AmrChurn, "amr_churn", 128, 512, 0},
  };
  for (Workload w : table) {
    if (name == w.name) {
      w.seed = seed;
      return w;
    }
  }
  return std::nullopt;
}

Traffic Traffic::of(const vf::msg::CommStats& s) {
  return {s.data_messages, s.data_bytes, s.ctl_messages, s.ctl_bytes};
}

vf::msg::CommStats Traffic::as_stats() const {
  vf::msg::CommStats s;
  s.data_messages = data_msgs;
  s.data_bytes = data_bytes;
  s.ctl_messages = ctl_msgs;
  s.ctl_bytes = ctl_bytes;
  return s;
}

Traffic& Traffic::operator+=(const Traffic& o) {
  data_msgs += o.data_msgs;
  data_bytes += o.data_bytes;
  ctl_msgs += o.ctl_msgs;
  ctl_bytes += o.ctl_bytes;
  return *this;
}

Traffic operator-(Traffic a, const Traffic& b) {
  a.data_msgs -= b.data_msgs;
  a.data_bytes -= b.data_bytes;
  a.ctl_msgs -= b.ctl_msgs;
  a.ctl_bytes -= b.ctl_bytes;
  return a;
}

Counters& Counters::operator+=(const Counters& o) {
  halo_hits += o.halo_hits;
  halo_misses += o.halo_misses;
  halo_evictions += o.halo_evictions;
  halo_resident += o.halo_resident;
  redist_hits += o.redist_hits;
  redist_misses += o.redist_misses;
  redist_evictions += o.redist_evictions;
  reg_hits += o.reg_hits;
  reg_misses += o.reg_misses;
  reg_swept += o.reg_swept;
  reg_resident += o.reg_resident;
  bind_hits += o.bind_hits;
  bind_misses += o.bind_misses;
  return *this;
}


Episode run_episode(const Workload& w, bool traced) {
  Episode ep;
  ep.ranks.resize(kRanks);
  const std::int64_t main_cpu0 = thread_cpu_ns();
  ep.start_ns = now_ns();
  vf::msg::Machine m(kRanks);
  vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
    RankLog& log = ep.ranks[static_cast<std::size_t>(ctx.rank())];
    Tracer tr(ctx.stats());
    if (traced) tr.arm(static_cast<std::size_t>(w.steps) * 12 + 8);
    std::vector<double> state;
    switch (w.kind) {
      case Kind::Smooth9:
        state = smooth9_body(ctx, tr, log, w);
        break;
      case Kind::Adi:
        state = adi_body(ctx, tr, log, w);
        break;
      case Kind::AdiGather:
        state = adi_gather_body(ctx, tr, log, w);
        break;
      case Kind::AmrChurn:
        state = amr_body(ctx, tr, log, w);
        break;
    }
    log.spans = tr.take();
    if (ctx.rank() == 0) ep.final_state = std::move(state);
  });
  ep.main_cpu_ns = thread_cpu_ns() - main_cpu0;
  return ep;
}

std::vector<double> reference(const Workload& w) {
  switch (w.kind) {
    case Kind::Smooth9:
      return smooth9_reference(w);
    case Kind::Adi:
    case Kind::AdiGather:
      return adi_reference(w);
    case Kind::AmrChurn:
      return vf::apps::soak_reference(soak_config(w));
  }
  return {};
}

std::optional<Episode> checked_episode(const Workload& w, bool traced,
                                       const std::vector<double>& ref,
                                       Tally& tally) {
  ++tally.attempted;
  std::optional<Episode> ep;
  try {
    ep = run_episode(w, traced);
  } catch (const std::exception& ex) {
    ++tally.failed;
    std::cerr << "vfbench: " << w.name << " episode threw: " << ex.what()
              << "\n";
    return std::nullopt;
  }
  const std::vector<double>& got = ep->final_state;
  if (got.size() != ref.size() ||
      std::memcmp(got.data(), ref.data(), got.size() * sizeof(double)) != 0) {
    ++tally.failed;
    std::cerr << "vfbench: " << w.name
              << " final state differs from the sequential reference\n";
  }
  return ep;
}

double kernel_bytes_per_step(const Workload& w) {
  const double cells = static_cast<double>(w.n) * static_cast<double>(w.n);
  // smooth9 and amr_churn: one sweep reading src, writing dst.  ADI: RHS
  // fill, x-sweep and y-sweep each read and write V once.
  const double sweeps =
      (w.kind == Kind::Adi || w.kind == Kind::AdiGather) ? 3.0 : 1.0;
  return sweeps * 2.0 * cells * static_cast<double>(sizeof(double));
}

}  // namespace vfbench
