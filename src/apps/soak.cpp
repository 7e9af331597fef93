#include "vf/apps/soak.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "front_rules.hpp"
#include "vf/apps/amr_front.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::apps {

namespace {

using dist::Index;
using dist::IndexVec;

/// Front column at `step`, wrapping around [1, n] so the churn of new
/// positions never stops over an arbitrarily long run.
Index front_at(const SoakConfig& cfg, int step) {
  const Index span = cfg.n;
  const Index raw = cfg.front0 - 1 + static_cast<Index>(step) * cfg.front_step;
  return 1 + ((raw % span) + span) % span;
}

std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

/// Least-squares slope (bytes/step) of total residency over the second
/// half of the sample series.
double second_half_slope(const std::vector<SoakSample>& s) {
  const std::size_t h = s.size() / 2;
  const std::size_t m = s.size() - h;
  if (m < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t k = h; k < s.size(); ++k) {
    const double x = static_cast<double>(s[k].step);
    const double y =
        static_cast<double>(s[k].registry_bytes + s[k].cache_bytes);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double nn = static_cast<double>(m);
  const double den = nn * sxx - sx * sx;
  return den == 0.0 ? 0.0 : (nn * sxy - sx * sy) / den;
}

}  // namespace

std::vector<Index> soak_split_sizes(Index n, int q, Index min_seg,
                                    std::uint64_t seed, int step) {
  std::vector<Index> sizes(static_cast<std::size_t>(q), n / q);
  for (Index r = 0; r < n % q; ++r) sizes[static_cast<std::size_t>(r)] += 1;
  if (q < 2) return sizes;
  std::uint64_t x =
      lcg(seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(step) +
                                           1)));
  const auto m = static_cast<std::size_t>((x >> 33) %
                                          static_cast<std::uint64_t>(q - 1));
  x = lcg(x);
  const Index give = sizes[m] - min_seg;       // how far m can shrink
  const Index take = sizes[m + 1] - min_seg;   // how far m+1 can shrink
  const Index span = std::max<Index>(0, give) + std::max<Index>(0, take);
  if (span == 0) return sizes;
  const Index s = static_cast<Index>((x >> 33) %
                                     static_cast<std::uint64_t>(span + 1)) -
                  std::max<Index>(0, give);
  sizes[m] += s;
  sizes[m + 1] -= s;
  return sizes;
}

SoakResult run_soak(msg::Context& ctx, const SoakConfig& cfg) {
  const int np = ctx.nprocs();
  const int q = detail::square_side(np, "run_soak");
  const Index min_seg = std::max(cfg.front_width, cfg.base_width);
  if (cfg.n / q < min_seg) {
    throw std::invalid_argument(
        "run_soak: segments must be at least front_width wide");
  }
  rt::Env env(ctx, dist::ProcessorArray::grid(q, q));
  if (cfg.halo_budget_bytes != 0) {
    env.halo_plans().set_max_bytes(cfg.halo_budget_bytes);
  }
  const Index n = cfg.n;
  const dist::IndexDomain dom = dist::IndexDomain::of_extents({n, n});
  const rt::DistArray<double>::Spec base{
      .name = "SOAK_A",
      .domain = dom,
      .dynamic = true,
      .initial = dist::DistributionType{dist::block(), dist::block()},
      .overlap_lo = {cfg.base_width, 1},
      .overlap_hi = {cfg.base_width, 1},
      .overlap_corners = false,
      .overlap_asymmetric = true};
  rt::DistArray<double> a(env, base);
  auto bspec = base;
  bspec.name = "SOAK_B";
  rt::DistArray<double> b(env, bspec);
  if (cfg.plan_budget_bytes != 0) {
    a.set_redist_plan_budget(cfg.plan_budget_bytes);
    b.set_redist_plan_budget(cfg.plan_budget_bytes);
  }
  a.init([n](const IndexVec& i) { return amr_seed(i[0], i[1], n); });

  SoakResult res;
  std::uint64_t halo_dropped = 0;
  const auto sample = [&](int step) {
    SoakSample s;
    s.step = step;
    s.registry_bytes = env.registry().stats().resident_bytes;
    s.cache_bytes = env.halo_plans().resident_bytes() +
                    a.redist_plan_resident_bytes() +
                    b.redist_plan_resident_bytes();
    res.samples.push_back(s);
  };

  rt::DistArray<double>* src = &a;
  rt::DistArray<double>* dst = &b;
  for (int step = 0; step < cfg.steps; ++step) {
    const Index f = front_at(cfg, step);
    if (cfg.redist_every > 0 && step % cfg.redist_every == 0) {
      // A fresh split per cadence: the jittered boundary makes the
      // descriptor (and the (old, new) plan pair) churn like the front.
      const dist::DistHandle nd = env.intern(
          dom, dist::DistributionType{
                   dist::s_block(soak_split_sizes(n, q, min_seg, cfg.seed,
                                                  step)),
                   dist::block()});
      src->distribute(nd);
      dst->distribute(nd);
    }
    detail::declare_front_overlap(*src, f, cfg);
    src->exchange_overlap();
    dst->for_owned([&](const IndexVec& i, double& out) {
      const Index r = amr_radius(i[0], f, cfg.front_halfspan, cfg.base_width,
                                 cfg.front_width);
      out = amr_point(i[0], i[1], n, r, [&](Index x, Index y) {
        return src->halo({x, y});
      });
    });
    std::swap(src, dst);

    if (cfg.sweep_every > 0 && (step + 1) % cfg.sweep_every == 0) {
      const rt::Env::SweepReport rep = env.sweep();
      ++res.sweeps;
      halo_dropped += rep.halo_plans_dropped;
    }
    if (cfg.sample_every > 0 && (step + 1) % cfg.sample_every == 0) {
      sample(step + 1);
    }
  }
  if (res.samples.empty() || res.samples.back().step != cfg.steps) {
    sample(cfg.steps);
  }

  res.checksum = amr_checksum(src->gather_global());
  for (const SoakSample& s : res.samples) {
    res.peak_resident_bytes = std::max(res.peak_resident_bytes,
                                       s.registry_bytes + s.cache_bytes);
  }
  res.final_resident_bytes =
      res.samples.back().registry_bytes + res.samples.back().cache_bytes;
  res.bytes_per_step_slope = second_half_slope(res.samples);
  res.registry_pinned = env.registry().stats().pinned;
  const auto sum = [&](std::uint64_t v) {
    return ctx.allreduce<std::uint64_t>(v, msg::ReduceOp::Sum);
  };
  res.registry_swept = sum(env.registry().stats().swept);
  res.halo_plans_dropped = sum(halo_dropped);
  res.halo_evictions = sum(env.halo_plans().evictions());
  res.plan_evictions =
      sum(a.redist_plan_evictions() + b.redist_plan_evictions());
  res.halo_plan_hits = sum(env.halo_plans().stats().hits);
  res.halo_plan_misses = sum(env.halo_plans().stats().misses);
  return res;
}

std::vector<double> soak_reference(const SoakConfig& cfg) {
  return detail::front_reference(
      cfg, [&](int step) { return front_at(cfg, step); });
}

}  // namespace vf::apps
