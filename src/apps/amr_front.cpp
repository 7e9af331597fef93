#include "vf/apps/amr_front.hpp"

#include <stdexcept>

#include "front_rules.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::apps {

namespace {

using dist::Index;
using dist::IndexVec;

/// Front column at `step`.
Index front_at(const AmrFrontConfig& cfg, int step) {
  return cfg.front0 + static_cast<Index>(step) * cfg.front_step;
}

}  // namespace

double amr_seed(Index i, Index j, Index n) {
  // Position-sensitive and cheap; the spike makes directional mistakes
  // visible immediately.
  return static_cast<double>((i * 13 + j * 29) % 31) +
         (i == n / 2 && j == n / 3 ? 50.0 : 0.0);
}

double amr_checksum(const std::vector<double>& full) {
  double acc = 0.0;
  for (double v : full) acc += v;
  return acc;
}

AmrFrontResult run_amr_front(msg::Context& ctx, const AmrFrontConfig& cfg) {
  const int np = ctx.nprocs();
  const int q = detail::square_side(np, "run_amr_front");
  // The asymmetric spec contract is exact (no partial fill): every
  // non-empty BLOCK segment must be able to serve a front_width ghost.
  const Index bw = (cfg.n + q - 1) / q;           // ceil(n / q)
  const Index last = cfg.n - (q - 1) * bw;        // final coordinate's share
  if (cfg.front_width > bw || (last > 0 && cfg.front_width > last)) {
    throw std::invalid_argument(
        "run_amr_front: block segments must be at least front_width wide");
  }
  rt::Env env(ctx, dist::ProcessorArray::grid(q, q));
  const Index n = cfg.n;
  const rt::DistArray<double>::Spec base{
      .name = "AMR_A",
      .domain = dist::IndexDomain::of_extents({n, n}),
      .dynamic = true,
      .initial = dist::DistributionType{dist::block(), dist::block()},
      .overlap_lo = {cfg.base_width, 1},
      .overlap_hi = {cfg.base_width, 1},
      .overlap_corners = false,
      .overlap_asymmetric = true};
  rt::DistArray<double> a(env, base);
  auto bspec = base;
  bspec.name = "AMR_B";
  rt::DistArray<double> b(env, bspec);
  a.init([n](const IndexVec& i) { return amr_seed(i[0], i[1], n); });

  rt::DistArray<double>* src = &a;
  rt::DistArray<double>* dst = &b;
  for (int step = 0; step < cfg.steps; ++step) {
    const Index f = front_at(cfg, step);
    detail::declare_front_overlap(*src, f, cfg);
    const auto update = [&](const IndexVec& i, double& out) {
      const Index r = amr_radius(i[0], f, cfg.front_halfspan, cfg.base_width,
                                 cfg.front_width);
      out = amr_point(i[0], i[1], n, r, [&](Index x, Index y) {
        return src->halo({x, y});
      });
    };
    if (cfg.split_phase) {
      // The interior margin must cover the stencil's TRUE per-cell reach,
      // which for the refined stencil is wider than the declared ghost
      // widths split_margins() reports: those are max over cells of
      // (radius - edge distance), so a cell can sit `width` cells inside
      // the segment and still read past the edge with its own radius.
      // The largest radius any owned cell reads with is front_width when
      // the front zone touches this rank's segment, base_width otherwise;
      // partitioning dst (which shares src's distribution) by that keeps
      // every in-flight read owned.
      src->begin_exchange_overlap();
      auto m = src->split_margins();
      Index reach = cfg.base_width;
      if (src->layout().member) {
        const auto seg = src->distribution().dim_map(0).segment(
            static_cast<int>(src->layout().coords[0]));
        if (seg && seg->lo <= f + cfg.front_halfspan &&
            seg->hi >= f - cfg.front_halfspan) {
          reach = cfg.front_width;
        }
      }
      m.lo[0] = reach;
      m.hi[0] = reach;
      dst->for_owned_interior(m, update);
      src->end_exchange_overlap();
      dst->for_owned_boundary(m, update);
    } else {
      src->exchange_overlap();
      dst->for_owned(update);
    }
    std::swap(src, dst);
  }

  AmrFrontResult res;
  const std::vector<double> full = src->gather_global();
  res.checksum = amr_checksum(full);
  res.spec_exchanges = ctx.allreduce<std::uint64_t>(
      a.halo_spec_exchanges() + b.halo_spec_exchanges(), msg::ReduceOp::Sum);
  res.halo_plan_hits = ctx.allreduce<std::uint64_t>(
      env.halo_plans().stats().hits, msg::ReduceOp::Sum);
  res.halo_plan_misses = ctx.allreduce<std::uint64_t>(
      env.halo_plans().stats().misses, msg::ReduceOp::Sum);
  return res;
}

std::vector<double> amr_front_reference(const AmrFrontConfig& cfg) {
  return detail::front_reference(
      cfg, [&](int step) { return front_at(cfg, step); });
}

}  // namespace vf::apps
