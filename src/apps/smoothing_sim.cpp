#include "vf/apps/smoothing_sim.hpp"

#include <cmath>

#include "front_rules.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::apps {

namespace {

using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

/// One 9-point update at i; out-of-domain neighbours reuse the centre
/// value, like the 5-point kernel.
double smooth9(const rt::DistArray<double>& src, const IndexVec& i, Index n) {
  const double c = src.at(i);
  const auto rd = [&](Index di, Index dj) {
    const Index x = i[0] + di;
    const Index y = i[1] + dj;
    if (x < 1 || x > n || y < 1 || y > n) return c;
    return src.halo({x, y});
  };
  return smooth9_combine(c, rd(-1, 0), rd(+1, 0), rd(0, -1), rd(0, +1),
                         rd(-1, -1), rd(-1, +1), rd(+1, -1), rd(+1, +1));
}

}  // namespace

const char* to_string(SmoothLayout l) {
  return l == SmoothLayout::Columns ? "columns" : "grid2d";
}

const char* to_string(SmoothStencil s) {
  return s == SmoothStencil::FivePoint ? "5pt" : "9pt";
}

SmoothResult run_smoothing(msg::Context& ctx, const SmoothConfig& cfg,
                           SmoothLayout layout) {
  const int np = ctx.nprocs();
  const Index n = cfg.n;

  dist::ProcessorArray parr;
  dist::DistributionType type;
  dist::IndexVec glo, ghi;
  if (layout == SmoothLayout::Columns) {
    parr = dist::ProcessorArray::line(np);
    type = dist::DistributionType{dist::col(), dist::block()};
    glo = {0, 1};
    ghi = {0, 1};
  } else {
    const int q = detail::square_side(np, "run_smoothing (grid2d layout)");
    parr = dist::ProcessorArray::grid(q, q);
    type = dist::DistributionType{dist::block(), dist::block()};
    glo = {1, 1};
    ghi = {1, 1};
  }
  // A 9-point step reads the diagonal neighbours too; on a 2-D block
  // grid those live in corner ghost regions (on the column layout the
  // first dimension is fully local, so faces already cover them).
  const bool corners = cfg.stencil == SmoothStencil::NinePoint;
  rt::Env env(ctx, parr);
  rt::DistArray<double> a(env, {.name = "A",
                                .domain = IndexDomain::of_extents({n, n}),
                                .dynamic = true,
                                .initial = type,
                                .overlap_lo = glo,
                                .overlap_hi = ghi,
                                .overlap_corners = corners});
  rt::DistArray<double> b(env, {.name = "B",
                                .domain = IndexDomain::of_extents({n, n}),
                                .dynamic = true,
                                .initial = type,
                                .overlap_lo = glo,
                                .overlap_hi = ghi,
                                .overlap_corners = corners});
  a.init([n](const IndexVec& i) {
    return std::sin(0.07 * static_cast<double>(i[0])) *
           std::cos(0.05 * static_cast<double>(i[1])) +
           (i[0] == n / 2 && i[1] == n / 2 ? 10.0 : 0.0);
  });

  rt::DistArray<double>* src = &a;
  rt::DistArray<double>* dst = &b;
  for (int s = 0; s < cfg.steps; ++s) {
    const auto update = [&](const IndexVec& i, double& out) {
      if (cfg.stencil == SmoothStencil::FivePoint) {
        const double c = src->at(i);
        const double w = i[0] > 1 ? src->halo({i[0] - 1, i[1]}) : c;
        const double e = i[0] < n ? src->halo({i[0] + 1, i[1]}) : c;
        const double so = i[1] > 1 ? src->halo({i[0], i[1] - 1}) : c;
        const double no = i[1] < n ? src->halo({i[0], i[1] + 1}) : c;
        out = 0.2 * (c + w + e + so + no);
      } else {
        out = smooth9(*src, i, n);
      }
    };
    if (cfg.split_phase) {
      // Interior points read only owned src values, so they update while
      // the boundary exchange is in flight; boundary points wait for the
      // ghosts.  src and dst share their distribution and spec, but the
      // margins are src's by rights (its ghosts are the ones arriving).
      src->begin_exchange_overlap();
      const auto m = src->split_margins();
      dst->for_owned_interior(m, update);
      src->end_exchange_overlap();
      dst->for_owned_boundary(m, update);
    } else {
      src->exchange_overlap();
      dst->for_owned(update);
    }
    std::swap(src, dst);
  }
  const auto& cache = env.halo_plans().stats();
  const auto hits = static_cast<std::int64_t>(cache.hits);
  const auto misses = static_cast<std::int64_t>(cache.misses);
  return SmoothResult{
      src->reduce(msg::ReduceOp::Sum),
      static_cast<std::uint64_t>(
          ctx.allreduce(hits, msg::ReduceOp::Sum)),
      static_cast<std::uint64_t>(
          ctx.allreduce(misses, msg::ReduceOp::Sum))};
}

double modeled_step_cost_us(SmoothLayout layout, Index n, int nprocs,
                            const msg::CostModel& cm, std::size_t elem_size) {
  if (layout == SmoothLayout::Columns) {
    return 2.0 * cm.message_us(static_cast<std::uint64_t>(n) * elem_size);
  }
  const int q = detail::isqrt(nprocs);
  const auto face = static_cast<std::uint64_t>((n + q - 1) / q) * elem_size;
  return 4.0 * cm.message_us(face);
}

SmoothLayout choose_layout(Index n, int nprocs, const msg::CostModel& cm,
                           std::size_t elem_size) {
  const double cols =
      modeled_step_cost_us(SmoothLayout::Columns, n, nprocs, cm, elem_size);
  const double grid =
      modeled_step_cost_us(SmoothLayout::Grid2D, n, nprocs, cm, elem_size);
  return cols <= grid ? SmoothLayout::Columns : SmoothLayout::Grid2D;
}

}  // namespace vf::apps
