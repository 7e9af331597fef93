// Rules shared by the refinement-front apps (amr_front.cpp, soak.cpp) and
// the processor-grid check smoothing_sim.cpp also needs.  Internal to
// src/apps; the configs are templates so both AmrFrontConfig and
// SoakConfig (same field names) read them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "vf/apps/amr_front.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::apps::detail {

/// Floor of the square root of p >= 0.
inline int isqrt(int p) {
  int q = 0;
  while ((q + 1) * (q + 1) <= p) ++q;
  return q;
}

/// The side q of a q x q processor grid; `who` names the caller in the
/// error when np is not a perfect square.
inline int square_side(int np, const char* who) {
  const int q = isqrt(np);
  if (q * q != np) {
    throw std::invalid_argument(std::string(who) +
                                ": nprocs must be a perfect square, got " +
                                std::to_string(np));
  }
  return q;
}

/// Re-declares src's ghost widths for the front at f (collective: every
/// rank calls, including ranks far from the front whose widths stay at
/// base_width).  Dimension 0 gets the widest reach of any owned cell's
/// radius past each segment edge: a cell i reads down to i - r(i), so the
/// low width is max over owned i of r(i) - (i - a); only cells within
/// front_width of the edge can exceed base_width.
template <typename Cfg>
void declare_front_overlap(rt::DistArray<double>& src, dist::Index f,
                           const Cfg& cfg) {
  const auto radius = [&](dist::Index i) {
    return amr_radius(i, f, cfg.front_halfspan, cfg.base_width,
                      cfg.front_width);
  };
  dist::Index lo0 = cfg.base_width;
  dist::Index hi0 = cfg.base_width;
  if (src.layout().member) {
    const auto seg = src.distribution().dim_map(0).segment(
        static_cast<int>(src.layout().coords[0]));
    if (seg) {
      const dist::Index a = seg->lo;
      const dist::Index b = seg->hi;
      for (dist::Index i = a; i <= b && i <= a + cfg.front_width; ++i) {
        lo0 = std::max(lo0, radius(i) - (i - a));
      }
      for (dist::Index i = std::max(a, b - cfg.front_width); i <= b; ++i) {
        hi0 = std::max(hi0, radius(i) - (b - i));
      }
    }
  }
  src.set_overlap({lo0, 1}, {hi0, 1}, /*corners=*/false,
                  /*asymmetric=*/true);
}

/// The sequential reference of a front sweep whose front sits at
/// front_at(step): the full final grid in column-major linearized order.
template <typename Cfg, typename FrontAt>
std::vector<double> front_reference(const Cfg& cfg, FrontAt front_at) {
  const dist::Index n = cfg.n;
  const auto at = [n](dist::Index x, dist::Index y) {
    return static_cast<std::size_t>((x - 1) + n * (y - 1));
  };
  std::vector<double> cur(static_cast<std::size_t>(n * n));
  for (dist::Index j = 1; j <= n; ++j) {
    for (dist::Index i = 1; i <= n; ++i) cur[at(i, j)] = amr_seed(i, j, n);
  }
  std::vector<double> next(cur.size());
  for (int step = 0; step < cfg.steps; ++step) {
    const dist::Index f = front_at(step);
    const auto rd = [&](dist::Index x, dist::Index y) { return cur[at(x, y)]; };
    for (dist::Index j = 1; j <= n; ++j) {
      for (dist::Index i = 1; i <= n; ++i) {
        const dist::Index r = amr_radius(i, f, cfg.front_halfspan,
                                         cfg.base_width, cfg.front_width);
        next[at(i, j)] = amr_point(i, j, n, r, rd);
      }
    }
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace vf::apps::detail
