// Shared application kernels for the examples and benches: the sequential
// TRIDIAG routine of Figure 1 and the PIC balance helpers of Figure 2.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "vf/dist/dist_type.hpp"

namespace vf::apps {

/// The sequential routine TRIDIAG of Figure 1: "given a right hand side
/// [it] overwrites it with the solution of a constant coefficient
/// tridiagonal system" (Thomas algorithm for a*x[k-1] + b*x[k] + a*x[k+1]
/// = rhs[k]).
///
/// The elimination factors of a constant-coefficient system depend on the
/// row index k alone, not on the line: with m[0] = b and
/// m[k] = b - a*c[k-1], row k uses c[k] = a / m[k] and r[k] = 1 / m[k].
/// Each thread keeps them in one table keyed by (a, b), compared
/// bitwise. The table grows to the longest line seen, a shorter line
/// reads a prefix of it, and a different (a, b) refills it. So in steady
/// state a solve neither allocates nor divides: the forward pass is
/// x[k] = x[k]*r[k] - c[k]*x[k-1], whose loop-carried path is one
/// multiply and one subtract (x[k]*r[k] is off the chain), and the
/// backward pass is x[k] -= c[k]*x[k+1].
///
/// Multiplying by the reciprocal r[k] rounds differently from dividing by
/// m[k], so results differ from the division form in the last bits (on
/// 128 random lines of 512: by at most 4e-16 of the line's largest
/// value, with residual 4.4e-16). The result depends only on (rhs, a, b),
/// never on which lines the thread solved before, so two runs that solve
/// the same lines agree bitwise.
inline void tridiag(std::span<double> rhs, double a = -1.0, double b = 4.0) {
  const std::size_t n = rhs.size();
  if (n == 0) return;
  struct Factors {
    std::uint64_t a_bits = 0;
    std::uint64_t b_bits = 0;
    std::vector<double> c;  ///< a / m[k]
    std::vector<double> r;  ///< 1 / m[k]
  };
  thread_local Factors t;
  const auto a_bits = std::bit_cast<std::uint64_t>(a);
  const auto b_bits = std::bit_cast<std::uint64_t>(b);
  if (a_bits != t.a_bits || b_bits != t.b_bits) {
    t.a_bits = a_bits;
    t.b_bits = b_bits;
    t.c.clear();
    t.r.clear();
  }
  for (std::size_t k = t.c.size(); k < n; ++k) {
    const double m = k == 0 ? b : b - a * t.c[k - 1];
    t.c.push_back(a / m);
    t.r.push_back(1.0 / m);
  }
  double* x = rhs.data();
  const double* c = t.c.data();
  const double* r = t.r.data();
  x[0] *= r[0];
  for (std::size_t k = 1; k < n; ++k) x[k] = x[k] * r[k] - c[k] * x[k - 1];
  for (std::size_t k = n - 1; k-- > 0;) x[k] -= c[k] * x[k + 1];
}

/// The procedure `balance` of Figure 2: "Using the number of particles in
/// each cell, [it] computes the block sizes to be assigned to each
/// processor" -- a prefix-sum partition targeting equal particle counts.
/// Returns the BOUNDS array (upper cell index per processor, 1-based,
/// suitable for B_BLOCK).
inline std::vector<dist::Index> balance(std::span<const std::int64_t> per_cell,
                                        int nprocs) {
  const auto ncell = static_cast<dist::Index>(per_cell.size());
  const std::int64_t total =
      std::accumulate(per_cell.begin(), per_cell.end(), std::int64_t{0});
  std::vector<dist::Index> bounds;
  bounds.reserve(static_cast<std::size_t>(nprocs));
  std::int64_t seen = 0;
  dist::Index cell = 0;
  for (int p = 0; p < nprocs; ++p) {
    const std::int64_t target = total * (p + 1) / nprocs;
    while (cell < ncell && seen < target) {
      seen += per_cell[static_cast<std::size_t>(cell)];
      ++cell;
    }
    bounds.push_back(p + 1 == nprocs ? ncell : cell);
  }
  return bounds;
}

/// Load imbalance of a per-processor work vector: max / mean (1.0 =
/// perfectly balanced).
inline double imbalance(std::span<const std::int64_t> work) {
  if (work.empty()) return 1.0;
  std::int64_t mx = 0, sum = 0;
  for (auto w : work) {
    mx = std::max(mx, w);
    sum += w;
  }
  if (sum == 0) return 1.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(work.size());
  return static_cast<double>(mx) / mean;
}

}  // namespace vf::apps
