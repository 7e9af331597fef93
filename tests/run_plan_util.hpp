// Shared checks of the msg::RunPlan format for the plan-builder tests
// (rt_redist_plan_test, halo_plan_test, parti_test): the CSR shape and
// per-peer counts of both sides, and how often the runs of a side cover
// each slot of one rank's ghost-padded column-major storage.  Every check
// expands the 2-D sections and the listed runs element by element, in
// the order the executor moves them.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "vf/dist/distribution.hpp"
#include "vf/msg/run_plan.hpp"

namespace vf::testing {

/// One rank's local storage geometry: owned counts padded by the ghost
/// widths, column-major (the shape DistArrayBase allocates).
struct StorageShape {
  int rank = 0;
  std::array<dist::Index, dist::kMaxRank> counts{};
  std::array<dist::Index, dist::kMaxRank> lo{};
  std::array<dist::Index, dist::kMaxRank> hi{};
  std::array<dist::Index, dist::kMaxRank> stride{};
  std::size_t total = 0;  ///< 0 when the rank owns nothing
};

inline StorageShape storage_shape(const dist::Distribution& d, int me,
                                  const dist::IndexVec& glo,
                                  const dist::IndexVec& ghi) {
  StorageShape s;
  const dist::LocalLayout L = d.layout_for(me);
  if (!L.member || L.total == 0) return s;
  s.rank = d.domain().rank();
  dist::Index total = 1;
  for (int k = 0; k < s.rank; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    s.counts[uk] = L.counts[k];
    s.lo[uk] = glo[k];
    s.hi[uk] = ghi[k];
    s.stride[uk] = total;
    total *= L.counts[k] + glo[k] + ghi[k];
  }
  s.total = static_cast<std::size_t>(total);
  return s;
}

/// Calls fn(pos, owned, offset) for every slot of the shape, where pos[k]
/// is the local position in [-lo[k], counts[k] + hi[k]) and owned says
/// whether every position lies in [0, counts[k]).
template <typename F>
void for_each_slot(const StorageShape& s, F&& fn) {
  if (s.total == 0) return;
  std::array<dist::Index, dist::kMaxRank> pos{};
  for (std::size_t k = 0; k < s.lo.size(); ++k) pos[k] = -s.lo[k];
  for (;;) {
    bool owned = true;
    dist::Index off = 0;
    for (int k = 0; k < s.rank; ++k) {
      const auto uk = static_cast<std::size_t>(k);
      owned = owned && pos[uk] >= 0 && pos[uk] < s.counts[uk];
      off += (pos[uk] + s.lo[uk]) * s.stride[uk];
    }
    fn(pos, owned, static_cast<std::size_t>(off));
    int k = 0;
    for (; k < s.rank; ++k) {
      const auto uk = static_cast<std::size_t>(k);
      if (++pos[uk] < s.counts[uk] + s.hi[uk]) break;
      pos[uk] = -s.lo[uk];
    }
    if (k == s.rank) break;
  }
}

/// Calls fn(offset) for every element of the run `r` of `side`, in the
/// order the executor moves them: row-major for a section, list order
/// for a listed run.
template <typename F>
void for_each_element(const msg::RunSide& side, const msg::Run& r, F&& fn) {
  if (r.listed()) {
    for (std::size_t c = 0; c < r.length; ++c) fn(side.index.at(r.offset + c));
    return;
  }
  for (std::size_t i = 0; i < r.rows; ++i) {
    for (std::size_t c = 0; c < r.length; ++c) {
      fn(r.offset + i * r.row_stride + c * r.step);
    }
  }
}

/// The element offsets of `runs` (runs of `side`), in the order the
/// executor moves them.
inline std::vector<std::size_t> expand(const msg::RunSide& side,
                                       std::span<const msg::Run> runs) {
  std::vector<std::size_t> out;
  for (const msg::Run& r : runs) {
    for_each_element(side, r, [&](std::size_t off) { out.push_back(off); });
  }
  return out;
}
/// ... of peer p's runs, and of every run of the side.
inline std::vector<std::size_t> expand(const msg::RunSide& side, int p) {
  return expand(side, side.peer(p));
}
inline std::vector<std::size_t> expand(const msg::RunSide& side) {
  return expand(side, std::span<const msg::Run>(side.runs));
}

/// CSR form of one side: np + 1 monotone starts spanning the run list,
/// well-formed non-empty sections, no two elements of one section at one
/// offset, listed runs of one row inside the index, and each peer's
/// element total equal to its count.
inline void expect_side_form(const msg::RunSide& side, int np,
                             const std::string& tag) {
  const auto& start = side.start;
  ASSERT_EQ(start.size(), static_cast<std::size_t>(np) + 1) << tag;
  ASSERT_EQ(side.counts.size(), static_cast<std::size_t>(np)) << tag;
  EXPECT_EQ(start.front(), 0u) << tag;
  EXPECT_EQ(start.back(), side.runs.size()) << tag;
  for (int p = 0; p < np; ++p) {
    const auto up = static_cast<std::size_t>(p);
    ASSERT_LE(start[up], start[up + 1]) << tag << " peer " << p;
    std::uint64_t sum = 0;
    for (const msg::Run& r : side.peer(p)) {
      EXPECT_GT(r.length, 0u) << tag << " peer " << p;
      EXPECT_GT(r.rows, 0u) << tag << " peer " << p;
      sum += r.elements();
      if (r.listed()) {
        EXPECT_EQ(r.rows, 1u) << tag << " peer " << p;
        EXPECT_LE(r.offset + r.length, side.index.size())
            << tag << " peer " << p << ": listed run past the index";
        continue;
      }
      std::vector<std::size_t> offs = expand(side, std::span(&r, 1));
      std::sort(offs.begin(), offs.end());
      EXPECT_EQ(std::adjacent_find(offs.begin(), offs.end()), offs.end())
          << tag << " peer " << p << ": section at " << r.offset
          << " repeats an offset";
    }
    EXPECT_EQ(sum, side.counts[up]) << tag << " peer " << p;
  }
}

/// Whether `b` has the run shape of `a` (what build_like makes and
/// zip_runs pairs): as many runs, run k of each holding as many elements,
/// and of one rows x length when both are sections.
inline bool same_shape(const msg::RunSide& a, const msg::RunSide& b) {
  if (a.runs.size() != b.runs.size()) return false;
  for (std::size_t k = 0; k < a.runs.size(); ++k) {
    const msg::Run& x = a.runs[k];
    const msg::Run& y = b.runs[k];
    if (x.elements() != y.elements()) return false;
    if (!x.listed() && !y.listed() &&
        (x.rows != y.rows || x.length != y.length)) {
      return false;
    }
  }
  return true;
}

/// CSR form of both sides of a plan.
inline void expect_csr_form(const msg::RunPlan& plan, int np,
                            const std::string& tag) {
  expect_side_form(plan.pack, np, tag + " pack");
  expect_side_form(plan.unpack, np, tag + " unpack");
}

/// How many elements of `side` cover each slot of a `total`-slot
/// allocation; an element outside the allocation fails the test.
inline std::vector<int> coverage(const msg::RunSide& side, std::size_t total,
                                 const std::string& tag) {
  std::vector<int> cov(total, 0);
  for (const std::size_t off : expand(side)) {
    if (off >= total) {
      ADD_FAILURE() << tag << ": element " << off << " outside the " << total
                    << "-slot allocation";
      continue;
    }
    ++cov[off];
  }
  return cov;
}

/// Both ends of every transfer agree on its size: rank a sends rank b
/// exactly what b expects from a.
inline void expect_counts_agree(const std::vector<msg::RunPlan>& plans,
                                const std::string& tag) {
  const std::size_t np = plans.size();
  for (std::size_t a = 0; a < np; ++a) {
    for (std::size_t b = 0; b < np; ++b) {
      EXPECT_EQ(plans[a].pack.counts[b], plans[b].unpack.counts[a])
          << tag << ": " << a << " -> " << b;
    }
  }
}

}  // namespace vf::testing
