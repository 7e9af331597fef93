// Shared checks of the msg::RunPlan format for the plan-builder tests
// (rt_redist_plan_test, halo_plan_test): the CSR shape and per-peer counts
// of both sides, and how often the runs of a side cover each slot of one
// rank's ghost-padded column-major storage.
#pragma once

#include <gtest/gtest.h>

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

/// CSR form of both sides: np + 1 monotone starts spanning the run list,
/// and each peer's run lengths summing to its send/recv count.
inline void expect_csr_form(const msg::RunPlan& plan, int np,
                            const std::string& tag) {
  const auto side = [&](const std::vector<msg::RunPlan::Run>& runs,
                        const std::vector<std::uint32_t>& start,
                        const std::vector<std::uint64_t>& counts,
                        const char* name) {
    ASSERT_EQ(start.size(), static_cast<std::size_t>(np) + 1) << tag << name;
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(np)) << tag << name;
    EXPECT_EQ(start.front(), 0u) << tag << name;
    EXPECT_EQ(start.back(), runs.size()) << tag << name;
    for (int p = 0; p < np; ++p) {
      const auto up = static_cast<std::size_t>(p);
      ASSERT_LE(start[up], start[up + 1]) << tag << name << " peer " << p;
      std::uint64_t sum = 0;
      for (std::uint32_t k = start[up]; k < start[up + 1]; ++k) {
        EXPECT_GT(runs[k].length, 0u) << tag << name << " peer " << p;
        sum += runs[k].length;
      }
      EXPECT_EQ(sum, counts[up]) << tag << name << " peer " << p;
    }
  };
  side(plan.pack, plan.pack_start, plan.send_counts, " pack");
  side(plan.unpack, plan.unpack_start, plan.recv_counts, " unpack");
}

/// How many of `runs` cover each slot of a `total`-slot allocation; a run
/// reaching outside the allocation fails the test.
inline std::vector<int> coverage(std::span<const msg::RunPlan::Run> runs,
                                 std::size_t total, const std::string& tag) {
  std::vector<int> cov(total, 0);
  for (const msg::RunPlan::Run& r : runs) {
    if (r.offset + r.length > total) {
      ADD_FAILURE() << tag << ": run [" << r.offset << ", +" << r.length
                    << ") outside the " << total << "-slot allocation";
      continue;
    }
    for (std::size_t k = 0; k < r.length; ++k) ++cov[r.offset + k];
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
      EXPECT_EQ(plans[a].send_counts[b], plans[b].recv_counts[a])
          << tag << ": " << a << " -> " << b;
    }
  }
}

}  // namespace vf::testing
