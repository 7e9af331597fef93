#include "vf/rt/redist_plan.hpp"

#include <array>

namespace vf::rt {

namespace {

using dist::Index;
using dist::IndexVec;
using dist::kMaxRank;

/// Emits the runs for one side of the exchange: `mine` is the distribution
/// whose data occupies local storage (old for packing, new for unpacking),
/// `other` is the distribution determining the peer rank of each element.
/// Runs are produced in global column-major enumeration order over this
/// rank's owned set, split wherever the peer changes.
void build_side(const dist::Distribution& mine, const dist::Distribution& other,
                int me, const IndexVec& ghost_lo, const IndexVec& ghost_hi,
                msg::RunPlanBuilder::Side& runs) {
  const dist::LocalLayout L = mine.layout_for(me);
  if (!L.member || L.total == 0) return;
  const int r = mine.domain().rank();

  // Column-major allocation strides over the ghost-padded owned extents.
  IndexVec strides = IndexVec::filled(r, 0);
  Index total = 1;
  for (int d = 0; d < r; ++d) {
    strides[d] = total;
    total *= L.counts[d] + ghost_lo[d] + ghost_hi[d];
  }

  const dist::RankAffine& oa = other.rank_affine();

  // Innermost dimension: collapse the per-element peer contributions into
  // maximal constant-peer runs.  Successive owned globals sit at
  // successive local offsets (local_of is ascending-dense), so each run is
  // one contiguous span of storage.
  struct InnerRun {
    Index start_local;
    Index len;
    Index contrib;
  };
  std::vector<InnerRun> inner;
  {
    const auto owned0 = mine.owned_in_dim(me, 0);
    const auto& m0 = other.dim_map(0);
    const Index s0 = oa.stride[0];
    for (std::size_t j = 0; j < owned0.size(); ++j) {
      const Index contrib = s0 * m0.proc_of(owned0[j]);
      if (!inner.empty() && inner.back().contrib == contrib &&
          inner.back().start_local + inner.back().len ==
              static_cast<Index>(j)) {
        ++inner.back().len;
      } else {
        inner.push_back({static_cast<Index>(j), 1, contrib});
      }
    }
  }

  // Outer dimensions: per-dimension peer-rank contributions; storage
  // offsets follow from the dense local enumeration directly.
  std::array<std::vector<Index>, kMaxRank> rank_c;
  for (int d = 1; d < r; ++d) {
    const auto owned = mine.owned_in_dim(me, d);
    auto& rc = rank_c[static_cast<std::size_t>(d)];
    rc.reserve(owned.size());
    const auto& md = other.dim_map(d);
    const Index sd = oa.stride[static_cast<std::size_t>(d)];
    for (Index g : owned) rc.push_back(sd * md.proc_of(g));
  }

  std::array<std::size_t, kMaxRank> pos{};
  for (;;) {
    Index outer_off = 0;
    Index outer_rank = oa.base;
    for (int d = 1; d < r; ++d) {
      const auto p = pos[static_cast<std::size_t>(d)];
      outer_off += (static_cast<Index>(p) + ghost_lo[d]) * strides[d];
      outer_rank += rank_c[static_cast<std::size_t>(d)][p];
    }
    for (const InnerRun& ir : inner) {
      runs.add(static_cast<int>(outer_rank + ir.contrib),
               static_cast<std::size_t>(outer_off +
                                        (ir.start_local + ghost_lo[0]) *
                                            strides[0]),
               static_cast<std::size_t>(ir.len));
    }
    int d = 1;
    for (; d < r; ++d) {
      auto& p = pos[static_cast<std::size_t>(d)];
      if (++p < rank_c[static_cast<std::size_t>(d)].size()) break;
      p = 0;
    }
    if (d == r) break;
  }
}

}  // namespace

msg::RunPlan build_redist_plan(const dist::Distribution& od,
                               const dist::Distribution& nd, int me, int np,
                               const dist::IndexVec& ghost_lo,
                               const dist::IndexVec& ghost_hi) {
  msg::RunPlanBuilder b{.np = np};
  build_side(od, nd, me, ghost_lo, ghost_hi, b.pack);
  build_side(nd, od, me, ghost_lo, ghost_hi, b.unpack);
  return b.finish();
}

}  // namespace vf::rt
