#include "vf/halo/plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>

namespace vf::halo {

namespace {

using dist::Index;
using dist::kMaxRank;

std::atomic<std::uint64_t> g_builds{0};

/// Nearest coordinate at or beyond `c` (exclusive) in direction `step`
/// with a non-empty owned count in the map, or -1.
int neighbour_coord(const dist::DimMap& m, int c, int step) {
  for (int x = c + step; x >= 0 && x < m.nprocs(); x += step) {
    if (m.count_on(x) > 0) return x;
  }
  return -1;
}

/// Strict admission check of a genuinely asymmetric family against a
/// distribution: every ghosted dimension must be contiguous for every
/// member, and no rank may request a ghost wider than the segment its
/// neighbour actually owns (the uniform path clips instead -- see
/// build_family_plan's contract).
///
/// The family is replicated, so these throws are normally rank-symmetric
/// -- but they no longer have to be: a rank that swallows the error (or
/// validates against a diverged family) trips the abort fence on its
/// next blocking call instead of deadlocking the exchange.
void validate_family(const dist::Distribution& d, const HaloFamily& fam,
                     int np) {
  const int r = d.domain().rank();
  for (int dd = 0; dd < r; ++dd) {
    bool any = false;
    for (int p = 0; p < np && !any; ++p) {
      const HaloSpec& s = fam.spec_of(p);
      any = s.rank() != 0 && (s.lo(dd) > 0 || s.hi(dd) > 0);
    }
    if (any && !d.dim_map(dd).contiguous()) {
      throw std::invalid_argument(
          "HaloPlan: asymmetric overlap areas require a contiguous "
          "distribution in dimension " +
          std::to_string(dd));
    }
  }
  const auto check_side = [&](int p, const dist::LocalLayout& L, int dd,
                              Index want, int step, const char* side) {
    if (want <= 0) return;
    const dist::DimMap& m = d.dim_map(dd);
    const int n = neighbour_coord(m, static_cast<int>(L.coords[dd]), step);
    if (n >= 0 && m.count_on(n) < want) {
      throw std::invalid_argument(
          "HaloPlan: rank " + std::to_string(p) + " requests a " + side +
          " ghost of " + std::to_string(want) + " plane(s) in dimension " +
          std::to_string(dd) + " but its neighbour owns only " +
          std::to_string(m.count_on(n)) +
          " (asymmetric specs are exact; shrink the requested width)");
    }
  };
  for (int p = 0; p < np; ++p) {
    const HaloSpec& s = fam.spec_of(p);
    if (s.rank() == 0 || s.empty()) continue;
    if (s.rank() != r) {
      throw std::invalid_argument(
          "HaloPlan: rank " + std::to_string(p) +
          "'s spec rank does not match the distribution");
    }
    const dist::LocalLayout L = d.layout_for(p);
    if (!L.member || L.total == 0) continue;
    for (int dd = 0; dd < r; ++dd) {
      check_side(p, L, dd, s.lo(dd), -1, "low");
      check_side(p, L, dd, s.hi(dd), +1, "high");
    }
  }
}

/// The shared plan-construction body.  `mine` is this rank's own spec (the
/// receive side: my ghost regions); `spec_of(rank)` yields the spec of any
/// peer (the send side: what that peer's ghost regions demand of me).  For
/// the uniform build both are the same spec; for a family the send side
/// reads each neighbour's member spec.  `any_remote_ghost` says whether
/// ANY rank's spec has non-zero widths -- a rank with an empty local spec
/// must still walk the direction loop to serve its neighbours.
template <typename SpecOf>
msg::RunPlan build_impl(const dist::Distribution& d, const HaloSpec& mine,
                        SpecOf&& spec_of, bool any_remote_ghost, int me,
                        int np) {
  g_builds.fetch_add(1, std::memory_order_relaxed);
  msg::RunPlanBuilder plan{.np = np};

  const int r = d.domain().rank();
  const HaloSpec& spec = mine;
  if (spec.rank() != 0 && spec.rank() != r) {
    throw std::invalid_argument(
        "HaloPlan: spec rank does not match the distribution");
  }
  const dist::LocalLayout L = d.layout_for(me);
  if (!L.member || L.total == 0) return plan.finish();

  // Ghost widths and the ghost-padded column-major storage geometry this
  // plan's offsets address (the same shape DistArrayBase allocates).
  std::array<Index, kMaxRank> glo{};
  std::array<Index, kMaxRank> ghi{};
  std::array<Index, kMaxRank> stride{};
  Index total_alloc = 1;
  bool any_ghost = false;
  for (int dd = 0; dd < r; ++dd) {
    glo[static_cast<std::size_t>(dd)] = spec.rank() == 0 ? 0 : spec.lo(dd);
    ghi[static_cast<std::size_t>(dd)] = spec.rank() == 0 ? 0 : spec.hi(dd);
    if (glo[static_cast<std::size_t>(dd)] > 0 ||
        ghi[static_cast<std::size_t>(dd)] > 0) {
      any_ghost = true;
      if (!d.dim_map(dd).contiguous()) {
        throw std::invalid_argument(
            "HaloPlan: overlap areas require a contiguous distribution in "
            "dimension " +
            std::to_string(dd));
      }
    }
    stride[static_cast<std::size_t>(dd)] = total_alloc;
    total_alloc *= L.counts[dd] + glo[static_cast<std::size_t>(dd)] +
                   ghi[static_cast<std::size_t>(dd)];
  }
  if (!any_ghost && !any_remote_ghost) return plan.finish();

  const dist::RankAffine& affine = d.rank_affine();
  const auto rank_of = [&](const std::array<int, kMaxRank>& coords) {
    Index delta = 0;
    for (int dd = 0; dd < r; ++dd) {
      delta += (static_cast<Index>(coords[static_cast<std::size_t>(dd)]) -
                L.coords[dd]) *
               affine.stride[static_cast<std::size_t>(dd)];
    }
    return static_cast<int>(me + delta);
  };

  // Emits one rectangular region (per-dimension local [from, from+width))
  // as innermost-dimension runs, in local column-major order.  Both sides
  // of every transfer enumerate ascending, so the per-pair sequences
  // agree and only values travel.
  const auto emit = [&](const std::array<Index, kMaxRank>& from,
                        const std::array<Index, kMaxRank>& width, int peer,
                        msg::RunPlanBuilder::Side& runs) {
    std::array<Index, kMaxRank> pos{};
    for (;;) {
      Index off = (from[0] + glo[0]) * stride[0];
      for (int e = 1; e < r; ++e) {
        off += (from[static_cast<std::size_t>(e)] +
                pos[static_cast<std::size_t>(e)] +
                glo[static_cast<std::size_t>(e)]) *
               stride[static_cast<std::size_t>(e)];
      }
      runs.add(peer, static_cast<std::size_t>(off),
               static_cast<std::size_t>(width[0]));
      int e = 1;
      for (; e < r; ++e) {
        if (++pos[static_cast<std::size_t>(e)] <
            width[static_cast<std::size_t>(e)]) {
          break;
        }
        pos[static_cast<std::size_t>(e)] = 0;
      }
      if (e >= r) break;
    }
  };

  // Every non-zero direction vector in {-1, 0, +1}^r names one ghost
  // region: faces have exactly one non-zero offset, corners more.  Each
  // region is filled by the nearest rank owning planes in that direction,
  // clipped to what it owns ("partial fill": a neighbour owning fewer
  // planes than the overlap width sends what it has).  Distinct
  // directions always name distinct peers, so each ordered pair moves at
  // most one region -- one buffer, one message.
  std::array<int, kMaxRank> s{};
  for (int dd = 0; dd < r; ++dd) s[static_cast<std::size_t>(dd)] = -1;
  const auto advance = [&]() {
    for (int dd = 0; dd < r; ++dd) {
      auto& x = s[static_cast<std::size_t>(dd)];
      if (++x <= 1) return true;
      x = -1;
    }
    return false;
  };
  do {
    int nonzero = 0;
    for (int dd = 0; dd < r; ++dd) nonzero += s[static_cast<std::size_t>(dd)] != 0;
    if (nonzero == 0) continue;

    // Receiver role: the rank at direction s is my source; it fills my
    // ghost region on side s.  Gated on MY corners flag -- my spec alone
    // defines my ghost regions.
    if (nonzero == 1 || spec.corners()) {
      bool valid = true;
      std::array<Index, kMaxRank> from{};
      std::array<Index, kMaxRank> width{};
      std::array<int, kMaxRank> peer{};
      for (int dd = 0; dd < r && valid; ++dd) {
        const auto ud = static_cast<std::size_t>(dd);
        const int c = static_cast<int>(L.coords[dd]);
        peer[ud] = c;
        if (s[ud] == 0) {
          from[ud] = 0;
          width[ud] = L.counts[dd];
        } else {
          const dist::DimMap& m = d.dim_map(dd);
          const Index g = s[ud] < 0 ? glo[ud] : ghi[ud];
          const int n = neighbour_coord(m, c, s[ud]);
          if (g == 0 || n < 0) {
            valid = false;
            break;
          }
          const Index w = std::min<Index>(g, m.count_on(n));
          if (w == 0) {
            valid = false;
            break;
          }
          peer[ud] = n;
          from[ud] = s[ud] < 0 ? -w : L.counts[dd];
          width[ud] = w;
        }
      }
      if (valid) {
        emit(from, width, rank_of(peer), plan.unpack);
      }
    }

    // Sender role: the rank at direction s is my receiver; I fill its
    // ghost region on the side facing me with my outermost owned planes.
    // The region is defined by the RECEIVER's spec (widths and corners
    // flag), so resolve the peer rank first and read its member spec --
    // under a uniform family that is my own spec and this degenerates to
    // the original symmetric walk.
    {
      bool valid = true;
      std::array<int, kMaxRank> peer{};
      for (int dd = 0; dd < r && valid; ++dd) {
        const auto ud = static_cast<std::size_t>(dd);
        const int c = static_cast<int>(L.coords[dd]);
        peer[ud] = c;
        if (s[ud] == 0) continue;
        const int n = neighbour_coord(d.dim_map(dd), c, s[ud]);
        if (n < 0) {
          valid = false;
          break;
        }
        peer[ud] = n;
      }
      if (valid) {
        const int peer_rank = rank_of(peer);
        const HaloSpec& rs = spec_of(peer_rank);
        const bool rs_none = rs.rank() == 0;
        if (nonzero > 1 && (rs_none || !rs.corners())) valid = false;
        std::array<Index, kMaxRank> from{};
        std::array<Index, kMaxRank> width{};
        for (int dd = 0; dd < r && valid; ++dd) {
          const auto ud = static_cast<std::size_t>(dd);
          if (s[ud] == 0) {
            from[ud] = 0;
            width[ud] = L.counts[dd];
            continue;
          }
          // A receiver above me (s = +1) reads my top planes into its low
          // ghost; a receiver below reads my bottom planes into its high
          // ghost.
          const Index g = rs_none ? 0 : (s[ud] > 0 ? rs.lo(dd) : rs.hi(dd));
          const Index w = std::min<Index>(g, L.counts[dd]);
          if (w == 0) {
            valid = false;
            break;
          }
          from[ud] = s[ud] > 0 ? L.counts[dd] - w : 0;
          width[ud] = w;
        }
        if (valid) {
          emit(from, width, peer_rank, plan.pack);
        }
      }
    }
  } while (advance());

  return plan.finish();
}

}  // namespace

std::uint64_t plan_builds() noexcept {
  return g_builds.load(std::memory_order_relaxed);
}

msg::RunPlan build_plan(const dist::Distribution& d, const HaloSpec& spec,
                        int me, int np) {
  return build_impl(
      d, spec, [&](int) -> const HaloSpec& { return spec; },
      /*any_remote_ghost=*/!spec.empty(), me, np);
}

msg::RunPlan build_family_plan(const dist::Distribution& d,
                               const HaloFamily& fam, int me, int np) {
  if (fam.nprocs() != np) {
    throw std::invalid_argument(
        "HaloPlan: family member count does not match the machine size");
  }
  if (fam.uniform()) return build_plan(d, fam.spec_of(me), me, np);
  validate_family(d, fam, np);
  return build_impl(
      d, fam.spec_of(me),
      [&](int rank) -> const HaloSpec& { return fam.spec_of(rank); },
      /*any_remote_ghost=*/!fam.empty(), me, np);
}

HaloFill filled_widths(const dist::Distribution& d, const HaloSpec& spec,
                       int me) {
  HaloFill f;
  const int r = d.domain().rank();
  f.lo = dist::IndexVec::filled(r, 0);
  f.hi = dist::IndexVec::filled(r, 0);
  f.corners = spec.corners();
  const dist::LocalLayout L = d.layout_for(me);
  f.member = L.member && L.total > 0;
  if (!f.member || spec.rank() == 0) return f;
  for (int dd = 0; dd < r; ++dd) {
    const dist::DimMap& m = d.dim_map(dd);
    const int c = static_cast<int>(L.coords[dd]);
    if (spec.lo(dd) > 0) {
      const int n = neighbour_coord(m, c, -1);
      if (n >= 0) f.lo[dd] = std::min<Index>(spec.lo(dd), m.count_on(n));
    }
    if (spec.hi(dd) > 0) {
      const int n = neighbour_coord(m, c, +1);
      if (n >= 0) f.hi[dd] = std::min<Index>(spec.hi(dd), m.count_on(n));
    }
  }
  return f;
}

std::size_t HaloPlanCache::sweep(
    const std::vector<std::uint32_t>& live_dist_uids) {
  return cache_.erase_if([&](std::uint64_t, const Entry& e) {
    return std::find(live_dist_uids.begin(), live_dist_uids.end(),
                     e.dist.uid()) == live_dist_uids.end();
  });
}

std::shared_ptr<const msg::RunPlan> HaloPlanCache::lookup_or_build(
    const dist::DistHandle& d, const HaloHandle& h, int me, int np) {
  if (!d || !h) {
    throw std::invalid_argument(
        "HaloPlanCache: null distribution or halo handle");
  }
  if (const Entry* e = cache_.find(key_of(d, h))) return e->plan;
  auto plan = std::make_shared<const msg::RunPlan>(build_plan(*d, *h, me, np));
  cache_.insert(key_of(d, h), Entry{d, h, FamilyHandle{}, plan},
                sizeof(Entry) + plan->footprint_bytes());
  return plan;
}

std::shared_ptr<const msg::RunPlan> HaloPlanCache::lookup_or_build(
    const dist::DistHandle& d, const FamilyHandle& f, int me, int np) {
  if (!d || !f) {
    throw std::invalid_argument(
        "HaloPlanCache: null distribution or family handle");
  }
  if (const Entry* e = cache_.find(key_of(d, f))) return e->plan;
  auto plan = std::make_shared<const msg::RunPlan>(
      build_family_plan(*d, *f, me, np));
  cache_.insert(key_of(d, f), Entry{d, HaloHandle{}, f, plan},
                sizeof(Entry) + plan->footprint_bytes());
  return plan;
}

}  // namespace vf::halo
