#include "vf/parti/schedule.hpp"

#include <algorithm>
#include <unordered_map>

#include "vf/halo/plan.hpp"

namespace vf::parti {

Schedule::Schedule(msg::Context& ctx, dist::DistHandle target,
                   std::vector<dist::IndexVec> points)
    : Schedule(ctx, std::move(target), std::move(points), halo::HaloHandle{}) {
}

Schedule::Schedule(msg::Context& ctx, dist::DistHandle target,
                   std::vector<dist::IndexVec> points, halo::HaloHandle halo)
    : halo_(std::move(halo)), target_(std::move(target)) {
  init(ctx, std::move(points), SkewConfig{});
}

Schedule::Schedule(msg::Context& ctx, dist::DistHandle target,
                   std::vector<dist::IndexVec> points, const SkewConfig& cfg)
    : target_(std::move(target)) {
  init(ctx, std::move(points), cfg);
}

void Schedule::init(msg::Context& ctx, std::vector<dist::IndexVec> points,
                    const SkewConfig& cfg) {
  if (!target_) {
    throw std::invalid_argument("Schedule: null target distribution handle");
  }
  dom_ = target_->domain();
  const int np = ctx.nprocs();
  const int me = ctx.rank();
  n_points_ = points.size();
  occ_positions_.resize(static_cast<std::size_t>(np));
  occ_unique_index_.resize(static_cast<std::size_t>(np));
  req_unique_counts_.assign(static_cast<std::size_t>(np), 0);

  // The filled ghost widths of (target, halo) on this rank: points inside
  // them are current after an exchange_overlap(), so the inspector plants
  // them in the halo-read list instead of requesting them remotely.
  halo::HaloFill fill;
  const bool use_halo = halo_ && !halo_->empty();
  if (use_halo) fill = halo::filled_widths(*target_, *halo_, me);
  const dist::LocalLayout L = target_->layout_for(me);
  const auto halo_readable = [&](const dist::IndexVec& pt) {
    if (!use_halo || !fill.member) return false;
    int ghost_dims = 0;
    for (int d = 0; d < dom_.rank(); ++d) {
      const dist::DimMap& m = target_->dim_map(d);
      const int c = static_cast<int>(L.coords[d]);
      if (m.proc_of(pt[d]) == c) continue;  // owned in this dimension
      if (!m.contiguous()) return false;
      const auto seg = m.segment(c);
      if (!seg) return false;
      if (pt[d] < seg->lo && seg->lo - pt[d] <= fill.lo[d]) {
        ++ghost_dims;
        continue;
      }
      if (pt[d] > seg->hi && pt[d] - seg->hi <= fill.hi[d]) {
        ++ghost_dims;
        continue;
      }
      return false;
    }
    return ghost_dims == 1 || (ghost_dims > 1 && fill.corners);
  };

  // Group this rank's requests by owner and deduplicate per owner, in
  // order of first occurrence.  Only the unique linear ids travel.
  std::vector<std::vector<dist::Index>> unique_ids(
      static_cast<std::size_t>(np));
  std::vector<std::unordered_map<dist::Index, std::size_t>> uniq(
      static_cast<std::size_t>(np));
  for (std::size_t k = 0; k < points.size(); ++k) {
    const dist::IndexVec& pt = points[k];
    // Validate against the target domain up front: an out-of-domain point
    // must fail here, with the offending point named, before anything is
    // planted in the serve/request structures.  (Relying on downstream
    // per-dimension checks would report a DimMap range error instead and
    // leaves the guarantee at the mercy of every map representation.)
    if (!dom_.contains(pt)) {
      throw std::out_of_range(
          "Schedule inspector: requested point " + pt.to_string() +
          " is outside the target's index domain");
    }
    const int p = target_->owner_rank(pt);
    const dist::Index lin = dom_.linearize(pt);
    if (p == me) {
      local_linear_.push_back(lin);
      local_positions_.push_back(k);
      continue;
    }
    if (halo_readable(pt)) {
      halo_linear_.push_back(lin);
      halo_positions_.push_back(k);
      continue;
    }
    const auto up = static_cast<std::size_t>(p);
    auto [it, inserted] = uniq[up].try_emplace(lin, uniq[up].size());
    if (inserted) unique_ids[up].push_back(lin);
    occ_positions_[up].push_back(k);
    occ_unique_index_[up].push_back(it->second);
  }
  for (std::size_t p = 0; p < uniq.size(); ++p) {
    req_unique_counts_[p] = unique_ids[p].size();
    n_unique_offproc_ += unique_ids[p].size();
  }

  // Inspector exchange: ship the unique request lists to the owners.  This
  // is the only count-establishing collective; executors replay with
  // pre-agreed counts.  The skew pass needs the shipped lists again (to
  // carve heavy elements out of the per-peer occurrence indexing), so it
  // keeps a copy before the move.
  std::vector<std::vector<dist::Index>> requested;
  if (cfg.enabled) requested = unique_ids;
  auto incoming = ctx.alltoallv(std::move(unique_ids));
  serve_start_.assign(static_cast<std::size_t>(np) + 1, 0);
  expect_scatter_.assign(static_cast<std::size_t>(np), 0);
  std::size_t total = 0;
  for (int s = 0; s < np; ++s) {
    const auto us = static_cast<std::size_t>(s);
    serve_start_[us] = total;
    total += incoming[us].size();
    expect_scatter_[us] = incoming[us].size();
  }
  serve_start_[static_cast<std::size_t>(np)] = total;
  serve_linear_.reserve(total);
  for (int s = 0; s < np; ++s) {
    const auto& ids = incoming[static_cast<std::size_t>(s)];
    serve_linear_.insert(serve_linear_.end(), ids.begin(), ids.end());
  }

  if (cfg.enabled) init_hybrid(ctx, requested, cfg);
}

void Schedule::init_hybrid(
    msg::Context& ctx, const std::vector<std::vector<dist::Index>>& requested,
    const SkewConfig& cfg) {
  const int np = ctx.nprocs();
  const int me = ctx.rank();

  // 1. Serve-load histogram: one allgather of my serve count.  Every rank
  // sees the same vector, so the go/no-go decision is SPMD-uniform.
  const auto loads =
      ctx.allgather(static_cast<std::int64_t>(serve_linear_.size()));
  std::int64_t load_total = 0;
  std::int64_t load_max = 0;
  for (const std::int64_t l : loads) {
    load_total += l;
    load_max = l > load_max ? l : load_max;
  }
  if (load_total > 0) {
    const double mean =
        static_cast<double>(load_total) / static_cast<double>(np);
    serve_skew_ = static_cast<double>(load_max) / mean;
  }
  if (serve_skew_ <= cfg.threshold) return;

  // 2. Heavy election: each owner marks its served elements whose fan-in
  // (number of requesting ranks; serve slices are per-source deduplicated,
  // so multiplicity across slices IS the fan-in) reaches the bar.
  const std::size_t min_fan =
      cfg.min_fan > 0
          ? cfg.min_fan
          : std::max<std::size_t>(2, static_cast<std::size_t>(np) / 2);
  std::unordered_map<dist::Index, std::size_t> fan;
  for (const dist::Index lin : serve_linear_) ++fan[lin];
  std::vector<dist::Index> my_heavy;
  for (const auto& [lin, c] : fan) {
    if (c >= min_fan) my_heavy.push_back(lin);
  }
  std::sort(my_heavy.begin(), my_heavy.end());

  // 3. Announcement: one plan-time allgather of the sorted lists builds
  // the machine-wide heavy stream.  Every id has exactly one owner, so
  // slots never collide.
  auto all_heavy = ctx.allgather_vec(my_heavy);
  heavy_owner_start_.assign(static_cast<std::size_t>(np) + 1, 0);
  std::unordered_map<dist::Index, std::size_t> slot_of;
  for (int r = 0; r < np; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    heavy_owner_start_[ur] = n_heavy_;
    for (const dist::Index id : all_heavy[ur]) {
      slot_of.emplace(id, n_heavy_++);
    }
  }
  heavy_owner_start_[static_cast<std::size_t>(np)] = n_heavy_;
  if (n_heavy_ == 0) return;  // skewed, but nothing fans wide enough
  hybrid_ = true;
  heavy_serve_linear_ = std::move(my_heavy);

  // 4. Owner-side carve-out: heavy elements leave my serve slices (their
  // values travel once in the allgather instead of once per requester).
  std::vector<dist::Index> new_serve;
  new_serve.reserve(serve_linear_.size());
  std::vector<std::size_t> new_start(static_cast<std::size_t>(np) + 1, 0);
  const auto heavy_mine = [&](dist::Index lin) {
    return std::binary_search(heavy_serve_linear_.begin(),
                              heavy_serve_linear_.end(), lin);
  };
  for (int s = 0; s < np; ++s) {
    const auto us = static_cast<std::size_t>(s);
    new_start[us] = new_serve.size();
    for (std::size_t k = serve_start_[us]; k < serve_start_[us + 1]; ++k) {
      if (!heavy_mine(serve_linear_[k])) new_serve.push_back(serve_linear_[k]);
    }
    expect_scatter_[us] = new_serve.size() - new_start[us];
  }
  new_start[static_cast<std::size_t>(np)] = new_serve.size();
  serve_linear_ = std::move(new_serve);
  serve_start_ = std::move(new_start);

  // 5. Requester-side carve-out: occurrences of heavy elements move from
  // the per-peer fan-out lists to the replicated stream; the surviving
  // unique ids are re-indexed densely in their original (shipped) order,
  // which is exactly the order the owner's filtered serve slice keeps.
  n_unique_offproc_ = 0;
  for (int p = 0; p < np; ++p) {
    const auto up = static_cast<std::size_t>(p);
    const auto& req = requested[up];
    std::vector<std::size_t> remap(req.size(), 0);
    std::vector<char> is_heavy(req.size(), 0);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < req.size(); ++i) {
      if (const auto it = slot_of.find(req[i]); it != slot_of.end()) {
        remap[i] = it->second;
        is_heavy[i] = 1;
      } else {
        remap[i] = kept++;
      }
    }
    req_unique_counts_[up] = kept;
    n_unique_offproc_ += kept;
    auto& occ = occ_unique_index_[up];
    auto& pos = occ_positions_[up];
    std::vector<std::size_t> light_occ;
    std::vector<std::size_t> light_pos;
    light_occ.reserve(occ.size());
    light_pos.reserve(pos.size());
    for (std::size_t k = 0; k < occ.size(); ++k) {
      if (is_heavy[occ[k]]) {
        heavy_occ_slot_.push_back(remap[occ[k]]);
        heavy_occ_pos_.push_back(pos[k]);
      } else {
        light_occ.push_back(remap[occ[k]]);
        light_pos.push_back(pos[k]);
      }
    }
    occ = std::move(light_occ);
    pos = std::move(light_pos);
  }

  // 6. My scatter_add partial layout: the sorted set of slots I touch.
  touched_slots_ = heavy_occ_slot_;
  std::sort(touched_slots_.begin(), touched_slots_.end());
  touched_slots_.erase(
      std::unique(touched_slots_.begin(), touched_slots_.end()),
      touched_slots_.end());
  heavy_occ_touch_.resize(heavy_occ_slot_.size());
  for (std::size_t k = 0; k < heavy_occ_slot_.size(); ++k) {
    heavy_occ_touch_[k] = static_cast<std::size_t>(
        std::lower_bound(touched_slots_.begin(), touched_slots_.end(),
                         heavy_occ_slot_[k]) -
        touched_slots_.begin());
  }

  // 7. Announce the touched sets so owners can build their reduction
  // lists: for my k-th heavy element, the rank-ascending (rank, index)
  // pairs into the allgathered partial vectors.  Rank order fixes the
  // reduction order deterministically.
  std::vector<std::int64_t> touched64(touched_slots_.begin(),
                                      touched_slots_.end());
  const auto all_touched = ctx.allgather_vec(std::move(touched64));
  owner_reduce_start_.assign(heavy_serve_linear_.size() + 1, 0);
  for (std::size_t k = 0; k < heavy_serve_linear_.size(); ++k) {
    owner_reduce_start_[k] = owner_reduce_rank_.size();
    const auto slot = static_cast<std::int64_t>(
        heavy_owner_start_[static_cast<std::size_t>(me)] + k);
    for (int r = 0; r < np; ++r) {
      const auto& tl = all_touched[static_cast<std::size_t>(r)];
      const auto it = std::lower_bound(tl.begin(), tl.end(), slot);
      if (it != tl.end() && *it == slot) {
        owner_reduce_rank_.push_back(r);
        owner_reduce_idx_.push_back(
            static_cast<std::size_t>(it - tl.begin()));
      }
    }
  }
  owner_reduce_start_[heavy_serve_linear_.size()] = owner_reduce_rank_.size();
}

const Schedule::Binding& Schedule::bind(const rt::DistArrayBase& a) const {
  const dist::DistHandle& d = a.dist_handle();
  // The hot path: the array's entry is current while it still holds the
  // descriptor and overlap spec its offsets were translated under (two
  // pointer compares).  After a DISTRIBUTE or set_overlap the entry is a
  // miss, and the rebuilt binding below replaces it under the same key.
  if (const Binding* b = bindings_.find(a.serial(), [&](const Binding& e) {
        return e.dist == d && e.halo == a.halo_spec();
      })) {
    return *b;
  }
  // Identity hit against the inspected target is the expected case; a
  // descriptor-only swap to an equivalent spelling still binds through
  // the mapping-level comparison.  Only a genuinely different mapping is
  // rejected.
  if (d != target_ && (!d || !d->same_mapping(*target_))) {
    throw std::logic_error(
        "Schedule: array " + a.name() +
        "'s distribution does not match the inspected target (was the "
        "array redistributed since the inspector ran?)");
  }
  // Halo-satisfied reads address the array's ghost storage, so its
  // overlap description must be the inspected one -- one pointer compare
  // thanks to interning.
  if (!halo_linear_.empty() && a.halo_spec() != halo_) {
    throw std::logic_error(
        "Schedule: array " + a.name() +
        "'s halo spec does not match the one this schedule was inspected "
        "with");
  }
  Binding b;
  b.dist = d;
  b.halo = a.halo_spec();
  b.serve_off.resize(serve_linear_.size());
  for (std::size_t k = 0; k < serve_linear_.size(); ++k) {
    b.serve_off[k] = static_cast<std::size_t>(
        a.storage_offset(dom_.delinearize(serve_linear_[k])));
  }
  b.local_off.resize(local_linear_.size());
  for (std::size_t k = 0; k < local_linear_.size(); ++k) {
    b.local_off[k] = static_cast<std::size_t>(
        a.storage_offset(dom_.delinearize(local_linear_[k])));
  }
  b.halo_off.resize(halo_linear_.size());
  for (std::size_t k = 0; k < halo_linear_.size(); ++k) {
    b.halo_off[k] = static_cast<std::size_t>(
        a.halo_offset(dom_.delinearize(halo_linear_[k])));
  }
  b.heavy_off.resize(heavy_serve_linear_.size());
  for (std::size_t k = 0; k < heavy_serve_linear_.size(); ++k) {
    b.heavy_off[k] = static_cast<std::size_t>(
        a.storage_offset(dom_.delinearize(heavy_serve_linear_[k])));
  }
  const std::size_t nb = binding_bytes(b);
  return *bindings_.insert(a.serial(), std::move(b), nb);
}

}  // namespace vf::parti
