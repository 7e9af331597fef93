#include "vf/rt/array_base.hpp"

#include <algorithm>
#include <utility>

#include "vf/dist/skew.hpp"
#include "vf/halo/exchange.hpp"
#include "vf/halo/plan.hpp"
#include "vf/msg/context.hpp"

namespace vf::rt {

DimExprItem extract_dim(const DistArrayBase& b, int dim) {
  return DimExprItem(std::pair<const DistArrayBase*, int>{&b, dim});
}

DistExpr DistExpr::align_with(const DistArrayBase& target, dist::Alignment a) {
  DistExpr e{dist::DistributionType{}};
  e.form_ = std::pair<const DistArrayBase*, dist::Alignment>{&target,
                                                             std::move(a)};
  return e;
}

dist::DistHandle DistExpr::evaluate(
    const DistArrayBase& target,
    const dist::ProcessorSection& fallback_section,
    dist::DistRegistry& reg) const {
  const dist::ProcessorSection& section = to_ ? *to_ : fallback_section;

  if (const auto* t = std::get_if<dist::DistributionType>(&form_)) {
    return reg.intern(target.domain(), *t, section);
  }
  if (const auto* items = std::get_if<std::vector<DimExprItem>>(&form_)) {
    std::vector<dist::DimDist> dims;
    dims.reserve(items->size());
    for (const auto& item : *items) {
      if (const auto* dd = std::get_if<dist::DimDist>(&item.v)) {
        dims.push_back(*dd);
      } else {
        const auto& [arr, d] =
            std::get<std::pair<const DistArrayBase*, int>>(item.v);
        dims.push_back(arr->distribution().type().dim(d));
      }
    }
    return reg.intern(target.domain(),
                      dist::DistributionType(std::move(dims)), section);
  }
  if (const auto* whole = std::get_if<const DistArrayBase*>(&form_)) {
    // Whole-type extraction (=A): apply A's current type on A's section
    // (an explicit `to` clause overrides the section).
    const auto& src = (*whole)->distribution();
    if (to_) return reg.intern(target.domain(), src.type(), *to_);
    return reg.intern(target.domain(), src.type(), src.section_ptr());
  }
  const auto& [aligned_to, align] =
      std::get<std::pair<const DistArrayBase*, dist::Alignment>>(form_);
  return reg.intern(
      align.construct(aligned_to->distribution(), target.domain()));
}

DistArrayBase::DistArrayBase(Env& env, std::string name, dist::IndexDomain dom,
                             bool dynamic, query::RangeSpec range,
                             std::optional<Connection> connect)
    : env_(&env),
      name_(std::move(name)),
      dom_(dom),
      dynamic_(dynamic),
      range_(std::move(range)) {
  if (connect) {
    if (connect->primary == nullptr) {
      throw std::invalid_argument("Connection: null primary array");
    }
    if (!connect->primary->is_primary()) {
      throw std::invalid_argument(
          "CONNECT: " + connect->primary->name() +
          " is itself a secondary array; connections must name a primary");
    }
    if (!dynamic_) {
      throw std::invalid_argument(
          "CONNECT: secondary arrays must be declared DYNAMIC");
    }
    cclass_ = connect->primary->cclass_;
    cclass_->add_secondary(this, connect->align);
  } else {
    cclass_ = std::make_shared<ConnectClass>(this);
  }
  env_->register_array(*this);
}

DistArrayBase::~DistArrayBase() {
  env_->unregister_array(*this);
  if (is_primary()) {
    cclass_->orphan();
  } else {
    cclass_->remove(this);
  }
}

Descriptor DistArrayBase::describe() const {
  Descriptor d;
  d.index_dom = dom_;
  d.dist = dist_;
  d.segment = layout_;
  d.dynamic = dynamic_;
  d.primary = is_primary();
  d.connect_class_size = cclass_->secondaries().size() + 1;
  return d;
}

void DistArrayBase::check_no_exchange_in_flight(const char* op) const {
  if (exchange_in_flight_) {
    throw ExchangeInFlightError(name_, op, pending_exchange_tag_);
  }
}

void DistArrayBase::rebuild_storage_shape() {
  const int r = dom_.rank();
  alloc_counts_ = dist::IndexVec::filled(r, 0);
  alloc_strides_ = dist::IndexVec::filled(r, 0);
  seg_lo_ = dist::IndexVec::filled(r, 0);
  halo_lo_ = dist::IndexVec::filled(r, 0);
  halo_span_ = dist::IndexVec::filled(r, -1);  // unbounded: not affine
  alloc_total_ = layout_.member ? 1 : 0;
  affine_ = layout_.member && layout_.total > 0;
  base_off_ = 0;
  for (int d = 0; d < r; ++d) {
    const auto& m = dist_->dim_map(d);
    contig_[static_cast<std::size_t>(d)] = m.contiguous();
    if ((ghost_lo_[d] > 0 || ghost_hi_[d] > 0) && !m.contiguous()) {
      throw std::invalid_argument(
          "array " + name_ +
          ": overlap areas require a contiguous distribution in dimension " +
          std::to_string(d));
    }
    if (!layout_.member) continue;
    if (m.contiguous()) {
      auto seg = m.segment(static_cast<int>(layout_.coords[d]));
      seg_lo_[d] = seg ? seg->lo : 0;
      halo_lo_[d] = seg_lo_[d] - ghost_lo_[d];
      halo_span_[d] = ghost_lo_[d] + layout_.counts[d] + ghost_hi_[d] - 1;
    } else {
      affine_ = false;
      halo_lo_[d] = m.dom().lo;
      halo_span_[d] = m.dom().size() - 1;
    }
    alloc_counts_[d] = layout_.counts[d] + ghost_lo_[d] + ghost_hi_[d];
    alloc_strides_[d] = alloc_total_;
    base_off_ += (ghost_lo_[d] - seg_lo_[d]) * alloc_strides_[d];
    alloc_total_ *= alloc_counts_[d];
  }
}

namespace {

/// Reassembles an index passed to a cold entry point as scalars.
dist::IndexVec unpack_index(dist::Index i0, dist::Index i1, dist::Index i2,
                            dist::Index i3, std::size_t n) {
  static_assert(dist::kMaxRank == 4, "one scalar per component");
  const std::array<dist::Index, dist::kMaxRank> c{i0, i1, i2, i3};
  dist::IndexVec i;
  for (std::size_t d = 0; d < n; ++d) i.push_back(c[d]);
  return i;
}

}  // namespace

dist::Index DistArrayBase::storage_offset_cold(
    dist::Index i0, dist::Index i1, dist::Index i2, dist::Index i3,
    std::size_t n) const noexcept {
  const dist::IndexVec i = unpack_index(i0, i1, i2, i3, n);
  // Nothing to translate without a distribution or, on a non-member, any
  // storage; and nothing DimMap::local_of would throw on (a wrong-size
  // index, a component outside the domain) may reach it.
  if (!dist_ || !layout_.member || !dom_.contains(i)) return kNoOffset;
  return storage_offset_general(i);
}

dist::Index DistArrayBase::halo_offset_cold(dist::Index i0, dist::Index i1,
                                            dist::Index i2, dist::Index i3,
                                            std::size_t n) const noexcept {
  const dist::IndexVec i = unpack_index(i0, i1, i2, i3, n);
  if (!halo_readable(i)) return kNoOffset;
  return storage_offset_general(i);
}

dist::Index DistArrayBase::storage_offset_general(
    const dist::IndexVec& i) const {
  dist::Index off = 0;
  for (int d = 0; d < dom_.rank(); ++d) {
    const dist::Index l = contig_[static_cast<std::size_t>(d)]
                              ? i[d] - seg_lo_[d]
                              : dist_->dim_map(d).local_of(i[d]);
    off += (l + ghost_lo_[d]) * alloc_strides_[d];
  }
  return off;
}

bool DistArrayBase::halo_readable_general(const dist::IndexVec& i) const {
  // Reached after the rank and per-dimension box check passed and the
  // affine form does not apply.  Non-contiguous dimensions carry no
  // overlap, so there i is readable exactly when this rank owns it.
  if (!dist_ || !layout_.member || layout_.total == 0) return false;
  for (int d = 0; d < dom_.rank(); ++d) {
    if (contig_[static_cast<std::size_t>(d)]) continue;
    if (dist_->dim_map(d).proc_of(i[d]) != layout_.coords[d]) return false;
  }
  return true;
}

void DistArrayBase::throw_halo_bounds() const {
  if (!dist_) throw NotDistributedError(name_);
  throw std::out_of_range("halo access outside overlap area of " + name_);
}

void DistArrayBase::throw_storage_bounds(dist::Index i0, dist::Index i1,
                                         dist::Index i2, dist::Index i3,
                                         std::size_t n) const {
  if (!dist_) throw NotDistributedError(name_);
  const dist::IndexVec i = unpack_index(i0, i1, i2, i3, n);
  if (static_cast<int>(n) == dom_.rank()) {
    // DimMap's own message for a component outside the domain.
    for (int d = 0; d < dom_.rank(); ++d) {
      (void)dist_->dim_map(d).local_of(i[d]);
    }
  }
  throw std::out_of_range("index " + i.to_string() +
                          " outside the local storage of " + name_);
}

bool DistArrayBase::owned_partition(const SplitMargins* m,
                                    OwnedPartition& p) const {
  if (!dist_) throw NotDistributedError(name_);
  if (!layout_.member || layout_.total == 0) return false;
  for (int d = 0; d < dom_.rank(); ++d) {
    const auto ud = static_cast<std::size_t>(d);
    p.owned[ud] = dist_->owned_in_dim(env_->rank(), d);
    const std::size_t len = p.owned[ud].size();
    const auto mlo = m ? static_cast<std::size_t>(m->lo[d]) : 0;
    const auto mhi = m ? static_cast<std::size_t>(m->hi[d]) : 0;
    p.core_lo[ud] = std::min(mlo, len);
    p.core_hi[ud] = std::max(p.core_lo[ud], len - std::min(mhi, len));
  }
  return true;
}

void DistArrayBase::check_distribute_legal(const NoTransfer& nt) const {
  // A redistribution tears down the very storage and plan a pending
  // split-phase exchange will unpack into -- on this array or any
  // connect-class member it would drag along.
  check_no_exchange_in_flight("distribute");
  for (const auto& m : cclass_->secondaries()) {
    m.array->check_no_exchange_in_flight("distribute (via connect class)");
  }
  if (!dynamic_) {
    throw std::logic_error("DISTRIBUTE " + name_ +
                           ": array is statically distributed");
  }
  if (cclass_->primary() == nullptr) {
    throw std::logic_error("DISTRIBUTE " + name_ +
                           ": connect class is orphaned (primary destroyed)");
  }
  if (is_secondary()) {
    throw std::logic_error(
        "DISTRIBUTE " + name_ +
        ": distribute statements are explicitly applied to primary arrays "
        "only (Section 2.3)");
  }
  for (const auto* a : nt.arrays) {
    if (a == this || !cclass_->contains(a)) {
      throw std::invalid_argument(
          "NOTRANSFER: all names must be secondary arrays of C(" + name_ +
          ")");
    }
  }
}

std::shared_ptr<const msg::RunPlan> DistArrayBase::lookup_halo_plan() {
  if (!dist_) throw NotDistributedError(name_);
  const int me = env_->rank();
  const int np = env_->nprocs();
  if (halo_asymmetric_) {
    if (!halo_family_) {
      // Plan-time spec exchange (lazy, collective): one allgather of the
      // per-rank width vectors, cached until the next set_overlap.  All
      // ranks' families go stale together because set_overlap is
      // collective, so the collective below matches up.
      halo_family_ =
          halo::exchange_specs(env_->comm(), env_->registry(), halo_);
      ++halo_spec_exchanges_;
    }
    if (!halo_family_->uniform()) {
      return env_->halo_plans().lookup_or_build(dist_, halo_family_, me, np);
    }
    // Reconciliation found the family uniform: fall through to the
    // uniform key so this entry is shared with uniform declarations.
  }
  return env_->halo_plans().lookup_or_build(dist_, halo_, me, np);
}

void DistArrayBase::sweep_caches() {
  hybrid_memo_.clear();
  redist_plans_.erase_if([&](std::uint64_t, const PlanEntry& e) {
    return e.od != dist_ && e.nd != dist_;
  });
}

std::shared_ptr<const msg::RunPlan> DistArrayBase::redist_plan_for(
    const dist::DistHandle& nd) {
  const std::uint64_t key = plan_key(dist_, nd);
  if (const PlanEntry* e = redist_plans_.find(key)) return e->plan;
  auto plan = std::make_shared<const msg::RunPlan>(build_redist_plan(
      *dist_, *nd, env_->rank(), env_->nprocs(), ghost_lo_, ghost_hi_));
  const std::size_t bytes = sizeof(PlanEntry) + plan->footprint_bytes();
  redist_plans_.insert(key, PlanEntry{dist_, nd, plan}, bytes);
  return plan;
}

void DistArrayBase::distribute(const DistExpr& expr, const NoTransfer& nt) {
  check_distribute_legal(nt);

  // Step 1 (Section 3.2.2): evaluate the new distribution.  A previously
  // seen distribution resolves to its interned handle without descriptor
  // construction.
  const dist::ProcessorSection fallback =
      dist_ ? dist_->section() : env_->whole();
  dist::DistHandle nd = expr.evaluate(*this, fallback, env_->registry());
  check_range(nd->type());
  distribute_resolved(std::move(nd), nt);
}

void DistArrayBase::distribute(const dist::DistHandle& nd,
                               const NoTransfer& nt) {
  check_distribute_legal(nt);
  if (!nd) {
    throw std::invalid_argument("DISTRIBUTE " + name_ + ": null descriptor");
  }
  if (!(nd->domain() == dom_)) {
    throw std::invalid_argument(
        "DISTRIBUTE " + name_ +
        ": descriptor's index domain does not match the array");
  }
  // Canonicalize through this Env's registry so identity keys stay
  // consistent even for handles interned elsewhere.
  dist::DistHandle canon = env_->registry().intern(nd.ptr());
  check_range(canon->type());
  distribute_resolved(std::move(canon), nt);
}

void DistArrayBase::distribute_resolved(dist::DistHandle nd,
                                        const NoTransfer& nt) {
  // Skew gate: under an opted-in policy, a non-identity flip may have its
  // target swapped for the hybrid H(old, new) before any planning --
  // downstream (plan cache, secondaries, queries) sees only the resolved
  // handle, hybrid or not.
  if (skew_policy_ != SkewPolicy::Off && dist_ && nd && !(dist_ == nd)) {
    nd = maybe_hybridize(std::move(nd));
  }

  // Identity is equality: distributing to the handle the whole connect
  // class already holds is a pure no-op (secondaries were derived from
  // this very handle and interning makes the derivation stable).
  if (dist_ == nd) return;

  // Primary: move data unless this is the first distribution or a no-op
  // (equivalent mappings still swap descriptors so queries see the
  // requested type).
  switch_distribution(std::move(nd), dist_ != nullptr);

  // Steps 2+3: determine the distributions of connected arrays and
  // communicate.
  for (const auto& m : cclass_->secondaries()) {
    dist::DistHandle sd =
        cclass_->construct_handle_for(m, dist_, env_->registry());
    if (!query::range_allows(m.array->range_, sd->type())) {
      throw RangeViolationError(m.array->name_, sd->type().to_string());
    }
    DistArrayBase* a = m.array;
    if (a->dist_ == sd) continue;
    a->switch_distribution(std::move(sd),
                           a->dist_ != nullptr && !nt.contains(a));
  }
}

void DistArrayBase::switch_distribution(dist::DistHandle nd, bool transfer) {
  // A cached plan for the (old, new) handle pair already proves the
  // mappings differ, so the O(N) comparison is skipped on planned flips.
  if (transfer && redist_plans_.contains(plan_key(dist_, nd))) {
    redistribute_data(std::move(nd));
  } else if (dist_ && dist_->same_mapping(*nd)) {
    install_distribution(std::move(nd), /*keep_storage=*/true);
  } else if (transfer) {
    redistribute_data(std::move(nd));
  } else {
    install_distribution(std::move(nd));
  }
}

void DistArrayBase::install_distribution(dist::DistHandle nd,
                                         bool keep_storage,
                                         bool owned_written) {
  dist_ = std::move(nd);
  layout_ = dist_->layout_for(env_->rank());
  rebuild_storage_shape();
  if (!keep_storage) reset_storage(owned_written);
}

void DistArrayBase::redistribute_data(dist::DistHandle nd) {
  // Only values travel, at most one message per processor pair, with no
  // count collective (the plan knows both sides' counts).  A replayed
  // flip (cached plan, warmed scratch, storage capacity settled) performs
  // no heap allocation.
  auto& ctx = env_->comm();
  const std::shared_ptr<const msg::RunPlan> plan = redist_plan_for(nd);
  const std::size_t elem = element_size();
  msg::pack(*plan, storage_bytes(), elem, lane_);

  // Tag the exchange with the (old, new) distribution pair: a
  // lockstep-armed run reports WHICH flip diverged, not just that one
  // did.  Structural fingerprints, not registry uids: which interns a
  // sweep reclaims depends on each rank's cache contents, so the uid of
  // a re-interned descriptor may differ from rank to rank.
  ctx.lockstep_note(msg::mix64(dist_->fingerprint()) ^ nd->fingerprint());
  ctx.alltoallv_known_into(lane_);

  // Install the new distribution only now, then unpack.  The plan writes
  // every owned element of the new layout exactly once, so storage with
  // no ghost padding need not be zeroed first.
  install_distribution(std::move(nd), /*keep_storage=*/false,
                       /*owned_written=*/true);
  std::byte* dst = storage_bytes();
  for (int p = 0; p < lane_.peers(); ++p) {
    msg::unpack(*plan, p, lane_.recv_bytes(p), dst, elem);
  }
}

void DistArrayBase::exchange_overlap() {
  check_no_exchange_in_flight("exchange_overlap");
  begin_exchange_overlap();
  end_exchange_overlap();
}

void DistArrayBase::begin_exchange_overlap() {
  check_no_exchange_in_flight("begin_exchange_overlap");
  // Plan resolution handles both declaration forms: uniform specs go
  // straight to the (DistHandle, HaloSpec) keyed cache with no extra
  // collective; asymmetric specs reconcile the per-rank family first (one
  // lazy allgather) and key on it unless it turned out uniform.
  std::shared_ptr<const msg::RunPlan> plan = lookup_halo_plan();

  // Send half: pack into the array's exchange lane (the one DISTRIBUTE
  // replay uses, so a repeat exchange performs no heap allocation), then
  // hand the lane to the active transport.
  msg::pack(*plan, storage_bytes(), element_size(), lane_);

  // Tag the exchange with the (array, distribution) identity so a
  // lockstep-armed run names which array's ghost exchange diverged.  The
  // note must be SPMD-uniform, so it folds the array NAME, not the halo
  // spec uid (asymmetric declarations give every rank a legitimately
  // different local spec), and the descriptor's fingerprint, not its uid
  // (see redistribute_data).
  std::uint64_t note =
      msg::mix64(distribution().fingerprint() ^ 0x9e3779b97f4a7c15ULL);
  for (const char c : name_) {
    note = msg::mix64(note ^ static_cast<unsigned char>(c));
  }
  env_->comm().lockstep_note(note);
  pending_exchange_tag_ = env_->comm().begin_exchange(lane_);
  pending_halo_plan_ = std::move(plan);
  exchange_in_flight_ = true;
}

void DistArrayBase::end_exchange_overlap() {
  if (!exchange_in_flight_) throw NoExchangeInFlightError(name_);
  const std::shared_ptr<const msg::RunPlan> plan =
      std::move(pending_halo_plan_);
  const std::size_t elem = element_size();
  std::byte* dst = storage_bytes();
  // Receive half: scatter each arriving payload straight into the ghost
  // planes along that peer's unpack runs.  Under the shared-memory
  // transport `bytes` aliases the PEER's packed send buffer -- the whole
  // transfer is pack memcpy + this scatter, no intermediate frame; under
  // the mailbox transport it is this lane's already-filled recv buffer.
  env_->comm().end_exchange(
      lane_, pending_exchange_tag_,
      [&](int peer, std::span<const std::byte> bytes) {
        msg::unpack(*plan, peer, bytes, dst, elem);
      });
  exchange_in_flight_ = false;
  pending_exchange_tag_ = 0;
}

dist::DistHandle DistArrayBase::maybe_hybridize(dist::DistHandle nd) {
  const std::uint64_t key = plan_key(dist_, nd);
  if (const auto it = hybrid_memo_.find(key); it != hybrid_memo_.end()) {
    if (it->second) {
      ++hybrid_flips_;
      return it->second;
    }
    return nd;
  }

  ++skew_checks_;
  const dist::SkewReport rep = dist::ownership_skew(*nd, env_->nprocs());
  last_target_skew_ = rep.max_over_mean();
  if (last_target_skew_ > peak_target_skew_) {
    peak_target_skew_ = last_target_skew_;
  }

  dist::DistHandle hybrid;
  if (skew_policy_ == SkewPolicy::Force || rep.skewed(skew_threshold_)) {
    const dist::SkewConfig cfg{skew_threshold_, skew_cap_factor_};
    hybrid = dist::hybridize(env_->registry(), dist_, nd, cfg);
    // The hybrid carries an INDIRECT dimension-0 type; an array whose
    // RANGE attribute forbids that must fall back to the nominal target.
    if (hybrid && !query::range_allows(range_, hybrid->type())) {
      hybrid = dist::DistHandle{};
    }
  }
  hybrid_memo_.emplace(key, hybrid);
  if (hybrid) {
    ++hybrid_flips_;
    return hybrid;
  }
  return nd;
}

}  // namespace vf::rt
