#include "vf/rt/env.hpp"

#include <algorithm>
#include <stdexcept>

#include "vf/rt/array_base.hpp"

namespace vf::rt {

Env::Env(msg::Context& ctx, dist::ProcessorArray procs)
    : ctx_(&ctx), procs_(std::move(procs)) {
  if (procs_.base_rank() < 0 ||
      procs_.base_rank() + procs_.nprocs() > ctx.nprocs()) {
    throw std::invalid_argument(
        "Env: processor array does not fit within the machine");
  }
}

Env::Env(msg::Context& ctx)
    : Env(ctx, dist::ProcessorArray::line(ctx.nprocs())) {}

void Env::register_array(DistArrayBase& a) { arrays_.push_back(&a); }

void Env::unregister_array(DistArrayBase& a) noexcept {
  arrays_.erase(std::remove(arrays_.begin(), arrays_.end(), &a),
                arrays_.end());
}

DistArrayBase* Env::find_array(std::string_view name) const noexcept {
  for (auto* a : arrays_) {
    if (a->name() == name) return a;
  }
  return nullptr;
}

Env::SweepReport Env::sweep() {
  // A pending split-phase exchange pins its plan and the descriptors
  // under it; sweeping mid-exchange would tear down what end_exchange
  // is about to unpack into.
  for (const auto* a : arrays_) {
    if (a->exchange_in_flight()) {
      throw ExchangeInFlightError(a->name(), "Env::sweep",
                                  a->pending_exchange_tag());
    }
  }

  // Per-array derived caches first: plan entries and skew memos released
  // here fall to use_count()==1 before the registry pass sees them.
  for (auto* a : arrays_) a->sweep_caches();

  // Halo plans keyed on a distribution no registered array holds can
  // never be looked up again (uids are not reused); everything keyed on
  // a live descriptor stays warm.
  std::vector<std::uint32_t> live;
  live.reserve(arrays_.size());
  for (const auto* a : arrays_) live.push_back(a->dist_handle().uid());

  SweepReport r;
  r.halo_plans_dropped = halo_plans_.sweep(live);
  r.registry_swept = registry_.sweep();
  return r;
}

}  // namespace vf::rt
