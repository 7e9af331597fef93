#include "vf/dist/registry.hpp"

#include <string_view>
#include <utility>

#include "vf/dist/hash.hpp"

namespace vf::dist {

namespace {

std::uint64_t hash_range(std::uint64_t h, Range r) noexcept {
  h = fnv1a(h, static_cast<std::uint64_t>(r.lo));
  return fnv1a(h, static_cast<std::uint64_t>(r.hi));
}

std::uint64_t hash_domain(const IndexDomain& d) noexcept {
  std::uint64_t h = fnv1a(kFnvBasis, static_cast<std::uint64_t>(d.rank()));
  for (int k = 0; k < d.rank(); ++k) h = hash_range(h, d.dim(k));
  return h;
}

std::uint64_t hash_section(const ProcessorSection& s) noexcept {
  std::uint64_t h = kFnvBasis;
  for (char c : std::string_view(s.array().name())) {
    h = fnv1a(h, static_cast<unsigned char>(c));
  }
  h = fnv1a(h, static_cast<std::uint64_t>(s.array().base_rank()));
  h = fnv1a(h, hash_domain(s.array().domain()));
  for (const SectionDim& d : s.dims()) {
    h = fnv1a(h, d.fixed ? 1u : 0u);
    h = fnv1a(h, static_cast<std::uint64_t>(d.fixed ? d.coord : d.range.lo));
    h = fnv1a(h, static_cast<std::uint64_t>(d.fixed ? 0 : d.range.hi));
  }
  return h;
}

// Heap bytes a DimDist key holds beyond its inline storage.  A shared
// IndirectTable is charged to the dim-map entry that keys on it; two
// entries sharing one table double-count it, which is rare and keeps the
// accounting single-pass (it is a growth gauge, not an allocator).
std::size_t dim_dist_bytes(const DimDist& dd) noexcept {
  std::size_t b = dd.gen_sizes.capacity() * sizeof(Index) +
                  dd.gen_bounds.capacity() * sizeof(Index);
  if (dd.owners != nullptr) {
    b += sizeof(IndirectTable) + dd.owners->owners().capacity() * sizeof(int);
  }
  return b;
}

void sub_bytes(std::uint64_t& acc, std::size_t b) noexcept {
  acc = b > acc ? 0 : acc - b;
}

}  // namespace

template <typename Entry>
template <typename Same>
const Entry* DistRegistry::Table<Entry>::find(std::uint64_t key,
                                              Same&& same) const {
  const auto it = buckets_.find(key);
  if (it == buckets_.end()) return nullptr;
  for (const Slot& s : it->second) {
    if (same(s.entry)) return &s.entry;
  }
  return nullptr;
}

template <typename Entry>
const Entry& DistRegistry::Table<Entry>::admit(std::uint64_t key, Entry e,
                                               std::size_t bytes,
                                               RegistryStats& stats) {
  stats.resident_bytes += bytes;
  ++size_;
  std::vector<Slot>& bucket = buckets_[key];
  bucket.push_back(Slot{std::move(e), bytes});
  return bucket.back().entry;
}

template <typename Entry>
template <typename Shared>
std::size_t DistRegistry::Table<Entry>::sweep(Shared&& shared,
                                              RegistryStats& stats) {
  std::size_t reclaimed = 0;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    std::erase_if(it->second, [&](const Slot& s) {
      // Pinned iff anything besides this bucket still shares the pointer
      // (a live array's handle chain, a cached plan, a schedule binding,
      // a user handle).
      if (shared(s.entry).use_count() > 1) {
        ++stats.pinned;
        return false;
      }
      sub_bytes(stats.resident_bytes, s.bytes);
      ++reclaimed;
      return true;
    });
    it = it->second.empty() ? buckets_.erase(it) : std::next(it);
  }
  size_ -= reclaimed;
  stats.swept += reclaimed;
  return reclaimed;
}

DistHandle DistRegistry::admit(DistributionPtr d, std::uint64_t key) {
  DistHandle h(std::move(d), next_uid_++);
  const std::size_t bytes = h->footprint_bytes() + sizeof(DistHandle);
  return dists_.admit(key, std::move(h), bytes, stats_);
}

DistHandle DistRegistry::intern(const IndexDomain& dom,
                                const DistributionType& type,
                                const ProcessorSection& sec) {
  return intern(dom, type, intern_section(sec));
}

DistHandle DistRegistry::intern(const IndexDomain& dom,
                                const DistributionType& type,
                                ProcessorSectionPtr sec) {
  if (sec == nullptr) {
    throw std::invalid_argument("DistRegistry::intern: null section");
  }
  Distribution::check_applicable(dom, type, *sec);
  const std::vector<int> fd = Distribution::derive_free_dims(type);
  const std::uint64_t key = Distribution::fingerprint_of(dom, type, *sec, fd);
  // Admission-time structural verification: after this, handle identity
  // IS structural equality, so no downstream cache re-verifies.
  if (const DistHandle* h = dists_.find(key, [&](const DistHandle& c) {
        return c->domain() == dom && c->free_dims() == fd &&
               c->type() == type && c->section() == *sec;
      })) {
    ++stats_.hits;
    return *h;
  }
  ++stats_.misses;
  std::vector<DimMapPtr> maps;
  maps.reserve(static_cast<std::size_t>(dom.rank()));
  for (int d = 0; d < dom.rank(); ++d) {
    const int f = fd[static_cast<std::size_t>(d)];
    const int p = f < 0 ? 1 : sec->free_extent(f);
    maps.push_back(intern_dim_map(type.dim(d), dom.dim(d), p));
  }
  return admit(std::make_shared<const Distribution>(
                   dom, type, std::move(sec), std::move(maps), fd),
               key);
}

DistHandle DistRegistry::intern(Distribution d) {
  const std::uint64_t key = d.fingerprint();
  if (const DistHandle* h = dists_.find(
          key, [&](const DistHandle& c) { return c->structural_equal(d); })) {
    ++stats_.hits;
    return *h;
  }
  ++stats_.misses;
  return admit(std::make_shared<const Distribution>(std::move(d)), key);
}

DistHandle DistRegistry::intern(DistributionPtr d) {
  if (d == nullptr) {
    throw std::invalid_argument("DistRegistry::intern: null distribution");
  }
  const std::uint64_t key = d->fingerprint();
  if (const DistHandle* h = dists_.find(key, [&](const DistHandle& c) {
        return c.get() == d.get() || c->structural_equal(*d);
      })) {
    ++stats_.hits;
    return *h;
  }
  ++stats_.misses;
  return admit(std::move(d), key);
}

DimMapPtr DistRegistry::intern_dim_map(const DimDist& dd, Range r,
                                       int nprocs) {
  std::uint64_t key = fnv1a(kFnvBasis, dd.hash());
  key = hash_range(key, r);
  key = fnv1a(key, static_cast<std::uint64_t>(nprocs));
  if (const DimMapEntry* e = dim_maps_.find(key, [&](const DimMapEntry& c) {
        return c.np == nprocs && c.r == r && c.dd == dd;
      })) {
    ++stats_.dim_map_hits;
    return e->map;
  }
  ++stats_.dim_map_misses;
  DimMapEntry e{dd, r, nprocs,
                std::make_shared<const DimMap>(
                    Distribution::build_dim_map(dd, r, nprocs))};
  // Charged from the entry itself (its vector capacities, not the
  // caller's); the move into the table keeps them.
  const std::size_t bytes =
      sizeof(DimMapEntry) + dim_dist_bytes(e.dd) + e.map->footprint_bytes();
  return dim_maps_.admit(key, std::move(e), bytes, stats_).map;
}

ProcessorSectionPtr DistRegistry::intern_section(const ProcessorSection& s) {
  const std::uint64_t key = hash_section(s);
  if (const ProcessorSectionPtr* p = sections_.find(
          key, [&](const ProcessorSectionPtr& c) { return *c == s; })) {
    return *p;
  }
  auto p = std::make_shared<const ProcessorSection>(s);
  const std::size_t bytes = p->footprint_bytes() + sizeof(ProcessorSectionPtr);
  return sections_.admit(key, std::move(p), bytes, stats_);
}

halo::HaloHandle DistRegistry::intern(const halo::HaloSpec& s) {
  const std::uint64_t key = s.hash();
  if (const halo::HaloHandle* h = halos_.find(
          key, [&](const halo::HaloHandle& c) { return *c == s; })) {
    ++stats_.halo_spec_hits;
    return *h;
  }
  ++stats_.halo_spec_misses;
  halo::HaloHandle h(std::make_shared<const halo::HaloSpec>(s),
                     next_halo_uid_++);
  return halos_.admit(
      key, std::move(h),
      halo::HaloSpec::footprint_bytes() + sizeof(halo::HaloHandle), stats_);
}

halo::FamilyHandle DistRegistry::intern_family(
    std::vector<halo::HaloHandle> specs) {
  halo::HaloFamily f(std::move(specs));
  const std::uint64_t key = f.hash();
  if (const halo::FamilyHandle* h = halo_families_.find(
          key, [&](const halo::FamilyHandle& c) { return *c == f; })) {
    ++stats_.halo_family_hits;
    return *h;
  }
  ++stats_.halo_family_misses;
  halo::FamilyHandle h(std::make_shared<const halo::HaloFamily>(std::move(f)),
                       next_family_uid_++);
  const std::size_t bytes = h->footprint_bytes() + sizeof(halo::FamilyHandle);
  return halo_families_.admit(key, std::move(h), bytes, stats_);
}

std::size_t DistRegistry::sweep() {
  ++epoch_;
  stats_.pinned = 0;
  // Distributions first: destroying one releases its DimMapPtr and
  // ProcessorSectionPtr references, so components unshared after this
  // pass fall to use_count()==1 before their own passes below.  Families
  // likewise go before the member specs they hold handles to.
  std::size_t n =
      dists_.sweep([](const DistHandle& h) -> auto& { return h.p_; }, stats_);
  n += halo_families_.sweep(
      [](const halo::FamilyHandle& h) -> auto& { return h.p_; }, stats_);
  n += halos_.sweep([](const halo::HaloHandle& h) -> auto& { return h.p_; },
                    stats_);
  n += dim_maps_.sweep([](const DimMapEntry& e) -> auto& { return e.map; },
                       stats_);
  n += sections_.sweep([](const ProcessorSectionPtr& p) -> auto& { return p; },
                       stats_);
  return n;
}

void DistRegistry::clear() {
  dists_.clear();
  dim_maps_.clear();
  sections_.clear();
  halos_.clear();
  halo_families_.clear();
  // Counters describe current contents; after a clear there are none.
  // uid counters intentionally survive (monotonic across clear/sweep).
  stats_ = RegistryStats{};
}

}  // namespace vf::dist
