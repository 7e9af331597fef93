// The one bounded cache behind every replayed inspector product in the
// runtime: the Env-wide halo-plan cache, the per-array redistribution-plan
// cache and the per-schedule PARTI binding cache.  Each owner keeps its
// own key and entry types; the recency order, the limits, the eviction
// rule and the traffic counters live here, so the policy reads the same
// at every site:
//
//   * two limits, both set at construction: an entry-count cap and a byte
//     ceiling (the owner states each entry's bytes on insert);
//   * a hit refreshes recency and counts in hits; a miss counts in misses;
//   * the incoming entry always lands: least-recently-used entries are
//     evicted until both limits hold or only the new entry is left;
//   * replacing an entry under its own key, erase_if and clear() credit
//     bytes back without counting evictions; clear() also resets the
//     counters, so a reader never sees ratios describing dropped entries.
//
// Evicted entries rebuild transparently on next use, so a limit is a
// performance knob, never a correctness one.  Entries are few (at most
// 16 at any owner today), so storage is one MRU-first vector: a lookup is
// a short linear scan and a hit rotates the entry to the front without
// allocating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vf::core {

/// Lookup traffic of one cache since construction or its last clear().
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

template <typename Key, typename V>
class LruCache {
 public:
  LruCache(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  /// Returns the entry under `key` when there is one and `current(entry)`
  /// holds, moving it to the most-recently-used position (a hit).
  /// Anything else is a miss and returns null; the caller rebuilds and
  /// insert()s, which replaces a stale entry under the same key.
  template <typename Current>
  [[nodiscard]] V* find(const Key& key, Current&& current) {
    const auto it = std::find_if(slots_.begin(), slots_.end(),
                                 [&](const Slot& s) { return s.key == key; });
    if (it == slots_.end() || !current(std::as_const(it->value))) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    std::rotate(slots_.begin(), it, it + 1);
    return &slots_.front().value;
  }
  [[nodiscard]] V* find(const Key& key) {
    return find(key, [](const V&) { return true; });
  }

  /// Whether `key` is cached; touches neither recency nor the counters.
  [[nodiscard]] bool contains(const Key& key) const noexcept {
    return std::any_of(slots_.begin(), slots_.end(),
                       [&](const Slot& s) { return s.key == key; });
  }

  /// Caches `value` (charged `bytes`) as the most recently used entry and
  /// returns it.
  V* insert(Key key, V value, std::size_t bytes) {
    erase_if([&](const Key& k, const V&) { return k == key; });
    slots_.insert(slots_.begin(),
                  Slot{std::move(key), std::move(value), bytes});
    resident_ += bytes;
    evict_to_limits();
    return &slots_.front().value;
  }

  /// Drops every entry for which pred(key, value) holds (invalidation and
  /// sweeps: credited, not counted as evictions); returns how many.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    return std::erase_if(slots_, [&](const Slot& s) {
      if (!pred(std::as_const(s.key), std::as_const(s.value))) return false;
      resident_ -= s.bytes;
      return true;
    });
  }

  /// Drops the contents and the counters; the limits are configuration
  /// and survive.
  void clear() noexcept {
    slots_.clear();
    resident_ = 0;
    evictions_ = 0;
    stats_ = CacheStats{};
  }

  /// Sets the byte ceiling; shrinking below residency evicts from the
  /// cold end at once, always keeping the most recently used entry.
  void set_max_bytes(std::size_t b) {
    max_bytes_ = b;
    evict_to_limits();
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return resident_;
  }
  /// Entries dropped to satisfy a limit.
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_;
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Slot {
    Key key;
    V value;
    std::size_t bytes;
  };

  void evict_to_limits() {
    while (slots_.size() > 1 &&
           (slots_.size() > max_entries_ || resident_ > max_bytes_)) {
      resident_ -= slots_.back().bytes;
      ++evictions_;
      slots_.pop_back();
    }
  }

  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::vector<Slot> slots_;  ///< most recently used first
  std::size_t resident_ = 0;
  std::uint64_t evictions_ = 0;
  CacheStats stats_;
};

}  // namespace vf::core
