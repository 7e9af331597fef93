// Rules of core::LruCache that no owner's cache test pins down: the
// byte accounting of replacement and erase_if, the oversize insert, the
// shrinking ceiling, and clear() resetting the counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "vf/core/lru_cache.hpp"

namespace vf::core {
namespace {

using Cache = LruCache<std::uint64_t, std::string>;

TEST(LruCache, SameKeyReplaceCreditsBytesAndIsNotAnEviction) {
  Cache c(4, 1000);
  c.insert(1, "old", 100);
  c.insert(2, "other", 50);
  c.insert(1, "new", 30);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.resident_bytes(), 80u) << "the replaced entry's 100 B credited";
  EXPECT_EQ(c.evictions(), 0u);
  ASSERT_NE(c.find(1), nullptr);
  EXPECT_EQ(*c.find(1), "new");
}

TEST(LruCache, EraseIfCreditsBytesAndIsNotAnEviction) {
  Cache c(4, 1000);
  c.insert(1, "a", 100);
  c.insert(2, "b", 200);
  c.insert(3, "c", 300);
  EXPECT_EQ(c.erase_if([](std::uint64_t k, const std::string&) {
              return k != 2;
            }),
            2u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.resident_bytes(), 200u);
  EXPECT_EQ(c.evictions(), 0u);
  EXPECT_TRUE(c.contains(2));
}

TEST(LruCache, OversizeInsertLandsAlone) {
  Cache c(4, 100);
  c.insert(1, "a", 40);
  c.insert(2, "b", 40);
  std::string* landed = c.insert(3, "huge", 500);
  ASSERT_NE(landed, nullptr);
  EXPECT_EQ(*landed, "huge");
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.resident_bytes(), 500u);
  EXPECT_EQ(c.evictions(), 2u);
}

TEST(LruCache, ShrinkingMaxBytesKeepsTheMruEntry) {
  Cache c(4, 1000);
  c.insert(1, "a", 100);
  c.insert(2, "b", 100);
  c.insert(3, "c", 100);
  ASSERT_NE(c.find(1), nullptr);  // 1 becomes most recently used
  c.set_max_bytes(150);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.contains(1));
  EXPECT_EQ(c.evictions(), 2u);
  c.set_max_bytes(0);
  EXPECT_TRUE(c.contains(1)) << "the MRU entry survives any ceiling";
  EXPECT_EQ(c.evictions(), 2u);
}

TEST(LruCache, ClearResetsTheStats) {
  Cache c(1, 1000);
  c.insert(1, "a", 10);
  c.insert(2, "b", 10);  // count cap 1: evicts 1
  ASSERT_NE(c.find(2), nullptr);
  EXPECT_EQ(c.find(1), nullptr);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.evictions(), 1u);
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.resident_bytes(), 0u);
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.evictions(), 0u);
}

}  // namespace
}  // namespace vf::core
