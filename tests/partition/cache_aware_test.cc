#include "partition/cache_aware.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace updlrm::partition {
namespace {

GroupGeometry Geom(std::uint64_t rows, std::uint32_t bins) {
  auto geom = GroupGeometry::Make(dlrm::TableShape{rows, 8}, bins, 8);
  UPDLRM_CHECK(geom.ok());
  return *geom;
}

cache::CacheRes TwoLists() {
  cache::CacheRes res;
  res.lists.push_back(cache::CacheList{{0, 1, 2}, 500.0});
  res.lists.push_back(cache::CacheList{{3, 4}, 200.0});
  return res;
}

CacheAwareOptions RoomyOptions() {
  CacheAwareOptions options;
  options.capacity = BinCapacity{1 * kMiB, 64 * kKiB};
  return options;
}

TEST(CacheAwareTest, PlacesAllListsWithRoomyCapacity) {
  std::vector<std::uint64_t> freq(100, 1);
  freq[0] = 300;
  freq[1] = 280;
  auto result =
      CacheAwarePartition(Geom(100, 4), freq, TwoLists(), RoomyOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dropped_lists, 0u);
  EXPECT_EQ(result->plan.cache.lists.size(), 2u);
  EXPECT_EQ(result->plan.method, Method::kCacheAware);
  EXPECT_TRUE(result->plan.Validate(RoomyOptions().capacity).ok());
}

TEST(CacheAwareTest, CachedItemsColocateWithTheirList) {
  std::vector<std::uint64_t> freq(100, 1);
  auto result =
      CacheAwarePartition(Geom(100, 4), freq, TwoLists(), RoomyOptions());
  ASSERT_TRUE(result.ok());
  const auto& plan = result->plan;
  ASSERT_EQ(plan.route.size(), plan.row_bin.size());
  std::vector<bool> listed(plan.row_bin.size(), false);
  for (std::size_t l = 0; l < plan.cache.lists.size(); ++l) {
    const auto& items = plan.cache.lists[l].items;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::uint32_t item = items[i];
      listed[item] = true;
      EXPECT_EQ(plan.row_bin[item],
                static_cast<std::uint32_t>(plan.list_bin[l]));
      EXPECT_EQ(plan.ListOf(item), static_cast<std::int32_t>(l));
      EXPECT_EQ(plan.route[item],
                ListRouteWord(static_cast<std::uint32_t>(l),
                              static_cast<std::uint32_t>(i)));
    }
  }
  // Every other row's route word is its bin.
  for (std::size_t r = 0; r < plan.row_bin.size(); ++r) {
    if (!listed[r]) {
      EXPECT_EQ(plan.route[r], plan.row_bin[r]) << r;
    }
  }
}

TEST(CacheAwareTest, EveryRowAssigned) {
  std::vector<std::uint64_t> freq(200, 2);
  auto result =
      CacheAwarePartition(Geom(200, 4), freq, TwoLists(), RoomyOptions());
  ASSERT_TRUE(result.ok());
  const auto emt_rows = result->plan.EmtRowsPerBin();
  const std::uint64_t cached = 5;  // 3 + 2 items live in cache regions
  EXPECT_EQ(std::accumulate(emt_rows.begin(), emt_rows.end(), 0ull),
            200ull - cached);
}

TEST(CacheAwareTest, BalancesEffectiveLoad) {
  // Uncached load 100 per bin would be balanced; hot cached lists with
  // large benefits must not all pile onto one bin.
  const std::uint64_t rows = 400;
  std::vector<std::uint64_t> freq(rows, 1);
  cache::CacheRes res;
  res.lists.push_back(cache::CacheList{{0, 1}, 50.0});
  res.lists.push_back(cache::CacheList{{2, 3}, 50.0});
  res.lists.push_back(cache::CacheList{{4, 5}, 50.0});
  res.lists.push_back(cache::CacheList{{6, 7}, 50.0});
  for (std::uint32_t i = 0; i < 8; ++i) freq[i] = 100;
  auto result = CacheAwarePartition(Geom(rows, 4), freq, res,
                                    RoomyOptions());
  ASSERT_TRUE(result.ok());
  // Four equal lists over four bins: one each.
  std::vector<int> lists_per_bin(4, 0);
  for (std::int32_t bin : result->plan.list_bin) ++lists_per_bin[bin];
  for (int n : lists_per_bin) EXPECT_EQ(n, 1);
}

TEST(CacheAwareTest, TightCacheCapacityDropsLists) {
  std::vector<std::uint64_t> freq(100, 1);
  CacheAwareOptions options;
  // Room for only the 3-slot (2-item) list per bin? The 3-item list
  // needs 7 slots * 32 B = 224 B; give each bin 100 B of cache.
  options.capacity = BinCapacity{1 * kMiB, 100};
  auto result =
      CacheAwarePartition(Geom(100, 4), freq, TwoLists(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dropped_lists, 1u);
  ASSERT_EQ(result->plan.cache.lists.size(), 1u);
  EXPECT_EQ(result->plan.cache.lists[0].items.size(), 2u);
  // Dropped items fall back to the EMT region.
  EXPECT_EQ(result->plan.ListOf(0), -1);
  EXPECT_EQ(result->plan.route[0], result->plan.row_bin[0]);
}

TEST(CacheAwareTest, FailFastModeRejectsUnplaceableLists) {
  std::vector<std::uint64_t> freq(100, 1);
  CacheAwareOptions options;
  options.capacity = BinCapacity{1 * kMiB, 100};
  options.drop_unplaceable_lists = false;
  const auto result =
      CacheAwarePartition(Geom(100, 4), freq, TwoLists(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCapacityExceeded);
}

TEST(CacheAwareTest, EmtCapacityOverflowFails) {
  std::vector<std::uint64_t> freq(100, 1);
  CacheAwareOptions options;
  options.capacity = BinCapacity{8 * 20, 64 * kKiB};  // 20 rows per bin
  const auto result =
      CacheAwarePartition(Geom(100, 4), freq, TwoLists(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCapacityExceeded);
}

TEST(CacheAwareTest, EmptyCacheDegeneratesToNonUniformBehaviour) {
  std::vector<std::uint64_t> freq(100, 0);
  for (std::uint32_t i = 0; i < 100; ++i) freq[i] = 100 - i;
  auto result = CacheAwarePartition(Geom(100, 4), freq, cache::CacheRes{},
                                    RoomyOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->plan.cache.lists.empty());
  // Loads should be near balanced (greedy on frequencies).
  std::vector<std::uint64_t> loads(4, 0);
  for (std::uint64_t r = 0; r < 100; ++r) {
    loads[result->plan.row_bin[r]] += freq[r];
  }
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  EXPECT_LE(*hi - *lo, 100u);
}

TEST(CacheAwareTest, RejectsInvalidCacheRes) {
  std::vector<std::uint64_t> freq(100, 1);
  cache::CacheRes bad;
  bad.lists.push_back(cache::CacheList{{1}, 10.0});  // single item
  EXPECT_FALSE(
      CacheAwarePartition(Geom(100, 4), freq, bad, RoomyOptions()).ok());
}

TEST(CacheAwareTest, RejectsWrongFreqSize) {
  std::vector<std::uint64_t> freq(50, 1);
  EXPECT_FALSE(CacheAwarePartition(Geom(100, 4), freq, TwoLists(),
                                   RoomyOptions())
                   .ok());
}

}  // namespace
}  // namespace updlrm::partition
