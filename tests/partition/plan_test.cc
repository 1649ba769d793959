#include "partition/plan.h"

#include <gtest/gtest.h>

#include "partition/uniform.h"

namespace updlrm::partition {
namespace {

dlrm::TableShape Shape(std::uint64_t rows = 1000, std::uint32_t cols = 32) {
  return dlrm::TableShape{rows, cols};
}

TEST(GeometryTest, DerivesShardCounts) {
  auto geom = GroupGeometry::Make(Shape(), 32, 4);
  ASSERT_TRUE(geom.ok());
  EXPECT_EQ(geom->col_shards, 8u);   // 32 cols / 4
  EXPECT_EQ(geom->row_shards, 4u);   // 32 DPUs / 8 shards
  EXPECT_EQ(geom->row_bytes(), 16u);
  EXPECT_EQ(geom->UniformRowsPerBin(), 250u);
}

TEST(GeometryTest, PaperNcChoices) {
  // The paper's Nc candidates for a 32-wide embedding on a 32-DPU group.
  for (std::uint32_t nc : {2u, 4u, 8u}) {
    EXPECT_TRUE(GroupGeometry::Make(Shape(), 32, nc).ok()) << nc;
  }
  // Nc = 6 does not divide 32: infeasible, as the evaluation notes.
  EXPECT_FALSE(GroupGeometry::Make(Shape(), 32, 6).ok());
}

TEST(GeometryTest, RejectsOddNc) {
  // Nc must be even so slices stay 8-byte aligned (Eq. 3: Nc = 2k).
  EXPECT_FALSE(GroupGeometry::Make(Shape(), 32, 1).ok());
  EXPECT_FALSE(GroupGeometry::Make(Shape(), 32, 0).ok());
}

TEST(GeometryTest, RejectsIndivisibleDpuCount) {
  // 32/4 = 8 column shards must divide the DPU count.
  EXPECT_FALSE(GroupGeometry::Make(Shape(), 12, 4).ok());
}

TEST(GeometryTest, RejectsMoreShardsThanRows) {
  EXPECT_FALSE(GroupGeometry::Make(Shape(2, 32), 64, 8).ok());
}

TEST(GeometryTest, DpuLocalLayout) {
  auto geom = GroupGeometry::Make(Shape(), 32, 4);
  ASSERT_TRUE(geom.ok());
  EXPECT_EQ(geom->DpuLocal(0, 0), 0u);
  EXPECT_EQ(geom->DpuLocal(0, 7), 7u);
  EXPECT_EQ(geom->DpuLocal(1, 0), 8u);
  EXPECT_EQ(geom->DpuLocal(3, 7), 31u);
}

TEST(MethodTest, Names) {
  EXPECT_EQ(MethodName(Method::kUniform), "uniform");
  EXPECT_EQ(MethodShortName(Method::kUniform), "U");
  EXPECT_EQ(MethodShortName(Method::kNonUniform), "NU");
  EXPECT_EQ(MethodShortName(Method::kCacheAware), "CA");
}

TEST(BinCapacityTest, FromMramSubtractsRegions) {
  const BinCapacity cap = BinCapacity::FromMram(64 * kMiB, 8 * kMiB,
                                                4 * kMiB);
  EXPECT_EQ(cap.emt_bytes, 52u * kMiB);
  EXPECT_EQ(cap.cache_bytes, 4u * kMiB);
}

TEST(PlanValidateTest, UniformPlanPasses) {
  auto geom = GroupGeometry::Make(Shape(), 32, 4);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Validate(BinCapacity{64 * kMiB, 0}).ok());
}

TEST(PlanValidateTest, DetectsOutOfRangeBin) {
  auto geom = GroupGeometry::Make(Shape(), 32, 4);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  plan->row_bin[5] = 99;
  EXPECT_FALSE(plan->Validate(BinCapacity{64 * kMiB, 0}).ok());
}

TEST(PlanValidateTest, DetectsCapacityOverflow) {
  auto geom = GroupGeometry::Make(Shape(), 32, 4);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  // 250 rows * 16 B = 4000 bytes per bin; a 1 KB capacity must fail.
  const Status s = plan->Validate(BinCapacity{1024, 0}).status();
  EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded);
}

TEST(PlanValidateTest, DetectsIncompleteRowAssignment) {
  auto geom = GroupGeometry::Make(Shape(), 32, 4);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  plan->row_bin.pop_back();
  EXPECT_FALSE(plan->Validate(BinCapacity{64 * kMiB, 0}).ok());
}

TEST(PlanValidateTest, CacheMetadataWithoutListsRejected) {
  auto geom = GroupGeometry::Make(Shape(), 32, 4);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  plan->list_bin.push_back(0);  // dangling bin without a list
  EXPECT_FALSE(plan->Validate(BinCapacity{64 * kMiB, 0}).ok());
}

TEST(PlanTest, EmtRowsPerBinCountsUncachedRows) {
  auto geom = GroupGeometry::Make(Shape(100, 4), 4, 2);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  // 2 bins x 50 rows.
  auto rows = plan->EmtRowsPerBin();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 50u);
  EXPECT_EQ(rows[1], 50u);

  // Marking two rows of bin 0 as cached removes them from the EMT count.
  plan->cache.lists.push_back(cache::CacheList{{3, 7}, 1.0});
  plan->list_bin.push_back(0);
  ASSERT_TRUE(plan->BuildRoute().ok());
  rows = plan->EmtRowsPerBin();
  EXPECT_EQ(rows[0], 48u);
  EXPECT_EQ(rows[1], 50u);
}

TEST(PlanTest, BuildRouteEncodesEveryListPosition) {
  auto geom = GroupGeometry::Make(Shape(100, 4), 4, 2);
  ASSERT_TRUE(geom.ok());
  auto plan = UniformPartition(*geom);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->BuildRoute().ok());
  EXPECT_TRUE(plan->route.empty());  // no lists: routing reads row_bin
  EXPECT_EQ(plan->RouteWords().data(), plan->row_bin.data());

  plan->cache.lists.push_back(cache::CacheList{{10, 60, 61, 99}, 2.0});
  plan->cache.lists.push_back(cache::CacheList{{3, 7}, 1.0});
  plan->list_bin = {1, 0};
  ASSERT_TRUE(plan->BuildRoute().ok());
  ASSERT_EQ(plan->route.size(), 100u);
  const std::uint32_t items[] = {10, 60, 61, 99};
  for (std::uint32_t pos = 0; pos < 4; ++pos) {
    const std::uint32_t word = plan->route[items[pos]];
    EXPECT_TRUE(IsListRoute(word));
    EXPECT_EQ(RouteList(word), 0u);
    EXPECT_EQ(RoutePos(word), pos);
  }
  EXPECT_EQ(plan->ListOf(7), 1);
  EXPECT_EQ(RoutePos(plan->route[7]), 1u);
  EXPECT_EQ(plan->ListOf(5), -1);
  EXPECT_EQ(plan->route[5], plan->row_bin[5]);

  // Invalid lists are rejected, not encoded.
  plan->cache.lists.push_back(cache::CacheList{{50, 100}, 0.5});
  plan->list_bin.push_back(0);
  EXPECT_FALSE(plan->BuildRoute().ok());
}

}  // namespace
}  // namespace updlrm::partition
