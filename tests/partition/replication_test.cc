#include "partition/replication.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "partition/cache_aware.h"
#include "partition/nonuniform.h"
#include "partition/uniform.h"

namespace updlrm::partition {
namespace {

GroupGeometry Geom(std::uint64_t rows, std::uint32_t bins) {
  auto geom = GroupGeometry::Make(dlrm::TableShape{rows, 8}, bins, 8);
  UPDLRM_CHECK(geom.ok());
  return *geom;
}

TEST(ReplicationTest, PicksHottestRows) {
  std::vector<std::uint64_t> freq(100, 1);
  freq[7] = 100;
  freq[42] = 90;
  freq[3] = 80;
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  auto n = ApplyReplication(*plan, freq, 3);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(plan->replicated_rows, (std::vector<std::uint32_t>{3, 7, 42}));
  EXPECT_TRUE(plan->has_replication());
  EXPECT_EQ(plan->ReplicaBytesPerBin(), 3u * 32);
}

TEST(ReplicationTest, SkipsZeroFrequencyRows) {
  std::vector<std::uint64_t> freq(100, 0);
  freq[5] = 10;
  freq[6] = 9;
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  auto n = ApplyReplication(*plan, freq, 10);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);  // only the two rows with traffic
}

TEST(ReplicationTest, SkipsCachedRows) {
  std::vector<std::uint64_t> freq(100, 1);
  freq[0] = 100;
  freq[1] = 90;
  freq[2] = 80;
  cache::CacheRes res;
  res.lists.push_back(cache::CacheList{{0, 1}, 50.0});
  CacheAwareOptions options;
  options.capacity = BinCapacity{1 * kMiB, 4 * kKiB};
  auto result = CacheAwarePartition(Geom(100, 4), freq, res, options);
  ASSERT_TRUE(result.ok());
  auto n = ApplyReplication(result->plan, freq, 2);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  // Rows 0 and 1 are cached; the hottest uncached rows are 2 and one of
  // the uniform tail.
  EXPECT_TRUE(std::binary_search(result->plan.replicated_rows.begin(),
                                 result->plan.replicated_rows.end(), 2u));
  EXPECT_FALSE(std::binary_search(result->plan.replicated_rows.begin(),
                                  result->plan.replicated_rows.end(), 0u));
  EXPECT_TRUE(result->plan.Validate(options.capacity).ok());
}

TEST(ReplicationTest, ZeroKIsNoOp) {
  std::vector<std::uint64_t> freq(100, 1);
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  auto n = ApplyReplication(*plan, freq, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_FALSE(plan->has_replication());
}

TEST(ReplicationTest, Idempotent) {
  std::vector<std::uint64_t> freq(100, 1);
  freq[9] = 50;
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ApplyReplication(*plan, freq, 5).ok());
  ASSERT_TRUE(ApplyReplication(*plan, freq, 2).ok());
  EXPECT_EQ(plan->replicated_rows.size(), 2u);
}

TEST(ReplicationTest, ReplicatedRowsLeaveEmtRegion) {
  std::vector<std::uint64_t> freq(100, 1);
  freq[0] = 100;
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ApplyReplication(*plan, freq, 1).ok());
  const auto rows = plan->EmtRowsPerBin();
  // Row 0 lived in bin 0's block of 25; it is now replica-only.
  EXPECT_EQ(rows[0], 24u);
  EXPECT_EQ(rows[1], 25u);
}

TEST(ReplicationTest, ValidateRejectsCorruptReplication) {
  std::vector<std::uint64_t> freq(100, 1);
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  plan->replicated_rows = {5, 3};  // unsorted
  EXPECT_FALSE(plan->Validate(BinCapacity{1 * kMiB, 0}).ok());
  plan->replicated_rows = {3, 3};  // duplicate
  EXPECT_FALSE(plan->Validate(BinCapacity{1 * kMiB, 0}).ok());
  plan->replicated_rows = {100};  // out of range
  EXPECT_FALSE(plan->Validate(BinCapacity{1 * kMiB, 0}).ok());
}

TEST(ReplicationTest, CapacityAccountsReplicaRegion) {
  std::vector<std::uint64_t> freq(100, 1);
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ApplyReplication(*plan, freq, 50).ok());
  // 25 rows/bin max minus replicas... replica region = 50 * 32 B; a
  // capacity that fits plain rows but not the replica copies must fail.
  const Status tight = plan->Validate(BinCapacity{25 * 32, 0}).status();
  EXPECT_EQ(tight.code(), StatusCode::kCapacityExceeded);
  EXPECT_TRUE(plan->Validate(BinCapacity{80 * 32, 0}).ok());
}

TEST(ReplicationTest, RejectsWrongFreqSize) {
  std::vector<std::uint64_t> freq(50, 1);
  auto plan = UniformPartition(Geom(100, 4));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(ApplyReplication(*plan, freq, 5).ok());
}

}  // namespace
}  // namespace updlrm::partition
