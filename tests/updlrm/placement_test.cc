#include "updlrm/placement.h"

#include <gtest/gtest.h>

#include <vector>

#include "partition/cache_aware.h"
#include "partition/uniform.h"

namespace updlrm::core {
namespace {

pim::DpuSystemConfig SmallSystemConfig() {
  pim::DpuSystemConfig config;
  config.num_dpus = 8;
  config.dpus_per_rank = 8;
  config.dpu.mram_bytes = 1 * kMiB;
  config.functional = true;
  return config;
}

constexpr std::uint64_t kReservedIo = 128 * kKiB;

partition::PartitionPlan UniformPlan(std::uint64_t rows,
                                     std::uint32_t dpus,
                                     std::uint32_t nc) {
  auto geom =
      partition::GroupGeometry::Make(dlrm::TableShape{rows, 8}, dpus, nc);
  UPDLRM_CHECK(geom.ok());
  auto plan = partition::UniformPartition(*geom);
  UPDLRM_CHECK(plan.ok());
  return std::move(plan).value();
}

// BuildTableGroup for table 0 on the first DPUs, with the plan's own
// EMT row counts.
Result<TableGroup> LayOut(partition::PartitionPlan plan,
                          const pim::DpuSystemConfig& config,
                          std::uint64_t reserved_io_bytes,
                          bool build_row_slots) {
  std::vector<std::uint64_t> emt_rows = plan.EmtRowsPerBin();
  return BuildTableGroup(0, 0, std::move(plan), std::move(emt_rows), config,
                         reserved_io_bytes, build_row_slots);
}

TEST(PlacementTest, LayoutRegionsAreDisjointAndOrdered) {
  auto group = LayOut(UniformPlan(100, 8, 4),
                               SmallSystemConfig(), kReservedIo, true);
  ASSERT_TRUE(group.ok());
  const MramLayout& l = group->layout;
  EXPECT_EQ(l.emt_base, 0u);
  EXPECT_LE(l.emt_base + l.emt_bytes, l.cache_base);
  EXPECT_LE(l.cache_base + l.cache_bytes, l.index_base);
  EXPECT_LE(l.index_base + l.index_bytes, l.output_base);
  EXPECT_LE(l.output_base + l.output_bytes, 1 * kMiB);
  EXPECT_TRUE(IsAligned(l.cache_base, 8));
  EXPECT_TRUE(IsAligned(l.index_base, 8));
}

TEST(PlacementTest, RowSlotsAreDensePerBin) {
  auto group = LayOut(UniformPlan(100, 8, 4),
                               SmallSystemConfig(), kReservedIo, true);
  ASSERT_TRUE(group.ok());
  // 2 col shards => 4 bins of 25 rows; slots 0..24 within each bin.
  ASSERT_EQ(group->row_slot.size(), 100u);
  std::vector<std::vector<bool>> seen(4, std::vector<bool>(25, false));
  for (std::uint64_t r = 0; r < 100; ++r) {
    const std::uint32_t bin = group->plan.row_bin[r];
    const std::uint32_t slot = group->row_slot[r];
    ASSERT_LT(slot, 25u);
    EXPECT_FALSE(seen[bin][slot]);
    seen[bin][slot] = true;
  }
}

TEST(PlacementTest, TimingOnlySkipsRowSlots) {
  auto group = LayOut(UniformPlan(100, 8, 4),
                               SmallSystemConfig(), kReservedIo, false);
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE(group->row_slot.empty());
}

TEST(PlacementTest, RejectsTooSmallReservedIo) {
  auto group = LayOut(UniformPlan(100, 8, 4),
                               SmallSystemConfig(), 64 * kKiB, true);
  EXPECT_FALSE(group.ok());
}

TEST(PlacementTest, RejectsMramOverflow) {
  pim::DpuSystemConfig config = SmallSystemConfig();
  config.dpu.mram_bytes = 160 * kKiB;  // not enough for EMT + IO regions
  auto group = LayOut(UniformPlan(20'000, 8, 4), config,
                               kReservedIo, true);
  ASSERT_FALSE(group.ok());
  EXPECT_EQ(group.status().code(), StatusCode::kCapacityExceeded);
}

TEST(PlacementTest, PlacedRowsReadBackExactly) {
  auto system = pim::DpuSystem::Create(SmallSystemConfig());
  ASSERT_TRUE(system.ok());
  auto table = dlrm::EmbeddingTable::Create(100, 8, 99);
  ASSERT_TRUE(table.ok());
  auto group = LayOut(UniformPlan(100, 8, 4),
                               SmallSystemConfig(), kReservedIo, true);
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(PlaceTable(*table, *group, **system).ok());

  const auto& geom = group->plan.geom;
  std::vector<std::int32_t> expected(8);
  std::vector<std::int32_t> got(geom.nc);
  auto got_bytes = std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(got.data()), geom.nc * 4);
  for (std::uint64_t r : {0ULL, 24ULL, 25ULL, 77ULL, 99ULL}) {
    table->QuantizedRow(r, expected);
    const std::uint32_t bin = group->plan.row_bin[r];
    const std::uint32_t slot = group->row_slot[r];
    for (std::uint32_t c = 0; c < geom.col_shards; ++c) {
      ASSERT_TRUE((*system)
                      ->dpu(group->GlobalDpu(bin, c))
                      .mram()
                      .Read(group->layout.emt_base +
                                static_cast<std::uint64_t>(slot) *
                                    geom.row_bytes(),
                            got_bytes)
                      .ok());
      for (std::uint32_t lane = 0; lane < geom.nc; ++lane) {
        EXPECT_EQ(got[lane], expected[c * geom.nc + lane])
            << "row " << r << " shard " << c;
      }
    }
  }
}

TEST(PlacementTest, CacheSubsetSumsReadBackExactly) {
  auto system = pim::DpuSystem::Create(SmallSystemConfig());
  ASSERT_TRUE(system.ok());
  auto table = dlrm::EmbeddingTable::Create(100, 8, 7);
  ASSERT_TRUE(table.ok());

  auto geom =
      partition::GroupGeometry::Make(dlrm::TableShape{100, 8}, 8, 4);
  ASSERT_TRUE(geom.ok());
  std::vector<std::uint64_t> freq(100, 1);
  cache::CacheRes res;
  res.lists.push_back(cache::CacheList{{2, 5, 9}, 10.0});
  partition::CacheAwareOptions ca;
  ca.capacity = partition::BinCapacity{256 * kKiB, 4 * kKiB};
  auto result = partition::CacheAwarePartition(*geom, freq, res, ca);
  ASSERT_TRUE(result.ok());

  auto group = LayOut(result->plan, SmallSystemConfig(),
                               kReservedIo, true);
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(PlaceTable(*table, *group, **system).ok());

  // Check the full-list subset (mask 0b111) on every column shard.
  std::vector<std::int32_t> q(8);
  std::vector<std::int64_t> expected(8, 0);
  for (std::uint32_t item : {2u, 5u, 9u}) {
    table->QuantizedRow(item, q);
    for (std::uint32_t c = 0; c < 8; ++c) expected[c] += q[c];
  }
  const auto bin = static_cast<std::uint32_t>(group->plan.list_bin[0]);
  std::vector<std::int32_t> got(4);
  auto got_bytes = std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(got.data()), 16);
  const std::uint64_t offset = group->layout.cache_base +
                               group->list_offset[0] +
                               (0b111 - 1) * group->plan.geom.row_bytes();
  for (std::uint32_t c = 0; c < 2; ++c) {
    ASSERT_TRUE((*system)
                    ->dpu(group->GlobalDpu(bin, c))
                    .mram()
                    .Read(offset, got_bytes)
                    .ok());
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(got[lane],
                static_cast<std::int32_t>(expected[c * 4 + lane]));
    }
  }
}

TEST(PlacementTest, PlaceTableRequiresFunctionalSystem) {
  pim::DpuSystemConfig config = SmallSystemConfig();
  config.functional = false;
  auto system = pim::DpuSystem::Create(config);
  ASSERT_TRUE(system.ok());
  auto table = dlrm::EmbeddingTable::Create(100, 8, 1);
  ASSERT_TRUE(table.ok());
  auto group = LayOut(UniformPlan(100, 8, 4), config,
                               kReservedIo, true);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(PlaceTable(*table, *group, **system).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlacementTest, PlaceTableRejectsShapeMismatch) {
  auto system = pim::DpuSystem::Create(SmallSystemConfig());
  ASSERT_TRUE(system.ok());
  auto table = dlrm::EmbeddingTable::Create(50, 8, 1);  // wrong rows
  ASSERT_TRUE(table.ok());
  auto group = LayOut(UniformPlan(100, 8, 4),
                               SmallSystemConfig(), kReservedIo, true);
  ASSERT_TRUE(group.ok());
  EXPECT_FALSE(PlaceTable(*table, *group, **system).ok());
}

}  // namespace
}  // namespace updlrm::core
