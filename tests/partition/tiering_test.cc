// Statistical tiering / sharding planner tests: exact coverage,
// epsilon mass budget, capacity clamps, the 1-shard identity, plan
// determinism, and the least-loaded heap against a linear scan.
#include "partition/tiering.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/profiler.h"

namespace updlrm::partition {
namespace {

trace::TableProfile MakeProfile(std::vector<std::uint64_t> freq) {
  trace::TableProfile p;
  p.by_freq = trace::ItemsByFrequency(freq);
  p.freq = std::move(freq);
  return p;
}

TEST(TieringTest, ValidateRejectsBadOptions) {
  TieringOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = TieringOptions{};
  options.dram_epsilon = 1.5;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TieringTest, SingleShardNoEpsilonIsIdentity) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({5, 0, 9, 1, 0, 3})};
  TieringOptions options;  // 1 shard, epsilon 0
  options.keep_zero_freq_on_pim = true;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.dram_rows, 0u);
  EXPECT_EQ(t.shard_rows[0], 6u);
  for (std::uint32_t r = 0; r < 6; ++r) {
    EXPECT_EQ(t.owner[r], 0u);
    EXPECT_EQ(t.local[r], r);  // local ids == global ids: the flat case
  }
}

TEST(TieringTest, ZeroFreqRowsSpillForFree) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({5, 0, 9, 0})};
  auto plan = BuildTierShardingPlan(profiles, TieringOptions{});
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.owner[1], kHostDramShard);
  EXPECT_EQ(t.owner[3], kHostDramShard);
  EXPECT_EQ(t.dram_rows, 2u);
  EXPECT_EQ(t.dram_accesses, 0u);  // free: no access mass spilled
}

TEST(TieringTest, EpsilonSpillsColdestWithinBudget) {
  // total mass 100; epsilon 0.1 allows 10: rows with freq 1*8 and 2
  // (coldest first) fit exactly; the next-coldest (freq 10) must stay.
  std::vector<std::uint64_t> freq = {50, 10, 30, 2, 1, 1, 1, 1, 1, 1, 1, 1};
  const std::vector<trace::TableProfile> profiles = {MakeProfile(freq)};
  TieringOptions options;
  options.dram_epsilon = 0.1;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_LE(t.dram_accesses, 10u);
  EXPECT_EQ(t.dram_accesses, 10u);  // 8x freq-1 + freq-2 == exactly 10
  EXPECT_EQ(t.owner[0], 0u);
  EXPECT_EQ(t.owner[1], 0u);
  EXPECT_EQ(t.owner[2], 0u);
}

TEST(TieringTest, GreedyShardingBalancesAccessMass) {
  // 4 equal-mass rows over 2 shards: 2 rows and half the mass each.
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({25, 25, 25, 25})};
  TieringOptions options;
  options.num_shards = 2;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.shard_rows[0], 2u);
  EXPECT_EQ(t.shard_rows[1], 2u);
  EXPECT_EQ(t.shard_accesses[0], 50u);
  EXPECT_EQ(t.shard_accesses[1], 50u);
  EXPECT_DOUBLE_EQ(plan->MaxShardImbalance(), 1.0);
}

TEST(TieringTest, CapacityOverflowSpillsToDram) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({9, 8, 7, 6, 5})};
  TieringOptions options;
  options.num_shards = 2;
  options.pim_capacity_rows_per_shard = 2;  // room for 4 of 5 rows
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  EXPECT_EQ(t.shard_rows[0], 2u);
  EXPECT_EQ(t.shard_rows[1], 2u);
  EXPECT_EQ(t.dram_rows, 1u);
  // The *coldest* row is the one pushed out.
  EXPECT_EQ(t.owner[4], kHostDramShard);
}

TEST(TieringTest, LocalIdsDenseAscendingPerOwner) {
  const std::vector<trace::TableProfile> profiles = {
      MakeProfile({9, 1, 8, 2, 7, 3, 6, 4})};
  TieringOptions options;
  options.num_shards = 3;
  auto plan = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(plan.ok());
  const TableTierPlan& t = plan->tables[0];
  std::vector<std::uint32_t> next(options.num_shards, 0);
  std::uint64_t covered = 0;
  for (std::size_t r = 0; r < t.owner.size(); ++r) {
    if (t.owner[r] == kHostDramShard) continue;
    ASSERT_LT(t.owner[r], options.num_shards);
    EXPECT_EQ(t.local[r], next[t.owner[r]]++);
    ++covered;
  }
  EXPECT_EQ(covered + t.dram_rows, t.num_rows());
}

TEST(TieringTest, PlanIsDeterministic) {
  std::vector<std::uint64_t> freq(257);
  for (std::size_t i = 0; i < freq.size(); ++i) {
    freq[i] = (i * 2654435761u) % 97;  // fixed pseudo-random skew
  }
  const std::vector<trace::TableProfile> profiles = {MakeProfile(freq),
                                                     MakeProfile(freq)};
  TieringOptions options;
  options.num_shards = 4;
  options.dram_epsilon = 0.05;
  auto a = BuildTierShardingPlan(profiles, options);
  auto b = BuildTierShardingPlan(profiles, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(a->tables[t].owner, b->tables[t].owner);
    EXPECT_EQ(a->tables[t].local, b->tables[t].local);
    EXPECT_EQ(a->tables[t].shard_rows, b->tables[t].shard_rows);
    EXPECT_EQ(a->tables[t].shard_accesses, b->tables[t].shard_accesses);
  }
  // Identical profiles produce identical per-table plans.
  EXPECT_EQ(a->tables[0].owner, a->tables[1].owner);
}

// Reference owners: the same tier split, then for every PIM row in
// descending-frequency order a linear scan for the least-loaded shard
// with room (access mass, then row count, then shard id).
std::vector<std::uint32_t> ScanOwners(const trace::TableProfile& profile,
                                      const TieringOptions& options) {
  const std::size_t rows = profile.freq.size();
  std::uint64_t total = 0;
  for (const std::uint64_t f : profile.freq) total += f;
  std::vector<bool> spilled(rows, false);
  const double budget = options.dram_epsilon * static_cast<double>(total);
  std::uint64_t spilled_mass = 0;
  for (std::size_t i = profile.by_freq.size(); i-- > 0;) {
    const std::uint32_t r = profile.by_freq[i];
    const std::uint64_t f = profile.freq[r];
    if (f == 0) {
      if (!options.keep_zero_freq_on_pim) spilled[r] = true;
      continue;
    }
    if (static_cast<double>(spilled_mass + f) > budget) break;
    spilled_mass += f;
    spilled[r] = true;
  }
  const std::uint32_t shards = options.num_shards;
  std::vector<std::uint32_t> owner(rows, kHostDramShard);
  std::vector<std::uint64_t> mass(shards, 0);
  std::vector<std::uint64_t> count(shards, 0);
  for (const std::uint32_t r : profile.by_freq) {
    if (spilled[r]) continue;
    std::uint32_t best = kHostDramShard;
    for (std::uint32_t s = 0; s < shards; ++s) {
      if (options.pim_capacity_rows_per_shard > 0 &&
          count[s] >= options.pim_capacity_rows_per_shard) {
        continue;
      }
      if (best == kHostDramShard || mass[s] < mass[best] ||
          (mass[s] == mass[best] && count[s] < count[best])) {
        best = s;
      }
    }
    if (best == kHostDramShard) continue;
    owner[r] = best;
    ++count[best];
    mass[best] += profile.freq[r];
  }
  return owner;
}

TEST(TieringTest, HeapPlacementMatchesLinearScan) {
  struct Case {
    std::string name;
    std::vector<std::uint64_t> freq;
  };
  std::vector<Case> cases;
  cases.push_back({"ties", std::vector<std::uint64_t>(203, 7)});
  {
    std::vector<std::uint64_t> freq(500);
    Rng rng(1234);
    for (std::uint64_t& f : freq) {
      // Few distinct values and many zeros: plenty of mass ties.
      f = rng.NextBounded(4) == 0 ? 0 : 1 + rng.NextBounded(6);
    }
    cases.push_back({"small-values", std::move(freq)});
  }
  {
    std::vector<std::uint64_t> freq(777);
    Rng rng(99);
    for (std::uint64_t& f : freq) f = rng.NextBounded(1000);
    cases.push_back({"skewed", std::move(freq)});
  }
  for (const Case& c : cases) {
    const trace::TableProfile profile = MakeProfile(c.freq);
    const std::vector<trace::TableProfile> profiles = {profile};
    for (const std::uint32_t shards : {1u, 2u, 16u}) {
      for (const std::uint64_t capacity : {0u, 5u, 40u}) {
        for (const bool keep_zero : {false, true}) {
          for (const double epsilon : {0.0, 0.05}) {
            TieringOptions options;
            options.num_shards = shards;
            options.pim_capacity_rows_per_shard = capacity;
            options.keep_zero_freq_on_pim = keep_zero;
            options.dram_epsilon = epsilon;
            const std::string where =
                c.name + " shards " + std::to_string(shards) +
                " capacity " + std::to_string(capacity) + " keep_zero " +
                std::to_string(keep_zero) + " epsilon " +
                std::to_string(epsilon);
            auto plan = BuildTierShardingPlan(profiles, options);
            ASSERT_TRUE(plan.ok()) << where;
            const TableTierPlan& t = plan->tables[0];
            const std::vector<std::uint32_t> want =
                ScanOwners(profile, options);
            ASSERT_EQ(t.owner, want) << where;
            std::vector<std::uint64_t> rows(shards, 0);
            std::vector<std::uint64_t> mass(shards, 0);
            std::uint64_t dram = 0;
            for (std::size_t r = 0; r < want.size(); ++r) {
              if (want[r] == kHostDramShard) {
                ++dram;
                continue;
              }
              ++rows[want[r]];
              mass[want[r]] += c.freq[r];
            }
            EXPECT_EQ(t.shard_rows, rows) << where;
            EXPECT_EQ(t.shard_accesses, mass) << where;
            EXPECT_EQ(t.dram_rows, dram) << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace updlrm::partition
