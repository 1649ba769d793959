// Injected-fault coverage of the static plan auditor: one deliberate
// fault per rule (plan coverage, plan capacity, cache co-location, tile
// shape, gather-map bounds, WRAM capacity, transfer plan), each proven
// to fire against a plan that is clean without the fault.
#include "check/plan_audit.h"

#include <gtest/gtest.h>

#include <vector>

#include "check/report.h"
#include "partition/uniform.h"

namespace updlrm::check {
namespace {

partition::PartitionPlan SmallPlan() {
  auto geom = partition::GroupGeometry::Make(
      dlrm::TableShape{.rows = 64, .cols = 16}, /*dpus_per_table=*/8,
      /*nc=*/4);
  UPDLRM_CHECK(geom.ok());
  auto plan = partition::UniformPartition(*geom);
  UPDLRM_CHECK(plan.ok());
  return std::move(plan).value();
}

// EMT rows per bin of the uncorrupted SmallPlan(). Only the capacity
// rule reads them, and AmpleLimits() fits any of these plans.
std::vector<std::uint64_t> CleanEmtRows() {
  return SmallPlan().EmtRowsPerBin();
}

PlanAuditLimits AmpleLimits() {
  return PlanAuditLimits{.emt_bytes = 1 << 20, .cache_bytes = 1 << 20};
}

TEST(PlanAuditTest, CleanUniformPlanReportsNothing) {
  CheckReport report;
  AuditPlan(SmallPlan(), CleanEmtRows(), AmpleLimits(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// Rule: kPlanCoverage — a row assigned to a bin that does not exist.
TEST(PlanAuditTest, OutOfRangeBinFiresCoverage) {
  partition::PartitionPlan plan = SmallPlan();
  plan.row_bin[7] = plan.geom.row_shards + 3;
  CheckReport report;
  AuditPlan(plan, CleanEmtRows(), AmpleLimits(), &report);
  EXPECT_GE(report.count(Rule::kPlanCoverage), 1u);
}

// Rule: kPlanCoverage — row coverage not exact (truncated map).
TEST(PlanAuditTest, TruncatedRowBinFiresCoverage) {
  partition::PartitionPlan plan = SmallPlan();
  plan.row_bin.pop_back();
  CheckReport report;
  AuditPlan(plan, CleanEmtRows(), AmpleLimits(), &report);
  EXPECT_EQ(report.count(Rule::kPlanCoverage), 1u);
}

// Rule: kPlanCoverage — one row claimed by two cache lists (two homes).
TEST(PlanAuditTest, RowInTwoCacheListsFiresCoverage) {
  partition::PartitionPlan plan = SmallPlan();
  plan.cache.lists.push_back(cache::CacheList{{1, 2}, 10.0});
  plan.cache.lists.push_back(cache::CacheList{{2, 3}, 5.0});
  plan.list_bin = {0, 1};
  // BuildRoute itself rejects overlap; hand-build the last-wins words
  // the corrupted plan implies.
  plan.route = plan.row_bin;
  plan.route[1] = partition::ListRouteWord(0, 0);
  plan.route[2] = partition::ListRouteWord(1, 0);
  plan.route[3] = partition::ListRouteWord(1, 1);
  CheckReport report;
  AuditPlan(plan, CleanEmtRows(), AmpleLimits(), &report);
  EXPECT_GE(report.count(Rule::kPlanCoverage), 1u);
}

// Rule: kPlanCapacity — a bin's tile exceeding the EMT region.
TEST(PlanAuditTest, OverfullBinFiresCapacity) {
  partition::PartitionPlan plan = SmallPlan();
  PlanAuditLimits limits = AmpleLimits();
  // 64 rows / 4 bins = 16 rows x 16 bytes per bin; allow only 8 rows.
  limits.emt_bytes = 8 * plan.geom.row_bytes();
  CheckReport report;
  AuditPlan(plan, plan.EmtRowsPerBin(), limits, &report);
  EXPECT_GE(report.count(Rule::kPlanCapacity), 1u);
}

// A clean plan with one two-item list {1, 2} in bin 0 and a valid
// route; the kCacheColocation fault cases below corrupt one word each.
partition::PartitionPlan ListedPlan() {
  partition::PartitionPlan plan = SmallPlan();
  plan.cache.lists.push_back(cache::CacheList{{1, 2}, 10.0});
  plan.list_bin = {0};
  plan.row_bin[1] = 0;
  plan.row_bin[2] = 0;
  UPDLRM_CHECK(plan.BuildRoute().ok());
  return plan;
}

std::uint64_t ColocationViolations(const partition::PartitionPlan& plan) {
  CheckReport report;
  AuditPlan(plan, CleanEmtRows(), AmpleLimits(), &report);
  return report.count(Rule::kCacheColocation);
}

TEST(PlanAuditTest, ListedPlanWithValidRouteReportsNothing) {
  CheckReport report;
  AuditPlan(ListedPlan(), CleanEmtRows(), AmpleLimits(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// Rule: kCacheColocation — a list word naming the wrong position: the
// subset-sum mask would set the other item's bit.
TEST(PlanAuditTest, WrongPositionRouteWordFiresColocation) {
  partition::PartitionPlan plan = ListedPlan();
  plan.route[2] = partition::ListRouteWord(0, 0);
  EXPECT_EQ(ColocationViolations(plan), 1u);
}

// Rule: kCacheColocation — a list word naming a list the row is not in.
TEST(PlanAuditTest, WrongListRouteWordFiresColocation) {
  partition::PartitionPlan plan = ListedPlan();
  plan.route[5] = partition::ListRouteWord(0, 1);  // row 5 is in no list
  EXPECT_EQ(ColocationViolations(plan), 1u);
  plan = ListedPlan();
  plan.route[1] = partition::ListRouteWord(1, 0);  // list 1 does not exist
  EXPECT_EQ(ColocationViolations(plan), 1u);
}

// Rule: kCacheColocation — a bin word that disagrees with row_bin, and
// a list member routed as a plain bin.
TEST(PlanAuditTest, WrongBinRouteWordFiresColocation) {
  partition::PartitionPlan plan = ListedPlan();
  plan.route[40] = (plan.row_bin[40] + 1) % plan.geom.row_shards;
  EXPECT_EQ(ColocationViolations(plan), 1u);
  plan = ListedPlan();
  plan.route[1] = plan.row_bin[1];
  EXPECT_EQ(ColocationViolations(plan), 1u);
}

// Rule: kCacheColocation — route not covering every row, and route
// words on a plan without lists.
TEST(PlanAuditTest, WrongSizeRouteFiresColocation) {
  partition::PartitionPlan plan = ListedPlan();
  plan.route.pop_back();
  EXPECT_EQ(ColocationViolations(plan), 1u);
  plan.route.clear();
  EXPECT_EQ(ColocationViolations(plan), 1u);
  plan = SmallPlan();
  plan.route = plan.row_bin;
  EXPECT_EQ(ColocationViolations(plan), 1u);
}

// Rule: kCacheColocation — a list placed in a bin that does not exist.
TEST(PlanAuditTest, UnplacedListFiresColocation) {
  partition::PartitionPlan plan = SmallPlan();
  plan.cache.lists.push_back(cache::CacheList{{1, 2}, 10.0});
  plan.list_bin = {-1};
  plan.route = plan.row_bin;
  plan.route[1] = partition::ListRouteWord(0, 0);
  plan.route[2] = partition::ListRouteWord(0, 1);
  CheckReport report;
  AuditPlan(plan, CleanEmtRows(), AmpleLimits(), &report);
  EXPECT_GE(report.count(Rule::kCacheColocation), 1u);
}

// Rule: kTileShape — Nc outside the §3.1 uniform-model claim.
TEST(PlanAuditTest, WideNcUnderModelClaimFiresTileShape) {
  auto geom = partition::GroupGeometry::Make(
      dlrm::TableShape{.rows = 64, .cols = 32}, /*dpus_per_table=*/4,
      /*nc=*/16);
  UPDLRM_CHECK(geom.ok());
  auto plan = partition::UniformPartition(*geom);
  UPDLRM_CHECK(plan.ok());
  PlanAuditLimits limits = AmpleLimits();
  CheckReport report;
  AuditPlan(*plan, plan->EmtRowsPerBin(), limits, &report);
  EXPECT_EQ(report.count(Rule::kTileShape), 0u);  // no claim, no rule
  limits.claims_uniform_model = true;
  AuditPlan(*plan, plan->EmtRowsPerBin(), limits, &report);
  EXPECT_EQ(report.count(Rule::kTileShape), 1u);
}

// Rule: kGatherBounds — an applied dedup plan outside uint16 range.
TEST(PlanAuditTest, OversizedDedupPlanFiresGatherBounds) {
  CheckReport report;
  AuditDedupBounds(/*applied=*/true, /*unique_total=*/70'000,
                   /*refs=*/80'000, &report);
  EXPECT_EQ(report.count(Rule::kGatherBounds), 1u);
  // Not applied: the raw wire format carries no gather map.
  AuditDedupBounds(false, 70'000, 80'000, &report);
  EXPECT_EQ(report.count(Rule::kGatherBounds), 1u);
  // Applied and in range: clean.
  AuditDedupBounds(true, 100, 400, &report);
  EXPECT_EQ(report.count(Rule::kGatherBounds), 1u);
  // Refs fewer than uniques: the gather map cannot replay the list.
  AuditDedupBounds(true, 400, 100, &report);
  EXPECT_EQ(report.count(Rule::kGatherBounds), 2u);
}

// Rule: kWramCapacity — pinning beyond the kernel's clamp.
TEST(PlanAuditTest, OverfullWramTierFiresCapacity) {
  CheckReport report;
  AuditWramCapacity(/*bin=*/2, /*pinned_rows=*/512, /*max_rows=*/512,
                    &report);
  EXPECT_EQ(report.count(Rule::kWramCapacity), 0u);
  AuditWramCapacity(2, 513, 512, &report);
  EXPECT_EQ(report.count(Rule::kWramCapacity), 1u);
  EXPECT_NE(report.first_offender(Rule::kWramCapacity).find("bin 2"),
            std::string::npos);
}

// Rule: kTransferPlan — a coalesced plan losing to a classic path.
TEST(PlanAuditTest, RegressingTransferPlanFires) {
  CheckReport report;
  AuditTransferPlan(/*plan_ns=*/90.0, /*padded_ns=*/100.0,
                    /*ragged_ns=*/120.0, &report);
  EXPECT_EQ(report.count(Rule::kTransferPlan), 0u);
  AuditTransferPlan(101.0, 100.0, 120.0, &report);
  EXPECT_EQ(report.count(Rule::kTransferPlan), 1u);
}

}  // namespace
}  // namespace updlrm::check
