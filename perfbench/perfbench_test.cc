// The benchmark's own tests: the capacity search, the determinism of
// the simulated results, seeded inputs, and the correctness gate.
// Run them with `python3 perfbench/run.py --self-test`, which also
// checks host-width invariance and a forced wrong output end to end.
#include <gtest/gtest.h>

#include "capacity.h"
#include "gate.h"
#include "workloads.h"

namespace perfbench {
namespace {

LoadPoint Knee(double qps, double knee) {
  LoadPoint point;
  point.offered_qps = qps;
  point.meets_limit = qps <= knee;
  return point;
}

TEST(CapacitySearchTest, FindsAKnownKnee) {
  const SearchResult result = FindMaxQps(
      10'000.0, 1'000'000.0, 0.001,
      [](double qps) { return Knee(qps, 123'456.0); });
  EXPECT_FALSE(result.censored);
  EXPECT_FALSE(result.floor_failed);
  EXPECT_LE(result.max_qps, 123'456.0);
  EXPECT_GE(result.max_qps, 123'456.0 / 1.001);
}

TEST(CapacitySearchTest, FlagsACensoredKnee) {
  const SearchResult result = FindMaxQps(
      10'000.0, 100'000.0, 0.001,
      [](double qps) { return Knee(qps, 250'000.0); });
  EXPECT_TRUE(result.censored);
  EXPECT_EQ(result.max_qps, 100'000.0);
  EXPECT_EQ(result.probes.size(), 1u);
}

TEST(CapacitySearchTest, FlagsAFloorThatMisses) {
  const SearchResult result = FindMaxQps(
      10'000.0, 100'000.0, 0.001,
      [](double qps) { return Knee(qps, 5'000.0); });
  EXPECT_TRUE(result.floor_failed);
  EXPECT_EQ(result.max_qps, 0.0);
}

TEST(CapacitySearchTest, PercentileIsNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50.0), 100.0);
  EXPECT_EQ(Percentile(v, 99.0), 198.0);
  EXPECT_EQ(Percentile(v, 100.0), 200.0);
}

// A small copy of a workload: same shape, fewer requests.
WorkloadSpec Small(const char* name) {
  WorkloadSpec spec = *FindWorkload(name);
  spec.samples = 1280;
  spec.shards = 4;
  return spec;
}

TEST(DeterminismTest, SimulatedResultsRepeatBitForBit) {
  for (const char* name : {"clo-dlrm", "clo-fleet16"}) {
    const WorkloadSpec spec = Small(name);
    const bench::Workload inputs = GenerateInputs(spec, 5);
    auto first = Deploy(spec, inputs, 5);
    auto second = Deploy(spec, inputs, 5);
    const ServeRun a = Serve(*first, spec.high_qps, 5);
    const ServeRun b = Serve(*second, spec.high_qps, 5);
    const ServeRun c = Serve(*first, spec.high_qps, 5);
    EXPECT_TRUE(SameSimulation(a, b)) << name;
    EXPECT_TRUE(SameSimulation(a, c)) << name;
    Gate gate;
    CheckRun(a, name, gate);
    EXPECT_TRUE(gate.ok()) << gate.messages().front();
  }
}

TEST(InputsTest, ADifferentSeedChangesTheInputs) {
  const WorkloadSpec spec = Small("clo-dlrm");
  const bench::Workload a = GenerateInputs(spec, 1);
  const bench::Workload b = GenerateInputs(spec, 2);
  const bench::Workload a2 = GenerateInputs(spec, 1);
  const auto rows = [](const bench::Workload& w) {
    const auto s = w.trace.tables[0].Sample(0);
    return std::vector<std::uint32_t>(s.begin(), s.end());
  };
  EXPECT_EQ(rows(a), rows(a2));
  EXPECT_NE(rows(a), rows(b));
  EXPECT_NE(ArrivalSeed(1), ArrivalSeed(2));
}

TEST(GateTest, AForcedWrongOutputFailsTheGate) {
  const WorkloadSpec spec = Small("clo-fleet16");
  Gate clean;
  const FunctionalResult ok = CheckFunctionalSlice(spec, 9, clean);
  EXPECT_TRUE(clean.ok());
  EXPECT_GT(ok.outputs, 0u);
  EXPECT_EQ(ok.wrong, 0u);

  Gate broken;
  const FunctionalResult bad =
      CheckFunctionalSlice(spec, 9, broken, Fault::kWrongOutput);
  EXPECT_FALSE(broken.ok());
  EXPECT_GT(bad.wrong, 0u);
}

TEST(GateTest, ACorruptedScheduleFailsTheGate) {
  const WorkloadSpec spec = Small("clo-dlrm");
  const bench::Workload inputs = GenerateInputs(spec, 4);
  auto d = Deploy(spec, inputs, 4);
  ServeRun run = Serve(*d, spec.low_qps, 4);
  Gate clean;
  CheckRun(run, "clean", clean);
  EXPECT_TRUE(clean.ok());

  run.flow_schedule[3].s2_end_ns += 1000.0;  // kernel longer than charged
  run.shed += 1;                             // and a request lost
  Gate broken;
  CheckRun(run, "broken", broken);
  EXPECT_GE(broken.violations(), 2u);
}

}  // namespace
}  // namespace perfbench
