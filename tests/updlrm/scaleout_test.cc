// ShardedEngine tests: the degenerate 1-shard fleet is the flat engine
// bit for bit, sharded + tiered serving stays bit-exact vs the flat
// reference, shard sub-traces match a per-shard filter of the trace,
// shard routing audits clean, remote shards price their cross-host
// ingress, and both engines reject the same malformed inputs.
#include "updlrm/scaleout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "trace/generator.h"
#include "updlrm/engine.h"

namespace updlrm::core {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional = true, std::uint64_t seed = 47) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = seed;
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }

  trace::DatasetSpec spec;
  spec.name = "scaleout";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = seed;
  trace::TraceGeneratorOptions options;
  options.num_samples = 96;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();
  f.dense = dlrm::DenseInputs::Generate(96, 5, seed + 1);
  return f;
}

pim::DpuSystemConfig ShardSystem(bool functional) {
  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  return sys;
}

EngineOptions SmallOptions() {
  EngineOptions options;
  options.method = partition::Method::kCacheAware;
  options.nc = 4;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  return options;
}

TEST(ScaleoutTest, DegenerateSingleShardMatchesFlatEngine) {
  Fixture f = MakeFixture();
  auto system = pim::DpuSystem::Create(ShardSystem(true));
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok());

  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  // Identity plan: 1 shard, no DRAM spill, zero-frequency rows pinned.
  fleet.tiering.keep_zero_freq_on_pim = true;
  auto sharded = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                       fleet, SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ((*sharded)->num_shards(), 1u);
  EXPECT_EQ((*sharded)->tier_plan().tables[0].dram_rows, 0u);

  auto want = (*flat)->RunBatch({0, 32}, &f.dense);
  auto got = (*sharded)->RunBatch({0, 32}, &f.dense);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want->pooled, got->pooled);
  EXPECT_EQ(want->ctr, got->ctr);
  EXPECT_EQ(want->stages.cpu_to_dpu, got->stages.cpu_to_dpu);
  EXPECT_EQ(want->stages.dpu_lookup, got->stages.dpu_lookup);
  EXPECT_EQ(want->stages.dpu_to_cpu, got->stages.dpu_to_cpu);
  EXPECT_EQ(want->stages.cpu_aggregate, got->stages.cpu_aggregate);
  EXPECT_EQ(want->bottom_mlp, got->bottom_mlp);
  EXPECT_EQ(want->interaction_top, got->interaction_top);
  EXPECT_EQ(want->total, got->total);
  EXPECT_EQ(want->partial_bytes, got->partial_bytes);
}

TEST(ScaleoutTest, ShardedTieredStaysBitExactVsFlat) {
  Fixture f = MakeFixture();
  auto system = pim::DpuSystem::Create(ShardSystem(true));
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok());

  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = 2;
  fleet.tiering.dram_epsilon = 0.05;  // cold tail served from host DRAM
  EngineOptions options = SmallOptions();
  options.check_mode = true;
  auto sharded =
      ShardedEngine::Create(f.model.get(), f.config, f.trace, fleet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  // The tiering actually split something (otherwise this test is vacuous).
  std::uint64_t dram_rows = 0;
  for (const auto& t : (*sharded)->tier_plan().tables) dram_rows += t.dram_rows;
  EXPECT_GT(dram_rows, 0u);

  auto want = (*flat)->RunBatch({0, 96}, &f.dense);
  auto got = (*sharded)->RunBatch({0, 96}, &f.dense);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Cross-shard + DRAM-tier merge happens in int64 lanes: pooled and
  // CTR outputs are bit-identical to the flat engine over the whole
  // model, even though rows moved tiers and shards.
  EXPECT_EQ(want->pooled, got->pooled);
  EXPECT_EQ(want->ctr, got->ctr);
  EXPECT_EQ((*sharded)->check_violations(), 0u)
      << (*sharded)->fleet_check_report().ToString();
}

TEST(ScaleoutTest, SubTracesMatchPerShardFilter) {
  // The single-pass split must produce exactly the sub-traces that
  // filtering every sample once per shard (the owners of tier_plan())
  // would, and keep the fleet's pooled outputs bit-identical to flat.
  Fixture f = MakeFixture();
  auto system = pim::DpuSystem::Create(ShardSystem(true));
  ASSERT_TRUE(system.ok());
  auto flat = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                   system->get(), SmallOptions());
  ASSERT_TRUE(flat.ok());

  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = 3;
  fleet.tiering.dram_epsilon = 0.05;
  auto sharded = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                       fleet, SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const partition::TierShardingPlan& plan = (*sharded)->tier_plan();

  std::uint64_t dram_rows = 0;
  for (std::uint32_t t = 0; t < f.config.num_tables; ++t) {
    dram_rows += plan.tables[t].dram_rows;
    for (std::uint32_t s = 0; s < (*sharded)->num_shards(); ++s) {
      trace::TableTrace want;
      std::vector<std::uint32_t> kept;
      for (std::size_t i = 0; i < f.trace.num_samples(); ++i) {
        kept.clear();
        for (std::uint32_t r : f.trace.tables[t].Sample(i)) {
          if (plan.tables[t].owner[r] == s) {
            kept.push_back(plan.tables[t].local[r]);
          }
        }
        want.AppendSample(kept);
      }
      const trace::TableTrace& got = (*sharded)->shard(s).trace().tables[t];
      ASSERT_EQ(got.num_samples(), want.num_samples());
      EXPECT_EQ(got.MeasuredAvgReduction(), want.MeasuredAvgReduction());
      EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
      EXPECT_TRUE(std::ranges::equal(got.indices(), want.indices()));
    }
  }
  EXPECT_GT(dram_rows, 0u);  // the DRAM buffer took part in the split

  auto want = (*flat)->RunBatch({0, 96}, &f.dense);
  auto got = (*sharded)->RunBatch({0, 96}, &f.dense);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want->pooled, got->pooled);
  EXPECT_EQ(want->ctr, got->ctr);
}

TEST(ScaleoutTest, RunAllMatchesBatchedFlatFunctional) {
  Fixture f = MakeFixture();
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(true);
  fleet.tiering.num_shards = 3;
  fleet.tiering.dram_epsilon = 0.02;
  auto sharded = ShardedEngine::Create(f.model.get(), f.config, f.trace,
                                       fleet, SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto report = (*sharded)->RunAll(&f.dense);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_samples, f.trace.num_samples());
  EXPECT_EQ(report->num_batches, f.trace.num_samples() / 16);
  EXPECT_GT(report->total, 0.0);
}

TEST(ScaleoutTest, TimingOnlyModeRuns) {
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.tiering.num_shards = 2;
  auto sharded = ShardedEngine::Create(nullptr, f.config, f.trace, fleet,
                                       SmallOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_FALSE((*sharded)->functional());
  auto batch = (*sharded)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->pooled.empty());
  EXPECT_GT(batch->stages.EmbeddingTotal(), 0.0);
}

TEST(ScaleoutTest, RemoteShardsPayCrossHostIngress) {
  Fixture f = MakeFixture(/*functional=*/false);
  EngineOptions options = SmallOptions();

  ShardedEngineConfig local;
  local.shard_system = ShardSystem(false);
  local.tiering.num_shards = 2;  // both shards on the front-end host
  auto a = ShardedEngine::Create(nullptr, f.config, f.trace, local, options);
  ASSERT_TRUE(a.ok());

  ShardedEngineConfig spread = local;
  spread.fleet_topology.ranks_per_host = 1;  // shard 1 lands on host 1
  auto b = ShardedEngine::Create(nullptr, f.config, f.trace, spread, options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  auto batch_a = (*a)->RunBatch({0, 16}, nullptr);
  auto batch_b = (*b)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  // The remote shard's stage-1 push and stage-3 pull traverse the
  // network fabric; the per-stage max across shards must go up.
  EXPECT_GT(batch_b->stages.cpu_to_dpu, batch_a->stages.cpu_to_dpu);
  EXPECT_GT(batch_b->stages.dpu_to_cpu, batch_a->stages.dpu_to_cpu);
}

TEST(ScaleoutTest, MisalignedShardHostBoundaryRejected) {
  Fixture f = MakeFixture(/*functional=*/false);
  ShardedEngineConfig fleet;
  fleet.shard_system = ShardSystem(false);
  fleet.shard_system.num_dpus = 16;  // 2 ranks per shard
  fleet.shard_system.dpus_per_rank = 8;
  fleet.tiering.num_shards = 2;
  fleet.fleet_topology.ranks_per_host = 3;  // 2 does not divide 3
  EXPECT_FALSE(fleet.Validate().ok());
}

// The flat engine and the fleet share one input validation: each
// malformed input returns InvalidArgument from both — at Create for
// what the engine is built from, at RunBatch for dense inputs — and
// never aborts.
TEST(ScaleoutTest, RejectsMalformedInputs) {
  std::vector<trace::TableProfile> short_profiles(2);
  for (trace::TableProfile& p : short_profiles) {
    p.freq.assign(599, 1);  // one row short of each 600-row table
    p.by_freq.assign(599, 0);
  }
  const auto few = dlrm::DenseInputs::Generate(8, 5, 1);
  const auto narrow = dlrm::DenseInputs::Generate(96, 4, 1);
  struct Case {
    const char* name;
    bool functional;
    std::vector<std::uint64_t> items_per_table;  // empty: unchanged
    const std::vector<trace::TableProfile>* preprofiled;
    const dlrm::DenseInputs* dense;  // set: rejected at RunBatch
  };
  const Case cases[] = {
      {"trace rows != config rows, timing-only", false, {700, 600},
       nullptr, nullptr},
      {"trace rows != config rows, functional", true, {700, 600}, nullptr,
       nullptr},
      {"mis-sized preprofiled tables", false, {}, &short_profiles,
       nullptr},
      {"dense shorter than the sample ids", true, {}, nullptr, &few},
      {"dense feature width != model", true, {}, nullptr, &narrow},
  };
  for (const Case& c : cases) {
    Fixture f = MakeFixture(c.functional);
    if (!c.items_per_table.empty()) {
      f.trace.items_per_table = c.items_per_table;
    }
    EngineOptions options = SmallOptions();
    options.preprofiled = c.preprofiled;
    const auto expect_rejected = [&c](auto created, const char* engine) {
      SCOPED_TRACE(std::string(c.name) + " on the " + engine);
      if (c.dense == nullptr) {
        EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
            << created.status().ToString();
        return;
      }
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      auto batch = (*created)->RunBatch({0, 32}, c.dense);
      EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument)
          << batch.status().ToString();
    };
    auto system = pim::DpuSystem::Create(ShardSystem(c.functional));
    ASSERT_TRUE(system.ok());
    expect_rejected(UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                         system->get(), options),
                    "flat engine");
    ShardedEngineConfig fleet;
    fleet.shard_system = ShardSystem(c.functional);
    fleet.tiering.num_shards = 2;
    expect_rejected(
        ShardedEngine::Create(f.model.get(), f.config, f.trace, fleet,
                              options),
        "fleet");
  }
}

}  // namespace
}  // namespace updlrm::core
