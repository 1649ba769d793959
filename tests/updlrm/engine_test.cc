#include "updlrm/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "trace/generator.h"
#include "updlrm/route_summary.h"
#include "updlrm/scaleout.h"

namespace updlrm::core {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional = true, std::uint64_t seed = 31) {
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
  spec.name = "eng";
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

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;  // 4 per table
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  f.dense = dlrm::DenseInputs::Generate(96, 5, seed + 1);
  return f;
}

EngineOptions SmallEngineOptions(partition::Method method,
                                 std::uint32_t nc = 0) {
  EngineOptions options;
  options.method = method;
  options.nc = nc;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  return options;
}

// ---- Functional equivalence: the headline correctness property. ----

class EngineEquivalence
    : public ::testing::TestWithParam<
          std::tuple<partition::Method, std::uint32_t>> {};

TEST_P(EngineEquivalence, PooledEmbeddingsBitExactVsReference) {
  const auto [method, nc] = GetParam();
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(),
                                     SmallEngineOptions(method, nc));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->pooled.size(), 16u * 2 * 8);

  std::vector<float> expected(2 * 8);
  for (std::size_t s = 0; s < 16; ++s) {
    f.model->PooledEmbeddingsFixed(f.trace, s, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Bit-exact: identical integer arithmetic, different order.
      ASSERT_EQ(batch->pooled[s * 16 + i], expected[i])
          << "sample " << s << " lane " << i << " method "
          << partition::MethodName(method) << " nc " << nc;
    }
  }
}

TEST_P(EngineEquivalence, CtrMatchesReferenceForward) {
  const auto [method, nc] = GetParam();
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(),
                                     SmallEngineOptions(method, nc));
  ASSERT_TRUE(engine.ok());
  auto batch = (*engine)->RunBatch({16, 32}, &f.dense);
  ASSERT_TRUE(batch.ok());
  const auto expected =
      f.model->ForwardBatch(f.dense, f.trace, {16, 32}, /*fixed=*/true);
  ASSERT_EQ(batch->ctr.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch->ctr[i], expected[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndNc, EngineEquivalence,
    ::testing::Combine(::testing::Values(partition::Method::kUniform,
                                         partition::Method::kNonUniform,
                                         partition::Method::kCacheAware),
                       ::testing::Values(0u, 2u, 4u, 8u)),
    [](const auto& info) {
      return std::string(partition::MethodShortName(
                 std::get<0>(info.param))) +
             "_nc" + std::to_string(std::get<1>(info.param));
    });

// ---- Engine behaviour and timing structure. ----

TEST(EngineTest, AutoNcRecordsOptimizerResult) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 0));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->tile_optimization().has_value());
  EXPECT_EQ((*engine)->nc(), (*engine)->tile_optimization()->best.nc);
  EXPECT_FALSE((*engine)->tile_optimization()->candidates.empty());
}

TEST(EngineTest, ForcedNcSkipsOptimizer) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->nc(), 4u);
  EXPECT_FALSE((*engine)->tile_optimization().has_value());
}

TEST(EngineTest, StageLatenciesArePositive) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kNonUniform, 4));
  ASSERT_TRUE(engine.ok());
  auto batch = (*engine)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch->stages.cpu_to_dpu, 0.0);
  EXPECT_GT(batch->stages.dpu_lookup, 0.0);
  EXPECT_GT(batch->stages.dpu_to_cpu, 0.0);
  EXPECT_GT(batch->stages.cpu_aggregate, 0.0);
  EXPECT_GT(batch->bottom_mlp, 0.0);
  EXPECT_GE(batch->total, batch->stages.EmbeddingTotal());
}

TEST(EngineTest, TimingOnlyModeMatchesFunctionalTiming) {
  // Timing must not depend on whether MRAM contents are materialized.
  Fixture functional = MakeFixture(true);
  Fixture timing = MakeFixture(false);
  auto e1 = UpDlrmEngine::Create(
      functional.model.get(), functional.config, functional.trace,
      functional.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  auto e2 = UpDlrmEngine::Create(
      nullptr, timing.config, timing.trace, timing.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto b1 = (*e1)->RunBatch({0, 16}, nullptr);
  auto b2 = (*e2)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_DOUBLE_EQ(b1->stages.cpu_to_dpu, b2->stages.cpu_to_dpu);
  EXPECT_DOUBLE_EQ(b1->stages.dpu_lookup, b2->stages.dpu_lookup);
  EXPECT_DOUBLE_EQ(b1->stages.dpu_to_cpu, b2->stages.dpu_to_cpu);
  EXPECT_TRUE(b2->pooled.empty());
  EXPECT_EQ(timing.system->TotalHighWatermark(), 0u);
}

TEST(EngineTest, CacheAwareReducesLookupTimeOnHotTrace) {
  // The §3.3 claim in miniature: CA stage-2 time <= NU stage-2 time on a
  // co-occurrence-heavy trace.
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  auto nu = UpDlrmEngine::Create(
      nullptr, f1.config, f1.trace, f1.system.get(),
      SmallEngineOptions(partition::Method::kNonUniform, 4));
  auto ca = UpDlrmEngine::Create(
      nullptr, f2.config, f2.trace, f2.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  ASSERT_TRUE(nu.ok() && ca.ok());
  auto rnu = (*nu)->RunAll(nullptr);
  auto rca = (*ca)->RunAll(nullptr);
  ASSERT_TRUE(rnu.ok() && rca.ok());
  EXPECT_LT(rca->stages.dpu_lookup, rnu->stages.dpu_lookup);
}

TEST(EngineTest, RunAllAggregatesBatches) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  auto report = (*engine)->RunAll(&f.dense);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_batches, 6u);  // 96 samples / 16
  EXPECT_EQ(report->num_samples, 96u);
  EXPECT_GT(report->total, 0.0);
  EXPECT_GT(report->AvgBatchTotal(), 0.0);
}

TEST(EngineTest, DpuStatsAccumulate) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RunBatch({0, 16}, nullptr).ok());
  std::uint64_t total_lookups = 0;
  std::uint64_t total_lookups_per_shard = 0;
  for (std::uint32_t d = 0; d < f.system->num_dpus(); ++d) {
    total_lookups += f.system->dpu(d).stats().lookups;
  }
  // Each lookup is replicated across the 2 column shards (nc=4, dim=8).
  std::uint64_t trace_lookups = 0;
  for (const auto& table : f.trace.tables) {
    trace_lookups += table.offsets()[16];
  }
  total_lookups_per_shard = total_lookups / 2;
  EXPECT_EQ(total_lookups_per_shard, trace_lookups);
}

// ---- Error handling. ----

TEST(EngineTest, RejectsMismatchedTraceTables) {
  Fixture f = MakeFixture();
  f.config.num_tables = 4;  // trace has 2
  auto model = dlrm::DlrmModel::Create(f.config);
  ASSERT_TRUE(model.ok());
  auto engine = UpDlrmEngine::Create(
      &model.value(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  EXPECT_FALSE(engine.ok());
}

TEST(EngineTest, RejectsIndivisibleDpuCount) {
  Fixture f = MakeFixture();
  pim::DpuSystemConfig sys;
  sys.num_dpus = 7;  // not divisible by 2 tables
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  auto system = pim::DpuSystem::Create(sys);
  ASSERT_TRUE(system.ok());
  auto engine = UpDlrmEngine::Create(
      nullptr, f.config, f.trace, system->get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  EXPECT_FALSE(engine.ok());
}

TEST(EngineTest, RejectsFunctionalModelOnTimingSystem) {
  Fixture f = MakeFixture();
  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  ASSERT_TRUE(system.ok());
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, system->get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, RejectsInvalidBatchRange) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->RunBatch({0, 0}, nullptr).ok());
  EXPECT_FALSE((*engine)->RunBatch({90, 200}, nullptr).ok());
}

TEST(EngineTest, RejectsBadOptions) {
  Fixture f = MakeFixture();
  EngineOptions options = SmallEngineOptions(partition::Method::kUniform, 4);
  options.cache_capacity_fraction = 1.5;
  EXPECT_FALSE(UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                    f.system.get(), options)
                   .ok());
  options = SmallEngineOptions(partition::Method::kUniform, 4);
  options.batch_size = 0;
  EXPECT_FALSE(UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                    f.system.get(), options)
                   .ok());
}

TEST(EngineTest, RunSamplesMatchesRunBatchOnContiguousRange) {
  // RunBatch is specified as the contiguous special case of RunSamples;
  // the serving batcher relies on that equivalence.
  Fixture f1 = MakeFixture();
  Fixture f2 = MakeFixture();
  auto e1 = UpDlrmEngine::Create(
      f1.model.get(), f1.config, f1.trace, f1.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  auto e2 = UpDlrmEngine::Create(
      f2.model.get(), f2.config, f2.trace, f2.system.get(),
      SmallEngineOptions(partition::Method::kCacheAware, 4));
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto by_range = (*e1)->RunBatch({16, 32}, &f1.dense);
  std::vector<std::size_t> samples(16);
  for (std::size_t i = 0; i < 16; ++i) samples[i] = 16 + i;
  auto by_list = (*e2)->RunSamples(samples, &f2.dense);
  ASSERT_TRUE(by_range.ok() && by_list.ok());
  ASSERT_EQ(by_list->pooled.size(), by_range->pooled.size());
  for (std::size_t i = 0; i < by_range->pooled.size(); ++i) {
    ASSERT_EQ(by_list->pooled[i], by_range->pooled[i]) << i;
  }
  ASSERT_EQ(by_list->ctr.size(), by_range->ctr.size());
  for (std::size_t i = 0; i < by_range->ctr.size(); ++i) {
    EXPECT_EQ(by_list->ctr[i], by_range->ctr[i]) << i;
  }
  EXPECT_DOUBLE_EQ(by_list->stages.cpu_to_dpu, by_range->stages.cpu_to_dpu);
  EXPECT_DOUBLE_EQ(by_list->stages.dpu_lookup, by_range->stages.dpu_lookup);
  EXPECT_DOUBLE_EQ(by_list->stages.dpu_to_cpu, by_range->stages.dpu_to_cpu);
  EXPECT_DOUBLE_EQ(by_list->stages.cpu_aggregate,
                   by_range->stages.cpu_aggregate);
}

TEST(EngineTest, RunSamplesHandlesNonContiguousLists) {
  // A shed-gap batch: samples {3, 7, 40, 41, 90} must pool exactly the
  // per-sample reference rows, in list order.
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kNonUniform, 4));
  ASSERT_TRUE(engine.ok());
  const std::vector<std::size_t> samples = {3, 7, 40, 41, 90};
  auto batch = (*engine)->RunSamples(samples, nullptr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->pooled.size(), samples.size() * 2 * 8);
  std::vector<float> expected(2 * 8);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    f.model->PooledEmbeddingsFixed(f.trace, samples[s], expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(batch->pooled[s * 16 + i], expected[i])
          << "slot " << s << " lane " << i;
    }
  }
}

TEST(EngineTest, RunSamplesRejectsBadLists) {
  Fixture f = MakeFixture();
  auto engine = UpDlrmEngine::Create(
      f.model.get(), f.config, f.trace, f.system.get(),
      SmallEngineOptions(partition::Method::kUniform, 4));
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->RunSamples({}, nullptr).ok());
  const std::vector<std::size_t> out_of_range = {0, 96};
  EXPECT_FALSE((*engine)->RunSamples(out_of_range, nullptr).ok());
}

TEST(EngineTest, ReplicationKeepsPooledEmbeddingsBitExact) {
  // Replicated rows come from the replica region of an adaptively
  // chosen DPU — the functional result must not change.
  Fixture f = MakeFixture();
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  options.replicate_hot_rows = 32;
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->groups()[0].plan.has_replication());
  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<float> expected(2 * 8);
  for (std::size_t s = 0; s < 16; ++s) {
    f.model->PooledEmbeddingsFixed(f.trace, s, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(batch->pooled[s * 16 + i], expected[i])
          << "sample " << s << " lane " << i;
    }
  }
}

TEST(EngineTest, ReplicationReducesStage2OnSkewedTrace) {
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  EngineOptions plain =
      SmallEngineOptions(partition::Method::kNonUniform, 4);
  EngineOptions replicated = plain;
  replicated.replicate_hot_rows = 64;
  auto a = UpDlrmEngine::Create(nullptr, f1.config, f1.trace,
                                f1.system.get(), plain);
  auto b = UpDlrmEngine::Create(nullptr, f2.config, f2.trace,
                                f2.system.get(), replicated);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = (*a)->RunAll(nullptr);
  auto rb = (*b)->RunAll(nullptr);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_LE(rb->stages.dpu_lookup, ra->stages.dpu_lookup * 1.001);
}

TEST(EngineTest, ReplicationClampsToBinCapacityInsteadOfFailing) {
  // Regression: replicate_hot_rows larger than the bins can hold used to
  // abort Setup with CAPACITY_EXCEEDED (bench/abl_replication at high k).
  // The engine now sheds replicas to the largest feasible count and
  // warns; functional results stay bit-exact against the reference.
  Fixture f = MakeFixture();
  EngineOptions options =
      SmallEngineOptions(partition::Method::kNonUniform, 4);
  options.replicate_hot_rows = 1u << 20;  // far beyond 1 MiB MRAM bins
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const auto& g : (*engine)->groups()) {
    EXPECT_LT(g.plan.replicated_rows.size(), options.replicate_hot_rows);
  }
  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GT(batch->max_index_bytes, 0u);
  EXPECT_GT(batch->max_output_bytes, 0u);
  std::vector<float> expected(2 * 8);
  for (std::size_t s = 0; s < 16; ++s) {
    f.model->PooledEmbeddingsFixed(f.trace, s, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(batch->pooled[s * 16 + i], expected[i])
          << "sample " << s << " lane " << i;
    }
  }
}

TEST(EngineTest, PreminedCacheMatchesFreshMining) {
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);

  // Mine once with the same GraceOptions the engine would use.
  std::vector<cache::CacheRes> premined;
  cache::GraceMiner miner(options.grace);
  for (std::uint32_t t = 0; t < f1.config.num_tables; ++t) {
    auto res = miner.Mine(f1.trace.tables[t], f1.config.rows_per_table);
    ASSERT_TRUE(res.ok());
    premined.push_back(std::move(res).value());
  }

  auto fresh = UpDlrmEngine::Create(nullptr, f1.config, f1.trace,
                                    f1.system.get(), options);
  options.premined_cache = &premined;
  auto reused = UpDlrmEngine::Create(nullptr, f2.config, f2.trace,
                                     f2.system.get(), options);
  ASSERT_TRUE(fresh.ok() && reused.ok());
  auto rf = (*fresh)->RunBatch({0, 16}, nullptr);
  auto rr = (*reused)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(rf.ok() && rr.ok());
  EXPECT_DOUBLE_EQ(rf->stages.dpu_lookup, rr->stages.dpu_lookup);
  EXPECT_DOUBLE_EQ(rf->stages.cpu_to_dpu, rr->stages.cpu_to_dpu);
}

TEST(EngineTest, PreminedCacheSizeMustMatchTables) {
  Fixture f = MakeFixture(false);
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  std::vector<cache::CacheRes> wrong_size(1);
  options.premined_cache = &wrong_size;
  EXPECT_FALSE(UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                    f.system.get(), options)
                   .ok());
}

TEST(EngineTest, SequentialTransfersSlowerThanPadded) {
  Fixture f1 = MakeFixture(false);
  Fixture f2 = MakeFixture(false);
  EngineOptions padded =
      SmallEngineOptions(partition::Method::kNonUniform, 4);
  EngineOptions ragged = padded;
  ragged.pad_transfers = false;
  auto a = UpDlrmEngine::Create(nullptr, f1.config, f1.trace,
                                f1.system.get(), padded);
  auto b = UpDlrmEngine::Create(nullptr, f2.config, f2.trace,
                                f2.system.get(), ragged);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = (*a)->RunBatch({0, 16}, nullptr);
  auto rb = (*b)->RunBatch({0, 16}, nullptr);
  ASSERT_TRUE(ra.ok() && rb.ok());
  // NU index buffers are ragged, so the sequential path must cost more.
  EXPECT_LT(ra->stages.cpu_to_dpu, rb->stages.cpu_to_dpu);
}

TEST(EngineTest, CacheCapacityFractionShrinksCache) {
  Fixture full = MakeFixture(false);
  Fixture tiny = MakeFixture(false);
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  auto e_full = UpDlrmEngine::Create(nullptr, full.config, full.trace,
                                     full.system.get(), options);
  options.cache_capacity_fraction = 0.3;
  auto e_tiny = UpDlrmEngine::Create(nullptr, tiny.config, tiny.trace,
                                     tiny.system.get(), options);
  ASSERT_TRUE(e_full.ok() && e_tiny.ok());
  std::size_t full_lists = 0;
  std::size_t tiny_lists = 0;
  for (const auto& g : (*e_full)->groups()) {
    full_lists += g.plan.cache.lists.size();
  }
  for (const auto& g : (*e_tiny)->groups()) {
    tiny_lists += g.plan.cache.lists.size();
  }
  EXPECT_LT(tiny_lists, full_lists);
  EXPECT_GT(full_lists, 0u);
}


// ---- Stage-1 routing against a test-local oracle. ----
//
// Three tables: tables 0 and 1 carry seeded random cache lists of 2-4
// items (so every list position 0-3 occurs), table 2 has none (routing
// then reads row_bin directly).

constexpr std::uint32_t kRoutingTables = 3;
constexpr std::size_t kRoutingSamples = 160;

Fixture MakeRoutingFixture(bool functional, std::uint64_t seed) {
  Fixture f;
  f.config.num_tables = kRoutingTables;
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
  spec.name = "route";
  spec.num_items = 600;
  spec.avg_reduction = 16.0;
  spec.zipf_alpha = 1.1;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = seed;
  trace::TraceGeneratorOptions options;
  options.num_samples = kRoutingSamples;
  options.num_tables = kRoutingTables;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8 * kRoutingTables;  // 4 bins x 2 column shards each
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();
  return f;
}

// Disjoint lists over the table's referenced rows, sizes cycling
// 2, 3, 4; benefits strictly descending as CacheRes requires.
std::vector<cache::CacheRes> RandomLists(const trace::Trace& trace,
                                         std::uint64_t seed) {
  std::vector<cache::CacheRes> lists(kRoutingTables);
  for (std::uint32_t t = 0; t + 1 < kRoutingTables; ++t) {
    std::vector<std::uint32_t> rows;
    for (std::size_t s = 0; s < trace.num_samples(); ++s) {
      for (std::uint32_t idx : trace.tables[t].Sample(s)) {
        rows.push_back(idx);
      }
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    Rng rng(seed * 31 + t);
    rng.Shuffle(rows);
    std::size_t next = 0;
    for (std::size_t k = 0; k < 30; ++k) {
      const std::size_t size = 2 + k % 3;
      if (next + size > rows.size()) break;
      cache::CacheList list;
      list.items.assign(rows.begin() + next, rows.begin() + next + size);
      std::sort(list.items.begin(), list.items.end());
      list.benefit = static_cast<double>(100 - k);
      lists[t].lists.push_back(std::move(list));
      next += size;
    }
  }
  return lists;
}

EngineOptions RoutingOptions(const std::vector<cache::CacheRes>* lists) {
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  options.premined_cache = lists;
  return options;
}

struct RoutingExpectation {
  std::vector<std::uint64_t> lookups;      // per global DPU
  std::vector<std::uint64_t> cache_reads;  // per global DPU
  std::array<std::uint64_t, 4> position_hits{};
};

// Replays the trace from the plan's lists, list_bin and row_bin alone
// (never the route words): each index of a list member joins its list's
// subset mask, one cache read per touched list; any other index is one
// EMT lookup in row_bin's bin. Every column shard of a bin does the
// bin's work.
RoutingExpectation RoutingOracle(const UpDlrmEngine& engine,
                                 const trace::Trace& trace,
                                 std::uint32_t num_dpus) {
  RoutingExpectation want;
  want.lookups.assign(num_dpus, 0);
  want.cache_reads.assign(num_dpus, 0);
  for (const TableGroup& group : engine.groups()) {
    const partition::PartitionPlan& plan = group.plan;
    std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>
        member;  // item -> (list, position)
    for (std::uint32_t l = 0; l < plan.cache.lists.size(); ++l) {
      const auto& items = plan.cache.lists[l].items;
      for (std::uint32_t i = 0; i < items.size(); ++i) {
        member[items[i]] = {l, i};
      }
    }
    std::vector<std::uint64_t> bin_lookups(plan.geom.row_shards, 0);
    std::vector<std::uint64_t> bin_cache(plan.geom.row_shards, 0);
    for (std::size_t s = 0; s < trace.num_samples(); ++s) {
      std::map<std::uint32_t, std::uint32_t> masks;
      for (std::uint32_t idx : trace.tables[group.table_index].Sample(s)) {
        const auto it = member.find(idx);
        if (it == member.end()) {
          ++bin_lookups[plan.row_bin[idx]];
          continue;
        }
        masks[it->second.first] |= 1U << it->second.second;
        ++want.position_hits[it->second.second];
      }
      for (const auto& [l, mask] : masks) ++bin_cache[plan.list_bin[l]];
    }
    for (std::uint32_t bin = 0; bin < plan.geom.row_shards; ++bin) {
      for (std::uint32_t c = 0; c < plan.geom.col_shards; ++c) {
        want.lookups[group.GlobalDpu(bin, c)] = bin_lookups[bin];
        want.cache_reads[group.GlobalDpu(bin, c)] = bin_cache[bin];
      }
    }
  }
  return want;
}

class RoutingOracleTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RoutingOracleTest, PerDpuCountsMatchOracle) {
  const std::uint64_t seed = GetParam();
  Fixture f = MakeRoutingFixture(false, seed);
  const std::vector<cache::CacheRes> lists = RandomLists(f.trace, seed);
  auto engine = UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                     f.system.get(), RoutingOptions(&lists));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto& groups = (*engine)->groups();
  ASSERT_EQ(groups.size(), kRoutingTables);
  EXPECT_TRUE(groups[0].plan.has_cache());
  EXPECT_TRUE(groups[1].plan.has_cache());
  EXPECT_FALSE(groups[2].plan.has_cache());
  EXPECT_TRUE(groups[2].plan.route.empty());

  ASSERT_TRUE((*engine)->RunAll(nullptr).ok());
  const RoutingExpectation want =
      RoutingOracle(**engine, f.trace, f.system->num_dpus());
  for (std::size_t pos = 0; pos < want.position_hits.size(); ++pos) {
    EXPECT_GT(want.position_hits[pos], 0u) << "position " << pos;
  }
  std::uint64_t cache_reads = 0;
  for (std::uint32_t d = 0; d < f.system->num_dpus(); ++d) {
    const pim::DpuStats& st = f.system->dpu(d).stats();
    EXPECT_EQ(st.lookups, want.lookups[d]) << "DPU " << d;
    EXPECT_EQ(st.cache_reads, want.cache_reads[d]) << "DPU " << d;
    cache_reads += st.cache_reads;
  }
  EXPECT_GT(cache_reads, 0u);
}

// Pooled outputs stay bit-exact with each routing branch's lever on:
// the subset-sum slot a list word selects depends on its position bits.
TEST_P(RoutingOracleTest, PooledBitExactWithEachLever) {
  const std::uint64_t seed = GetParam();
  for (int lever = 0; lever < 4; ++lever) {
    Fixture f = MakeRoutingFixture(true, seed);
    const std::vector<cache::CacheRes> lists = RandomLists(f.trace, seed);
    EngineOptions options = RoutingOptions(&lists);
    options.wram_cache_rows = lever == 1 ? 8 : 0;
    options.replicate_hot_rows = lever == 2 ? 16 : 0;
    options.dedup = lever == 3;
    auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                       f.system.get(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    if (lever == 1) {
      EXPECT_FALSE((*engine)->groups()[0].wram_cached.empty());
    }
    if (lever == 2) {
      EXPECT_TRUE((*engine)->groups()[0].plan.has_replication());
    }

    const std::size_t width = kRoutingTables * f.config.embedding_dim;
    std::vector<float> expected(width);
    for (std::size_t begin = 0; begin < kRoutingSamples; begin += 16) {
      auto batch = (*engine)->RunBatch({begin, begin + 16}, nullptr);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      for (std::size_t s = 0; s < 16; ++s) {
        f.model->PooledEmbeddingsFixed(f.trace, begin + s, expected);
        for (std::size_t i = 0; i < width; ++i) {
          ASSERT_EQ(batch->pooled[s * width + i], expected[i])
              << "lever " << lever << " sample " << begin + s << " lane "
              << i;
        }
      }
    }
    if (lever == 3) {
      std::uint64_t saved = 0;
      for (std::uint32_t d = 0; d < f.system->num_dpus(); ++d) {
        saved += f.system->dpu(d).stats().dedup_saved_reads;
      }
      EXPECT_GT(saved, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingOracleTest,
                         ::testing::Values(3u, 17u, 101u));

// ---- Route summary vs the per-index walk. ----
//
// A timing-only engine with dedup off takes each batch's per-bin counts
// from its route summary; a functional engine over the same trace and
// plan walks every index (it needs the MRAM slots). Their per-DPU
// counters must agree after every batch: lookups are the EMT counts,
// wram_hits the WRAM-tier counts, cache_reads the cache counts.

void ExpectSameStats(const pim::DpuSystem& want, const pim::DpuSystem& got,
                     const std::string& where) {
  ASSERT_EQ(want.num_dpus(), got.num_dpus());
  for (std::uint32_t d = 0; d < want.num_dpus(); ++d) {
    const pim::DpuStats& a = want.dpu(d).stats();
    const pim::DpuStats& b = got.dpu(d).stats();
    EXPECT_EQ(a.kernel_cycles, b.kernel_cycles) << where << " DPU " << d;
#define UPDLRM_EXPECT_SAME(name) \
  EXPECT_EQ(a.name, b.name) << where << " DPU " << d << " " #name;
    UPDLRM_DPU_COUNTER_FIELDS(UPDLRM_EXPECT_SAME)
#undef UPDLRM_EXPECT_SAME
  }
}

void ExpectSameEngineStats(const EmbeddingEngine& walk,
                           const EmbeddingEngine& summary,
                           const std::string& where) {
  ASSERT_EQ(walk.num_systems(), summary.num_systems());
  for (std::uint32_t s = 0; s < walk.num_systems(); ++s) {
    ExpectSameStats(walk.system(s), summary.system(s),
                    where + " system " + std::to_string(s));
  }
}

// Random (possibly repeating) batches of 1-24 samples, then the whole
// trace; per-DPU counters and stage times must match after each.
void ExpectSummaryMatchesWalk(EmbeddingEngine& walk,
                              EmbeddingEngine& summary, std::uint64_t seed,
                              const std::string& where) {
  Rng rng(seed);
  const std::size_t n = walk.trace().num_samples();
  std::vector<std::size_t> samples;
  for (int b = 0; b < 12; ++b) {
    samples.resize(1 + rng.NextBounded(24));
    for (std::size_t& s : samples) s = rng.NextBounded(n);
    auto want = walk.RunSamples(samples, nullptr);
    auto got = summary.RunSamples(samples, nullptr);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(want->stages.dpu_lookup, got->stages.dpu_lookup) << where;
    EXPECT_EQ(want->stages.cpu_to_dpu, got->stages.cpu_to_dpu) << where;
    EXPECT_EQ(want->total, got->total) << where;
    ExpectSameEngineStats(walk, summary,
                          where + " batch " + std::to_string(b));
  }
  auto want = walk.RunAll(nullptr);
  auto got = summary.RunAll(nullptr);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want->stages.dpu_lookup, got->stages.dpu_lookup) << where;
  ExpectSameEngineStats(walk, summary, where + " RunAll");
}

class RouteSummaryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteSummaryTest, FlatEngineCountsMatchTheWalk) {
  const std::uint64_t seed = GetParam();
  for (const bool lists_on : {true, false}) {
    for (const bool wram_on : {true, false}) {
      const std::string where = std::string("lists ") +
                                (lists_on ? "on" : "off") + ", wram " +
                                (wram_on ? "on" : "off");
      Fixture fn = MakeRoutingFixture(true, seed);
      Fixture timing = MakeRoutingFixture(false, seed);
      const std::vector<cache::CacheRes> lists =
          RandomLists(timing.trace, seed);
      EngineOptions options =
          lists_on ? RoutingOptions(&lists)
                   : SmallEngineOptions(partition::Method::kNonUniform, 4);
      options.wram_cache_rows = wram_on ? 8 : 0;
      auto walk = UpDlrmEngine::Create(fn.model.get(), fn.config, fn.trace,
                                       fn.system.get(), options);
      auto summary = UpDlrmEngine::Create(nullptr, timing.config,
                                          timing.trace, timing.system.get(),
                                          options);
      ASSERT_TRUE(walk.ok()) << walk.status().ToString();
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
      EXPECT_EQ((*summary)->groups()[0].plan.has_cache(), lists_on) << where;
      EXPECT_EQ((*summary)->groups()[0].wram_cached.empty(), !wram_on)
          << where;
      ExpectSummaryMatchesWalk(**walk, **summary, seed, where);
    }
  }
}

TEST_P(RouteSummaryTest, ShardedFleetCountsMatchTheWalk) {
  const std::uint64_t seed = GetParam();
  Fixture fn = MakeRoutingFixture(true, seed);
  Fixture timing = MakeRoutingFixture(false, seed);
  ShardedEngineConfig fleet;
  fleet.shard_system = fn.system->config();
  fleet.tiering.num_shards = 2;
  fleet.tiering.dram_epsilon = 0.05;
  EngineOptions options =
      SmallEngineOptions(partition::Method::kCacheAware, 4);
  options.wram_cache_rows = 8;
  auto walk = ShardedEngine::Create(fn.model.get(), fn.config, fn.trace,
                                    fleet, options);
  fleet.shard_system.functional = false;
  auto summary = ShardedEngine::Create(nullptr, timing.config, timing.trace,
                                       fleet, options);
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ExpectSummaryMatchesWalk(**walk, **summary, seed, "fleet");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteSummaryTest,
                         ::testing::Values(3u, 17u, 101u));

// One sample references every row of a 2-bin table, so each bin's EMT
// count exceeds an entry's count field and must split over entries.
TEST(RouteSummaryOverflowTest, CountSplitsOverEntries) {
  constexpr std::uint64_t kRows = 4 * (RouteSummary::kMaxEntryCount + 1);
  auto make = [&](bool functional) {
    Fixture f;
    f.config.num_tables = 1;
    f.config.rows_per_table = kRows;
    f.config.embedding_dim = 8;
    f.config.dense_features = 5;
    f.config.bottom_hidden = {16};
    f.config.top_hidden = {16};
    f.config.seed = 5;
    if (functional) {
      auto model = dlrm::DlrmModel::Create(f.config);
      UPDLRM_CHECK(model.ok());
      f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
    }
    f.trace.num_items = kRows;
    trace::TableTrace& table = f.trace.tables.emplace_back();
    std::vector<std::uint32_t> all(kRows);
    for (std::uint32_t r = 0; r < kRows; ++r) all[r] = r;
    table.AppendSample(all);
    Rng rng(9);
    for (int s = 0; s < 15; ++s) {
      std::vector<std::uint32_t> rows;
      for (std::uint32_t r = 0; r < kRows; ++r) {
        if (rng.NextBounded(8) == 0) rows.push_back(r);
      }
      table.AppendSample(rows);
    }
    pim::DpuSystemConfig sys;
    sys.num_dpus = 2;  // nc 8: one column shard, two bins
    sys.dpus_per_rank = 2;
    sys.dpu.mram_bytes = 1 * kMiB;
    sys.functional = functional;
    auto system = pim::DpuSystem::Create(sys);
    UPDLRM_CHECK(system.ok());
    f.system = std::move(system).value();
    return f;
  };
  Fixture fn = make(true);
  Fixture timing = make(false);
  EngineOptions options = SmallEngineOptions(partition::Method::kUniform, 8);
  auto walk = UpDlrmEngine::Create(fn.model.get(), fn.config, fn.trace,
                                   fn.system.get(), options);
  auto summary = UpDlrmEngine::Create(nullptr, timing.config, timing.trace,
                                      timing.system.get(), options);
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  const TableGroup& group = (*summary)->groups()[0];
  ASSERT_EQ(group.plan.geom.row_shards, 2u);
  const RouteSummary routes = BuildRouteSummary(group, timing.trace.tables[0]);
  std::vector<std::uint64_t> want(2, 0);
  for (std::uint32_t r = 0; r < kRows; ++r) ++want[group.plan.row_bin[r]];
  std::vector<std::uint64_t> got(2, 0);
  for (const std::uint32_t entry : routes.Sample(0)) {
    EXPECT_EQ(RouteSummary::Kind(entry), RouteKind::kEmt);
    EXPECT_GT(RouteSummary::Count(entry), 0u);
    got[RouteSummary::Bin(entry)] += RouteSummary::Count(entry);
  }
  EXPECT_EQ(got, want);
  EXPECT_GT(want[0], RouteSummary::kMaxEntryCount);
  EXPECT_GT(want[1], RouteSummary::kMaxEntryCount);
  EXPECT_GT(routes.Sample(0).size(), 2u);
  EXPECT_LE(routes.entries.size(), timing.trace.tables[0].num_lookups());

  ExpectSummaryMatchesWalk(**walk, **summary, 7, "overflow");
}

}  // namespace
}  // namespace updlrm::core
