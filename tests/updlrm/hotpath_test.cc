// The embedding hot path's three levers (DESIGN.md §"Embedding hot
// path"): batch dedup planning, the pinned WRAM hot-row tier, and the
// coalesced transfer plan. Dedup and WRAM pinning change timing
// accounting only — pooled outputs must stay bit-identical with any
// lever combination — and the wire/cycle win rules mean no lever may
// regress the modeled embedding time.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "partition/uniform.h"
#include "pim/stats_summary.h"
#include "trace/generator.h"
#include "updlrm/dedup.h"
#include "updlrm/engine.h"
#include "updlrm/placement.h"

namespace updlrm::core {
namespace {

// ---------------------------------------------------------------------
// PlanDedup: the per-bin byte-win rule and stream separation.

std::vector<DedupKey> RowKeys(std::initializer_list<std::uint64_t> rows) {
  std::vector<DedupKey> keys;
  for (std::uint64_t r : rows) keys.push_back(MakeDedupKey(DedupStream::kRow, r));
  return keys;
}

TEST(DedupPlanTest, EmptyBufferIsNotApplied) {
  std::vector<DedupKey> keys;
  const DedupPlan plan = PlanDedup(keys);
  EXPECT_FALSE(plan.applied);
  EXPECT_EQ(plan.refs, 0u);
  EXPECT_EQ(plan.UniqueTotal(), 0u);
  EXPECT_EQ(plan.SavedReads(), 0u);
  EXPECT_EQ(plan.index_list_bytes, 0u);
}

TEST(DedupPlanTest, CollapsesCrossSampleDuplicates) {
  // 16 references naming only 3 distinct rows: raw wire is 16*4 = 64 B,
  // dedup wire is AlignUp(3*4 + 16*2, 8) + 8 = 56 B — dedup wins.
  std::vector<DedupKey> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back(MakeDedupKey(DedupStream::kRow, i % 3));
  }
  const DedupPlan plan = PlanDedup(keys);
  EXPECT_TRUE(plan.applied);
  EXPECT_EQ(plan.refs, 16u);
  EXPECT_EQ(plan.unique_rows, 3u);
  EXPECT_EQ(plan.SavedReads(), 13u);
  EXPECT_EQ(plan.index_list_bytes, 56u);
}

TEST(DedupPlanTest, AllUniqueKeepsRawEncoding) {
  auto keys = RowKeys({0, 1, 2, 3, 4, 5, 6, 7});
  const DedupPlan plan = PlanDedup(keys);
  EXPECT_FALSE(plan.applied);
  EXPECT_EQ(plan.unique_rows, 8u);
  EXPECT_EQ(plan.SavedReads(), 0u);
  EXPECT_EQ(plan.index_list_bytes, 8u * 4u);  // raw: 4 B per reference
}

TEST(DedupPlanTest, MarginalDuplicationFailsByteRule) {
  // 4 refs over 3 uniques: raw 16 B, dedup AlignUp(12+8,8)+8 = 32 B.
  // The header plus gather map outweigh one saved index — keep raw.
  auto keys = RowKeys({7, 7, 8, 9});
  const DedupPlan plan = PlanDedup(keys);
  EXPECT_FALSE(plan.applied);
  EXPECT_EQ(plan.index_list_bytes, 16u);
}

TEST(DedupPlanTest, StreamsNeverCollapseTogether) {
  // Row 5 read as an EMT slice, a WRAM pin and a cache subset sum are
  // three different reads; equal values must not merge across tiers.
  std::vector<DedupKey> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(MakeDedupKey(DedupStream::kRow, 5));
    keys.push_back(MakeDedupKey(DedupStream::kWram, 5));
    keys.push_back(MakeDedupKey(DedupStream::kCache, 5));
  }
  const DedupPlan plan = PlanDedup(keys);
  EXPECT_TRUE(plan.applied);
  EXPECT_EQ(plan.unique_rows, 1u);
  EXPECT_EQ(plan.unique_wram, 1u);
  EXPECT_EQ(plan.unique_cache, 1u);
  EXPECT_EQ(plan.SavedReads(), 24u - 3u);
}

TEST(DedupPlanTest, PlanIsAFunctionOfTheMultiset) {
  // Routing order must not matter: any permutation of the same keys
  // yields the identical plan (the determinism contract's foundation).
  std::vector<DedupKey> a;
  for (int i = 0; i < 64; ++i) {
    a.push_back(MakeDedupKey(DedupStream::kRow, (i * 7) % 11));
  }
  std::vector<DedupKey> b(a.rbegin(), a.rend());
  const DedupPlan pa = PlanDedup(a);
  const DedupPlan pb = PlanDedup(b);
  EXPECT_EQ(pa.applied, pb.applied);
  EXPECT_EQ(pa.unique_rows, pb.unique_rows);
  EXPECT_EQ(pa.index_list_bytes, pb.index_list_bytes);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));  // both sorted
}

// ---------------------------------------------------------------------
// BuildWramCache: deterministic hottest-first pinning per bin.

pim::DpuSystemConfig SmallSystemConfig() {
  pim::DpuSystemConfig config;
  config.num_dpus = 8;
  config.dpus_per_rank = 8;
  config.dpu.mram_bytes = 1 * kMiB;
  config.functional = true;
  return config;
}

TableGroup UniformGroup(std::uint64_t rows) {
  auto geom = partition::GroupGeometry::Make(dlrm::TableShape{rows, 8}, 8, 4);
  UPDLRM_CHECK(geom.ok());
  auto plan = partition::UniformPartition(*geom);
  UPDLRM_CHECK(plan.ok());
  std::vector<std::uint64_t> emt_rows = plan->EmtRowsPerBin();
  auto group = BuildTableGroup(0, 0, std::move(plan).value(),
                               std::move(emt_rows), SmallSystemConfig(),
                               128 * kKiB, true);
  UPDLRM_CHECK(group.ok());
  return std::move(group).value();
}

TEST(WramCacheTest, PinsHottestRowsPerBin) {
  TableGroup group = UniformGroup(100);  // 4 bins of 25 rows
  std::vector<std::uint64_t> freq(100, 1);
  // Make rows 3 and 7 of every bin the hottest.
  for (std::uint32_t bin = 0; bin < 4; ++bin) {
    freq[bin * 25 + 3] = 100;
    freq[bin * 25 + 7] = 50;
  }
  BuildWramCache(group, freq, 2);
  ASSERT_EQ(group.wram_cached.size(), 100u);
  ASSERT_EQ(group.wram_rows_per_bin.size(), 4u);
  for (std::uint32_t bin = 0; bin < 4; ++bin) {
    EXPECT_EQ(group.wram_rows_per_bin[bin], 2u);
    for (std::uint32_t slot = 0; slot < 25; ++slot) {
      const std::uint32_t row = bin * 25 + slot;
      EXPECT_EQ(group.wram_cached[row] != 0, slot == 3 || slot == 7)
          << "row " << row;
    }
  }
}

TEST(WramCacheTest, ColdRowsAreNeverPinned) {
  TableGroup group = UniformGroup(100);
  std::vector<std::uint64_t> freq(100, 0);
  freq[4] = 9;  // the only referenced row
  BuildWramCache(group, freq, 8);
  EXPECT_EQ(std::accumulate(group.wram_cached.begin(),
                            group.wram_cached.end(), 0u),
            1u);
  EXPECT_EQ(group.wram_cached[4], 1u);
}

TEST(WramCacheTest, TiesBreakByLowestRowId) {
  TableGroup group = UniformGroup(100);
  const std::vector<std::uint64_t> freq(100, 7);  // all equally hot
  BuildWramCache(group, freq, 3);
  for (std::uint32_t bin = 0; bin < 4; ++bin) {
    for (std::uint32_t slot = 0; slot < 25; ++slot) {
      EXPECT_EQ(group.wram_cached[bin * 25 + slot] != 0, slot < 3);
    }
  }
}

TEST(WramCacheTest, ZeroRowsIsANoOp) {
  TableGroup group = UniformGroup(100);
  const std::vector<std::uint64_t> freq(100, 7);
  BuildWramCache(group, freq, 0);
  EXPECT_TRUE(group.wram_cached.empty());
  EXPECT_TRUE(group.wram_rows_per_bin.empty());
}

// ---------------------------------------------------------------------
// Engine integration: lever combinations preserve functional outputs
// and never regress the modeled embedding time.

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(std::uint64_t seed = 31) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = seed;
  auto model = dlrm::DlrmModel::Create(f.config);
  UPDLRM_CHECK(model.ok());
  f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());

  trace::DatasetSpec spec;
  spec.name = "hotpath";
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
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = true;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  f.dense = dlrm::DenseInputs::Generate(96, 5, seed + 1);
  return f;
}

struct LeverRun {
  std::vector<float> pooled;
  std::vector<float> ctr;
  InferenceReport report;
  pim::DpuStatsSummary stats;
};

LeverRun RunWithLevers(bool dedup, std::uint32_t wram, bool coalesce) {
  Fixture f = MakeFixture();
  EngineOptions options;
  options.method = partition::Method::kCacheAware;
  options.nc = 4;
  options.batch_size = 16;
  options.reserved_io_bytes = 128 * kKiB;
  options.grace.num_hot_items = 96;
  options.dedup = dedup;
  options.wram_cache_rows = wram;
  options.coalesce_transfers = coalesce;
  auto engine = UpDlrmEngine::Create(f.model.get(), f.config, f.trace,
                                     f.system.get(), options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());

  LeverRun run;
  auto batch = (*engine)->RunBatch({0, 16}, &f.dense);
  UPDLRM_CHECK(batch.ok());
  run.pooled = std::move(batch->pooled);
  run.ctr = std::move(batch->ctr);
  auto report = (*engine)->RunAll(&f.dense);
  UPDLRM_CHECK(report.ok());
  run.report = std::move(report).value();
  run.stats = pim::SummarizeStats(*f.system);
  return run;
}

TEST(HotPathEngineTest, LeversNeverChangeFunctionalOutputs) {
  const LeverRun base = RunWithLevers(false, 0, false);
  ASSERT_FALSE(base.pooled.empty());
  const LeverRun combos[] = {
      RunWithLevers(true, 0, false),   // dedup only
      RunWithLevers(false, 64, false), // WRAM tier only
      RunWithLevers(false, 0, true),   // coalesced transfers only
      RunWithLevers(true, 64, true),   // all three
  };
  for (const LeverRun& run : combos) {
    ASSERT_EQ(run.pooled.size(), base.pooled.size());
    for (std::size_t i = 0; i < base.pooled.size(); ++i) {
      ASSERT_EQ(run.pooled[i], base.pooled[i]) << "lane " << i;
    }
    ASSERT_EQ(run.ctr, base.ctr);
  }
}

TEST(HotPathEngineTest, LeversNeverRegressEmbeddingTime) {
  const LeverRun base = RunWithLevers(false, 0, false);
  const double baseline = base.report.EmbeddingTotal();
  EXPECT_LE(RunWithLevers(true, 0, false).report.EmbeddingTotal(), baseline);
  EXPECT_LE(RunWithLevers(false, 0, true).report.EmbeddingTotal(), baseline);
  EXPECT_LE(RunWithLevers(false, 64, false).report.EmbeddingTotal(),
            baseline);
  EXPECT_LE(RunWithLevers(true, 64, true).report.EmbeddingTotal(), baseline);
}

TEST(HotPathEngineTest, WramTierActuallyHits) {
  const LeverRun base = RunWithLevers(false, 0, false);
  EXPECT_EQ(base.stats.total_wram_hits, 0u);
  const LeverRun wram = RunWithLevers(false, 64, false);
  EXPECT_GT(wram.stats.total_wram_hits, 0u);
  EXPECT_GT(wram.stats.wram_hit_share, 0.0);
  // Hits replace MRAM row reads one for one; batch geometry is fixed.
  EXPECT_LT(wram.report.stages.dpu_lookup, base.report.stages.dpu_lookup);
}

TEST(HotPathEngineTest, DedupCountersStayConsistent) {
  const LeverRun dedup = RunWithLevers(true, 0, false);
  // Dedup may or may not fire at this scale, but the accounting must be
  // coherent: saved reads and pushed bytes move together.
  if (dedup.stats.total_dedup_saved_reads > 0) {
    const LeverRun base = RunWithLevers(false, 0, false);
    EXPECT_LT(dedup.stats.total_index_bytes_pushed,
              base.stats.total_index_bytes_pushed);
    EXPECT_GT(dedup.stats.dedup_saved_share, 0.0);
  }
}

}  // namespace
}  // namespace updlrm::core
