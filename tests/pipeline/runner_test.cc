// Full-path serving simulation: arrivals -> batcher -> engine embedding
// run -> data-flow executor -> CTR outputs + tail metrics, with the
// check-mode audits riding along, on the flat engine and on fleets.
#include "pipeline/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "check/dataflow_audit.h"
#include "trace/generator.h"
#include "updlrm/scaleout.h"

namespace updlrm::pipeline {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  std::unique_ptr<dlrm::DlrmModel> model;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> engine;
  dlrm::DenseInputs dense = dlrm::DenseInputs::Generate(0, 1, 0);
};

Fixture MakeFixture(bool functional, std::size_t samples = 96) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = {16};
  f.config.top_hidden = {16};
  f.config.seed = 31;
  if (functional) {
    auto model = dlrm::DlrmModel::Create(f.config);
    UPDLRM_CHECK(model.ok());
    f.model = std::make_unique<dlrm::DlrmModel>(std::move(model).value());
  }

  trace::DatasetSpec spec;
  spec.name = "flow";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = 31;
  trace::TraceGeneratorOptions options;
  options.num_samples = samples;
  options.num_tables = 2;
  auto t = trace::TraceGenerator(spec).Generate(options);
  UPDLRM_CHECK(t.ok());
  f.trace = std::move(t).value();

  pim::DpuSystemConfig sys;
  sys.num_dpus = 8;
  sys.dpus_per_rank = 8;
  sys.dpu.mram_bytes = 1 * kMiB;
  sys.functional = functional;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.nc = 4;
  engine_options.batch_size = 16;
  engine_options.reserved_io_bytes = 128 * kKiB;
  engine_options.grace.num_hot_items = 96;
  auto engine = core::UpDlrmEngine::Create(f.model.get(), f.config,
                                           f.trace, f.system.get(),
                                           engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  f.engine = std::move(engine).value();
  f.dense = dlrm::DenseInputs::Generate(samples, 5, 32);
  return f;
}

std::vector<serve::Request> Arrivals(const trace::Trace& trace, double qps,
                                     std::uint64_t seed = 1) {
  serve::ArrivalOptions options;
  options.process = serve::ArrivalProcess::kPoisson;
  options.qps = qps;
  options.seed = seed;
  auto requests = serve::GenerateRequests(trace, 0, options);
  UPDLRM_CHECK(requests.ok());
  return std::move(requests).value();
}

// A fleet over the fixture's model, trace and engine options, every
// row on PIM; one shard is the identity fleet.
std::unique_ptr<core::ShardedEngine> MakeFleet(const Fixture& f,
                                               std::uint32_t shards) {
  core::ShardedEngineConfig fleet;
  fleet.shard_system = f.system->config();
  fleet.tiering.num_shards = shards;
  fleet.tiering.keep_zero_freq_on_pim = true;
  auto sharded = core::ShardedEngine::Create(
      f.model.get(), f.config, f.trace, fleet, f.engine->options());
  UPDLRM_CHECK_MSG(sharded.ok(), sharded.status().ToString().c_str());
  return std::move(sharded).value();
}

void ExpectSameBatch(const ExecutedFlowBatch& got,
                     const ExecutedFlowBatch& want, std::size_t b) {
  EXPECT_EQ(got.costs.emb.cpu_to_dpu, want.costs.emb.cpu_to_dpu) << b;
  EXPECT_EQ(got.costs.emb.dpu_lookup, want.costs.emb.dpu_lookup) << b;
  EXPECT_EQ(got.costs.emb.dpu_to_cpu, want.costs.emb.dpu_to_cpu) << b;
  EXPECT_EQ(got.costs.emb.cpu_aggregate, want.costs.emb.cpu_aggregate) << b;
  EXPECT_EQ(got.costs.bottom_pre, want.costs.bottom_pre) << b;
  EXPECT_EQ(got.costs.bottom_post, want.costs.bottom_post) << b;
  EXPECT_EQ(got.costs.bottom_gpu, want.costs.bottom_gpu) << b;
  EXPECT_EQ(got.costs.interact, want.costs.interact) << b;
  EXPECT_EQ(got.costs.top_mlp, want.costs.top_mlp) << b;
  EXPECT_EQ(got.costs.top_gpu, want.costs.top_gpu) << b;
  EXPECT_EQ(got.cut_ns, want.cut_ns) << b;
  EXPECT_EQ(got.s1_start_ns, want.s1_start_ns) << b;
  EXPECT_EQ(got.s1_end_ns, want.s1_end_ns) << b;
  EXPECT_EQ(got.s2_start_ns, want.s2_start_ns) << b;
  EXPECT_EQ(got.s2_end_ns, want.s2_end_ns) << b;
  EXPECT_EQ(got.s3_start_ns, want.s3_start_ns) << b;
  EXPECT_EQ(got.s3_end_ns, want.s3_end_ns) << b;
  EXPECT_EQ(got.bpre_start_ns, want.bpre_start_ns) << b;
  EXPECT_EQ(got.bpre_end_ns, want.bpre_end_ns) << b;
  EXPECT_EQ(got.bpost_start_ns, want.bpost_start_ns) << b;
  EXPECT_EQ(got.bpost_end_ns, want.bpost_end_ns) << b;
  EXPECT_EQ(got.bottom_done_ns, want.bottom_done_ns) << b;
  EXPECT_EQ(got.top_start_ns, want.top_start_ns) << b;
  EXPECT_EQ(got.top_end_ns, want.top_end_ns) << b;
  EXPECT_EQ(got.done_ns, want.done_ns) << b;
}

DataFlowServeOptions BaseOptions() {
  DataFlowServeOptions options;
  options.batcher.max_batch_size = 16;
  options.batcher.max_queue_delay_ns = 1.0e6;
  options.plan.depth = 2;
  options.plan.bottom_split = 1;
  return options;
}

TEST(RunnerTest, ServesEveryRequestWithFullPathLatencies) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      BaseOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->completed, requests.size());
  EXPECT_EQ(result->shed, 0u);
  EXPECT_TRUE(result->ctr.empty());  // timing-only engine
  ASSERT_EQ(result->schedule.size(), result->num_batches);
  // Full-path completion: every batch's done instant is its top end,
  // strictly after the embedding pull that the embedding-only server
  // would report.
  for (const auto& b : result->schedule) {
    EXPECT_GT(b.done_ns, b.s3_end_ns);
    EXPECT_DOUBLE_EQ(b.done_ns, b.top_end_ns);
  }
  EXPECT_GT(result->utilization.host_mlp_busy_ns, 0.0);
  EXPECT_DOUBLE_EQ(result->utilization.gpu_busy_ns, 0.0);
  EXPECT_EQ(result->latency.count(), result->completed);
}

TEST(RunnerTest, CtrMatchesTheReferenceModelExactly) {
  Fixture f = MakeFixture(/*functional=*/true);
  const auto requests = Arrivals(f.trace, 1.0e6);
  auto result = RunDataFlowSimulation(*f.engine, requests, &f.dense,
                                      BaseOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->ctr.size(), requests.size());
  // Nothing shed and the batcher is FIFO, so CTR order is request
  // order. Reference: the model's fixed-point embedding forward.
  std::vector<float> pooled(
      static_cast<std::size_t>(f.config.num_tables) *
      f.config.embedding_dim);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t s = requests[i].sample;
    f.model->PooledEmbeddingsFixed(f.trace, s, pooled);
    const float expected =
        f.model->ForwardSample(f.dense.Sample(s), pooled);
    ASSERT_EQ(result->ctr[i], expected) << "request " << i;
  }
}

TEST(RunnerTest, CtrBitExactAcrossThreadCounts) {
  Fixture f = MakeFixture(/*functional=*/true);
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowServeOptions options = BaseOptions();
  options.num_threads = 1;
  auto serial = RunDataFlowSimulation(*f.engine, requests, &f.dense,
                                      options);
  ASSERT_TRUE(serial.ok());
  for (const std::uint32_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto run = RunDataFlowSimulation(*f.engine, requests, &f.dense,
                                     options);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->ctr, serial->ctr) << threads << " threads";
    ASSERT_EQ(run->request_latency_ns, serial->request_latency_ns)
        << threads << " threads";
    EXPECT_EQ(run->makespan_ns, serial->makespan_ns);
  }
}

TEST(RunnerTest, LegalPlanPassesEveryAudit) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  check::CheckReport report;
  DataFlowServeOptions options = BaseOptions();
  options.audit = &report;
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(report.clean()) << report.ToString();
}

// One DLRM path for every engine: the 1-shard identity fleet serves
// the full path exactly like the flat engine, under a host plan and
// under the DPU+GPU (UpDLRM-G) plan.
TEST(RunnerTest, SingleShardFleetServesTheDlrmPathLikeTheFlatEngine) {
  Fixture f = MakeFixture(/*functional=*/true);
  const std::unique_ptr<core::ShardedEngine> fleet = MakeFleet(f, 1);
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowServeOptions gpu = BaseOptions();
  gpu.plan.bottom = Backend::kGpu;
  gpu.plan.bottom_split = 0;
  gpu.plan.top = Backend::kGpu;
  for (const DataFlowServeOptions& options : {BaseOptions(), gpu}) {
    SCOPED_TRACE(Name(options.plan));
    auto want = RunDataFlowSimulation(*f.engine, requests, &f.dense,
                                      options);
    auto got = RunDataFlowSimulation(*fleet, requests, &f.dense, options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->ctr.size(), requests.size());
    EXPECT_EQ(got->ctr, want->ctr);
    EXPECT_EQ(got->request_latency_ns, want->request_latency_ns);
    EXPECT_EQ(got->makespan_ns, want->makespan_ns);
    ASSERT_EQ(got->schedule.size(), want->schedule.size());
    for (std::size_t b = 0; b < want->schedule.size(); ++b) {
      ExpectSameBatch(got->schedule[b], want->schedule[b], b);
    }
  }
}

// A real fleet on the full path: a legal plan passes every audit, and
// the capacity audit bounds the buffers by the smallest regions any
// shard carved out.
TEST(RunnerTest, TwoShardFleetPassesEveryAudit) {
  Fixture f = MakeFixture(/*functional=*/false);
  const std::unique_ptr<core::ShardedEngine> fleet = MakeFleet(f, 2);
  const auto requests = Arrivals(f.trace, 1.0e6);
  check::CheckReport report;
  DataFlowServeOptions options = BaseOptions();
  options.audit = &report;
  auto result = RunDataFlowSimulation(*fleet, requests, nullptr, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->completed, requests.size());
  EXPECT_TRUE(report.clean()) << report.ToString();

  core::EmbeddingEngine::IoRegions smallest;
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    for (const core::TableGroup& g : fleet->shard(s).groups()) {
      smallest.index_bytes = std::min(smallest.index_bytes,
                                      g.layout.index_bytes);
      smallest.output_bytes = std::min(smallest.output_bytes,
                                       g.layout.output_bytes);
    }
  }
  const core::EmbeddingEngine::IoRegions regions = fleet->MinIoRegions();
  EXPECT_EQ(regions.index_bytes, smallest.index_bytes);
  EXPECT_EQ(regions.output_bytes, smallest.output_bytes);
  EXPECT_GT(regions.index_bytes, 0u);
  EXPECT_LT(regions.index_bytes, ~0ULL);
}

TEST(RunnerTest, ShapeAuditFlagsAnOversizedBottomSplit) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  check::CheckReport report;
  DataFlowServeOptions options = BaseOptions();
  options.plan.bottom_split = 99;  // beyond the 2-layer bottom stack
  options.audit = &report;
  // The run itself survives (costs clamp the split), but the audit
  // records the illegal plan shape.
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(report.count(check::Rule::kDataFlowShape), 1u);
  EXPECT_EQ(report.count(check::Rule::kStageOrdering), 0u);
}

TEST(RunnerTest, ShapeAuditFlagsGpuPlansWithoutAGpu) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  check::CheckReport report;
  DataFlowServeOptions options = BaseOptions();
  options.plan.top = Backend::kGpu;
  options.gpu_available = false;
  options.audit = &report;
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(report.count(check::Rule::kDataFlowShape), 1u);
}

TEST(RunnerTest, GpuPlanAccountsGpuBusyTime) {
  Fixture f = MakeFixture(/*functional=*/false);
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowServeOptions options = BaseOptions();
  options.plan.bottom = Backend::kGpu;
  options.plan.bottom_split = 0;
  options.plan.top = Backend::kGpu;
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->utilization.gpu_busy_ns, 0.0);
  // No CPU-placed dense stages: the host's MLP time is zero.
  EXPECT_DOUBLE_EQ(result->utilization.host_mlp_busy_ns, 0.0);
}

TEST(RunnerTest, RejectsRequestsOutsideTheTrace) {
  Fixture f = MakeFixture(/*functional=*/false);
  const std::vector<serve::Request> requests = {
      serve::Request{0, f.trace.num_samples(), 0.0}};
  auto result = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      BaseOptions());
  EXPECT_FALSE(result.ok());
}

// The full-path entry point shares the serving loop's input check:
// malformed input returns InvalidArgument instead of hanging or
// aborting.
TEST(RunnerTest, RejectsMalformedInput) {
  Fixture f = MakeFixture(/*functional=*/false);
  const Nanos nan = std::numeric_limits<double>::quiet_NaN();
  const Nanos inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    std::vector<serve::Request> requests;
    DataFlowServeOptions options;
  };
  const std::vector<serve::Request> ok = {serve::Request{0, 0, 0.0},
                                          serve::Request{1, 1, 10.0}};
  std::vector<Case> cases;
  cases.push_back({"nan arrival",
                   {serve::Request{0, 0, 0.0}, serve::Request{1, 1, nan}},
                   BaseOptions()});
  cases.push_back(
      {"infinite arrival", {serve::Request{0, 0, inf}}, BaseOptions()});
  cases.push_back({"out-of-order arrivals",
                   {serve::Request{0, 0, 10.0}, serve::Request{1, 1, 5.0}},
                   BaseOptions()});
  cases.push_back({"zero batch size", ok, BaseOptions()});
  cases.back().options.batcher.max_batch_size = 0;
  cases.push_back({"zero plan depth", ok, BaseOptions()});
  cases.back().options.plan.depth = 0;
  cases.push_back({"nan queue delay", ok, BaseOptions()});
  cases.back().options.batcher.max_queue_delay_ns = nan;
  cases.push_back({"negative queue delay", ok, BaseOptions()});
  cases.back().options.batcher.max_queue_delay_ns = -1.0;
  cases.push_back({"infinite queue delay", ok, BaseOptions()});
  cases.back().options.batcher.max_queue_delay_ns = inf;
  cases.push_back({"invalid gpu params", ok, BaseOptions()});
  cases.back().options.gpu.mlp_efficiency = 0.0;
  for (const Case& c : cases) {
    auto result =
        RunDataFlowSimulation(*f.engine, c.requests, nullptr, c.options);
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << c.name << ": " << result.status().ToString();
  }
  auto result = RunDataFlowSimulation(*f.engine, ok, nullptr, BaseOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->completed, ok.size());
}

}  // namespace
}  // namespace updlrm::pipeline
