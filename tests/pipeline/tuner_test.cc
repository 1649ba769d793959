// The data-flow auto-tuner: deterministic candidate search, calibrated
// winner selection, dominance over every static plan in full-calibration
// mode, a fresh search per call, and the CPU/GPU crossover of the
// DPU+GPU system (UpDLRM-G).
#include "pipeline/tuner.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "pipeline/runner.h"
#include "trace/generator.h"

namespace updlrm::pipeline {
namespace {

struct Fixture {
  dlrm::DlrmConfig config;
  trace::Trace trace;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> engine;
};

Fixture MakeFixture(std::vector<std::uint32_t> bottom = {16},
                    std::vector<std::uint32_t> top = {16},
                    std::uint64_t trace_seed = 31) {
  Fixture f;
  f.config.num_tables = 2;
  f.config.rows_per_table = 600;
  f.config.embedding_dim = 8;
  f.config.dense_features = 5;
  f.config.bottom_hidden = std::move(bottom);
  f.config.top_hidden = std::move(top);
  f.config.seed = 31;

  trace::DatasetSpec spec;
  spec.name = "tune";
  spec.num_items = 600;
  spec.avg_reduction = 12.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.6;
  spec.num_hot_items = 96;
  spec.seed = trace_seed;
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
  sys.functional = false;
  auto system = pim::DpuSystem::Create(sys);
  UPDLRM_CHECK(system.ok());
  f.system = std::move(system).value();

  core::EngineOptions engine_options;
  engine_options.method = partition::Method::kCacheAware;
  engine_options.nc = 4;
  engine_options.batch_size = 16;
  engine_options.reserved_io_bytes = 128 * kKiB;
  engine_options.grace.num_hot_items = 96;
  auto engine = core::UpDlrmEngine::Create(nullptr, f.config, f.trace,
                                           f.system.get(), engine_options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  f.engine = std::move(engine).value();
  return f;
}

std::vector<serve::Request> Arrivals(const trace::Trace& trace,
                                     double qps) {
  serve::ArrivalOptions options;
  options.process = serve::ArrivalProcess::kPoisson;
  options.qps = qps;
  options.seed = 7;
  auto requests = serve::GenerateRequests(trace, 0, options);
  UPDLRM_CHECK(requests.ok());
  return std::move(requests).value();
}

serve::BatcherOptions Batcher() {
  serve::BatcherOptions options;
  options.max_batch_size = 16;
  options.max_queue_delay_ns = 1.0e6;
  return options;
}

TunerOptions SmallSearch() {
  TunerOptions options;
  options.space.max_depth = 3;
  options.calibrate_top_n = 3;
  return options;
}

TEST(TunerTest, PicksACalibratedWinnerDeterministically) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  DataFlowTuner a(SmallSearch());
  auto first = a.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->candidates.empty());
  EXPECT_GT(first->best_p99_ns, 0.0);
  std::size_t calibrated = 0;
  for (const auto& c : first->candidates) {
    EXPECT_GT(c.predicted_ns, 0.0) << Name(c.plan);
    if (c.calibrated) {
      ++calibrated;
      EXPECT_GE(c.measured_p99_ns, 0.0);
    } else {
      EXPECT_LT(c.measured_p99_ns, 0.0);
    }
  }
  EXPECT_EQ(calibrated, 3u);

  // A fresh tuner over the same inputs lands on the same plan.
  DataFlowTuner b(SmallSearch());
  auto second = b.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->best, first->best);
  EXPECT_EQ(second->best_p99_ns, first->best_p99_ns);
}

// One tuner, two engines that share the model shape but serve
// different traces: each call prices its own engine's probe batch and
// calibrates on its own engine, exactly as a fresh tuner would.
TEST(TunerTest, EveryCallRunsItsOwnSearch) {
  Fixture a = MakeFixture();
  Fixture b = MakeFixture({16}, {16}, /*trace_seed=*/77);
  const auto requests_a = Arrivals(a.trace, 1.0e6);
  const auto requests_b = Arrivals(b.trace, 1.0e6);
  DataFlowTuner tuner(SmallSearch());
  auto on_a = tuner.Tune(*a.engine, requests_a, Batcher());
  auto on_b = tuner.Tune(*b.engine, requests_b, Batcher());
  auto fresh_b = DataFlowTuner(SmallSearch())
                     .Tune(*b.engine, requests_b, Batcher());
  ASSERT_TRUE(on_a.ok() && on_b.ok() && fresh_b.ok());
  ASSERT_EQ(on_b->candidates.size(), fresh_b->candidates.size());
  ASSERT_EQ(on_b->candidates.size(), on_a->candidates.size());
  bool differs_from_a = false;
  for (std::size_t i = 0; i < on_b->candidates.size(); ++i) {
    const CandidateOutcome& got = on_b->candidates[i];
    const CandidateOutcome& want = fresh_b->candidates[i];
    EXPECT_EQ(got.plan, want.plan) << i;
    EXPECT_EQ(got.predicted_ns, want.predicted_ns) << Name(got.plan);
    EXPECT_EQ(got.measured_p99_ns, want.measured_p99_ns) << Name(got.plan);
    differs_from_a |=
        got.predicted_ns != on_a->candidates[i].predicted_ns;
  }
  EXPECT_EQ(on_b->best, fresh_b->best);
  EXPECT_EQ(on_b->best_p99_ns, fresh_b->best_p99_ns);
  // The traces differ, so a search that reused engine a's stage times
  // would show here.
  EXPECT_TRUE(differs_from_a);
}

TEST(TunerTest, FullCalibrationDominatesEveryStaticPlan) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  TunerOptions options = SmallSearch();
  options.calibrate_top_n = 0;  // calibrate everything
  DataFlowTuner tuner(options);
  auto tuned = tuner.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(tuned.ok());
  for (const auto& c : tuned->candidates) {
    ASSERT_TRUE(c.calibrated) << Name(c.plan);
    EXPECT_LE(tuned->best_p99_ns, c.measured_p99_ns) << Name(c.plan);
  }
  // The winner's calibration replays identically outside the tuner.
  DataFlowServeOptions serve_options;
  serve_options.batcher = Batcher();
  serve_options.plan = tuned->best;
  auto replay = RunDataFlowSimulation(*f.engine, requests, nullptr,
                                      serve_options);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->latency.PercentileNs(99.0), tuned->best_p99_ns);
}

TEST(TunerTest, RespectsGpuAvailability) {
  Fixture f = MakeFixture();
  const auto requests = Arrivals(f.trace, 1.0e6);
  TunerOptions options = SmallSearch();
  options.space.allow_gpu = false;
  DataFlowTuner tuner(options);
  auto tuned = tuner.Tune(*f.engine, requests, Batcher());
  ASSERT_TRUE(tuned.ok());
  for (const auto& c : tuned->candidates) {
    EXPECT_EQ(c.plan.bottom, Backend::kCpu) << Name(c.plan);
    EXPECT_EQ(c.plan.top, Backend::kCpu) << Name(c.plan);
  }
}

TEST(TunerTest, RejectsAnEmptyStream) {
  Fixture f = MakeFixture();
  DataFlowTuner tuner(SmallSearch());
  auto tuned = tuner.Tune(*f.engine, {}, Batcher());
  EXPECT_FALSE(tuned.ok());
}

TEST(TunerTest, RejectsInvalidGpuParams) {
  Fixture f = MakeFixture();
  TunerOptions options = SmallSearch();
  options.gpu.mlp_efficiency = 0.0;
  auto tuned = DataFlowTuner(options).Tune(
      *f.engine, Arrivals(f.trace, 1.0e6), Batcher());
  ASSERT_FALSE(tuned.ok());
  EXPECT_EQ(tuned.status().code(), StatusCode::kInvalidArgument);
}

// The crossover the paper's DPU+GPU future work hinges on: with tiny
// MLPs the PCIe + sync overheads make the GPU plan slower than
// CPU-side MLPs; with wide stacks the GPU wins, and the tuner finds it.
// Closed stream: every request arrives at t=0 and the batcher blocks,
// so the makespan is the whole stream's service time.
TEST(TunerTest, GpuPaysOffOnlyForHeavyDenseStacks) {
  DataFlowPlan cpu_plan;
  DataFlowPlan gpu_plan;
  gpu_plan.bottom = Backend::kGpu;
  gpu_plan.top = Backend::kGpu;
  serve::BatcherOptions batcher = Batcher();
  batcher.max_queue_delay_ns = 0.0;
  batcher.policy = serve::AdmissionPolicy::kBlock;
  const auto closed_stream = [](const trace::Trace& trace) {
    std::vector<serve::Request> requests(trace.num_samples());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i] = serve::Request{i, i, 0.0};
    }
    return requests;
  };
  const auto makespan = [&](Fixture& f, const DataFlowPlan& plan) {
    DataFlowServeOptions options;
    options.batcher = batcher;
    options.plan = plan;
    auto run = RunDataFlowSimulation(*f.engine, closed_stream(f.trace),
                                     nullptr, options);
    UPDLRM_CHECK(run.ok() && run->shed == 0);
    return run->makespan_ns;
  };

  Fixture tiny = MakeFixture({16}, {16});
  EXPECT_LT(makespan(tiny, cpu_plan), makespan(tiny, gpu_plan));

  const std::vector<std::uint32_t> wide = {4096, 4096, 4096};
  Fixture heavy = MakeFixture(wide, wide);
  EXPECT_GT(makespan(heavy, cpu_plan), makespan(heavy, gpu_plan));
  auto tuned = DataFlowTuner(SmallSearch())
                   .Tune(*heavy.engine, closed_stream(heavy.trace), batcher);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  EXPECT_TRUE(tuned->best.bottom == Backend::kGpu ||
              tuned->best.top == Backend::kGpu)
      << Name(tuned->best);
}

}  // namespace
}  // namespace updlrm::pipeline
