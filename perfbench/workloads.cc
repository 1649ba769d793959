#include "workloads.h"

#include <cstring>

#include "common/rng.h"
#include "pipeline/runner.h"
#include "pipeline/tuner.h"
#include "serve/server.h"
#include "spans.h"

namespace perfbench {
namespace {

// Limits and rates fixed from the parent commit's numbers (README.md):
// the batcher deadline is about one mean batch time and the p99 limit
// 3-6x it, `high` is about 80% of max_qps, and at `low` batches are
// cut partly full on the deadline.
constexpr WorkloadSpec kWorkloads[] = {
    {"clo-dlrm", "clo", EngineShape::kFlat, ServePath::kDlrm,
     serve::ArrivalProcess::kPoisson, /*samples=*/25600, /*shards=*/0,
     /*shard_dpus=*/0, /*max_queue_delay_us=*/500.0,
     /*p99_limit_us=*/3000.0, /*low_qps=*/40'000.0,
     /*high_qps=*/130'000.0, /*search_lo_qps=*/40'000.0,
     /*search_hi_qps=*/700'000.0},
    {"read2-burst", "read2", EngineShape::kFlat, ServePath::kEmbedding,
     serve::ArrivalProcess::kBursty, /*samples=*/12800, /*shards=*/0,
     /*shard_dpus=*/0, /*max_queue_delay_us=*/1000.0,
     /*p99_limit_us=*/3000.0, /*low_qps=*/30'000.0,
     /*high_qps=*/85'000.0, /*search_lo_qps=*/50'000.0,
     /*search_hi_qps=*/400'000.0},
    {"clo-fleet16", "clo", EngineShape::kFleet, ServePath::kEmbedding,
     serve::ArrivalProcess::kPoisson, /*samples=*/25600, /*shards=*/16,
     /*shard_dpus=*/64, /*max_queue_delay_us=*/500.0,
     /*p99_limit_us=*/2000.0, /*low_qps=*/40'000.0,
     /*high_qps=*/120'000.0, /*search_lo_qps=*/40'000.0,
     /*search_hi_qps=*/600'000.0},
};

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9E3779B97F4A7C15ULL);
  return SplitMix64(state);
}

}  // namespace

std::span<const WorkloadSpec> Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::uint64_t ArrivalSeed(std::uint64_t seed) {
  return Mix(0xA5517A1ULL, seed) | 1;
}

bench::Workload GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  auto dataset = trace::FindDataset(spec.dataset);
  UPDLRM_CHECK_MSG(dataset.ok(), dataset.status().ToString());
  bench::BenchScale scale;
  scale.num_samples = spec.samples;
  scale.batch_size = kBatchSize;
  // Never 0: 0 would select the dataset's own base seed.
  scale.seed = Mix(dataset->seed, seed) | 1;
  return bench::PrepareWorkload(*dataset, scale);
}

std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                  const bench::Workload& inputs,
                                  std::uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  d->spec = &spec;
  d->inputs = &inputs;
  d->batcher.max_batch_size = kBatchSize;
  d->batcher.max_queue_delay_ns = spec.max_queue_delay_us * 1e3;
  d->batcher.queue_capacity = kQueueCapacity;
  d->batcher.policy = serve::AdmissionPolicy::kShed;

  bench::BenchScale scale;
  scale.batch_size = kBatchSize;
  core::EngineOptions options =
      bench::PaperEngineOptions(partition::Method::kCacheAware, 0, scale);

  if (spec.engine == EngineShape::kFlat) {
    {
      telemetry::TraceSpan span("trace.profile", kSpanCategory);
      d->profiles = bench::ProfileTables(inputs);
    }
    {
      // bench::MineCaches runs one GraceMiner::Mine per table, here over
      // the trace's first kMineSamples samples: the historical window.
      telemetry::TraceSpan span("cache.mine", kSpanCategory);
      if (inputs.trace.num_samples() <= kMineSamples) {
        d->caches = bench::MineCaches(inputs, 0, &d->profiles);
      } else {
        bench::Workload history{inputs.spec, inputs.config, {}};
        history.trace.num_items = inputs.trace.num_items;
        for (const trace::TableTrace& table : inputs.trace.tables) {
          trace::TableTrace& prefix = history.trace.tables.emplace_back();
          for (std::size_t s = 0; s < kMineSamples; ++s) {
            prefix.AppendSample(table.Sample(s));
          }
        }
        d->caches = bench::MineCaches(history);
      }
    }
    options.preprofiled = &d->profiles;
    options.premined_cache = &d->caches;
    {
      telemetry::TraceSpan span("updlrm.create", kSpanCategory);
      d->system = bench::MakePaperSystem();
      auto engine = core::UpDlrmEngine::Create(
          nullptr, inputs.config, inputs.trace, d->system.get(), options);
      UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
      d->engine = std::move(engine).value();
    }
    {
      // The offline stage profile over the whole trace; it also brings
      // the engine's scratch arenas to their steady-state size.
      telemetry::TraceSpan span("updlrm.calibrate", kSpanCategory);
      auto report = d->engine->RunAll(nullptr);
      UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
    }
  } else {
    core::ShardedEngineConfig fleet;
    fleet.shard_system = bench::MakePaperSystemConfig(scale);
    fleet.shard_system.num_dpus = spec.shard_dpus;
    fleet.shard_system.dpus_per_rank = spec.shard_dpus;
    fleet.tiering.num_shards = spec.shards;
    fleet.tiering.dram_epsilon = 0.02;
    // One host per shard slice.
    fleet.fleet_topology.ranks_per_host = 1;
    {
      // The sharded engine profiles and mines per shard itself.
      telemetry::TraceSpan span("scaleout.create", kSpanCategory);
      auto engine = core::ShardedEngine::Create(
          nullptr, inputs.config, inputs.trace, fleet, options);
      UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
      d->fleet = std::move(engine).value();
    }
    {
      telemetry::TraceSpan span("updlrm.calibrate", kSpanCategory);
      auto report = d->fleet->RunAll(nullptr);
      UPDLRM_CHECK_MSG(report.ok(), report.status().ToString());
    }
  }

  if (spec.path == ServePath::kDlrm) {
    telemetry::TraceSpan span("pipeline.tune", kSpanCategory);
    serve::ArrivalOptions arrivals;
    arrivals.process = spec.arrival;
    arrivals.qps = spec.high_qps;
    arrivals.seed = ArrivalSeed(seed);
    auto requests = serve::GenerateRequests(inputs.trace, 0, arrivals);
    UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());
    pipeline::DataFlowTuner tuner(pipeline::TunerOptions{});
    auto tuned = tuner.Tune(*d->engine, *requests, d->batcher);
    UPDLRM_CHECK_MSG(tuned.ok(), tuned.status().ToString());
    d->plan = tuned->best;
  }
  return d;
}

BatchParts SplitBatch(const serve::ExecutedBatch& b) {
  BatchParts p;
  p.cut_ns = b.submit_ns;
  p.done_ns = b.s3_end_ns;
  p.push_ns = b.s1_end_ns - b.s1_start_ns;
  p.kernel_ns = b.s2_end_ns - b.s2_start_ns;
  p.pull_ns = b.stages.dpu_to_cpu;
  p.aggregate_ns = (b.s3_end_ns - b.s3_start_ns) - b.stages.dpu_to_cpu;
  p.buffer_wait_ns = (b.s1_start_ns - b.submit_ns) +
                     (b.s2_start_ns - b.s1_end_ns) +
                     (b.s3_start_ns - b.s2_end_ns);
  return p;
}

BatchParts SplitBatch(const pipeline::ExecutedFlowBatch& b) {
  BatchParts p;
  p.cut_ns = b.cut_ns;
  p.done_ns = b.done_ns;
  p.push_ns = b.s1_end_ns - b.s1_start_ns;
  p.kernel_ns = b.s2_end_ns - b.s2_start_ns;
  p.pull_ns = b.costs.emb.dpu_to_cpu;
  p.aggregate_ns = (b.s3_end_ns - b.s3_start_ns) - b.costs.emb.dpu_to_cpu;
  p.top_ns = b.top_end_ns - b.top_start_ns;
  p.bottom_ns = (b.bpre_end_ns - b.bpre_start_ns) +
                (b.bpost_end_ns - b.bpost_start_ns);
  p.buffer_wait_ns = (b.s1_start_ns - b.cut_ns) +
                     (b.s2_start_ns - b.s1_end_ns) +
                     (b.s3_start_ns - b.s2_end_ns) +
                     (b.top_start_ns - b.s3_end_ns);
  return p;
}

bool SameSimulation(const ServeRun& a, const ServeRun& b) {
  if (a.offered != b.offered || a.completed != b.completed ||
      a.shed != b.shed || a.ScheduledBatches() != b.ScheduledBatches() ||
      a.request_latency_ns != b.request_latency_ns) {
    return false;
  }
  for (std::size_t i = 0; i < a.ScheduledBatches(); ++i) {
    const BatchParts p = a.Parts(i), q = b.Parts(i);
    if (std::memcmp(&p, &q, sizeof(BatchParts)) != 0) return false;
  }
  return true;
}

ServeRun Serve(Deployment& d, double qps, std::uint64_t seed) {
  const WorkloadSpec& spec = *d.spec;
  telemetry::TraceSpan span("serve.run", kSpanCategory);
  serve::ArrivalOptions arrivals;
  arrivals.process = spec.arrival;
  arrivals.qps = qps;
  arrivals.seed = ArrivalSeed(seed);
  auto requests = serve::GenerateRequests(d.inputs->trace, 0, arrivals);
  UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());

  ServeRun run;
  run.offered_qps = qps;
  run.arrival_ns.reserve(requests->size());
  for (const serve::Request& r : *requests) {
    run.arrival_ns.push_back(r.arrival_ns);
  }
  const auto fill = [&run](const auto& result) {
    run.offered = result.offered;
    run.completed = result.completed;
    run.shed = result.shed;
    run.num_batches = result.num_batches;
    run.avg_batch_size = result.avg_batch_size;
    run.histogram_count = result.latency.count();
    run.request_latency_ns = result.request_latency_ns;
    run.utilization = result.utilization;
  };
  if (spec.path == ServePath::kDlrm) {
    pipeline::DataFlowServeOptions options;
    options.batcher = d.batcher;
    options.plan = d.plan;
    auto result =
        pipeline::RunDataFlowSimulation(*d.engine, *requests, nullptr, options);
    UPDLRM_CHECK_MSG(result.ok(), result.status().ToString());
    fill(*result);
    run.flow_schedule = std::move(result->schedule);
  } else {
    serve::ServeOptions options;
    options.batcher = d.batcher;
    auto result =
        d.engine != nullptr
            ? serve::RunServeSimulation(*d.engine, *requests, options)
            : serve::RunServeSimulation(*d.fleet, *requests, options);
    UPDLRM_CHECK_MSG(result.ok(), result.status().ToString());
    fill(*result);
    run.schedule = std::move(result->schedule);
  }
  return run;
}

}  // namespace perfbench
