#include "gate.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "capacity.h"
#include "pipeline/runner.h"
#include "trace/generator.h"

namespace perfbench {
namespace {

// Simulated instants are sums of a few hundred doubles; equalities
// hold to rounding.
bool Near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b)) + 1e-3;
}

bool Ordered(std::initializer_list<Nanos> instants) {
  return std::is_sorted(instants.begin(), instants.end());
}

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void CheckSchedule(const std::vector<serve::ExecutedBatch>& schedule,
                   const std::string& label, Gate& gate) {
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const serve::ExecutedBatch& s = schedule[b];
    const std::string where = label + " batch " + std::to_string(b);
    gate.Expect(Ordered({s.submit_ns, s.s1_start_ns, s.s1_end_ns,
                         s.s2_start_ns, s.s2_end_ns, s.s3_start_ns,
                         s.s3_end_ns}),
                where + ": instants out of order");
    if (b > 0) {
      const serve::ExecutedBatch& p = schedule[b - 1];
      gate.Expect(s.submit_ns >= p.submit_ns && s.s2_start_ns >= p.s2_end_ns &&
                      s.s3_start_ns >= p.s3_end_ns,
                  where + ": overlaps the previous batch on a resource");
    }
    gate.Expect(Near(s.s1_end_ns - s.s1_start_ns, s.stages.cpu_to_dpu) &&
                    Near(s.s2_end_ns - s.s2_start_ns, s.stages.dpu_lookup) &&
                    Near(s.s3_end_ns - s.s3_start_ns,
                         s.stages.dpu_to_cpu + s.stages.cpu_aggregate),
                where + ": charged stage time differs from its cost");
  }
}

void CheckSchedule(const std::vector<pipeline::ExecutedFlowBatch>& schedule,
                   const std::string& label, Gate& gate) {
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const pipeline::ExecutedFlowBatch& s = schedule[b];
    const std::string where = label + " batch " + std::to_string(b);
    gate.Expect(Ordered({s.cut_ns, s.s1_start_ns, s.s1_end_ns, s.s2_start_ns,
                         s.s2_end_ns, s.s3_start_ns, s.s3_end_ns,
                         s.top_start_ns, s.top_end_ns}) &&
                    Ordered({s.cut_ns, s.bpre_start_ns, s.bpre_end_ns,
                             s.bpost_start_ns, s.bpost_end_ns,
                             s.bottom_done_ns, s.top_start_ns}) &&
                    s.done_ns == s.top_end_ns,
                where + ": instants out of order");
    if (b > 0) {
      const pipeline::ExecutedFlowBatch& p = schedule[b - 1];
      gate.Expect(s.cut_ns >= p.cut_ns && s.s2_start_ns >= p.s2_end_ns,
                  where + ": overlaps the previous batch on the DPUs");
    }
    const pipeline::BatchTaskCosts& c = s.costs;
    gate.Expect(Near(s.s1_end_ns - s.s1_start_ns, c.emb.cpu_to_dpu) &&
                    Near(s.s2_end_ns - s.s2_start_ns, c.emb.dpu_lookup) &&
                    Near(s.s3_end_ns - s.s3_start_ns,
                         c.emb.dpu_to_cpu + c.emb.cpu_aggregate),
                where + ": charged stage time differs from its cost");
  }
}

}  // namespace

void Gate::Expect(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++violations_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void CheckRun(const ServeRun& run, const std::string& label, Gate& gate) {
  gate.Expect(run.offered == run.arrival_ns.size() &&
                  run.offered == run.completed + run.shed,
              label + ": offered != completed + shed");
  gate.Expect(run.request_latency_ns.size() == run.completed &&
                  run.histogram_count == run.completed,
              label + ": completions recorded != completed");
  gate.Expect(run.num_batches == run.ScheduledBatches() &&
                  Near(run.avg_batch_size * static_cast<double>(run.num_batches),
                       static_cast<double>(run.completed)),
              label + ": batch count or sizes disagree with completions");
  gate.Expect(std::is_sorted(run.arrival_ns.begin(), run.arrival_ns.end()),
              label + ": arrivals out of order");
  gate.Expect(std::all_of(run.request_latency_ns.begin(),
                          run.request_latency_ns.end(),
                          [](Nanos l) { return std::isfinite(l) && l > 0.0; }),
              label + ": a latency is not positive and finite");
  CheckSchedule(run.schedule, label, gate);
  CheckSchedule(run.flow_schedule, label, gate);

  for (std::size_t b = 0; b < run.ScheduledBatches(); ++b) {
    const BatchParts p = run.Parts(b);
    gate.Expect(Near(p.cut_ns + p.Sum(), p.done_ns) &&
                    std::min({p.push_ns, p.kernel_ns, p.pull_ns,
                              p.aggregate_ns, p.top_ns,
                              p.buffer_wait_ns}) >= -1e-3,
                label + " batch " + std::to_string(b) +
                    ": layer parts do not sum to the batch latency");
  }

  // Every request completes once: with nothing shed, each completion
  // maps onto exactly one executed batch, after its own arrival.
  if (run.shed == 0) {
    std::vector<std::uint32_t> batch_of;
    const bool mapped = AssignBatches(run, batch_of);
    gate.Expect(mapped, label + ": completions do not map onto batches");
    if (!mapped) return;
    std::vector<std::size_t> sizes(run.ScheduledBatches(), 0);
    bool waits_ok = true;
    for (std::size_t i = 0; i < batch_of.size(); ++i) {
      ++sizes[batch_of[i]];
      waits_ok &= run.Parts(batch_of[i]).cut_ns >= run.arrival_ns[i];
    }
    gate.Expect(waits_ok, label + ": a request was batched before it arrived");
    gate.Expect(*std::max_element(sizes.begin(), sizes.end()) <= kBatchSize,
                label + ": a batch exceeds the batch size");
  }
}

FunctionalResult CheckFunctionalSlice(const WorkloadSpec& spec,
                                      std::uint64_t seed, Gate& gate,
                                      Fault fault) {
  // The workload's shape (8 tables x 32-dim, batch 64, CA, its
  // dataset's skew and reduction) over a small universe, with real
  // MRAM contents so the engine computes outputs.
  constexpr std::uint64_t kItems = 8192;
  constexpr std::size_t kSamples = 4 * kBatchSize;
  auto dataset = trace::FindDataset(spec.dataset);
  UPDLRM_CHECK_MSG(dataset.ok(), dataset.status().ToString());
  trace::DatasetSpec small = *dataset;
  small.num_items = kItems;
  small.num_hot_items = std::min<std::uint32_t>(small.num_hot_items, 1024);

  dlrm::DlrmConfig config;  // bench::PrepareWorkload's shape
  config.num_tables = 8;
  config.rows_per_table = kItems;
  config.embedding_dim = 32;
  config.dense_features = 13;
  auto model = dlrm::DlrmModel::Create(config);
  UPDLRM_CHECK_MSG(model.ok(), model.status().ToString());
  trace::TraceGeneratorOptions generate;
  generate.num_samples = kSamples;
  generate.num_tables = config.num_tables;
  generate.seed_override = seed * 2 + 1;
  auto tr = trace::TraceGenerator(small).Generate(generate);
  UPDLRM_CHECK_MSG(tr.ok(), tr.status().ToString());
  const trace::Trace& trace = *tr;
  const dlrm::DenseInputs dense =
      dlrm::DenseInputs::Generate(kSamples, config.dense_features, seed + 7);

  core::EngineOptions options;
  options.method = partition::Method::kCacheAware;
  options.batch_size = kBatchSize;
  options.reserved_io_bytes = 1 * kMiB;
  options.grace.num_hot_items = 1024;
  pim::DpuSystemConfig system_config;
  system_config.num_dpus = 64;
  system_config.dpus_per_rank = 64;
  auto system = pim::DpuSystem::Create(system_config);
  UPDLRM_CHECK_MSG(system.ok(), system.status().ToString());
  auto engine = core::UpDlrmEngine::Create(&*model, config, trace,
                                           system->get(), options);
  UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

  FunctionalResult result;
  const std::size_t width =
      static_cast<std::size_t>(config.num_tables) * config.embedding_dim;
  std::vector<float> want_pooled(width);
  const std::vector<float> want_ctr =
      model->ForwardBatch(dense, trace, {0, kSamples}, true);
  // Per-sample comparison of one engine's batch outputs.
  const auto compare = [&](const core::BatchResult& got,
                           trace::BatchRange range, const std::string& who) {
    std::uint64_t wrong = 0;
    for (std::size_t s = range.begin; s < range.end; ++s) {
      const std::size_t i = s - range.begin;
      model->PooledEmbeddingsFixed(trace, s, want_pooled);
      const bool ok =
          got.pooled.size() == range.size() * width &&
          got.ctr.size() == range.size() &&
          SameBits(std::span(got.pooled).subspan(i * width, width),
                   want_pooled) &&
          SameBits(std::span(got.ctr).subspan(i, 1),
                   std::span(want_ctr).subspan(s, 1));
      wrong += ok ? 0 : 1;
    }
    gate.Expect(wrong == 0, spec.name + std::string(" ") + who +
                                ": outputs differ from the reference model");
    result.outputs += range.size();
    result.wrong += wrong;
  };

  std::unique_ptr<core::ShardedEngine> fleet;
  if (spec.engine == EngineShape::kFleet) {
    core::ShardedEngineConfig fleet_config;
    fleet_config.shard_system = system_config;
    fleet_config.tiering.num_shards = 4;
    fleet_config.tiering.dram_epsilon = 0.02;
    fleet_config.fleet_topology.ranks_per_host = 1;
    auto sharded = core::ShardedEngine::Create(&*model, config, trace,
                                               fleet_config, options);
    UPDLRM_CHECK_MSG(sharded.ok(), sharded.status().ToString());
    fleet = std::move(sharded).value();
  }
  for (const trace::BatchRange& range :
       trace::MakeBatches(kSamples, kBatchSize)) {
    auto flat = (*engine)->RunBatch(range, &dense);
    UPDLRM_CHECK_MSG(flat.ok(), flat.status().ToString());
    if (fault == Fault::kWrongOutput && range.begin == 0) {
      flat->pooled[0] += 1.0f;
    }
    compare(*flat, range, "flat engine");
    if (fleet != nullptr) {
      auto sharded = fleet->RunBatch(range, &dense);
      UPDLRM_CHECK_MSG(sharded.ok(), sharded.status().ToString());
      gate.Expect(sharded->pooled == flat->pooled && sharded->ctr == flat->ctr,
                  spec.name + std::string(" sharded engine: outputs differ "
                                          "from the flat engine"));
      compare(*sharded, range, "sharded engine");
    }
  }

  if (spec.path == ServePath::kDlrm) {
    // The serving pipeline's CTRs: at a rate low enough that nothing
    // is shed, the i-th completion is sample i.
    serve::ArrivalOptions arrivals;
    arrivals.qps = 10'000.0;
    arrivals.seed = ArrivalSeed(seed);
    auto requests = serve::GenerateRequests(trace, 0, arrivals);
    UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());
    pipeline::DataFlowServeOptions serve_options;
    serve_options.batcher.max_batch_size = kBatchSize;
    serve_options.batcher.max_queue_delay_ns = spec.max_queue_delay_us * 1e3;
    auto served = pipeline::RunDataFlowSimulation(**engine, *requests, &dense,
                                                  serve_options);
    UPDLRM_CHECK_MSG(served.ok(), served.status().ToString());
    std::uint64_t wrong = 0;
    for (std::size_t s = 0; s < kSamples; ++s) {
      wrong += s < served->ctr.size() &&
                       SameBits(std::span(served->ctr).subspan(s, 1),
                                std::span(want_ctr).subspan(s, 1))
                   ? 0
                   : 1;
    }
    gate.Expect(served->shed == 0 && wrong == 0,
                spec.name + std::string(" serving pipeline: CTRs differ "
                                        "from the reference model"));
    result.outputs += kSamples;
    result.wrong += wrong;
  }
  return result;
}

}  // namespace perfbench
