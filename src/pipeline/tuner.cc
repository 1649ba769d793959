#include "pipeline/tuner.h"

#include <algorithm>
#include <numeric>

#include "pipeline/runner.h"

namespace updlrm::pipeline {

Result<TunedDataFlow> DataFlowTuner::Tune(
    core::EmbeddingEngine& engine, std::span<const serve::Request> requests,
    const serve::BatcherOptions& batcher) const {
  if (requests.empty()) {
    return Status::InvalidArgument("tuner needs a non-empty request stream");
  }
  UPDLRM_RETURN_IF_ERROR(options_.gpu.Validate());
  const dlrm::DlrmConfig& config = engine.config();

  // One probe batch at the serving batch size supplies the embedding
  // stage times every candidate is priced against.
  std::vector<std::size_t> probe;
  const std::size_t probe_size =
      std::min<std::size_t>(std::max<std::size_t>(batcher.max_batch_size, 1),
                            requests.size());
  probe.reserve(probe_size);
  for (std::size_t i = 0; i < probe_size; ++i) {
    probe.push_back(requests[i].sample);
  }
  auto probe_batch = engine.RunSamples(probe, nullptr);
  if (!probe_batch.ok()) return probe_batch.status();

  DataFlowSpace space = options_.space;
  space.bottom_layers =
      static_cast<std::uint32_t>(config.bottom_hidden.size()) + 1;

  const host::GpuTimingModel gpu(options_.gpu);
  TunedDataFlow tuned;
  for (const DataFlowPlan& plan : EnumerateDataFlows(space)) {
    CandidateOutcome outcome;
    outcome.plan = plan;
    outcome.predicted_ns = PredictFlow(
        ComputeBatchTaskCosts(config, engine.cpu_model(), gpu, *probe_batch,
                              probe.size(), plan),
        plan);
    tuned.candidates.push_back(outcome);
  }

  // Calibration order: predicted rank (stable, so prediction ties keep
  // enumeration order).
  std::vector<std::size_t> rank(tuned.candidates.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::stable_sort(rank.begin(), rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tuned.candidates[a].predicted_ns <
                            tuned.candidates[b].predicted_ns;
                   });
  const std::size_t to_calibrate =
      options_.calibrate_top_n == 0
          ? rank.size()
          : std::min(options_.calibrate_top_n, rank.size());

  for (std::size_t i = 0; i < to_calibrate; ++i) {
    CandidateOutcome& outcome = tuned.candidates[rank[i]];
    DataFlowServeOptions serve_options;
    serve_options.batcher = batcher;
    serve_options.plan = outcome.plan;
    serve_options.gpu = options_.gpu;
    serve_options.gpu_available = space.allow_gpu;
    // Timing-only calibration: skip CTR computation.
    auto run = RunDataFlowSimulation(engine, requests, nullptr,
                                     serve_options);
    if (!run.ok()) return run.status();
    outcome.measured_p99_ns = run->latency.PercentileNs(99.0);
    outcome.calibrated = true;
  }

  // Winner: lowest measured p99 among the calibrated candidates; ties
  // fall to the lower prediction, then to enumeration order (the scan
  // below only replaces on strict improvement).
  std::size_t best = tuned.candidates.size();
  for (std::size_t i = 0; i < tuned.candidates.size(); ++i) {
    const CandidateOutcome& c = tuned.candidates[i];
    if (!c.calibrated) continue;
    if (best == tuned.candidates.size()) {
      best = i;
      continue;
    }
    const CandidateOutcome& b = tuned.candidates[best];
    if (c.measured_p99_ns < b.measured_p99_ns ||
        (c.measured_p99_ns == b.measured_p99_ns &&
         c.predicted_ns < b.predicted_ns)) {
      best = i;
    }
  }
  UPDLRM_CHECK_MSG(best < tuned.candidates.size(),
                   "tuner calibrated no candidate");
  tuned.best = tuned.candidates[best].plan;
  tuned.best_p99_ns = tuned.candidates[best].measured_p99_ns;
  return tuned;
}

}  // namespace updlrm::pipeline
