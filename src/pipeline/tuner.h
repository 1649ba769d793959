// The asymmetric data-flow auto-tuner.
//
// Which placement of the dense DLRM stages wins is not fixed: GPU
// offload amortizes its per-batch sync tax only at large batch sizes,
// deep overlap helps only when the host has slack between the stage-1
// push and the stage-3 pull, and the bottom-MLP split trades scheduling
// granularity against nothing at all when the stack is cheap. The tuner
// makes the choice empirical: enumerate the legal plans, price one
// probe batch under each with the calibrated cost models, rank by the
// analytic steady-state prediction, then *calibrate* the finalists with
// real simulated serving runs and pick the measured-p99 winner.
// Every Tune call runs its own search: the probe batch's stage times
// belong to the engine and trace it was given.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "host/gpu_model.h"
#include "pipeline/dataflow.h"
#include "serve/batcher.h"
#include "serve/workload.h"
#include "updlrm/engine.h"

namespace updlrm::pipeline {

struct TunerOptions {
  /// Enumeration bounds. `bottom_layers` is filled in from the engine's
  /// model config; `allow_gpu` says whether the serving config
  /// provisions a GPU at all.
  DataFlowSpace space;
  /// Candidates (by predicted rank) to calibrate with real simulated
  /// runs; 0 calibrates *every* candidate (the ablation mode — makes
  /// the tuner's pick dominate all static plans by construction).
  std::size_t calibrate_top_n = 3;
  /// GPU backend offloaded placements are priced against.
  host::GpuModelParams gpu;
};

/// One enumerated candidate's scorecard.
struct CandidateOutcome {
  DataFlowPlan plan;
  /// Analytic steady-state score (PredictFlow on the probe batch).
  Nanos predicted_ns = 0.0;
  /// Calibrated p99 latency; negative when not calibrated.
  Nanos measured_p99_ns = -1.0;
  bool calibrated = false;
};

struct TunedDataFlow {
  DataFlowPlan best;
  /// Measured p99 of the winning plan's calibration run.
  Nanos best_p99_ns = 0.0;
  /// Every enumerated candidate, in enumeration order.
  std::vector<CandidateOutcome> candidates;
};

class DataFlowTuner {
 public:
  explicit DataFlowTuner(TunerOptions options) : options_(options) {}

  /// Picks the data flow for serving `requests` on `engine` (the flat
  /// engine or a sharded fleet) under `batcher`. Winner: lowest
  /// calibrated p99, ties broken by lower predicted score, then
  /// enumeration order — deterministic. InvalidArgument on an empty
  /// stream or invalid `options.gpu`.
  Result<TunedDataFlow> Tune(core::EmbeddingEngine& engine,
                             std::span<const serve::Request> requests,
                             const serve::BatcherOptions& batcher) const;

 private:
  TunerOptions options_;
};

}  // namespace updlrm::pipeline
