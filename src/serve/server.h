// The online serving simulator: request queue -> dynamic batcher ->
// double-buffered pipelined execution -> tail-latency metrics.
//
// Drives one embedding engine (core::EmbeddingEngine: the flat engine
// or a sharded fleet, whose per-request shard fan-out and merge happen
// inside RunSamples) through an open-loop request stream in simulated
// time. Arrivals enter the bounded request queue (shed-or-block
// admission control); the dynamic batcher cuts a batch whenever the
// executor has a free buffer pair AND the batch is due (full, or the
// oldest request hit max_queue_delay); the executor overlaps batch
// k+1's stage-1 push with batch k's DPU occupancy. A request's latency
// is its batch's stage-3 completion minus its arrival.
//
// Embedding-only serving is the full-path serving loop of
// pipeline/runner.h under the data-flow plan that places no dense work
// (`d<pipeline_depth>.split0.cpu-cpu` with zero dense costs), so both
// entry points share one discrete-event scan and one executor. The
// definition lives in the updlrm_pipeline library.
//
// Host threads only accelerate the engine's per-batch computation of
// StageBreakdown values, which are thread-count invariant, so every
// ServeResult field is bit-exact across --threads (the determinism
// suite pins this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/executor.h"
#include "serve/metrics.h"
#include "serve/workload.h"
#include "telemetry/monitor.h"
#include "updlrm/engine.h"

namespace updlrm::serve {

struct ServeOptions {
  BatcherOptions batcher;
  /// MRAM buffer pairs for the pipelined executor (2 = double-buffered).
  std::uint32_t pipeline_depth = 2;
  /// Optional fleet-health monitor (telemetry/monitor.h). Observation
  /// only: the loop feeds it batch-cut accesses, per-unit work samples
  /// and request completions; results are bit-exact with or without it.
  /// The caller owns it and calls Finalize() after the run.
  telemetry::FleetMonitor* monitor = nullptr;
};

struct ServeResult : ServeSummary {
  /// The executed per-batch schedule, in cut order (`stages` feed
  /// core::EstimatePipelinedEmbedding to compare bound vs executed).
  std::vector<ExecutedBatch> schedule;
};

/// Simulates serving `requests` (time-ordered, as produced by
/// GenerateRequests) on `engine`. The engine's batch_size option is
/// ignored; the batcher's max_batch_size governs. Fails if a request
/// references a sample outside the engine's trace, and returns
/// InvalidArgument for malformed input: non-finite or decreasing
/// arrivals, a zero batch size or depth, or a negative or non-finite
/// queue delay.
Result<ServeResult> RunServeSimulation(core::EmbeddingEngine& engine,
                                       std::span<const Request> requests,
                                       const ServeOptions& options);

}  // namespace updlrm::serve
