// The benchmark's workloads and the public serving path they run.
//
// Each workload is one traffic mix: a dataset shape, an engine shape
// (the flat 256-DPU engine or a sharded fleet), a serving path (the full
// DLRM path through src/pipeline, or the embedding path through
// src/serve) and an open-loop arrival process. Its latency limit and
// fixed rates are constants stored here, fixed once from the parent
// commit's numbers; nothing is re-derived from a run's own calibration,
// so a faster engine is judged against the same limit at the same load.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "pipeline/dataflow.h"
#include "pipeline/executor.h"
#include "serve/batcher.h"
#include "serve/executor.h"
#include "serve/metrics.h"
#include "serve/workload.h"
#include "updlrm/scaleout.h"

namespace perfbench {

using namespace updlrm;

enum class EngineShape { kFlat, kFleet };
enum class ServePath { kDlrm, kEmbedding };

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // trace::FindDataset name
  EngineShape engine;
  ServePath path;
  serve::ArrivalProcess arrival;
  /// Trace length; every serve run replays it once as its request
  /// stream, so it is also the request count of one run.
  std::size_t samples;
  std::uint32_t shards;      // kFleet only
  std::uint32_t shard_dpus;  // kFleet only: DPUs per shard slice
  /// Batcher deadline: a batch is cut once its oldest request waited
  /// this long.
  double max_queue_delay_us;
  /// Absolute steady-state p99 limit of the capacity search.
  double p99_limit_us;
  /// Fixed offered rates of the `low` and `high` latency points.
  double low_qps;
  double high_qps;
  /// Capacity-search bracket; a max_qps at search_hi_qps is censored.
  double search_lo_qps;
  double search_hi_qps;
};

std::span<const WorkloadSpec> Workloads();
/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Batch size and engine knobs shared by every workload (8 tables x
/// 32-dim, batch 64, the cache-aware method).
inline constexpr std::size_t kBatchSize = 64;
inline constexpr std::size_t kQueueCapacity = 4 * kBatchSize;
/// GRACE mines the first kMineSamples samples of a flat workload's
/// trace (its history); the engine serves the whole trace.
inline constexpr std::size_t kMineSamples = 800;

/// The trace (and model shape) of one workload at one seed. Input
/// generation only: the engine sees nothing but the generated trace.
bench::Workload GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Arrival-process seed of a benchmark seed (the trace seed is derived
/// separately, so the two streams are independent).
std::uint64_t ArrivalSeed(std::uint64_t seed);

/// A workload ready to serve: engine, tuned data flow and batcher.
/// Holds pointers into `inputs` and itself, so it never moves.
struct Deployment {
  const WorkloadSpec* spec = nullptr;
  const bench::Workload* inputs = nullptr;
  std::vector<trace::TableProfile> profiles;
  std::vector<cache::CacheRes> caches;
  std::unique_ptr<pim::DpuSystem> system;
  std::unique_ptr<core::UpDlrmEngine> engine;  // kFlat
  std::unique_ptr<core::ShardedEngine> fleet;  // kFleet
  pipeline::DataFlowPlan plan;                 // kDlrm
  serve::BatcherOptions batcher;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

/// Sets `spec` up on `inputs`: profile, mine, create, calibrate, tune.
/// Each layer call is wrapped in a span named after the layer (spans.h),
/// recorded when the tracer is on.
std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                  const bench::Workload& inputs,
                                  std::uint64_t seed);

/// One batch's simulated latency (cut -> completion) split into the
/// layers it passed. The parts sum to done_ns - cut_ns; bottom_ns is
/// the overlapped bottom-MLP work, off that sum.
struct BatchParts {
  Nanos cut_ns = 0.0;
  Nanos done_ns = 0.0;
  Nanos push_ns = 0.0;       // stage 1: CPU->DPU index push
  Nanos kernel_ns = 0.0;     // stage 2: DPU lookup/reduce
  Nanos pull_ns = 0.0;       // stage 3: DPU->CPU partial-sum pull
  Nanos aggregate_ns = 0.0;  // host partial-sum reduction / shard merge
  Nanos top_ns = 0.0;        // interaction + top MLP (kDlrm)
  Nanos bottom_ns = 0.0;     // bottom MLP (kDlrm), overlapped
  /// Time the batch waited, after its cut, for the host, the DPUs or
  /// (kDlrm) its bottom MLP before the next stage could start.
  Nanos buffer_wait_ns = 0.0;

  Nanos Sum() const {
    return push_ns + kernel_ns + pull_ns + aggregate_ns + top_ns +
           buffer_wait_ns;
  }
};

BatchParts SplitBatch(const serve::ExecutedBatch& batch);
BatchParts SplitBatch(const pipeline::ExecutedFlowBatch& batch);

/// The public outcome of one serve run, common to both serving paths.
struct ServeRun {
  double offered_qps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::size_t num_batches = 0;
  double avg_batch_size = 0.0;
  std::uint64_t histogram_count = 0;
  std::vector<Nanos> arrival_ns;          // offered, in arrival order
  std::vector<Nanos> request_latency_ns;  // completed, in completion order
  /// The executed schedule: one of the two is filled, per serving path.
  std::vector<serve::ExecutedBatch> schedule;
  std::vector<pipeline::ExecutedFlowBatch> flow_schedule;
  serve::StageUtilization utilization;

  std::size_t ScheduledBatches() const {
    return schedule.size() + flow_schedule.size();
  }
  BatchParts Parts(std::size_t b) const {
    return schedule.empty() ? SplitBatch(flow_schedule[b])
                            : SplitBatch(schedule[b]);
  }
};

/// True when two runs simulated the same thing, bit for bit.
bool SameSimulation(const ServeRun& a, const ServeRun& b);

/// One serve run of `deployment` at `qps` (arrivals seeded by `seed`).
ServeRun Serve(Deployment& deployment, double qps, std::uint64_t seed);

}  // namespace perfbench
