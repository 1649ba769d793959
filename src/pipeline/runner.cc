#include "pipeline/runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "check/dataflow_audit.h"
#include "common/function_ref.h"
#include "dlrm/batched.h"
#include "serve/server.h"
#include "telemetry/tracer.h"
#include "updlrm/timeline.h"

namespace updlrm::pipeline {

namespace {

// Per-unit cumulative work proxy for the straggler scorer: kernel
// cycles plus index wire bytes (a stand-in for per-DPU transfer cycles
// — z-scores are scale-free, so the mix only needs to be consistent).
// Units are every system's DPUs, concatenated in system order (on a
// fleet, global unit id = shard * shard_dpus + local dpu).
void SampleUnitWork(const core::EmbeddingEngine& engine,
                    std::vector<std::uint64_t>& out) {
  out.clear();
  for (std::uint32_t s = 0; s < engine.num_systems(); ++s) {
    const pim::DpuSystem& system = engine.system(s);
    for (std::uint32_t i = 0; i < system.num_dpus(); ++i) {
      const pim::DpuStats& stats = system.dpu(i).stats();
      out.push_back(stats.kernel_cycles + stats.index_bytes_pushed);
    }
  }
}

check::StageInstants FlattenInstants(const ExecutedFlowBatch& b) {
  check::StageInstants t;
  t.cut_ns = b.cut_ns;
  t.bpre_start_ns = b.bpre_start_ns;
  t.bpre_end_ns = b.bpre_end_ns;
  t.s1_start_ns = b.s1_start_ns;
  t.s1_end_ns = b.s1_end_ns;
  t.s2_start_ns = b.s2_start_ns;
  t.s2_end_ns = b.s2_end_ns;
  t.s3_start_ns = b.s3_start_ns;
  t.s3_end_ns = b.s3_end_ns;
  t.bottom_done_ns = b.bottom_done_ns;
  t.top_start_ns = b.top_start_ns;
  t.top_end_ns = b.top_end_ns;
  return t;
}

// Rejects input the discrete-event scan cannot serve: a NaN arrival
// never advances the scan, an infinite one or an infinite delay is
// never offered or cut, and out-of-order arrivals would report
// latencies for an admission order that never happened.
Status ValidateServeInput(std::span<const serve::Request> requests,
                          const serve::BatcherOptions& batcher,
                          const DataFlowPlan& plan) {
  if (batcher.max_batch_size == 0) {
    return Status::InvalidArgument("max_batch_size must be at least 1");
  }
  if (!std::isfinite(batcher.max_queue_delay_ns) ||
      batcher.max_queue_delay_ns < 0.0) {
    return Status::InvalidArgument(
        "max_queue_delay_ns must be finite and non-negative");
  }
  if (plan.depth == 0) {
    return Status::InvalidArgument("pipeline depth must be at least 1");
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Nanos arrival = requests[i].arrival_ns;
    if (!std::isfinite(arrival) ||
        (i > 0 && arrival < requests[i - 1].arrival_ns)) {
      return Status::InvalidArgument(
          "request " + std::to_string(i) +
          ": arrivals must be finite and non-decreasing");
    }
  }
  return Status::Ok();
}

// Prices one executed batch under the loop's plan (and may run
// per-batch functional work); `samples` are the batch's sample ids.
using BatchCostFn = FunctionRef<Result<BatchTaskCosts>(
    const core::BatchResult&, std::span<const std::size_t>)>;

// The serving loop, shared by every entry point and engine: it only
// needs the EmbeddingEngine interface. `batch_costs` prices each batch;
// everything else — batching, execution, monitor feeding, tracing and
// latency accounting — lives here once.
Status RunServeLoop(core::EmbeddingEngine& engine,
                    std::span<const serve::Request> requests,
                    const serve::BatcherOptions& batcher_options,
                    const DataFlowPlan& plan,
                    telemetry::FleetMonitor* monitor_option,
                    BatchCostFn batch_costs, DataFlowServeResult& result) {
  UPDLRM_RETURN_IF_ERROR(ValidateServeInput(requests, batcher_options, plan));
  serve::DynamicBatcher batcher(batcher_options);
  DataFlowExecutor executor(plan);
  result.offered = requests.size();

  // Tracing: the serve loop runs on one thread, so all emission below
  // is single-threaded. Request spans and per-batch timelines are
  // emitted post-drain (only then are completions known); everything
  // is simulated-clock and pure observation.
  const bool tracing = telemetry::TraceEnabled();
  telemetry::Tracer& tracer = telemetry::Tracer::Get();
  const std::uint64_t sample_every =
      tracing ? tracer.options().sample_every : 1;
  using telemetry::Clock;
  using telemetry::kDpuTrack;
  using telemetry::kGpuTrack;
  using telemetry::kHostBusTrack;
  using telemetry::kMlpTrack;
  using telemetry::kPipelinePid;
  using telemetry::kRequestPid;

  // Fleet-health monitor: observation only, fed at the single-threaded
  // loop boundaries. The pre-loop sample anchors the cumulative unit
  // counters so window 0's deltas cover the first batch even when the
  // engine served earlier runs.
  telemetry::FleetMonitor* const monitor =
      telemetry::MonitorEnabled(monitor_option) ? monitor_option : nullptr;
  std::vector<std::uint64_t> unit_work;
  if (monitor != nullptr) {
    SampleUnitWork(engine, unit_work);
    monitor->OnUnitSample(0.0, unit_work);
  }

  // Flat request log: every cut appends its requests here (for latency
  // attribution) and records its start offset in batch_start — one
  // up-front reservation instead of a vector<vector> that allocates per
  // batch. batch_start gets a closing sentinel after the serve loop.
  const std::size_t expected_batches =
      requests.size() / batcher_options.max_batch_size + 2;
  std::vector<serve::QueuedRequest> request_log;
  request_log.reserve(requests.size());
  std::vector<std::size_t> batch_start;
  batch_start.reserve(expected_batches + 1);
  std::vector<std::size_t> samples;  // sample-id scratch per cut
  samples.reserve(batcher_options.max_batch_size);
  // Per cut batch: the engine's stage-2 launch records (tracing only).
  std::vector<std::shared_ptr<const core::BatchDpuTrace>> batch_traces;
  executor.Reserve(expected_batches);
  result.queue_depth.reserve(expected_batches);
  result.request_latency_ns.reserve(requests.size());

  auto offer = [&](const serve::Request& r, Nanos now) {
    if (batcher.Offer(r, now) == serve::Admission::kShed && tracing) {
      tracer.InstantAt(kRequestPid, 0, Clock::kSim, "shed", now, "request",
                       static_cast<double>(r.id));
    }
  };

  // The discrete-event scan. State changes happen at three kinds of
  // instants — arrivals, batcher deadlines, and executor buffer frees —
  // and all three sequences are non-decreasing, so one forward pass
  // over time suffices. Tie order at equal timestamps: arrivals are
  // offered before a deadline cut is taken (a request arriving exactly
  // at max_queue_delay joins the closing batch), and a cut happens as
  // soon as both the batcher is due and the executor admits.
  std::size_t next = 0;  // next unprocessed arrival
  while (next < requests.size() || !batcher.Idle()) {
    // Earliest instant the executor could accept a cut.
    Nanos t = executor.NextAdmitTime();
    // Offer everything that has already arrived by then.
    while (next < requests.size() && requests[next].arrival_ns <= t) {
      offer(requests[next], requests[next].arrival_ns);
      ++next;
    }
    // Walk forward until the batcher is due.
    while (!batcher.ReadyToCut(t)) {
      const Nanos next_arrival = next < requests.size()
                                     ? requests[next].arrival_ns
                                     : serve::DynamicBatcher::kNever;
      const Nanos deadline = batcher.NextDeadline();
      const Nanos event = std::min(next_arrival, deadline);
      if (event == serve::DynamicBatcher::kNever) break;  // drained
      t = std::max(t, event);
      while (next < requests.size() && requests[next].arrival_ns <= t) {
        offer(requests[next], requests[next].arrival_ns);
        ++next;
      }
    }
    if (!batcher.ReadyToCut(t)) break;  // nothing left to serve

    batch_start.push_back(request_log.size());
    batcher.CutInto(t, request_log);
    samples.clear();
    for (std::size_t i = batch_start.back(); i < request_log.size(); ++i) {
      samples.push_back(request_log[i].request.sample);
    }
    auto batch = engine.RunSamples(samples, nullptr);
    if (!batch.ok()) return batch.status();
    Result<BatchTaskCosts> costs = batch_costs(*batch, samples);
    if (!costs.ok()) return costs.status();

    executor.Submit(*costs, t);
    if (tracing) batch_traces.push_back(batch->dpu_trace);
    result.queue_depth.push_back(
        serve::QueueDepthSample{t, batcher.queue_depth()});
    if (monitor != nullptr) {
      // Cumulative unit counters only exist mid-run, so the straggler
      // stream samples at cut times; cut times are non-decreasing.
      SampleUnitWork(engine, unit_work);
      monitor->OnUnitSample(t, unit_work);
    }
  }
  batch_start.push_back(request_log.size());  // closing sentinel

  executor.Drain();
  result.makespan_ns = executor.MakespanNs();
  result.schedule = executor.batches();
  result.num_batches = batch_start.size() - 1;
  result.shed = batcher.shed_count();
  result.max_queue_depth = batcher.max_queue_depth();
  result.utilization.host_busy_ns = executor.host_busy_ns();
  result.utilization.dpu_busy_ns = executor.dpu_busy_ns();
  result.utilization.host_mlp_busy_ns = executor.host_mlp_busy_ns();
  result.utilization.gpu_busy_ns = executor.gpu_busy_ns();
  result.utilization.makespan_ns = result.makespan_ns;

  if (tracing) {
    tracer.SetThreadName(kPipelinePid, kHostBusTrack,
                         "host buses (stage 1/3)");
    tracer.SetThreadName(kPipelinePid, kDpuTrack, "DPU array (stage 2)");
    // Dense tracks exist only when the run placed dense work.
    if (executor.host_mlp_busy_ns() > 0.0 || executor.gpu_busy_ns() > 0.0) {
      tracer.SetThreadName(kPipelinePid, kMlpTrack,
                           "host dense (MLP / interaction)");
      if (plan.bottom == Backend::kGpu || plan.top == Backend::kGpu) {
        tracer.SetThreadName(kPipelinePid, kGpuTrack, "GPU backend");
      }
    }
    for (const serve::QueueDepthSample& s : result.queue_depth) {
      tracer.Counter(kPipelinePid, Clock::kSim, "queue_depth", s.t_ns,
                     static_cast<double>(s.depth));
    }
  }
  const std::int64_t bottom_track =
      plan.bottom == Backend::kGpu ? kGpuTrack : kMlpTrack;

  std::uint64_t served = 0;
  for (std::size_t b = 0; b + 1 < batch_start.size(); ++b) {
    const ExecutedFlowBatch& sched = result.schedule[b];
    const Nanos done = sched.done_ns;
    if (tracing) {
      if (b % sample_every == 0) {
        const double batch_id = static_cast<double>(b);
        // Dense spans are emitted only when non-empty, so a plan that
        // places no dense work traces just the embedding stages.
        const auto dense_span = [&](std::int64_t track, const char* name,
                                    Nanos start, Nanos dur,
                                    const char* arg) {
          if (dur > 0.0) {
            tracer.Complete(kPipelinePid, track, Clock::kSim, name, start,
                            dur, arg, arg != nullptr ? batch_id : 0.0);
          }
        };
        tracer.Complete(kPipelinePid, kHostBusTrack, Clock::kSim,
                        "stage1.push", sched.s1_start_ns,
                        sched.s1_end_ns - sched.s1_start_ns, "batch",
                        batch_id);
        tracer.Complete(kPipelinePid, kDpuTrack, Clock::kSim,
                        "stage2.kernel", sched.s2_start_ns,
                        sched.s2_end_ns - sched.s2_start_ns);
        tracer.Complete(kPipelinePid, kHostBusTrack, Clock::kSim,
                        "stage3.pull", sched.s3_start_ns,
                        sched.s3_end_ns - sched.s3_start_ns);
        // The bottom stack runs as up to two host slices (the
        // overlapped prefix and the remainder) or as one GPU offload
        // in the bpre fields; each shares the span name.
        dense_span(bottom_track, "mlp_bottom", sched.bpre_start_ns,
                   sched.bpre_end_ns - sched.bpre_start_ns, "batch");
        dense_span(bottom_track, "mlp_bottom", sched.bpost_start_ns,
                   sched.bpost_end_ns - sched.bpost_start_ns, "batch");
        if (plan.top == Backend::kGpu) {
          // One offload covers interaction + top stack; the host-time
          // interact/top split does not apply on the device.
          dense_span(kGpuTrack, "mlp_top", sched.top_start_ns,
                     sched.top_end_ns - sched.top_start_ns, "batch");
        } else {
          const Nanos interact_end = sched.top_start_ns + sched.costs.interact;
          dense_span(kMlpTrack, "interact", sched.top_start_ns,
                     sched.costs.interact, "batch");
          dense_span(kMlpTrack, "mlp_top", interact_end,
                     sched.top_end_ns - interact_end, nullptr);
        }
        if (batch_traces[b] != nullptr) {
          core::EmitBatchDpuTimeline(engine.system(0), *batch_traces[b],
                                     b, sched.s2_start_ns,
                                     /*tasklet_detail=*/true);
        }
      } else {
        tracer.CountSampledOut();
      }
    }
    const std::span<const serve::QueuedRequest> batch_requests(
        request_log.data() + batch_start[b],
        batch_start[b + 1] - batch_start[b]);
    if (monitor != nullptr) {
      // Drift stream: every request's table accesses at its batch's cut
      // instant (cut times are non-decreasing over b); SLO stream:
      // completions at the batch's done instant (also non-decreasing —
      // each completing class drains FIFO).
      const trace::Trace& workload = engine.trace();
      for (const serve::QueuedRequest& q : batch_requests) {
        for (std::uint32_t t = 0; t < workload.num_tables(); ++t) {
          monitor->OnAccess(t, sched.cut_ns,
                            workload.tables[t].Sample(q.request.sample));
        }
        monitor->OnRequest(done, done - q.request.arrival_ns);
      }
    }
    for (const serve::QueuedRequest& q : batch_requests) {
      const Nanos latency = done - q.request.arrival_ns;
      result.latency.Add(latency);
      result.request_latency_ns.push_back(latency);
      ++served;
      if (!tracing) continue;
      // 1-in-N request spans, keyed on the stable request id so the
      // same requests are traced at any thread count.
      if (q.request.id % sample_every != 0) {
        ++result.requests_sampled_out;
        tracer.CountSampledOut();
        continue;
      }
      ++result.requests_traced;
      // Nested async spans sharing the request's id:
      //   lifetime [arrival, done)
      //     queued  [admission, batch cut)
      //     execute [batch cut, done)
      tracer.AsyncBegin(kRequestPid, q.request.id, Clock::kSim, "request",
                        "request", q.request.arrival_ns);
      tracer.AsyncBegin(kRequestPid, q.request.id, Clock::kSim, "queued",
                        "request", q.admit_ns);
      tracer.AsyncEnd(kRequestPid, q.request.id, Clock::kSim, "queued",
                      "request", sched.cut_ns);
      tracer.AsyncBegin(kRequestPid, q.request.id, Clock::kSim, "execute",
                        "request", sched.cut_ns);
      tracer.AsyncEnd(kRequestPid, q.request.id, Clock::kSim, "execute",
                      "request", done);
      tracer.AsyncEnd(kRequestPid, q.request.id, Clock::kSim, "request",
                      "request", done);
    }
  }
  result.completed = served;
  if (result.num_batches > 0) {
    result.avg_batch_size = static_cast<double>(served) /
                            static_cast<double>(result.num_batches);
  }
  UPDLRM_CHECK_MSG(result.completed + result.shed == result.offered,
                   "serving accounting mismatch");
  return Status::Ok();
}

}  // namespace

Result<DataFlowServeResult> RunDataFlowSimulation(
    core::EmbeddingEngine& engine, std::span<const serve::Request> requests,
    const dlrm::DenseInputs* dense, const DataFlowServeOptions& options) {
  UPDLRM_RETURN_IF_ERROR(options.gpu.Validate());
  const dlrm::DlrmConfig& config = engine.config();
  const host::GpuTimingModel gpu(options.gpu);
  const DataFlowPlan& plan = options.plan;

  if (options.audit != nullptr) {
    check::DataFlowShape shape;
    shape.depth = plan.depth;
    shape.bottom_overlap_layers =
        plan.bottom == Backend::kGpu ? 0 : plan.bottom_split;
    shape.bottom_layers =
        static_cast<std::uint32_t>(config.bottom_hidden.size()) + 1;
    shape.bottom_on_gpu = plan.bottom == Backend::kGpu;
    shape.top_on_gpu = plan.top == Backend::kGpu;
    shape.gpu_available = options.gpu_available;
    check::AuditDataFlowShape(shape, options.audit);
  }

  DataFlowServeResult result;
  const bool compute_ctr = dense != nullptr && engine.functional();
  std::unique_ptr<dlrm::BatchedDlrm> batched;
  std::vector<float> dense_rows;  // gathered batch dense inputs
  if (compute_ctr) {
    batched = std::make_unique<dlrm::BatchedDlrm>(*engine.model());
    dense_rows.reserve(options.batcher.max_batch_size *
                       config.dense_features);
    result.ctr.reserve(requests.size());
  }
  // Worst in-flight buffer pair across the run (capacity audit input).
  std::uint64_t max_index_bytes = 0;
  std::uint64_t max_output_bytes = 0;

  const auto batch_costs =
      [&](const core::BatchResult& batch,
          std::span<const std::size_t> samples) -> Result<BatchTaskCosts> {
    max_index_bytes = std::max(max_index_bytes, batch.max_index_bytes);
    max_output_bytes = std::max(max_output_bytes, batch.max_output_bytes);
    if (compute_ctr) {
      if (samples.size() * config.dense_features > dense_rows.capacity()) {
        dense_rows.reserve(samples.size() * config.dense_features);
      }
      dense_rows.clear();
      for (const std::size_t s : samples) {
        if (s >= dense->num_samples()) {
          return Status::InvalidArgument(
              "request sample outside the dense inputs");
        }
        const std::span<const float> row = dense->Sample(s);
        dense_rows.insert(dense_rows.end(), row.begin(), row.end());
      }
      const std::size_t base = result.ctr.size();
      result.ctr.resize(base + samples.size());
      batched->Forward(dense_rows, batch.pooled, samples.size(),
                       std::span<float>(result.ctr.data() + base,
                                        samples.size()),
                       options.num_threads);
    }
    return ComputeBatchTaskCosts(config, engine.cpu_model(), gpu, batch,
                                 samples.size(), plan);
  };
  UPDLRM_RETURN_IF_ERROR(RunServeLoop(engine, requests, options.batcher,
                                      plan, options.monitor, batch_costs,
                                      result));

  if (options.audit != nullptr) {
    check::DataFlowCapacity cap;
    cap.depth = plan.depth;
    cap.max_index_bytes = max_index_bytes;
    cap.max_output_bytes = max_output_bytes;
    const core::EmbeddingEngine::IoRegions regions = engine.MinIoRegions();
    cap.index_region_bytes = regions.index_bytes;
    cap.output_region_bytes = regions.output_bytes;
    check::AuditDataFlowCapacity(cap, options.audit);
    for (std::size_t b = 0; b < result.schedule.size(); ++b) {
      check::AuditStageOrdering(b, FlattenInstants(result.schedule[b]),
                                options.audit);
    }
  }
  return result;
}

}  // namespace updlrm::pipeline

namespace updlrm::serve {

// Embedding-only serving: the loop under the plan that places no dense
// work, its schedule projected onto the embedding stages.
Result<ServeResult> RunServeSimulation(core::EmbeddingEngine& engine,
                                       std::span<const Request> requests,
                                       const ServeOptions& options) {
  pipeline::DataFlowPlan plan;  // split0.cpu-cpu
  plan.depth = options.pipeline_depth;
  const auto embedding_only = [](const core::BatchResult& batch,
                                 std::span<const std::size_t>) {
    return Result<pipeline::BatchTaskCosts>({.emb = batch.stages});
  };
  pipeline::DataFlowServeResult flow;
  UPDLRM_RETURN_IF_ERROR(pipeline::RunServeLoop(engine, requests,
                                                options.batcher, plan,
                                                options.monitor,
                                                embedding_only, flow));
  ServeResult result;
  result.schedule.reserve(flow.schedule.size());
  for (const pipeline::ExecutedFlowBatch& b : flow.schedule) {
    result.schedule.push_back(ExecutedBatch{
        b.costs.emb, b.cut_ns, b.s1_start_ns, b.s1_end_ns, b.s2_start_ns,
        b.s2_end_ns, b.s3_start_ns, b.s3_end_ns});
  }
  static_cast<ServeSummary&>(result) = std::move(flow);
  return result;
}

}  // namespace updlrm::serve
