// Discrete-event executor of the full DLRM request path under one
// DataFlowPlan. Every serving run goes through it: embedding-only
// serving is the plan that places no dense work.
//
// Three simulated resources:
//   * host — single resource running stage-1 pushes, stage-3 pulls +
//     aggregation, and every CPU-placed dense task;
//   * DPU array — stage-2 lookups, FIFO;
//   * GPU — offloaded dense stages, FIFO (absent cost when unused).
//
// Host scheduling contract (deterministic, work-conserving,
// non-preemptive): whenever the host frees, it runs the ready task
// with the earliest possible start; ties break by priority class
//   stage-1 > stage-3 > top > bottom-post > bottom-pre
// then FIFO by batch. Stage-1 keeps the DPUs fed (scheduled directly
// at Submit); stage-3 completes the embedding path and unblocks tops;
// the bottom-MLP tasks are overlap filler that soaks host idle while
// the DPUs own the batch. A host task of zero duration takes no host
// time: it completes at its ready instant and never delays or is
// delayed by other host work. Hence a batch with zero dense costs
// under plan `d<depth>.split0.cpu-cpu` runs exactly the double-buffered
// embedding pipeline (done == stage-3 end). Within a class, ready
// times are monotone in batch order, so each class is a FIFO queue and
// the schedule is independent of host thread count (simulated time
// only).
//
// Admission: `depth` MRAM buffer pairs bound the in-flight window: batch
// k may only be cut once batch k-depth's stage 2 freed its index buffer.
// NextAdmitTime() exposes this to the batcher, which is how DPU
// backpressure propagates to the request queue.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "pipeline/dataflow.h"

namespace updlrm::pipeline {

/// The executed schedule of one batch under a data-flow plan. The
/// bottom stack runs as [bpre, bpost] on the host, or as one GPU task
/// recorded in the bpre fields (bpost collapses to zero length at its
/// end).
struct ExecutedFlowBatch {
  BatchTaskCosts costs;
  Nanos cut_ns = 0.0;
  Nanos s1_start_ns = 0.0, s1_end_ns = 0.0;  // CPU->DPU index push
  Nanos s2_start_ns = 0.0, s2_end_ns = 0.0;  // DPU lookup/reduce
  Nanos s3_start_ns = 0.0, s3_end_ns = 0.0;  // pull + CPU aggregation
  Nanos bpre_start_ns = 0.0, bpre_end_ns = 0.0;
  Nanos bpost_start_ns = 0.0, bpost_end_ns = 0.0;
  Nanos bottom_done_ns = 0.0;
  /// Interaction + top MLP (host or GPU per the plan). The interact
  /// part occupies [top_start, top_start + costs.interact).
  Nanos top_start_ns = 0.0, top_end_ns = 0.0;
  /// Batch completion == top_end_ns.
  Nanos done_ns = 0.0;
};

class DataFlowExecutor {
 public:
  explicit DataFlowExecutor(const DataFlowPlan& plan);

  const DataFlowPlan& plan() const { return plan_; }

  /// Earliest simulated instant the next batch may be cut (the
  /// depth-bounded buffer window has a free slot). Monotone.
  Nanos NextAdmitTime() const;

  void Reserve(std::size_t expected_batches);

  /// Submits the next batch at its cut instant (>= previous cut, >=
  /// NextAdmitTime()). Stage 1/2 (and a GPU bottom) are scheduled
  /// eagerly; host dense tasks and stage 3 run as host time advances.
  /// Returns the batch index.
  std::size_t Submit(const BatchTaskCosts& costs, Nanos cut_ns);

  /// Runs every resource to completion. Call once after the last
  /// Submit; batches() then has every stage finalized.
  void Drain();

  /// Completion (top end) of the last batch; 0 if none. After Drain.
  Nanos MakespanNs() const;

  const std::vector<ExecutedFlowBatch>& batches() const { return batches_; }
  Nanos host_busy_ns() const { return host_busy_; }
  Nanos dpu_busy_ns() const { return dpu_busy_; }
  Nanos gpu_busy_ns() const { return gpu_busy_; }
  /// Host time spent in dense (MLP/interaction) tasks — a subset of
  /// host_busy_ns.
  Nanos host_mlp_busy_ns() const { return host_mlp_busy_; }
  std::uint32_t depth() const { return plan_.depth; }

 private:
  // Host task classes in priority order (lower = higher priority;
  // stage 1 is scheduled at Submit and never queues).
  enum HostClass : std::size_t { kS3 = 0, kTop, kBpost, kBpre, kNumClasses };

  // Starts pending host tasks whose begin instant falls strictly
  // before `until` (a started task may overrun it).
  void AdvanceHost(Nanos until);
  // Host time the `cls` task of a batch with `costs` takes.
  static Nanos HostDuration(std::size_t cls, const BatchTaskCosts& costs);
  // Ready time of the head task of `cls` for batch index `b`; negative
  // when its dependencies are not yet resolved.
  Nanos ReadyTime(std::size_t cls, std::size_t b) const;
  // Applies completion of (cls, b): writes the schedule, resolves
  // successors, schedules newly-unblocked GPU tops.
  void Complete(std::size_t cls, std::size_t b, Nanos start, Nanos dur);
  // Schedules GPU top tasks whose dependencies resolved, in batch
  // order.
  void ScheduleGpuTops();

  DataFlowPlan plan_;
  std::vector<ExecutedFlowBatch> batches_;
  // Head index per host class (tasks are FIFO within a class).
  std::size_t head_[kNumClasses] = {0, 0, 0, 0};
  std::size_t next_gpu_top_ = 0;
  Nanos host_free_ = 0.0;
  Nanos dpu_free_ = 0.0;
  Nanos gpu_free_ = 0.0;
  Nanos last_cut_ = 0.0;
  Nanos host_busy_ = 0.0;
  Nanos dpu_busy_ = 0.0;
  Nanos gpu_busy_ = 0.0;
  Nanos host_mlp_busy_ = 0.0;
  bool drained_ = false;
};

}  // namespace updlrm::pipeline
