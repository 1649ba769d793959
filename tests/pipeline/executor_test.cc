// The full-path data-flow executor: deterministic host scheduling
// around the embedding stages, GPU offload FIFO, depth-bounded
// admission, the zero-duration rule, and the stage-ordering invariants
// under random load. The embedding-only cases run the plan that places
// no dense work and validate the `EstimatePipelinedEmbedding`
// two-resource bound against the executed double-buffered schedule.
#include "pipeline/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "check/dataflow_audit.h"
#include "check/report.h"
#include "common/rng.h"
#include "updlrm/pipelining.h"

namespace updlrm::pipeline {
namespace {

BatchTaskCosts CpuCosts() {
  BatchTaskCosts c;
  c.emb.cpu_to_dpu = 100.0;
  c.emb.dpu_lookup = 200.0;
  c.emb.dpu_to_cpu = 50.0;
  c.emb.cpu_aggregate = 50.0;
  c.bottom_pre = 0.0;
  c.bottom_post = 300.0;
  c.interact = 40.0;
  c.top_mlp = 60.0;
  return c;
}

core::StageBreakdown Batch(Nanos s1, Nanos s2, Nanos s3,
                           Nanos agg = 0.0) {
  core::StageBreakdown b;
  b.cpu_to_dpu = s1;
  b.dpu_lookup = s2;
  b.dpu_to_cpu = s3;
  b.cpu_aggregate = agg;
  return b;
}

Nanos Serial(std::span<const core::StageBreakdown> batches) {
  Nanos total = 0.0;
  for (const auto& b : batches) total += b.EmbeddingTotal();
  return total;
}

// Embedding-only serving: zero dense costs under d<depth>.split0.cpu-cpu,
// every batch submitted as soon as a buffer pair frees.
DataFlowExecutor ExecuteEmbedding(
    std::span<const core::StageBreakdown> batches, std::uint32_t depth = 2) {
  DataFlowPlan plan;
  plan.depth = depth;
  DataFlowExecutor ex(plan);
  for (const core::StageBreakdown& b : batches) {
    ex.Submit(BatchTaskCosts{.emb = b}, ex.NextAdmitTime());
  }
  ex.Drain();
  for (const ExecutedFlowBatch& b : ex.batches()) {
    EXPECT_DOUBLE_EQ(b.done_ns, b.s3_end_ns);
  }
  EXPECT_DOUBLE_EQ(ex.host_mlp_busy_ns(), 0.0);
  return ex;
}

TEST(EmbeddingOnlyExecutorTest, EmptySequenceHasZeroMakespan) {
  const auto exec = ExecuteEmbedding({});
  EXPECT_DOUBLE_EQ(exec.MakespanNs(), 0.0);
  EXPECT_TRUE(exec.batches().empty());
}

TEST(EmbeddingOnlyExecutorTest, SingleBatchRunsSerially) {
  const std::vector<core::StageBreakdown> batches = {Batch(10, 50, 7, 3)};
  const auto exec = ExecuteEmbedding(batches);
  const auto& b = exec.batches()[0];
  EXPECT_DOUBLE_EQ(b.s1_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.s2_start_ns, 10.0);
  EXPECT_DOUBLE_EQ(b.s3_start_ns, 60.0);
  EXPECT_DOUBLE_EQ(exec.MakespanNs(), 70.0);
  EXPECT_DOUBLE_EQ(exec.MakespanNs(), Serial(batches));
}

TEST(EmbeddingOnlyExecutorTest, DoubleBufferOverlapsAdjacentBatches) {
  // DPU-bound homogeneous: stage 2 back-to-back after the first fill.
  const std::vector<core::StageBreakdown> batches(4, Batch(10, 80, 5, 5));
  const auto exec = ExecuteEmbedding(batches);
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const auto& b = exec.batches()[k];
    EXPECT_DOUBLE_EQ(b.s2_start_ns, 10.0 + 80.0 * static_cast<double>(k))
        << k;
  }
  // fill(10) + 4 * 80 + drain(10) vs serial 400.
  EXPECT_DOUBLE_EQ(exec.MakespanNs(), 340.0);
  EXPECT_LT(exec.MakespanNs(), Serial(batches));
}

TEST(EmbeddingOnlyExecutorTest, DepthLimitsInFlightBatches) {
  DataFlowExecutor exec(DataFlowPlan{});
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 0.0);
  exec.Submit(BatchTaskCosts{.emb = Batch(10, 100, 5)}, 0.0);
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 0.0);  // second buffer free
  exec.Submit(BatchTaskCosts{.emb = Batch(10, 100, 5)}, 0.0);
  // The third batch reuses batch 0's buffers: admit at its s2 end.
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 110.0);
  exec.Submit(BatchTaskCosts{.emb = Batch(10, 100, 5)}, 110.0);
  EXPECT_DOUBLE_EQ(exec.NextAdmitTime(), 210.0);
  exec.Drain();
  EXPECT_DOUBLE_EQ(exec.MakespanNs(), 315.0);
}

TEST(EmbeddingOnlyExecutorTest, DepthOneSerializesAdmission) {
  const std::vector<core::StageBreakdown> batches(3, Batch(10, 80, 5, 5));
  const auto pipelined = ExecuteEmbedding(batches, 2);
  const auto serial_admit = ExecuteEmbedding(batches, 1);
  // With one buffer pair batch k+1's push waits for batch k's stage-2
  // end; the DPUs idle during every push.
  EXPECT_GT(serial_admit.MakespanNs(), pipelined.MakespanNs());
}

TEST(EmbeddingOnlyExecutorTest, Stage1PriorityKeepsDpusFed) {
  // Host has a long stage 3; the next batch's push must still happen
  // at the tie instant so the DPUs never wait on a pull.
  const std::vector<core::StageBreakdown> batches(3, Batch(10, 60, 30, 0));
  const auto exec = ExecuteEmbedding(batches);
  // s2 chain: [10, 70), [70, 130), [130, 190): batch 2's push (cut at
  // batch 0's s2 end, t = 70) wins the tie against batch 0's pull.
  EXPECT_DOUBLE_EQ(exec.batches()[1].s2_start_ns, 70.0);
  EXPECT_DOUBLE_EQ(exec.batches()[2].s1_start_ns, 70.0);
  EXPECT_DOUBLE_EQ(exec.batches()[0].s3_start_ns, 80.0);
  EXPECT_DOUBLE_EQ(exec.batches()[2].s2_start_ns, 130.0);
}

// The acceptance contract between the estimator and the executor: for
// homogeneous DPU-bound batches (the regime the paper's workloads live
// in — stage 2 dominates), the two-resource estimate is a true lower
// bound of any schedule, and the executed double-buffered schedule
// lands within fill + drain of it.
TEST(EmbeddingOnlyExecutorTest,
     ExecutedMakespanMatchesBoundForHomogeneousBatches) {
  for (const std::size_t n : {1u, 2u, 3u, 10u, 64u}) {
    const std::vector<core::StageBreakdown> batches(n,
                                                    Batch(12, 90, 6, 4));
    const auto estimate = core::EstimatePipelinedEmbedding(batches);
    const auto exec = ExecuteEmbedding(batches);
    const Nanos fill = batches.front().cpu_to_dpu;
    const Nanos drain = batches.back().dpu_to_cpu +
                        batches.back().cpu_aggregate;
    EXPECT_GE(exec.MakespanNs(), estimate.pipelined_ns - 1e-9) << n;
    EXPECT_LE(exec.MakespanNs(),
              estimate.pipelined_ns + fill + drain + 1e-9)
        << n;
    // DPU-bound homogeneous is exactly the bound: fill + Σ s2 + drain.
    EXPECT_NEAR(exec.MakespanNs(), estimate.pipelined_ns, 1e-9) << n;
  }
}

TEST(EmbeddingOnlyExecutorTest, ExecutedRespectsTrueLowerBoundsOnMixedBatches) {
  const std::vector<core::StageBreakdown> batches = {
      Batch(10, 100, 5, 2), Batch(30, 10, 5, 1), Batch(20, 60, 15, 5),
      Batch(5, 40, 5, 0),   Batch(25, 80, 10, 3)};
  const auto exec = ExecuteEmbedding(batches);
  // Any schedule is bounded below by each serial resource and by the
  // fill + DPU chain + drain critical path.
  Nanos host = 0.0, dpu = 0.0;
  for (const auto& b : batches) {
    host += b.cpu_to_dpu + b.dpu_to_cpu + b.cpu_aggregate;
    dpu += b.dpu_lookup;
  }
  const Nanos fill = batches.front().cpu_to_dpu;
  const Nanos drain =
      batches.back().dpu_to_cpu + batches.back().cpu_aggregate;
  EXPECT_GE(exec.MakespanNs(), host);
  EXPECT_GE(exec.MakespanNs(), fill + dpu + drain);
  EXPECT_LE(exec.MakespanNs(), Serial(batches));
  // Resource accounting adds up.
  EXPECT_DOUBLE_EQ(exec.host_busy_ns(), host);
  EXPECT_DOUBLE_EQ(exec.dpu_busy_ns(), dpu);
}

// The zero-duration rule: an embedding-only batch completes at its
// stage-3 end even when the next batch's stage-1 push holds the host at
// that instant (its empty top task never waits for the host).
TEST(EmbeddingOnlyExecutorTest, CompletesAtStageThreeEndWhileNextPushRuns) {
  DataFlowExecutor ex(DataFlowPlan{});
  ex.Submit(BatchTaskCosts{.emb = Batch(10, 50, 10)}, 0.0);
  // Cut batch 1 exactly at batch 0's stage-3 end: its push wins the
  // host from t = 70 on.
  ex.Submit(BatchTaskCosts{.emb = Batch(20, 50, 10)}, 70.0);
  ex.Drain();
  const auto& b0 = ex.batches()[0];
  const auto& b1 = ex.batches()[1];
  EXPECT_DOUBLE_EQ(b0.s3_end_ns, 70.0);
  EXPECT_DOUBLE_EQ(b1.s1_start_ns, 70.0);
  EXPECT_DOUBLE_EQ(b1.s1_end_ns, 90.0);
  EXPECT_DOUBLE_EQ(b0.done_ns, 70.0);
  EXPECT_DOUBLE_EQ(b1.done_ns, b1.s3_end_ns);
  EXPECT_DOUBLE_EQ(ex.host_busy_ns(), 10.0 + 10.0 + 20.0 + 10.0);
}

// split = all bottom layers with a GPU top: the empty bottom-post task
// completes at the prefix end instead of queueing behind a busy host.
TEST(DataFlowExecutorTest, SplitAllBottomIsDoneAtPrefixEnd) {
  BatchTaskCosts c = CpuCosts();
  c.emb.dpu_lookup = 50.0;
  c.bottom_pre = 100.0;
  c.bottom_post = 0.0;
  c.top_gpu = 50.0;
  DataFlowPlan plan;
  plan.depth = 1;
  plan.bottom_split = 2;
  plan.top = Backend::kGpu;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Drain();
  const auto& b = ex.batches().front();
  // Host: S1 [0,100], BPRE [100,200], S3 [200,300] — the host is busy
  // with the pull when the prefix ends.
  EXPECT_DOUBLE_EQ(b.bpre_end_ns, 200.0);
  EXPECT_DOUBLE_EQ(b.s3_start_ns, 200.0);
  EXPECT_DOUBLE_EQ(b.bottom_done_ns, b.bpre_end_ns);
  EXPECT_DOUBLE_EQ(b.top_start_ns, 300.0);
}

TEST(DataFlowExecutorTest, SingleBatchCpuFlowSchedulesInOrder) {
  DataFlowPlan plan;
  plan.depth = 1;
  DataFlowExecutor ex(plan);
  ex.Submit(CpuCosts(), 0.0);
  ex.Drain();
  const ExecutedFlowBatch& b = ex.batches().front();
  // S1 [0,100] then S2 [100,300]; the host fills the DPU window with
  // the bottom stack [100,400]; S3 waits for both the host and the
  // lookup [400,500]; top closes the batch [500,600].
  EXPECT_DOUBLE_EQ(b.s1_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.s1_end_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.s2_start_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.s2_end_ns, 300.0);
  EXPECT_DOUBLE_EQ(b.bpost_start_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.bpost_end_ns, 400.0);
  EXPECT_DOUBLE_EQ(b.bottom_done_ns, 400.0);
  EXPECT_DOUBLE_EQ(b.s3_start_ns, 400.0);
  EXPECT_DOUBLE_EQ(b.s3_end_ns, 500.0);
  EXPECT_DOUBLE_EQ(b.top_start_ns, 500.0);
  EXPECT_DOUBLE_EQ(b.top_end_ns, 600.0);
  EXPECT_DOUBLE_EQ(b.done_ns, 600.0);
  EXPECT_DOUBLE_EQ(ex.MakespanNs(), 600.0);
  EXPECT_DOUBLE_EQ(ex.host_busy_ns(), 100.0 + 300.0 + 100.0 + 100.0);
  EXPECT_DOUBLE_EQ(ex.host_mlp_busy_ns(), 300.0 + 100.0);
  EXPECT_DOUBLE_EQ(ex.dpu_busy_ns(), 200.0);
  EXPECT_DOUBLE_EQ(ex.gpu_busy_ns(), 0.0);
}

TEST(DataFlowExecutorTest, DepthBoundsAdmission) {
  DataFlowPlan d1;
  d1.depth = 1;
  DataFlowExecutor serial(d1);
  EXPECT_DOUBLE_EQ(serial.NextAdmitTime(), 0.0);
  serial.Submit(CpuCosts(), 0.0);
  // One buffer pair: the next cut waits for this batch's stage 2.
  EXPECT_DOUBLE_EQ(serial.NextAdmitTime(),
                   serial.batches().front().s2_end_ns);

  DataFlowPlan d2;
  d2.depth = 2;
  DataFlowExecutor doubled(d2);
  doubled.Submit(CpuCosts(), 0.0);
  // Double buffering admits immediately after the previous cut.
  EXPECT_DOUBLE_EQ(doubled.NextAdmitTime(), 0.0);
  doubled.Submit(CpuCosts(), 10.0);
  EXPECT_DOUBLE_EQ(doubled.NextAdmitTime(),
                   std::max(10.0, doubled.batches()[0].s2_end_ns));
}

TEST(DataFlowExecutorTest, BottomOverlapsTheNextBatchWindow) {
  // Depth 2: batch 1's bottom stack should run while batch 0's lookup
  // still owns the DPUs — the asymmetric overlap the plans exist for.
  DataFlowPlan plan;
  plan.depth = 2;
  DataFlowExecutor ex(plan);
  BatchTaskCosts c = CpuCosts();
  c.bottom_post = 50.0;  // cheap enough to fit inside the DPU window
  ex.Submit(c, 0.0);
  ex.Submit(c, 100.0);
  ex.Drain();
  const auto& b0 = ex.batches()[0];
  const auto& b1 = ex.batches()[1];
  // Batch 1's S1 takes the host right at its cut (S1 outranks dense
  // work), then its bottom stack starts inside batch 0's S2 window.
  EXPECT_DOUBLE_EQ(b1.s1_start_ns, 100.0);
  EXPECT_LT(b1.bpost_start_ns, b0.s2_end_ns);
  // Batch order is preserved on the DPU resource.
  EXPECT_GE(b1.s2_start_ns, b0.s2_end_ns);
  // Both batches complete, in order.
  EXPECT_GE(b1.done_ns, b0.done_ns);
  EXPECT_DOUBLE_EQ(ex.MakespanNs(), b1.done_ns);
}

TEST(DataFlowExecutorTest, StageThreePreemptsQueuedBottomWork) {
  // S3 outranks bottom tasks at equal start instants: once the host
  // frees at the lookup's end, the pull runs before further dense work.
  BatchTaskCosts c = CpuCosts();
  c.bottom_pre = 120.0;
  c.bottom_post = 180.0;
  DataFlowPlan plan;
  plan.depth = 1;
  plan.bottom_split = 1;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Drain();
  const auto& b = ex.batches().front();
  // Host: S1 [0,100], BPRE [100,220], BPOST [220,400]; S3 becomes
  // ready at 300 mid-BPOST and must wait (non-preemptive) -> [400,500].
  EXPECT_DOUBLE_EQ(b.bpre_start_ns, 100.0);
  EXPECT_DOUBLE_EQ(b.bpre_end_ns, 220.0);
  EXPECT_DOUBLE_EQ(b.bpost_end_ns, 400.0);
  EXPECT_DOUBLE_EQ(b.s3_start_ns, 400.0);
  EXPECT_DOUBLE_EQ(b.top_start_ns, 500.0);
}

TEST(DataFlowExecutorTest, GpuBottomRunsOffHostAndInFifoOrder) {
  BatchTaskCosts c = CpuCosts();
  c.bottom_pre = 0.0;
  c.bottom_post = 0.0;
  c.bottom_gpu = 500.0;
  DataFlowPlan plan;
  plan.depth = 2;
  plan.bottom = Backend::kGpu;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Submit(c, 100.0);
  ex.Drain();
  const auto& b0 = ex.batches()[0];
  const auto& b1 = ex.batches()[1];
  // The offload starts at each batch's cut, FIFO on the GPU.
  EXPECT_DOUBLE_EQ(b0.bpre_start_ns, 0.0);
  EXPECT_DOUBLE_EQ(b0.bottom_done_ns, 500.0);
  EXPECT_DOUBLE_EQ(b1.bpre_start_ns, 500.0);  // queued behind batch 0
  EXPECT_DOUBLE_EQ(b1.bottom_done_ns, 1000.0);
  EXPECT_DOUBLE_EQ(ex.gpu_busy_ns(), 1000.0);
  // The host never ran dense bottom work; its MLP time is the tops.
  EXPECT_DOUBLE_EQ(ex.host_mlp_busy_ns(),
                   2.0 * (c.interact + c.top_mlp));
  // Tops wait for the (slow) GPU bottom.
  EXPECT_GE(b0.top_start_ns, b0.bottom_done_ns);
  EXPECT_GE(b1.top_start_ns, b1.bottom_done_ns);
}

TEST(DataFlowExecutorTest, GpuTopWaitsForPullAndBottom) {
  BatchTaskCosts c = CpuCosts();
  c.top_gpu = 250.0;
  DataFlowPlan plan;
  plan.depth = 2;
  plan.top = Backend::kGpu;
  DataFlowExecutor ex(plan);
  ex.Submit(c, 0.0);
  ex.Submit(c, 100.0);
  ex.Drain();
  for (const auto& b : ex.batches()) {
    EXPECT_GE(b.top_start_ns, b.s3_end_ns);
    EXPECT_GE(b.top_start_ns, b.bottom_done_ns);
    EXPECT_DOUBLE_EQ(b.top_end_ns - b.top_start_ns, 250.0);
  }
  // FIFO on the GPU resource.
  EXPECT_GE(ex.batches()[1].top_start_ns, ex.batches()[0].top_end_ns);
  EXPECT_DOUBLE_EQ(ex.gpu_busy_ns(), 500.0);
}

// Randomized loads across every backend mix, plus the zero-duration
// shapes (embedding-only, split = all): the executed schedule must
// satisfy the stage-ordering audit and never double-book a resource.
TEST(DataFlowExecutorTest, RandomLoadsKeepOrderingAndResourceInvariants) {
  enum class Shape { kFull, kSplitAll, kEmbeddingOnly };
  Rng rng(99);
  const Backend kinds[] = {Backend::kCpu, Backend::kGpu};
  for (const Shape shape :
       {Shape::kFull, Shape::kSplitAll, Shape::kEmbeddingOnly}) {
    for (const Backend bottom : kinds) {
      for (const Backend top : kinds) {
        // Zero-duration shapes keep the bottom stack on the host; the
        // embedding-only plan places nothing off it.
        if (shape != Shape::kFull && bottom == Backend::kGpu) continue;
        if (shape == Shape::kEmbeddingOnly && top == Backend::kGpu) continue;
        for (const std::uint32_t depth : {1u, 2u, 3u}) {
          DataFlowPlan plan;
          plan.depth = depth;
          plan.bottom_split = shape == Shape::kEmbeddingOnly ? 0 : 1;
          plan.bottom = bottom;
          plan.top = top;
          DataFlowExecutor ex(plan);
          Nanos cut = 0.0;
          Nanos embedding_host = 0.0;
          for (int b = 0; b < 40; ++b) {
            BatchTaskCosts c;
            c.emb.cpu_to_dpu = 10.0 + 90.0 * rng.NextDouble();
            c.emb.dpu_lookup = 50.0 + 300.0 * rng.NextDouble();
            c.emb.dpu_to_cpu = 5.0 + 50.0 * rng.NextDouble();
            c.emb.cpu_aggregate = 5.0 + 50.0 * rng.NextDouble();
            embedding_host +=
                c.emb.cpu_to_dpu + c.emb.dpu_to_cpu + c.emb.cpu_aggregate;
            if (shape == Shape::kEmbeddingOnly) {
              // No dense work at all.
            } else if (bottom == Backend::kCpu) {
              c.bottom_pre = 100.0 * rng.NextDouble();
              c.bottom_post =
                  shape == Shape::kSplitAll ? 0.0 : 100.0 * rng.NextDouble();
            } else {
              c.bottom_gpu = 50.0 + 200.0 * rng.NextDouble();
            }
            if (shape != Shape::kEmbeddingOnly) {
              c.interact = 20.0 * rng.NextDouble();
              c.top_mlp = 50.0 * rng.NextDouble();
            }
            if (top == Backend::kGpu) {
              c.top_gpu = 50.0 + 200.0 * rng.NextDouble();
            }
            cut = std::max(cut + 100.0 * rng.NextDouble(),
                           ex.NextAdmitTime());
            ex.Submit(c, cut);
          }
          ex.Drain();

          check::CheckReport report;
          std::vector<std::pair<Nanos, Nanos>> host, dpu, gpu;
          // Zero-length tasks take no resource time, so only non-empty
          // intervals can double-book one.
          const auto busy = [](std::vector<std::pair<Nanos, Nanos>>& on,
                               Nanos start, Nanos end) {
            if (end > start) on.emplace_back(start, end);
          };
          for (std::size_t i = 0; i < ex.batches().size(); ++i) {
            const ExecutedFlowBatch& b = ex.batches()[i];
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
            check::AuditStageOrdering(i, t, &report);

            busy(host, b.s1_start_ns, b.s1_end_ns);
            busy(host, b.s3_start_ns, b.s3_end_ns);
            busy(dpu, b.s2_start_ns, b.s2_end_ns);
            if (bottom == Backend::kCpu) {
              busy(host, b.bpre_start_ns, b.bpre_end_ns);
              busy(host, b.bpost_start_ns, b.bpost_end_ns);
            } else {
              busy(gpu, b.bpre_start_ns, b.bpre_end_ns);
            }
            if (top == Backend::kCpu) {
              busy(host, b.top_start_ns, b.top_end_ns);
            } else {
              busy(gpu, b.top_start_ns, b.top_end_ns);
            }
            if (shape == Shape::kEmbeddingOnly) {
              EXPECT_EQ(b.done_ns, b.s3_end_ns) << Name(plan) << " batch " << i;
            }
            if (shape == Shape::kSplitAll) {
              EXPECT_EQ(b.bottom_done_ns, b.bpre_end_ns)
                  << Name(plan) << " batch " << i;
            }
          }
          if (shape == Shape::kEmbeddingOnly) {
            EXPECT_NEAR(ex.host_busy_ns(), embedding_host,
                        1e-9 * embedding_host)
                << Name(plan);
            EXPECT_EQ(ex.host_mlp_busy_ns(), 0.0) << Name(plan);
          }
          EXPECT_TRUE(report.clean())
              << Name(plan) << ": " << report.ToString();
          for (auto* intervals : {&host, &dpu, &gpu}) {
            std::sort(intervals->begin(), intervals->end());
            for (std::size_t i = 1; i < intervals->size(); ++i) {
              EXPECT_LE((*intervals)[i - 1].second,
                        (*intervals)[i].first + 1e-6)
                  << Name(plan) << ": resource double-booked";
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace updlrm::pipeline
