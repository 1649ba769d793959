// Extension (§6 future work): UpDLRM-G, the DPU-GPU heterogeneous
// system, priced by the data-flow executor.
//
// Embeddings stay on the DPUs. The GPU plan (gpu-gpu) offloads the
// bottom MLP beside the embedding stages and runs interaction + top MLP
// on the device after the pull; the CPU plan (cpu-cpu) keeps every
// dense stage on the host. Each cell serves a closed stream — every
// request arrives at t=0 and the batcher blocks instead of shedding —
// through pipeline::RunDataFlowSimulation, and reports makespan per
// batch under both fixed plans and under the data-flow tuner's pick.
// With compact MLPs the PCIe/launch/sync overheads exceed the CPU's
// MLP time — the same effect that sinks DLRM-Hybrid — so the sweep over
// batch size and MLP width locates the crossover where the GPU side
// starts paying off.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "pipeline/runner.h"
#include "pipeline/tuner.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Extension: UpDLRM vs UpDLRM-G (DPU embeddings + GPU MLPs) "
      "==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);

  auto spec = trace::FindDataset("read");
  UPDLRM_CHECK(spec.ok());

  struct MlpShape {
    const char* name;
    std::vector<std::uint32_t> bottom;
    std::vector<std::uint32_t> top;
  };
  const MlpShape shapes[] = {
      {"compact (64-32 / 96-64)", {64, 32}, {96, 64}},
      {"production (512-256-64 / 1024-512-256)",
       {512, 256, 64},
       {1024, 512, 256}},
  };
  // Every cell serves the batch count of the requested scale (--samples
  // / --batch), so cells differ only in batch size and MLP width. The
  // trace depends on the batch size only; each shape reuses it.
  const std::size_t num_batches =
      std::max<std::size_t>(1, scale.num_samples / scale.batch_size);
  const std::size_t batch_sizes[] = {64, 256, 1024};
  std::vector<bench::Workload> workloads;
  for (const std::size_t batch : batch_sizes) {
    bench::BenchScale run_scale = scale;
    run_scale.num_samples = batch * num_batches;
    workloads.push_back(bench::PrepareWorkload(*spec, run_scale));
  }

  pipeline::DataFlowPlan cpu_plan;  // d2.split0.cpu-cpu
  pipeline::DataFlowPlan gpu_plan;  // d2.split0.gpu-gpu
  gpu_plan.bottom = pipeline::Backend::kGpu;
  gpu_plan.top = pipeline::Backend::kGpu;

  TablePrinter out({"MLP stack", "batch", "cpu-cpu (ms/batch)",
                    "gpu-gpu (ms/batch)", "winner", "tuned plan",
                    "tuned (ms/batch)"});
  for (const MlpShape& shape : shapes) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const std::size_t batch = batch_sizes[i];
      const bench::Workload& w = workloads[i];
      dlrm::DlrmConfig config = w.config;
      config.bottom_hidden = shape.bottom;
      config.top_hidden = shape.top;
      core::EngineOptions engine_options = bench::PaperEngineOptions(
          partition::Method::kNonUniform, 8, scale);
      engine_options.batch_size = batch;

      auto system = bench::MakePaperSystem();
      auto engine = core::UpDlrmEngine::Create(nullptr, config, w.trace,
                                               system.get(), engine_options);
      UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

      std::vector<serve::Request> requests(w.trace.num_samples());
      for (std::size_t r = 0; r < requests.size(); ++r) {
        requests[r] = serve::Request{r, r, 0.0};
      }
      serve::BatcherOptions batcher;
      batcher.max_batch_size = batch;
      batcher.max_queue_delay_ns = 0.0;
      batcher.policy = serve::AdmissionPolicy::kBlock;

      const auto ms_per_batch = [&](const pipeline::DataFlowPlan& plan) {
        pipeline::DataFlowServeOptions options;
        options.batcher = batcher;
        options.plan = plan;
        auto run = pipeline::RunDataFlowSimulation(**engine, requests,
                                                   nullptr, options);
        UPDLRM_CHECK_MSG(run.ok(), run.status().ToString());
        UPDLRM_CHECK(run->shed == 0 && run->num_batches > 0);
        return run->makespan_ns / static_cast<double>(run->num_batches) /
               1e6;
      };
      const double t_cpu = ms_per_batch(cpu_plan);
      const double t_gpu = ms_per_batch(gpu_plan);
      auto tuned = pipeline::DataFlowTuner(pipeline::TunerOptions{})
                       .Tune(**engine, requests, batcher);
      UPDLRM_CHECK_MSG(tuned.ok(), tuned.status().ToString());
      out.AddRow({shape.name, std::to_string(batch),
                  TablePrinter::Fmt(t_cpu, 3), TablePrinter::Fmt(t_gpu, 3),
                  t_cpu < t_gpu ? "cpu-cpu" : "gpu-gpu",
                  pipeline::Name(tuned->best),
                  TablePrinter::Fmt(ms_per_batch(tuned->best), 3)});
    }
  }
  out.Print(std::cout);
  std::printf(
      "\nms/batch = simulated makespan / batches of a closed stream "
      "(every request at t=0, blocking batcher). expected: CPU-side "
      "MLPs win with compact stacks (PCIe + sync overheads dominate at "
      "the paper's batch 64, as for DLRM-Hybrid; the gap closes as the "
      "batch grows); the GPU side pays off for production-width "
      "stacks\n");
  return 0;
}
