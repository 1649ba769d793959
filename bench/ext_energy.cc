// Extension (§2.3 motivation): energy per inference across the four
// Table-2 systems.
//
// The paper motivates PIM with UPMEM's reported TCO/energy advantages
// (up to 60% energy reduction). This bench combines the timing results
// with the host/energy model: each component draws active power while
// busy and idle power for the rest of the batch window. Component busy
// times are taken from the per-system cost breakdowns (CPU busy during
// gathers/MLPs/transfer orchestration, GPU during dense compute and
// PCIe, DPU ranks during stage-2 kernels).
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "common/table.h"
#include "host/energy.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf("== Extension: energy per inference (mJ) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  const host::EnergyModel energy;

  TablePrinter out({"workload", "DLRM-CPU", "DLRM-Hybrid", "FAE",
                    "UpDLRM", "UpDLRM vs CPU"});
  for (const auto& spec : trace::Table1Workloads()) {
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    const auto batches = static_cast<double>(
        trace::MakeBatches(scale.num_samples, scale.batch_size).size());

    // DLRM-CPU: the host is busy for the entire window.
    const baselines::DlrmCpu cpu(w.config, w.trace);
    const auto cpu_report = cpu.RunAll(scale.batch_size);
    host::ComponentActivity cpu_activity;
    cpu_activity.window_ns = cpu_report.total / batches;
    cpu_activity.cpu_busy_ns = cpu_activity.window_ns;
    const double mj_cpu =
        energy.MillijoulesPerInference(cpu_activity, scale.batch_size);

    // DLRM-Hybrid: CPU busy during gathers, GPU during MLPs + PCIe.
    const baselines::DlrmHybrid hybrid(w.config, w.trace);
    const auto hy = hybrid.RunAll(scale.batch_size);
    host::ComponentActivity hy_activity;
    hy_activity.window_ns = hy.total / batches;
    hy_activity.cpu_busy_ns = (hy.embedding + hy.transfer) / batches;
    hy_activity.has_gpu = true;
    hy_activity.gpu_busy_ns = (hy.dense_compute + hy.transfer) / batches;
    const double mj_hybrid =
        energy.MillijoulesPerInference(hy_activity, scale.batch_size);

    // FAE: like the hybrid, with the GPU also gathering hot rows.
    auto fae = baselines::Fae::Create(w.config, w.trace,
                                      bench::PaperFaeOptions());
    UPDLRM_CHECK(fae.ok());
    const auto fr = (*fae)->RunAll(scale.batch_size);
    host::ComponentActivity fae_activity;
    fae_activity.window_ns = fr.total / batches;
    fae_activity.cpu_busy_ns = fr.embedding / batches;
    fae_activity.has_gpu = true;
    fae_activity.gpu_busy_ns =
        (fr.dense_compute + fr.transfer) / batches;
    const double mj_fae =
        energy.MillijoulesPerInference(fae_activity, scale.batch_size);

    // UpDLRM: CPU orchestrates transfers/aggregation/MLPs; the DPU
    // ranks are busy during stage 2.
    auto system = bench::MakePaperSystem();
    auto engine = core::UpDlrmEngine::Create(
        nullptr, w.config, w.trace, system.get(),
        bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                  scale));
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());
    auto up = (*engine)->RunAll(nullptr);
    UPDLRM_CHECK(up.ok());
    host::ComponentActivity up_activity;
    up_activity.window_ns = up->total / batches;
    up_activity.cpu_busy_ns =
        (up->stages.cpu_to_dpu + up->stages.dpu_to_cpu +
         up->stages.cpu_aggregate + up->bottom_mlp + up->interaction_top) /
        batches;
    up_activity.dpu_busy_ns = up->stages.dpu_lookup / batches;
    up_activity.dpu_ranks = system->num_ranks();
    const double mj_up =
        energy.MillijoulesPerInference(up_activity, scale.batch_size);

    std::string saving = "-";
    saving += TablePrinter::FmtPercent(1.0 - mj_up / mj_cpu, 0);
    out.AddRow({spec.name, TablePrinter::Fmt(mj_cpu, 2),
                TablePrinter::Fmt(mj_hybrid, 2),
                TablePrinter::Fmt(mj_fae, 2),
                TablePrinter::Fmt(mj_up, 2), saving});
  }
  out.Print(std::cout);
  std::printf(
      "\nUPMEM's technical material (cited in §2.3) projects up to ~60%% "
      "energy reduction for PIM offload; the saving here comes from the "
      "shorter batch window plus idle CPU time during stage 2\n");
  return 0;
}
