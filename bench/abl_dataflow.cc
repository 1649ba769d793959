// Ablation: the asymmetric data-flow auto-tuner vs every static plan.
//
// The end-to-end pipeline has a placement/overlap decision per
// (workload, batch size): pipeline depth, bottom-MLP split point, and
// CPU-vs-GPU backend for the dense stages. This bench runs the tuner
// in full-calibration mode (every enumerated candidate measured with a
// real simulated serving run, not just the predicted short list) on
// two Table 1 workloads and verifies the headline claim: the tuned
// flow's p99 is <= every static candidate's p99 on each dataset. It
// also reports how well the analytic predictor ranked the field.
//
// Exits non-zero if any static plan beats the tuner's pick. Emits
// BENCH_dataflow.json (per workload: the winner plus every candidate's
// predicted score and measured p99). Under --check the data-flow
// audits (plan shape, MRAM capacity-vs-depth, stage ordering) ride
// along on every calibration run and any violation aborts the bench.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "common/table.h"
#include "pipeline/runner.h"
#include "pipeline/tuner.h"

int main(int argc, char** argv) {
  using namespace updlrm;
  std::printf(
      "== Ablation: data-flow auto-tuning vs static stage placement "
      "(CA, full calibration) ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  bench::HostTimer timer("abl_dataflow", scale);

  auto arrival = serve::ParseArrivalProcess(scale.arrival);
  UPDLRM_CHECK_MSG(arrival.ok(), arrival.status().ToString());

  TablePrinter out({"workload", "plan", "predicted (us)", "p99 (us)",
                    "vs tuned", "verdict"});
  std::ostringstream entries;
  bool first_entry = true;

  // Two qualitatively different datasets: "clo" is nearly balanced
  // with mild skew, "home" is hotter with heavier reduction — enough
  // to move the host/DPU slack the overlap decision depends on.
  for (const std::size_t wi : {0u, 1u}) {
    const auto& spec = trace::Table1Workloads()[wi];
    timer.BeginPhase("setup");
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    auto system = bench::MakePaperSystem();
    auto engine = core::UpDlrmEngine::Create(
        nullptr, w.config, w.trace, system.get(),
        bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                  scale));
    UPDLRM_CHECK_MSG(engine.ok(), engine.status().ToString());

    // Capacity calibration, as in serve_latency: the offered stream
    // runs at 1.0x the embedding pipeline's steady-state capacity.
    timer.BeginPhase("calibrate");
    const bench::Calibration cal =
        bench::Calibrate(**engine, scale.batch_size);

    serve::ArrivalOptions arrivals;
    arrivals.process = *arrival;
    arrivals.qps = cal.capacity_qps;
    arrivals.seed = scale.seed + 1;
    auto requests = serve::GenerateRequests(w.trace, 0, arrivals);
    UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());

    timer.BeginPhase("tune");
    pipeline::TunerOptions tuner_options;
    tuner_options.calibrate_top_n = 0;  // measure every candidate
    pipeline::DataFlowTuner tuner(tuner_options);
    auto tuned = tuner.Tune(**engine, *requests, cal.batcher);
    UPDLRM_CHECK_MSG(tuned.ok(), tuned.status().ToString());

    // Under --check, replay the winner with the audits attached: one
    // clean full-path run gates shape + capacity + ordering.
    if (scale.check) {
      timer.BeginPhase("check");
      check::CheckReport audit;
      pipeline::DataFlowServeOptions options;
      options.batcher = cal.batcher;
      options.plan = tuned->best;
      options.num_threads = scale.threads;
      options.audit = &audit;
      auto replay = pipeline::RunDataFlowSimulation(**engine, *requests,
                                                    nullptr, options);
      UPDLRM_CHECK_MSG(replay.ok(), replay.status().ToString());
      if (audit.clean()) {
        std::printf("# check[%s-dataflow]: clean (0 violations)\n",
                    spec.name.c_str());
      } else {
        std::printf("# check[%s-dataflow]: %s", spec.name.c_str(),
                    audit.ToString().c_str());
        UPDLRM_CHECK_MSG(false,
                         "data-flow audits reported violations");
      }
      bench::AssertChecksClean(**engine, spec.name);
    }

    // The headline gate: no static plan beats the tuned pick.
    std::size_t beaten_by = 0;
    std::ostringstream candidates;
    for (const auto& c : tuned->candidates) {
      UPDLRM_CHECK_MSG(c.calibrated,
                       "full calibration left a candidate unmeasured");
      const bool is_best = c.plan == tuned->best;
      if (c.measured_p99_ns < tuned->best_p99_ns) ++beaten_by;
      out.AddRow(
          {spec.name, pipeline::Name(c.plan),
           TablePrinter::Fmt(NanosToMicros(c.predicted_ns), 1),
           TablePrinter::Fmt(NanosToMicros(c.measured_p99_ns), 1),
           TablePrinter::FmtSpeedup(c.measured_p99_ns /
                                    tuned->best_p99_ns),
           is_best ? "tuned" : ""});
      if (candidates.tellp() > 0) candidates << ",\n";
      candidates << "      {\"plan\": \"" << pipeline::Name(c.plan)
                 << "\", \"predicted_us\": "
                 << NanosToMicros(c.predicted_ns)
                 << ", \"p99_us\": "
                 << NanosToMicros(c.measured_p99_ns) << "}";
    }
    UPDLRM_CHECK_MSG(beaten_by == 0,
                     "a static data flow beat the tuned plan on " +
                         spec.name);
    std::printf("# %s: tuned %s holds p99 <= all %zu static plans at "
                "%.0f qps\n",
                spec.name.c_str(), pipeline::Name(tuned->best).c_str(),
                tuned->candidates.size(), cal.capacity_qps);

    if (!first_entry) entries << ",\n";
    first_entry = false;
    entries << "    \"" << spec.name << "\": {\"tuned\": \""
            << pipeline::Name(tuned->best)
            << "\", \"p99_us\": " << NanosToMicros(tuned->best_p99_ns)
            << ", \"offered_qps\": " << cal.capacity_qps
            << ",\n     \"candidates\": [\n"
            << candidates.str() << "\n    ]}";
  }
  out.Print(std::cout);

  std::ofstream json("BENCH_dataflow.json", std::ios::trunc);
  json << "{\n  \"batch_size\": " << scale.batch_size
       << ",\n  \"arrival\": \"" << scale.arrival
       << "\",\n  \"workloads\": {\n"
       << entries.str() << "\n  }\n}\n";
  std::printf(
      "\nevery enumerated data flow was calibrated with a real "
      "simulated serving run at 1.0x embedding capacity; 'vs tuned' = "
      "candidate p99 / tuned p99 (>= 1.00x everywhere is the tuner's "
      "dominance claim) -> BENCH_dataflow.json\n");
  return 0;
}
