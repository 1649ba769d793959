// Fleet scale-out: sustainable throughput and tail latency as the DPU
// fleet grows from the paper's 256-DPU testbed to 1024 and 4096 DPUs.
//
// Two scale-out shapes per partitioning method:
//
//   replicate — the fleet is replicas x the Table 2 system, each
//     replica holding a full model copy and serving a thinned slice of
//     the request stream. Replica 0 shares the front-end host; every
//     other replica's ranks live on a remote host and pay cross-host
//     ingress on pushes and pulls (pim/topology.h), so scaling is
//     near-linear rather than free.
//   shard (CA only) — one ShardedEngine spreads every table's rows
//     across the same rank groups via the statistical tiering plan
//     (partition/tiering.h, RecShard-style CDF split with a host-DRAM
//     cold tier) and merges partials through the priced reduction
//     tree. Sharding shrinks per-shard capacity pressure, not pull
//     bytes, so its throughput curve is the contrast to the replicate
//     rows.
//
// Per fleet size the bench calibrates pipeline capacity offline, sweeps
// offered load, and reports the highest load whose p99 holds a
// 3x-batch-time SLO with nothing shed. Emits BENCH_scaleout.json with
// one entry per fleet size per method (max_sustainable_qps + p99 at
// capacity). --dpus/--ranks resize one replica/shard slice (the CI
// smoke runs a small fleet); --check gates every engine on the
// hardware-contract + fleet auditors; --trace-out and --health-out
// capture one representative run (the largest CA-shard fleet on the
// first workload at 1.0x capacity).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "serve/server.h"
#include "updlrm/scaleout.h"

namespace {

using namespace updlrm;

constexpr std::uint32_t kReplicaCounts[] = {1, 4, 16};
constexpr double kLoadFactors[] = {0.6, 0.8, 1.0, 1.2};

// Serves `engine` at every load factor x its own capacity. With
// `representative`, the 1.0x-capacity run is the one --trace-out and
// --health-out capture: each run restarts the simulated clock at 0, so
// one file holds exactly one run. Monitor units are global DPU ids —
// dpus_per_rank consecutive units per rank, one system's DPUs per
// shard.
std::vector<serve::SloReport> Sweep(core::EmbeddingEngine& engine,
                                    const bench::Workload& w,
                                    const bench::BenchScale& scale,
                                    serve::ArrivalProcess process,
                                    const bench::Calibration& cal,
                                    Nanos slo_ns,
                                    bool representative = false) {
  std::vector<serve::SloReport> points;
  for (const double load : kLoadFactors) {
    const double qps = load * cal.capacity_qps;
    serve::ArrivalOptions arrivals;
    arrivals.process = process;
    arrivals.qps = qps;
    arrivals.seed = scale.seed + 1;
    auto requests = serve::GenerateRequests(w.trace, 0, arrivals);
    UPDLRM_CHECK_MSG(requests.ok(), requests.status().ToString());
    serve::ServeOptions options;
    options.batcher = cal.batcher;
    std::optional<bench::TraceSession> trace_session;
    std::unique_ptr<telemetry::FleetMonitor> monitor;
    if (representative && load == 1.0) {
      trace_session.emplace(scale);
      const pim::DpuSystem& slice = engine.system(0);
      monitor = bench::MakeFleetMonitor(w, scale, slo_ns,
                                        slice.config().dpus_per_rank,
                                        slice.num_dpus());
      options.monitor = monitor.get();
    }
    auto result = serve::RunServeSimulation(engine, *requests, options);
    UPDLRM_CHECK_MSG(result.ok(), result.status().ToString());
    // Health first so its counters land inside the open trace.
    bench::WriteHealthArtifacts(monitor.get(), scale);
    trace_session.reset();  // write + validate the trace, if tracing
    points.push_back(result->MakeSloReport(qps, slo_ns));
  }
  return points;
}

struct FleetResult {
  double max_sustainable_qps = 0.0;
  Nanos p99_at_capacity_ns = 0.0;
};

// Combines one local + (replicas - 1) remote replicas: aggregate
// offered load splits in proportion to each replica's own capacity, so
// fleet p99 is the slower replica's p99 and anything either replica
// sheds counts against the fleet. One engine alone is replicas = 1.
FleetResult CombineReplicas(const std::vector<serve::SloReport>& local,
                            const std::vector<serve::SloReport>& remote,
                            std::uint32_t replicas, double cap_local,
                            double cap_remote, Nanos slo_ns) {
  std::vector<serve::RatePoint> points;
  FleetResult out;
  const double cap_fleet =
      cap_local + static_cast<double>(replicas - 1) * cap_remote;
  for (std::size_t i = 0; i < local.size(); ++i) {
    const double qps = kLoadFactors[i] * cap_fleet;
    Nanos p99 = local[i].p99_ns;
    std::uint64_t shed = local[i].shed;
    if (replicas > 1) {
      p99 = std::max(p99, remote[i].p99_ns);
      shed += (replicas - 1) * remote[i].shed;
    }
    points.push_back(serve::RatePoint{qps, p99, shed});
    if (kLoadFactors[i] == 1.0) out.p99_at_capacity_ns = p99;
  }
  out.max_sustainable_qps = serve::MaxSustainableQps(points, slo_ns);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "== Fleet scale-out: sustainable QPS and p99 at 1x/4x/16x the "
      "Table 2 system ==\n\n");
  const bench::BenchScale scale = bench::ParseScale(argc, argv);
  bench::HostTimer timer("fig12_scaleout", scale);
  auto arrival = serve::ParseArrivalProcess(scale.arrival);
  UPDLRM_CHECK_MSG(arrival.ok(), arrival.status().ToString());

  const pim::DpuSystemConfig base = bench::MakePaperSystemConfig(scale);
  const std::uint32_t base_ranks = base.num_dpus / base.dpus_per_rank;
  std::printf("# fleet slice: %u DPUs in %u rank(s); fleets swept: "
              "%u / %u / %u DPUs\n\n",
              base.num_dpus, base_ranks, base.num_dpus,
              4 * base.num_dpus, 16 * base.num_dpus);

  TablePrinter out({"workload", "method", "dpus", "max qps", "p99 (us)",
                    "vs 1x"});
  std::ostringstream json_workloads;
  bool first_workload = true;

  for (const std::size_t wi : {std::size_t{0}, std::size_t{4}}) {
    const trace::DatasetSpec& spec = trace::Table1Workloads()[wi];
    timer.BeginPhase("setup");
    const bench::Workload w = bench::PrepareWorkload(spec, scale);
    Nanos slo_ns = 0.0;  // 3x the uniform local replica's batch time

    // methods["U"|"NU"|"CA"|"CA-shard"][fleet index]
    std::vector<std::pair<std::string, std::vector<FleetResult>>> methods;

    for (const partition::Method method :
         {partition::Method::kUniform, partition::Method::kNonUniform,
          partition::Method::kCacheAware}) {
      timer.BeginPhase("replicate");
      const std::string name(partition::MethodShortName(method));
      // Local replica: the front-end host's own rank group.
      auto local_system = pim::DpuSystem::Create(base);
      UPDLRM_CHECK_MSG(local_system.ok(),
                       local_system.status().ToString());
      auto local = core::UpDlrmEngine::Create(
          nullptr, w.config, w.trace, local_system->get(),
          bench::PaperEngineOptions(method, 0, scale));
      UPDLRM_CHECK_MSG(local.ok(), local.status().ToString());
      const bench::Calibration cal_local =
          bench::Calibrate(**local, scale.batch_size);
      if (slo_ns == 0.0) slo_ns = 3.0 * cal_local.batch_total;

      // Remote replica: same slice, ranks owned by another host — every
      // push/pull additionally pays the cross-host hop.
      pim::DpuSystemConfig remote_cfg = base;
      remote_cfg.topology.ranks_per_host = base_ranks;
      remote_cfg.topology.host_offset = 1;
      auto remote_system = pim::DpuSystem::Create(remote_cfg);
      UPDLRM_CHECK_MSG(remote_system.ok(),
                       remote_system.status().ToString());
      auto remote = core::UpDlrmEngine::Create(
          nullptr, w.config, w.trace, remote_system->get(),
          bench::PaperEngineOptions(method, 0, scale));
      UPDLRM_CHECK_MSG(remote.ok(), remote.status().ToString());
      const bench::Calibration cal_remote =
          bench::Calibrate(**remote, scale.batch_size);

      const auto points_local =
          Sweep(**local, w, scale, *arrival, cal_local, slo_ns);
      const auto points_remote =
          Sweep(**remote, w, scale, *arrival, cal_remote, slo_ns);
      bench::AssertChecksClean(**local, spec.name + "/" + name + "/local");
      bench::AssertChecksClean(**remote,
                               spec.name + "/" + name + "/remote");

      std::vector<FleetResult> fleets;
      for (const std::uint32_t replicas : kReplicaCounts) {
        fleets.push_back(CombineReplicas(
            points_local, points_remote, replicas,
            cal_local.capacity_qps, cal_remote.capacity_qps, slo_ns));
      }
      methods.emplace_back(name, std::move(fleets));
    }

    // Sharded contrast: one model spread across the same rank groups
    // (shard 0 local, the rest remote), cold tail in host DRAM.
    {
      timer.BeginPhase("shard");
      std::vector<FleetResult> fleets;
      for (const std::uint32_t shards : kReplicaCounts) {
        core::ShardedEngineConfig fleet;
        fleet.shard_system = base;
        fleet.tiering.num_shards = shards;
        fleet.tiering.dram_epsilon = 0.02;
        fleet.fleet_topology.ranks_per_host = base_ranks;
        auto sharded = core::ShardedEngine::Create(
            nullptr, w.config, w.trace, fleet,
            bench::PaperEngineOptions(partition::Method::kCacheAware, 0,
                                      scale));
        UPDLRM_CHECK_MSG(sharded.ok(), sharded.status().ToString());
        const bench::Calibration cal =
            bench::Calibrate(**sharded, scale.batch_size);
        // The representative run: the largest CA-shard fleet on the
        // first workload (the configuration with the most units and the
        // reduction tree in play).
        const bool representative =
            wi == 0 &&
            shards == kReplicaCounts[std::size(kReplicaCounts) - 1];
        const auto points = Sweep(**sharded, w, scale, *arrival, cal,
                                  slo_ns, representative);
        bench::AssertChecksClean(**sharded,
                                 spec.name + "/CA-shard/" +
                                     std::to_string(shards));
        fleets.push_back(
            CombineReplicas(points, points, 1, cal.capacity_qps,
                            cal.capacity_qps, slo_ns));
      }
      methods.emplace_back("CA-shard", std::move(fleets));
    }

    // Table rows + JSON.
    std::ostringstream json_fleets;
    for (std::size_t fi = 0; fi < std::size(kReplicaCounts); ++fi) {
      const std::uint32_t dpus = kReplicaCounts[fi] * base.num_dpus;
      json_fleets << (fi > 0 ? ",\n" : "") << "      {\"dpus\": " << dpus
                  << ", \"replicas\": " << kReplicaCounts[fi]
                  << ", \"methods\": {";
      for (std::size_t mi = 0; mi < methods.size(); ++mi) {
        const auto& [name, fleets] = methods[mi];
        const FleetResult& r = fleets[fi];
        const double base_qps = fleets[0].max_sustainable_qps;
        out.AddRow({spec.name, name, std::to_string(dpus),
                    TablePrinter::Fmt(r.max_sustainable_qps, 0),
                    TablePrinter::Fmt(
                        NanosToMicros(r.p99_at_capacity_ns), 1),
                    TablePrinter::Fmt(
                        base_qps > 0.0
                            ? r.max_sustainable_qps / base_qps
                            : 0.0,
                        2) + "x"});
        json_fleets << (mi > 0 ? ", " : "") << "\"" << name
                    << "\": {\"max_sustainable_qps\": "
                    << r.max_sustainable_qps << ", \"p99_us\": "
                    << NanosToMicros(r.p99_at_capacity_ns) << "}";
      }
      json_fleets << "}}";
    }
    json_workloads << (first_workload ? "" : ",\n") << "    \""
                   << spec.name << "\": {\"slo_us\": "
                   << NanosToMicros(slo_ns) << ", \"fleets\": [\n"
                   << json_fleets.str() << "\n    ]}";
    first_workload = false;
  }
  out.Print(std::cout);

  std::ofstream json("BENCH_scaleout.json", std::ios::trunc);
  json << "{\n  \"batch_size\": " << scale.batch_size
       << ",\n  \"slice_dpus\": " << base.num_dpus
       << ",\n  \"fleet_dpus\": [" << base.num_dpus << ", "
       << 4 * base.num_dpus << ", " << 16 * base.num_dpus
       << "],\n  \"workloads\": {\n"
       << json_workloads.str() << "\n  }\n}\n";
  std::printf(
      "\nmax sustainable QPS = highest swept load with p99 <= 3x the "
      "uniform local replica's batch time and nothing shed; replicate "
      "rows aggregate one local + N-1 remote replicas, CA-shard rows "
      "spread one model across the fleet -> BENCH_scaleout.json\n");
  return 0;
}
