// The repository benchmark binary.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--threads=2] [--trace-out=PATH] [--fault=wrong-output]
//
// Runs one workload (workloads.cc) through the public serving path and
// prints, as its last line, one JSON object with the end-to-end
// metrics (--trace=0) or the per-layer metrics (--trace=1), the
// correctness gate's verdict and the request accounting. run.py wraps
// it into the benchmark's result line; README.md lists every metric.
//
// Traffic is an open loop in simulated time generated up front by one
// process; arrival timestamps are exact, so generator lateness is 0 by
// construction. Simulated metrics repeat exactly at a fixed seed and
// host width. Host-clock metrics are wall times of the layer calls.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "capacity.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "gate.h"
#include "spans.h"
#include "telemetry/trace_export.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr double kSearchTolerance = 0.0025;
// Fewest repeats of the fixed-rate runs in one measuring window.
constexpr std::size_t kMinPasses = 3;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Process CPU seconds, all threads: unlike wall time it leaves out the
// time other tenants of a shared host take from this process.
double CpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Ordered metric map, printed as one JSON object.
using Metrics = std::vector<std::pair<std::string, double>>;

std::string Json(const Metrics& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].second);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": " + buf;
  }
  return out + "}";
}

// Per-DPU counters of every DPU the deployment drives.
std::vector<pim::DpuStats> SnapshotDpus(const Deployment& d) {
  std::vector<pim::DpuStats> out;
  const auto add = [&out](const pim::DpuSystem& system) {
    for (std::uint32_t i = 0; i < system.num_dpus(); ++i) {
      out.push_back(system.dpu(i).stats());
    }
  };
  if (d.engine != nullptr) {
    add(d.engine->dpu_system());
  } else {
    for (std::uint32_t s = 0; s < d.fleet->num_shards(); ++s) {
      add(d.fleet->shard(s).dpu_system());
    }
  }
  return out;
}

// pim::SummarizeStats's totals and shares over the counters one serve
// run added (the summary itself only reads a whole system's lifetime).
struct DpuWindow {
  double kernel_imbalance = 0.0;  // max / mean per-DPU kernel cycles
  double mram_bytes = 0.0;
  double index_bytes = 0.0;
  double cache_read_share = 0.0;
  double wram_hit_share = 0.0;
  double dedup_saved_share = 0.0;
};

DpuWindow Window(const std::vector<pim::DpuStats>& before,
                 const std::vector<pim::DpuStats>& after) {
  DpuWindow w;
  double max_cycles = 0.0, sum_cycles = 0.0;
  double lookups = 0.0, cache = 0.0, wram = 0.0, saved = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double cycles =
        static_cast<double>(after[i].kernel_cycles - before[i].kernel_cycles);
    max_cycles = std::max(max_cycles, cycles);
    sum_cycles += cycles;
    lookups += static_cast<double>(after[i].lookups - before[i].lookups);
    cache += static_cast<double>(after[i].cache_reads - before[i].cache_reads);
    wram += static_cast<double>(after[i].wram_hits - before[i].wram_hits);
    saved += static_cast<double>(after[i].dedup_saved_reads -
                                 before[i].dedup_saved_reads);
    w.mram_bytes += static_cast<double>(after[i].mram_bytes_read -
                                        before[i].mram_bytes_read);
    w.index_bytes += static_cast<double>(after[i].index_bytes_pushed -
                                         before[i].index_bytes_pushed);
  }
  const double mean = sum_cycles / static_cast<double>(after.size());
  w.kernel_imbalance = mean > 0.0 ? max_cycles / mean : 0.0;
  const double reads = lookups + cache;
  w.cache_read_share = reads > 0.0 ? cache / reads : 0.0;
  w.wram_hit_share = reads + wram > 0.0 ? wram / (reads + wram) : 0.0;
  w.dedup_saved_share =
      reads + wram + saved > 0.0 ? saved / (reads + wram + saved) : 0.0;
  return w;
}

// Placed cache lists over every engine of the deployment.
double PlacedCacheLists(const Deployment& d) {
  std::size_t lists = 0;
  const auto add = [&lists](const core::UpDlrmEngine& engine) {
    for (const core::TableGroup& g : engine.groups()) {
      lists += g.list_offset.size();
    }
  };
  if (d.engine != nullptr) {
    add(*d.engine);
  } else {
    for (std::uint32_t s = 0; s < d.fleet->num_shards(); ++s) {
      add(d.fleet->shard(s));
    }
  }
  return static_cast<double>(lists);
}

// Share of contacted (request, table, shard) triples whose shard holds
// at least one of the request's rows of that table, and the access
// mass the plan tiered to host DRAM. Every request contacts every
// shard for every table.
std::pair<double, double> FanoutShares(const Deployment& d) {
  const partition::TierShardingPlan& plan = d.fleet->tier_plan();
  const trace::Trace& trace = d.inputs->trace;
  const std::uint32_t shards = d.fleet->num_shards();
  std::vector<std::uint8_t> hit(shards);
  double useful = 0.0, dram = 0.0, total = 0.0;
  for (std::uint32_t t = 0; t < trace.num_tables(); ++t) {
    const partition::TableTierPlan& table = plan.tables[t];
    for (std::size_t s = 0; s < trace.num_samples(); ++s) {
      std::fill(hit.begin(), hit.end(), 0);
      for (const std::uint32_t row : trace.tables[t].Sample(s)) {
        const std::uint32_t owner = table.owner[row];
        if (owner != partition::kHostDramShard) hit[owner] = 1;
      }
      for (const std::uint8_t h : hit) useful += h;
    }
    dram += static_cast<double>(table.dram_accesses);
    total += static_cast<double>(table.total_accesses);
  }
  const double contacted = static_cast<double>(trace.num_samples()) *
                           trace.num_tables() * shards;
  return {useful / contacted, total > 0.0 ? dram / total : 0.0};
}

// Simulated requests served and the host CPU seconds they took.
struct HostMeter {
  std::uint64_t requests = 0;
  double cpu_s = 0.0;

  ServeRun Serve(Deployment& d, double qps, std::uint64_t seed) {
    const double start = CpuSeconds();
    ServeRun run = perfbench::Serve(d, qps, seed);
    cpu_s += CpuSeconds() - start;
    requests += run.offered;
    return run;
  }
};

struct Pass {
  ServeRun low, high;
  LoadPoint low_point, high_point;
  DpuWindow dpu;
};

Pass ServeFixedRates(Deployment& d, std::uint64_t seed, Gate& gate,
                     HostMeter& meter) {
  const WorkloadSpec& spec = *d.spec;
  const Nanos limit = spec.p99_limit_us * 1e3;
  Pass pass;
  pass.low = meter.Serve(d, spec.low_qps, seed);
  const std::vector<pim::DpuStats> before = SnapshotDpus(d);
  pass.high = meter.Serve(d, spec.high_qps, seed);
  pass.dpu = Window(before, SnapshotDpus(d));
  CheckRun(pass.low, spec.name + std::string(" low"), gate);
  CheckRun(pass.high, spec.name + std::string(" high"), gate);
  pass.low_point = EvaluatePoint(pass.low, limit);
  pass.high_point = EvaluatePoint(pass.high, limit);
  return pass;
}

// Steady-state batch and request statistics of the `high` run.
void AddLayerMetrics(const Deployment& d, const Pass& pass, Metrics& m) {
  const ServeRun& run = pass.high;
  std::map<std::string, std::vector<double>> per_batch;
  for (std::size_t b = kWarmupBatches; b < run.ScheduledBatches(); ++b) {
    const BatchParts p = run.Parts(b);
    per_batch["pim.push_us"].push_back(p.push_ns * 1e-3);
    per_batch["pim.kernel_us"].push_back(p.kernel_ns * 1e-3);
    per_batch["pim.pull_us"].push_back(p.pull_ns * 1e-3);
    per_batch["updlrm.aggregate_us"].push_back(p.aggregate_ns * 1e-3);
    per_batch["pipeline.bottom_us"].push_back(p.bottom_ns * 1e-3);
    per_batch["pipeline.top_us"].push_back(p.top_ns * 1e-3);
    per_batch["scaleout.merge_us"].push_back(
        d.fleet != nullptr ? p.aggregate_ns * 1e-3 : 0.0);
  }
  std::vector<std::uint32_t> batch_of;
  if (AssignBatches(run, batch_of)) {
    for (std::size_t i = 0; i < batch_of.size(); ++i) {
      if (batch_of[i] < kWarmupBatches) continue;
      const BatchParts p = run.Parts(batch_of[i]);
      per_batch["serve.queue_wait_us"].push_back(
          (p.cut_ns - run.arrival_ns[i]) * 1e-3);
      per_batch["serve.buffer_wait_us"].push_back(p.buffer_wait_ns * 1e-3);
    }
  }
  for (const char* name :
       {"pim.push_us", "pim.pull_us", "updlrm.aggregate_us", "pim.kernel_us",
        "serve.queue_wait_us", "serve.buffer_wait_us", "pipeline.bottom_us",
        "pipeline.top_us", "scaleout.merge_us"}) {
    std::vector<double>& v = per_batch[name];
    std::sort(v.begin(), v.end());
    m.emplace_back(std::string(name) + ".p50", Percentile(v, 50.0));
    m.emplace_back(std::string(name) + ".p99", Percentile(v, 99.0));
  }
  const double requests = static_cast<double>(run.completed);
  m.emplace_back("pim.kernel_imbalance", pass.dpu.kernel_imbalance);
  m.emplace_back("pim.mram_bytes_per_req", pass.dpu.mram_bytes / requests);
  m.emplace_back("pim.index_bytes_per_req", pass.dpu.index_bytes / requests);
  m.emplace_back("pim.wram_hit_share", pass.dpu.wram_hit_share);
  m.emplace_back("pim.dedup_saved_share", pass.dpu.dedup_saved_share);
  m.emplace_back("cache.lists", PlacedCacheLists(d));
  m.emplace_back("cache.read_share", pass.dpu.cache_read_share);
  m.emplace_back("serve.batch_size_mean", pass.low.avg_batch_size);
  m.emplace_back("serve.shed",
                 static_cast<double>(pass.low.shed + pass.high.shed));
  m.emplace_back("serve.samples.low",
                 static_cast<double>(pass.low_point.steady_requests));
  m.emplace_back("serve.samples.high",
                 static_cast<double>(pass.high_point.steady_requests));
  m.emplace_back("serve.host_util", run.utilization.HostUtilization());
  m.emplace_back("serve.dpu_util", run.utilization.DpuUtilization());
  m.emplace_back("pipeline.host_mlp_util",
                 run.utilization.HostMlpUtilization());
  m.emplace_back("pipeline.gpu_util", run.utilization.GpuUtilization());
  const auto [useful, dram] =
      d.fleet != nullptr ? FanoutShares(d) : std::pair<double, double>{0, 0};
  m.emplace_back("scaleout.useful_fanout_share", useful);
  m.emplace_back("scaleout.dram_share", dram);
}

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint32_t threads = 2;
  std::string trace_out;
  Fault fault = Fault::kNone;
};

int Run(const Options& opt) {
  const WorkloadSpec& spec = *opt.spec;
  ThreadPool::SetDefaultThreads(opt.threads);
  Gate gate;
  Metrics e2e, layers, info;

  const Clock::time_point generate_start = Clock::now();
  const bench::Workload inputs = GenerateInputs(spec, opt.seed);
  const double generate_s = SecondsSince(generate_start);

  // Outputs first: a wrong output fails the run whatever its speed.
  const FunctionalResult functional =
      CheckFunctionalSlice(spec, opt.seed, gate, opt.fault);

  std::uint64_t attempted = functional.outputs;
  std::uint64_t failed = functional.wrong;
  std::vector<double> setup_walls;
  std::unique_ptr<Deployment> d;
  const auto set_up = [&] {
    d.reset();  // one deployment alive at a time
    const Clock::time_point start = Clock::now();
    d = Deploy(spec, inputs, opt.seed);
    setup_walls.push_back(SecondsSince(start));
  };

  if (!opt.trace) {
    for (int i = 0; i < kSetups; ++i) set_up();
    const Clock::time_point measure_start = Clock::now();
    const Nanos limit = spec.p99_limit_us * 1e3;
    HostMeter meter;
    const SearchResult search = FindMaxQps(
        spec.search_lo_qps, spec.search_hi_qps, kSearchTolerance,
        [&](double qps) {
          const ServeRun run = meter.Serve(*d, qps, opt.seed);
          CheckRun(run, spec.name + std::string(" search"), gate);
          return EvaluatePoint(run, limit);
        });
    gate.Expect(!search.censored, "max_qps is censored at the search ceiling");
    gate.Expect(!search.floor_failed, "the search floor misses the limit");
    const Pass first = ServeFixedRates(*d, opt.seed, gate, meter);
    std::size_t passes = 1;
    // Repeat the fixed-rate runs for the rest of the measuring time:
    // they time the host, and must reproduce the simulation exactly.
    for (; passes < kMinPasses || SecondsSince(measure_start) < opt.seconds;
         ++passes) {
      const Pass again = ServeFixedRates(*d, opt.seed, gate, meter);
      gate.Expect(SameSimulation(again.low, first.low) &&
                      SameSimulation(again.high, first.high),
                  "a repeated serve run changed its simulated results");
    }
    attempted += first.low.offered + first.high.offered;
    failed += first.low.shed + first.high.shed;
    gate.Expect(first.low_point.meets_limit && first.high_point.meets_limit,
                "a fixed-rate point misses the p99 limit");

    e2e.emplace_back("max_qps", search.max_qps);
    e2e.emplace_back("p50_us.low", first.low_point.p50_ns * 1e-3);
    e2e.emplace_back("p99_us.low", first.low_point.p99_ns * 1e-3);
    e2e.emplace_back("p50_us.high", first.high_point.p50_ns * 1e-3);
    e2e.emplace_back("p99_us.high", first.high_point.p99_ns * 1e-3);
    e2e.emplace_back("served_frac",
                     1.0 - static_cast<double>(failed) /
                               static_cast<double>(attempted));
    e2e.emplace_back("setup_s", Median(setup_walls));
    e2e.emplace_back("sim_req_per_s",
                     static_cast<double>(meter.requests) / meter.cpu_s);
    e2e.emplace_back("peak_rss_mb", PeakRssMb());
    info.emplace_back("censored", search.censored ? 1.0 : 0.0);
    info.emplace_back("search_probes", static_cast<double>(search.probes.size()));
    info.emplace_back("samples.low",
                      static_cast<double>(first.low_point.steady_requests));
    info.emplace_back("samples.high",
                      static_cast<double>(first.high_point.steady_requests));
    info.emplace_back("measure_passes", static_cast<double>(passes));
    info.emplace_back("serve_runs_cpu_s", meter.cpu_s);
    info.emplace_back("trace.generate_s", generate_s);
  } else {
    // Untraced, then the same work traced: the per-layer numbers come
    // from the traced run, its cost from the difference.
    const auto work = [&] {
      const double start = CpuSeconds();
      set_up();
      HostMeter meter;
      Pass pass = ServeFixedRates(*d, opt.seed, gate, meter);
      return std::make_pair(CpuSeconds() - start, std::move(pass));
    };
    const auto [untraced_s, untraced] = work();
    telemetry::TracerOptions tracer_options;
    tracer_options.buffer_capacity = std::size_t{1} << 19;
    tracer_options.sample_every = 64;
    telemetry::Tracer& tracer = telemetry::Tracer::Get();
    tracer.Enable(tracer_options);
    const auto [traced_s, traced] = work();
    tracer.Disable();
    const std::vector<telemetry::TraceEvent> events = tracer.Snapshot();
    const SelfTimes self = ComputeSelfTimes(events);
    gate.Expect(self.balanced && tracer.dropped_events() == 0,
                "the traced run dropped or unbalanced spans");
    gate.Expect(SameSimulation(traced.low, untraced.low) &&
                    SameSimulation(traced.high, untraced.high),
                "tracing changed the simulated results");
    if (!opt.trace_out.empty()) {
      // The host-clock track only: every serve run (the tuner's too)
      // restarts the simulated clock at 0, so simulated-clock events of
      // several runs do not form one timeline.
      std::vector<telemetry::TraceEvent> host;
      for (const telemetry::TraceEvent& e : events) {
        if (e.pid == telemetry::kHostPid) host.push_back(e);
      }
      std::ofstream out(opt.trace_out, std::ios::trunc);
      out << telemetry::ToChromeTraceJson(tracer, host);
      gate.Expect(out.good(), "cannot write " + opt.trace_out);
    }
    attempted += untraced.low.offered + untraced.high.offered;
    failed += untraced.low.shed + untraced.high.shed;

    const auto self_s = [&self](const char* name) {
      const auto it = self.seconds.find(name);
      return it == self.seconds.end() ? 0.0 : it->second;
    };
    layers.emplace_back("trace.generate_s", generate_s);
    for (const char* name : {"trace.profile", "cache.mine", "updlrm.create",
                             "scaleout.create", "updlrm.calibrate",
                             "pipeline.tune"}) {
      layers.emplace_back(std::string(name) + "_s", self_s(name));
    }
    layers.emplace_back(
        "serve.host_ns_per_req",
        self_s("serve.run") * 1e9 /
            static_cast<double>(traced.low.offered + traced.high.offered));
    layers.emplace_back("trace_overhead_frac", traced_s / untraced_s - 1.0);
    AddLayerMetrics(*d, untraced, layers);
    info.emplace_back("trace.spans", static_cast<double>(self.spans));
    info.emplace_back("trace.events", static_cast<double>(events.size()));
    info.emplace_back("trace.sampled_out",
                      static_cast<double>(tracer.sampled_out_events()));
    info.emplace_back("untraced_s", untraced_s);
    info.emplace_back("traced_s", traced_s);
  }

  std::string messages = "[";
  for (std::size_t i = 0; i < gate.messages().size(); ++i) {
    messages += (i == 0 ? "\"" : ", \"") + gate.messages()[i] + "\"";
  }
  messages += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"checks\": %llu, "
      "\"violations\": %llu, \"messages\": %s, \"e2e\": %s, "
      "\"layers\": %s, \"info\": %s}\n",
      spec.name, static_cast<unsigned long long>(opt.seed),
      gate.ok() && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(gate.checks()),
      static_cast<unsigned long long>(gate.violations()), messages.c_str(),
      Json(e2e).c_str(), Json(layers).c_str(), Json(info).c_str());
  return gate.ok() && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  auto cli = updlrm::CommandLine::Parse(argc, argv);
  if (!cli.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", cli.status().ToString().c_str());
    return 2;
  }
  Options opt;
  opt.spec = FindWorkload(cli->GetString("workload", ""));
  opt.seed = static_cast<std::uint64_t>(cli->GetInt("seed", 1));
  opt.seconds = static_cast<double>(cli->GetInt("seconds", 10));
  opt.trace = cli->GetInt("trace", 0) != 0;
  opt.threads = static_cast<std::uint32_t>(cli->GetInt("threads", 2));
  opt.trace_out = cli->GetString("trace-out", "");
  const std::string fault = cli->GetString("fault", "");
  opt.fault = fault == "wrong-output" ? Fault::kWrongOutput : Fault::kNone;
  if (opt.spec == nullptr || opt.threads == 0 || !cli->UnusedFlags().empty() ||
      (!fault.empty() && opt.fault == Fault::kNone)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=clo-dlrm|read2-burst|"
                 "clo-fleet16 --seed=N --seconds=S --trace=0|1 "
                 "[--threads=N] [--trace-out=PATH] [--fault=wrong-output]\n");
    return 2;
  }
  return Run(opt);
}
