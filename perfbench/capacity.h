// Steady-state load points and the capacity search over them.
//
// A load point is one serve run at an absolute offered rate. Its
// latency statistics skip the pipeline-fill warm-up batches and use
// exact order statistics of the remaining per-request latencies. The
// point meets the workload's limit when nothing was shed, the
// steady-state p99 is within the limit, enough steady-state batches
// were measured, and the backlog is not growing.
//
// max_qps is found by bisection on the absolute offered rate (in log
// space) between a fixed floor and ceiling. A point at the ceiling
// that still meets the limit means the bound was not found: the result
// is marked censored and the run fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "workloads.h"

namespace perfbench {

/// Pipeline-fill batches excluded from every steady-state statistic.
inline constexpr std::size_t kWarmupBatches = 8;
/// Fewest steady-state batches a point needs to be judged.
inline constexpr std::size_t kMinSteadyBatches = 50;

/// Nearest-rank percentile of `sorted` (ascending), p in [0, 100].
double Percentile(const std::vector<double>& sorted, double p);

struct LoadPoint {
  double offered_qps = 0.0;
  std::uint64_t shed = 0;
  std::size_t steady_batches = 0;
  std::size_t steady_requests = 0;
  Nanos p50_ns = 0.0;
  Nanos p99_ns = 0.0;
  /// Mean latency of the first and last third of the steady requests.
  Nanos head_mean_ns = 0.0;
  Nanos tail_mean_ns = 0.0;
  bool growing_backlog = false;
  bool meets_limit = false;
};

/// Maps each completed request (completion order) to its batch. With
/// nothing shed, the i-th completion is the i-th arrival, and its
/// completion instant arrival + latency equals its batch's done time.
/// Returns false when that mapping does not hold.
bool AssignBatches(const ServeRun& run, std::vector<std::uint32_t>& batch_of);

/// Judges one serve run against `p99_limit_ns`.
LoadPoint EvaluatePoint(const ServeRun& run, Nanos p99_limit_ns);

struct SearchResult {
  double max_qps = 0.0;
  bool censored = false;      // the ceiling met the limit
  bool floor_failed = false;  // even the floor missed the limit
  std::vector<LoadPoint> probes;
};

/// Bisects on the offered rate in [lo_qps, hi_qps] until the bracket is
/// within `rel_tol`; `probe(qps)` serves one point. max_qps is the
/// highest rate that met the limit.
SearchResult FindMaxQps(double lo_qps, double hi_qps, double rel_tol,
                        const std::function<LoadPoint(double)>& probe);

}  // namespace perfbench
