#include "capacity.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

bool SameInstant(Nanos a, Nanos b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b)) + 1e-3;
}

double Mean(const std::vector<double>& v, std::size_t begin,
            std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += v[i];
  return end > begin ? sum / static_cast<double>(end - begin) : 0.0;
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

bool AssignBatches(const ServeRun& run, std::vector<std::uint32_t>& batch_of) {
  batch_of.clear();
  if (run.shed != 0 || run.request_latency_ns.size() != run.arrival_ns.size()) {
    return false;
  }
  const std::size_t batches = run.ScheduledBatches();
  std::size_t b = 0;
  std::size_t in_batch = 0;
  for (std::size_t i = 0; i < run.request_latency_ns.size(); ++i) {
    const Nanos done = run.arrival_ns[i] + run.request_latency_ns[i];
    while (b < batches && !SameInstant(done, run.Parts(b).done_ns)) {
      if (in_batch == 0) return false;  // a batch with no request
      ++b;
      in_batch = 0;
    }
    if (b == batches) return false;
    batch_of.push_back(static_cast<std::uint32_t>(b));
    ++in_batch;
  }
  return batches > 0 && b + 1 == batches && in_batch > 0;
}

LoadPoint EvaluatePoint(const ServeRun& run, Nanos p99_limit_ns) {
  LoadPoint point;
  point.offered_qps = run.offered_qps;
  point.shed = run.shed;
  std::vector<std::uint32_t> batch_of;
  if (!AssignBatches(run, batch_of)) return point;  // shed, or unmappable

  std::vector<double> steady;  // completion order
  steady.reserve(batch_of.size());
  for (std::size_t i = 0; i < batch_of.size(); ++i) {
    if (batch_of[i] >= kWarmupBatches) {
      steady.push_back(run.request_latency_ns[i]);
    }
  }
  const std::size_t batches = run.ScheduledBatches();
  point.steady_batches = batches > kWarmupBatches ? batches - kWarmupBatches : 0;
  point.steady_requests = steady.size();
  const std::size_t third = steady.size() / 3;
  point.head_mean_ns = Mean(steady, 0, third);
  point.tail_mean_ns = Mean(steady, steady.size() - third, steady.size());
  // A stationary queue keeps the two means close; a backlog that grows
  // for the whole run makes the last third wait visibly longer.
  point.growing_backlog =
      point.tail_mean_ns > 1.25 * point.head_mean_ns &&
      point.tail_mean_ns - point.head_mean_ns > 0.1 * p99_limit_ns;
  std::sort(steady.begin(), steady.end());
  point.p50_ns = Percentile(steady, 50.0);
  point.p99_ns = Percentile(steady, 99.0);
  point.meets_limit = point.steady_batches >= kMinSteadyBatches &&
                      !point.growing_backlog && point.p99_ns <= p99_limit_ns;
  return point;
}

SearchResult FindMaxQps(double lo_qps, double hi_qps, double rel_tol,
                        const std::function<LoadPoint(double)>& probe) {
  SearchResult result;
  const auto meets = [&](double qps) {
    result.probes.push_back(probe(qps));
    return result.probes.back().meets_limit;
  };
  if (meets(hi_qps)) {
    result.max_qps = hi_qps;
    result.censored = true;
    return result;
  }
  if (!meets(lo_qps)) {
    result.floor_failed = true;
    return result;
  }
  double lo = lo_qps;  // meets the limit
  double hi = hi_qps;  // misses it
  while (hi - lo > rel_tol * lo) {
    const double mid = std::sqrt(lo * hi);
    (meets(mid) ? lo : hi) = mid;
  }
  result.max_qps = lo;
  return result;
}

}  // namespace perfbench
