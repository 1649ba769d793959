#include "partition/metrics.h"

#include <numeric>

#include "common/stats.h"

namespace updlrm::partition {

LoadReport ReplayLoads(const trace::TableTrace& table,
                       const PartitionPlan& plan) {
  const std::uint32_t bins = plan.geom.row_shards;
  LoadReport report;
  report.emt_reads.assign(bins, 0);
  report.cache_reads.assign(bins, 0);
  report.uncached_reads = table.num_lookups();

  const bool cached = plan.has_cache();
  std::vector<bool> list_hit(plan.cache.lists.size(), false);
  std::vector<std::uint32_t> touched;
  for (std::size_t s = 0; s < table.num_samples(); ++s) {
    touched.clear();
    for (std::uint32_t idx : table.Sample(s)) {
      UPDLRM_CHECK(idx < plan.row_bin.size());
      const std::int32_t l = cached ? plan.ListOf(idx) : -1;
      if (l >= 0) {
        if (!list_hit[l]) {
          list_hit[l] = true;
          touched.push_back(static_cast<std::uint32_t>(l));
        }
      } else {
        ++report.emt_reads[plan.row_bin[idx]];
      }
    }
    // Any nonempty intersection with a cached list is one MRAM read of
    // the matching subset partial sum.
    for (std::uint32_t l : touched) {
      ++report.cache_reads[plan.list_bin[l]];
      list_hit[l] = false;
    }
  }

  report.total_reads.assign(bins, 0);
  for (std::uint32_t b = 0; b < bins; ++b) {
    report.total_reads[b] = report.emt_reads[b] + report.cache_reads[b];
    report.sum_reads += report.total_reads[b];
  }

  const std::vector<double> loads = ToDoubles(report.total_reads);
  report.imbalance = ImbalanceRatio(loads);
  report.cv = CoefficientOfVariation(loads);
  report.max_min_ratio = MaxMinRatio(loads);
  return report;
}

}  // namespace updlrm::partition
