#include "partition/cache_aware.h"

#include <algorithm>
#include <limits>

#include "trace/profiler.h"

namespace updlrm::partition {

Result<CacheAwareResult> CacheAwarePartition(
    const GroupGeometry& geom, std::span<const std::uint64_t> freq,
    const cache::CacheRes& cache_res, const CacheAwareOptions& options) {
  if (freq.size() != geom.table.rows) {
    return Status::InvalidArgument("freq must have one entry per table row");
  }
  UPDLRM_RETURN_IF_ERROR(cache_res.Validate(geom.table.rows));
  if (!options.order.empty() && options.order.size() != freq.size()) {
    return Status::InvalidArgument(
        "order hint must have one entry per table row");
  }

  const std::uint32_t bins = geom.row_shards;
  const std::uint32_t row_bytes = geom.row_bytes();
  const std::uint64_t emt_row_capacity =
      options.capacity.emt_bytes / row_bytes;

  CacheAwareResult result;
  PartitionPlan& plan = result.plan;
  plan.geom = geom;
  plan.method = Method::kCacheAware;
  plan.row_bin.assign(geom.table.rows, 0);

  // part_count: effective (post-caching) access load per bin. Signed —
  // line 10's benefit subtraction can transiently go negative for lists
  // whose cached hits dominate.
  std::vector<double> part_count(bins, 0.0);
  std::vector<std::uint64_t> cache_used(bins, 0);
  std::vector<std::uint64_t> emt_rows(bins, 0);

  // Lines 4-10: place each cache list (cache_res is benefit-sorted) on
  // the least-loaded bin with room in its cache region.
  for (const auto& list : cache_res.lists) {
    const std::uint64_t need = list.StorageBytes(row_bytes);
    std::int64_t best = -1;
    for (std::uint32_t b = 0; b < bins; ++b) {
      if (cache_used[b] + need > options.capacity.cache_bytes) continue;
      if (best < 0 || part_count[b] < part_count[best]) best = b;
    }
    if (best < 0) {
      if (!options.drop_unplaceable_lists) {
        return Status::CapacityExceeded(
            "cache list of " + std::to_string(need) +
            " bytes fits no bin's cache region");
      }
      ++result.dropped_lists;
      continue;  // items fall through to the EMT pass below
    }
    const auto bin = static_cast<std::uint32_t>(best);
    plan.cache.lists.push_back(list);
    plan.list_bin.push_back(static_cast<std::int32_t>(bin));
    cache_used[bin] += need;
    for (std::uint32_t item : list.items) {
      plan.row_bin[item] = bin;
      part_count[bin] += static_cast<double>(freq[item]);
    }
    part_count[bin] -= list.benefit;  // line 10
  }

  // List words are final here; the pass below fills every other row's
  // bin into row_bin and its route word together.
  UPDLRM_RETURN_IF_ERROR(plan.BuildRoute());

  // Lines 11-15: uncached items, most frequent first, to the bin with
  // the lowest effective load and EMT capacity left.
  std::vector<std::uint32_t> computed_order;
  if (options.order.empty()) computed_order = trace::ItemsByFrequency(freq);
  const std::span<const std::uint32_t> order =
      options.order.empty() ? std::span<const std::uint32_t>(computed_order)
                            : options.order;
  for (std::uint32_t row : order) {
    if (plan.ListOf(row) >= 0) continue;  // cache hit: already placed
    std::int64_t best = -1;
    for (std::uint32_t b = 0; b < bins; ++b) {
      if (emt_rows[b] >= emt_row_capacity) continue;
      if (best < 0 || part_count[b] < part_count[best] ||
          (part_count[b] == part_count[best] &&
           emt_rows[b] < emt_rows[best])) {
        best = b;
      }
    }
    if (best < 0) {
      return Status::CapacityExceeded(
          "EMT regions full: row " + std::to_string(row) + " fits nowhere");
    }
    const auto bin = static_cast<std::uint32_t>(best);
    plan.row_bin[row] = bin;
    if (!plan.route.empty()) plan.route[row] = bin;
    part_count[bin] += static_cast<double>(freq[row]);
    ++emt_rows[bin];
  }

  return result;
}

}  // namespace updlrm::partition
