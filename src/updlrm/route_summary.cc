#include "updlrm/route_summary.h"

#include <algorithm>
#include <limits>

namespace updlrm::core {

bool CanSummarizeRoutes(const TableGroup& group,
                        const trace::TableTrace& trace) {
  return group.replica_slot.empty() &&
         group.plan.geom.row_shards <= RouteSummary::kMaxBins &&
         trace.num_lookups() <= std::numeric_limits<std::uint32_t>::max();
}

RouteSummary BuildRouteSummary(const TableGroup& group,
                               const trace::TableTrace& trace) {
  UPDLRM_CHECK(CanSummarizeRoutes(group, trace));
  constexpr std::uint32_t kKinds = 3;
  const std::uint32_t* route = group.plan.RouteWords().data();
  const bool has_wram = !group.wram_cached.empty();

  // Per-sample scratch: counts[bin * kKinds + kind], the keys touched in
  // first-touch order, and the cache lists the sample touched (a list
  // costs one read whatever its subset mask).
  std::vector<std::uint32_t> counts(
      static_cast<std::size_t>(group.plan.geom.row_shards) * kKinds, 0);
  std::vector<std::uint32_t> touched;
  std::vector<std::uint8_t> list_touched(group.plan.cache.lists.size(), 0);
  std::vector<std::uint32_t> touched_lists;
  auto add = [&](std::uint32_t bin, RouteKind kind) {
    const std::uint32_t key = bin * kKinds + static_cast<std::uint32_t>(kind);
    if (counts[key]++ == 0) touched.push_back(key);
  };

  RouteSummary summary;
  summary.sample_begin.reserve(trace.num_samples() + 1);
  summary.sample_begin.push_back(0);
  for (std::size_t s = 0; s < trace.num_samples(); ++s) {
    const std::span<const std::uint32_t> sample = trace.Sample(s);
    for (std::size_t k = 0; k < sample.size(); ++k) {
      if (k + kRoutePrefetch < sample.size()) {
        __builtin_prefetch(route + sample[k + kRoutePrefetch]);
      }
      const std::uint32_t idx = sample[k];
      const std::uint32_t word = route[idx];
      if (partition::IsListRoute(word)) {
        const std::uint32_t l = partition::RouteList(word);
        if (list_touched[l] == 0) {
          list_touched[l] = 1;
          touched_lists.push_back(l);
        }
      } else {
        add(word, has_wram && group.wram_cached[idx] ? RouteKind::kWram
                                                     : RouteKind::kEmt);
      }
    }
    for (const std::uint32_t l : touched_lists) {
      list_touched[l] = 0;
      add(static_cast<std::uint32_t>(group.plan.list_bin[l]),
          RouteKind::kCache);
    }
    touched_lists.clear();
    for (const std::uint32_t key : touched) {
      const std::uint32_t bin = key / kKinds;
      const auto kind = static_cast<RouteKind>(key % kKinds);
      for (std::uint32_t left = counts[key]; left > 0;) {
        const std::uint32_t n = std::min(left, RouteSummary::kMaxEntryCount);
        summary.entries.push_back(RouteSummary::Pack(bin, kind, n));
        left -= n;
      }
      counts[key] = 0;
    }
    touched.clear();
    summary.sample_begin.push_back(
        static_cast<std::uint32_t>(summary.entries.size()));
  }
  summary.entries.shrink_to_fit();
  return summary;
}

}  // namespace updlrm::core
