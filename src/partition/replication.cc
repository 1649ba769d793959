#include "partition/replication.h"

#include <algorithm>

#include "trace/profiler.h"

namespace updlrm::partition {

Result<std::size_t> ApplyReplication(PartitionPlan& plan,
                                     std::span<const std::uint64_t> freq,
                                     std::uint32_t top_k,
                                     std::span<const std::uint32_t> order_hint) {
  if (freq.size() != plan.geom.table.rows) {
    return Status::InvalidArgument("freq must have one entry per row");
  }
  if (!order_hint.empty() && order_hint.size() != freq.size()) {
    return Status::InvalidArgument(
        "order hint must have one entry per table row");
  }
  plan.replicated_rows.clear();
  if (top_k == 0) return std::size_t{0};

  std::vector<std::uint32_t> computed_order;
  if (order_hint.empty()) computed_order = trace::ItemsByFrequency(freq);
  const std::span<const std::uint32_t> order =
      order_hint.empty() ? std::span<const std::uint32_t>(computed_order)
                         : order_hint;
  plan.replicated_rows.reserve(top_k);
  for (std::uint32_t row : order) {
    if (plan.replicated_rows.size() >= top_k) break;
    if (freq[row] == 0) break;  // order is descending: all zero from here
    if (plan.ListOf(row) >= 0) continue;  // cached rows: one read already
    plan.replicated_rows.push_back(row);
  }
  std::sort(plan.replicated_rows.begin(), plan.replicated_rows.end());
  return plan.replicated_rows.size();
}

}  // namespace updlrm::partition
