#include "partition/tiering.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace updlrm::partition {

Status TieringOptions::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (num_shards >= kHostDramShard) {
    return Status::InvalidArgument("num_shards collides with the DRAM owner");
  }
  if (dram_epsilon < 0.0 || dram_epsilon > 1.0) {
    return Status::InvalidArgument("dram_epsilon must be in [0, 1]");
  }
  return Status::Ok();
}

double TierShardingPlan::MaxShardImbalance() const {
  double worst = 1.0;
  for (const TableTierPlan& t : tables) {
    std::uint64_t pim_mass = 0;
    std::uint64_t max_mass = 0;
    for (const std::uint64_t m : t.shard_accesses) {
      pim_mass += m;
      max_mass = std::max(max_mass, m);
    }
    if (pim_mass == 0) continue;
    const double mean = static_cast<double>(pim_mass) /
                        static_cast<double>(t.shard_accesses.size());
    worst = std::max(worst, static_cast<double>(max_mass) / mean);
  }
  return worst;
}

namespace {

TableTierPlan PlanTable(const trace::TableProfile& profile,
                        const TieringOptions& options) {
  const std::size_t rows = profile.freq.size();
  const std::uint32_t shards = options.num_shards;
  TableTierPlan plan;
  plan.owner.assign(rows, kHostDramShard);
  plan.local.assign(rows, 0);
  plan.shard_rows.assign(shards, 0);
  plan.shard_accesses.assign(shards, 0);
  for (const std::uint64_t f : profile.freq) plan.total_accesses += f;

  // Tier split: walk the access CDF from the cold end. Zero-frequency
  // rows spill for free unless pinned; accessed rows spill while the
  // cumulative spilled mass stays within epsilon of the total. by_freq
  // is descending with ties by ascending id, so the reverse walk (and
  // therefore the whole plan) is deterministic.
  std::vector<bool> spilled(rows, false);
  const double budget =
      options.dram_epsilon * static_cast<double>(plan.total_accesses);
  std::uint64_t spilled_mass = 0;
  for (std::size_t i = profile.by_freq.size(); i-- > 0;) {
    const std::uint32_t r = profile.by_freq[i];
    const std::uint64_t f = profile.freq[r];
    if (f == 0) {
      if (!options.keep_zero_freq_on_pim) spilled[r] = true;
      continue;
    }
    if (static_cast<double>(spilled_mass + f) > budget) break;
    spilled_mass += f;
    spilled[r] = true;
  }

  // Shard the PIM tier: hottest rows first, each onto the least-loaded
  // shard (by access mass, then row count, then shard id), so shards
  // receive near-equal slices of the access mass. Only the chosen
  // shard's key changes, so a heap keyed (mass, rows, id) yields that
  // shard in O(log shards). A full shard (row capacity) leaves the
  // heap for good; once every shard is full the remaining rows spill to
  // DRAM — capacity is physical, epsilon is a quality target.
  const auto later = [&plan](std::uint32_t a, std::uint32_t b) {
    return std::tie(plan.shard_accesses[a], plan.shard_rows[a], a) >
           std::tie(plan.shard_accesses[b], plan.shard_rows[b], b);
  };
  std::vector<std::uint32_t> heap(shards);
  std::iota(heap.begin(), heap.end(), 0U);
  for (const std::uint32_t r : profile.by_freq) {
    if (spilled[r]) continue;
    if (heap.empty()) {
      spilled[r] = true;
      continue;
    }
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::uint32_t best = heap.back();
    plan.owner[r] = best;
    ++plan.shard_rows[best];
    plan.shard_accesses[best] += profile.freq[r];
    if (options.pim_capacity_rows_per_shard > 0 &&
        plan.shard_rows[best] >= options.pim_capacity_rows_per_shard) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }

  // Dense local ids in ascending global row order per owner (the DRAM
  // tier's ids index the reference table's rows only informationally).
  std::vector<std::uint32_t> next(shards + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t o = plan.owner[r];
    if (o == kHostDramShard) {
      plan.local[r] = next[shards]++;
      ++plan.dram_rows;
      plan.dram_accesses += profile.freq[r];
    } else {
      plan.local[r] = next[o]++;
    }
  }
  return plan;
}

}  // namespace

Result<TierShardingPlan> BuildTierShardingPlan(
    std::span<const trace::TableProfile> profiles, TieringOptions options) {
  UPDLRM_RETURN_IF_ERROR(options.Validate());
  if (profiles.empty()) {
    return Status::InvalidArgument("tiering needs at least one profile");
  }
  TierShardingPlan plan;
  plan.options = options;
  plan.tables.reserve(profiles.size());
  for (const trace::TableProfile& p : profiles) {
    if (p.freq.size() != p.by_freq.size()) {
      return Status::InvalidArgument(
          "profile freq / by_freq size mismatch");
    }
    plan.tables.push_back(PlanTable(p, options));
  }
  return plan;
}

}  // namespace updlrm::partition
