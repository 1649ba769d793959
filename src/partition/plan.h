// Partition plans: how one embedding table maps onto its DPU group.
//
// A table of R rows x C columns served by `dpus_per_table` DPUs is tiled
// two ways at once (§3.1):
//   * columns are split into C / Nc *column shards* (every row slice of
//     one shard lives on DPUs of that shard);
//   * rows are split into `row_shards` *bins*; which rows land in which
//     bin is what the three partitioning methods differ on.
// DPU (bin b, shard c) holds the Nc-wide slices of bin b's rows. The
// same row->bin assignment applies to every column shard, so a plan is
// fully described by GroupGeometry + row_bin[] (+ cache placement for
// the cache-aware method).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cache/cache_list.h"
#include "common/status.h"
#include "common/units.h"
#include "dlrm/embedding.h"

namespace updlrm::partition {

struct GroupGeometry {
  dlrm::TableShape table;
  std::uint32_t dpus_per_table = 0;
  std::uint32_t nc = 0;          // columns per tile (paper's N_c)
  std::uint32_t col_shards = 0;  // C / Nc
  std::uint32_t row_shards = 0;  // dpus_per_table / col_shards (bins)

  /// Validates divisibility (C % Nc == 0, dpus % col_shards == 0) and
  /// computes the derived shard counts.
  static Result<GroupGeometry> Make(dlrm::TableShape table,
                                    std::uint32_t dpus_per_table,
                                    std::uint32_t nc);

  std::uint32_t row_bytes() const { return nc * 4; }

  /// DPU index within the group for (bin, column shard).
  std::uint32_t DpuLocal(std::uint32_t bin, std::uint32_t col_shard) const {
    UPDLRM_CHECK(bin < row_shards && col_shard < col_shards);
    return bin * col_shards + col_shard;
  }

  /// Rows per bin under uniform tiling (paper's N_r; last bin short).
  std::uint64_t UniformRowsPerBin() const {
    return CeilDiv(table.rows, row_shards);
  }
};

enum class Method { kUniform, kNonUniform, kCacheAware };

std::string_view MethodName(Method m);
std::string_view MethodShortName(Method m);  // "U" / "NU" / "CA"

/// Per-bin byte capacities available for table data inside one MRAM
/// bank. The engine reserves space for the stage-1 index buffers and
/// stage-3 output buffers; the cache-aware method additionally carves a
/// cache region out of the EMT share.
struct BinCapacity {
  std::uint64_t emt_bytes = 0;
  std::uint64_t cache_bytes = 0;

  static BinCapacity FromMram(std::uint64_t mram_bytes,
                              std::uint64_t reserved_io_bytes,
                              std::uint64_t cache_bytes);
};

/// Route-word encoding (PartitionPlan::route). The position field holds
/// an index into a list of at most kMaxCacheListSize items.
inline constexpr std::uint32_t kListRoute = 1U << 31;
inline constexpr std::uint32_t kRoutePosBits = 2;
static_assert(cache::kMaxCacheListSize <= (1U << kRoutePosBits),
              "list positions must fit the route word's position field");
/// Lists addressable by the route word's list field.
inline constexpr std::uint64_t kMaxRouteLists = kListRoute >> kRoutePosBits;

constexpr bool IsListRoute(std::uint32_t word) {
  return (word & kListRoute) != 0;
}
constexpr std::uint32_t RouteList(std::uint32_t word) {
  return (word & ~kListRoute) >> kRoutePosBits;
}
constexpr std::uint32_t RoutePos(std::uint32_t word) {
  return word & ((1U << kRoutePosBits) - 1);
}
constexpr std::uint32_t ListRouteWord(std::uint32_t list, std::uint32_t pos) {
  return kListRoute | list << kRoutePosBits | pos;
}

struct PartitionPlan {
  GroupGeometry geom;
  Method method = Method::kUniform;

  /// row id -> bin (size == table.rows, values < row_shards).
  std::vector<std::uint32_t> row_bin;

  /// Cache placement; empty lists when the method does not cache.
  cache::CacheRes cache;
  /// list index -> bin.
  std::vector<std::int32_t> list_bin;
  /// row id -> stage-1 route word, so routing resolves an index with
  /// one load. A cache-list member holds
  /// `kListRoute | list << kRoutePosBits | position` (its slot in the
  /// list's sorted items); any other row holds its bin, equal to
  /// row_bin[r]. Size table.rows when the plan has cache lists, empty
  /// otherwise: routing then reads row_bin, whose words have the same
  /// form. Built by BuildRoute() once row_bin and the lists are final.
  std::vector<std::uint32_t> route;

  /// Rows replicated into every bin's replica region (sorted, unique,
  /// disjoint from cache-list members); lookups of these rows are
  /// routed adaptively. See partition/replication.h.
  std::vector<std::uint32_t> replicated_rows;

  bool has_cache() const { return !cache.lists.empty(); }
  bool has_replication() const { return !replicated_rows.empty(); }

  /// Cache list holding row `r`, or -1.
  std::int32_t ListOf(std::uint64_t r) const {
    if (route.empty() || !IsListRoute(route[r])) return -1;
    return static_cast<std::int32_t>(RouteList(route[r]));
  }

  /// The words stage-1 routing reads: `route`, or row_bin without lists.
  std::span<const std::uint32_t> RouteWords() const {
    return route.empty() ? std::span<const std::uint32_t>(row_bin)
                         : std::span<const std::uint32_t>(route);
  }

  /// Rebuilds `route` from row_bin and the cache lists (empty when there
  /// are none). Fails on invalid lists, and when the list count or a
  /// bin id does not fit its field of the route word (never wraps).
  Status BuildRoute();

  /// Bytes of the per-bin replica region (every bin holds a copy).
  std::uint64_t ReplicaBytesPerBin() const {
    return replicated_rows.size() *
           static_cast<std::uint64_t>(geom.row_bytes());
  }

  /// Rows stored in the EMT region of each bin (cached and replicated
  /// items excluded — they live in the cache/replica regions).
  std::vector<std::uint64_t> EmtRowsPerBin() const;

  /// Cache-region bytes needed in each bin.
  std::vector<std::uint64_t> CacheBytesPerBin() const;

  /// Structural invariants: every row in exactly one bin, cache lists
  /// disjoint & placed, and both regions within `capacity`. On success
  /// returns EmtRowsPerBin(), which the capacity check computes anyway,
  /// so a caller that lays the plan out does not count the rows again.
  Result<std::vector<std::uint64_t>> Validate(
      const BinCapacity& capacity) const;
};

}  // namespace updlrm::partition
