#include "partition/plan.h"

#include <algorithm>

namespace updlrm::partition {

Result<GroupGeometry> GroupGeometry::Make(dlrm::TableShape table,
                                          std::uint32_t dpus_per_table,
                                          std::uint32_t nc) {
  if (table.rows == 0 || table.cols == 0) {
    return Status::InvalidArgument("table shape must be non-empty");
  }
  if (dpus_per_table == 0) {
    return Status::InvalidArgument("dpus_per_table must be >= 1");
  }
  if (nc == 0 || nc % 2 != 0) {
    // Nc*4 bytes must be 8-byte aligned for MRAM DMA (§3.1: Nc = 2k).
    return Status::InvalidArgument("nc must be a positive even number");
  }
  if (table.cols % nc != 0) {
    return Status::InvalidArgument("nc must divide the embedding dim");
  }
  GroupGeometry g;
  g.table = table;
  g.dpus_per_table = dpus_per_table;
  g.nc = nc;
  g.col_shards = table.cols / nc;
  if (dpus_per_table % g.col_shards != 0) {
    return Status::InvalidArgument(
        "column shards (" + std::to_string(g.col_shards) +
        ") must divide dpus_per_table (" + std::to_string(dpus_per_table) +
        ")");
  }
  g.row_shards = dpus_per_table / g.col_shards;
  if (g.table.rows < g.row_shards) {
    return Status::InvalidArgument("fewer rows than row shards");
  }
  return g;
}

std::string_view MethodName(Method m) {
  switch (m) {
    case Method::kUniform:
      return "uniform";
    case Method::kNonUniform:
      return "non-uniform";
    case Method::kCacheAware:
      return "cache-aware";
  }
  return "unknown";
}

std::string_view MethodShortName(Method m) {
  switch (m) {
    case Method::kUniform:
      return "U";
    case Method::kNonUniform:
      return "NU";
    case Method::kCacheAware:
      return "CA";
  }
  return "?";
}

BinCapacity BinCapacity::FromMram(std::uint64_t mram_bytes,
                                  std::uint64_t reserved_io_bytes,
                                  std::uint64_t cache_bytes) {
  UPDLRM_CHECK_MSG(reserved_io_bytes + cache_bytes <= mram_bytes,
                   "reserved + cache regions exceed MRAM");
  return BinCapacity{mram_bytes - reserved_io_bytes - cache_bytes,
                     cache_bytes};
}

Status PartitionPlan::BuildRoute() {
  route.clear();
  if (cache.lists.empty()) return Status::Ok();
  if (cache.lists.size() > kMaxRouteLists) {
    return Status::OutOfRange(std::to_string(cache.lists.size()) +
                              " cache lists exceed the route word's " +
                              std::to_string(kMaxRouteLists));
  }
  if (geom.row_shards > kListRoute) {
    return Status::OutOfRange("bin ids do not fit the route word");
  }
  UPDLRM_RETURN_IF_ERROR(cache.Validate(row_bin.size()));
  route = row_bin;
  for (std::size_t l = 0; l < cache.lists.size(); ++l) {
    const auto& items = cache.lists[l].items;
    for (std::size_t i = 0; i < items.size(); ++i) {
      route[items[i]] = ListRouteWord(static_cast<std::uint32_t>(l),
                                      static_cast<std::uint32_t>(i));
    }
  }
  return Status::Ok();
}

std::vector<std::uint64_t> PartitionPlan::EmtRowsPerBin() const {
  std::vector<std::uint64_t> rows(geom.row_shards, 0);
  for (std::uint64_t r = 0; r < row_bin.size(); ++r) {
    const bool cached = ListOf(r) >= 0;
    const bool replicated =
        !replicated_rows.empty() &&
        std::binary_search(replicated_rows.begin(),
                           replicated_rows.end(),
                           static_cast<std::uint32_t>(r));
    if (!cached && !replicated) ++rows[row_bin[r]];
  }
  return rows;
}

std::vector<std::uint64_t> PartitionPlan::CacheBytesPerBin() const {
  std::vector<std::uint64_t> bytes(geom.row_shards, 0);
  for (std::size_t l = 0; l < cache.lists.size(); ++l) {
    UPDLRM_CHECK(l < list_bin.size() && list_bin[l] >= 0);
    bytes[list_bin[l]] += cache.lists[l].StorageBytes(geom.row_bytes());
  }
  return bytes;
}

Result<std::vector<std::uint64_t>> PartitionPlan::Validate(
    const BinCapacity& capacity) const {
  if (row_bin.size() != geom.table.rows) {
    return Status::InvalidArgument("row_bin must cover every row");
  }
  for (std::uint32_t bin : row_bin) {
    if (bin >= geom.row_shards) {
      return Status::OutOfRange("row assigned to nonexistent bin");
    }
  }
  if (has_cache()) {
    UPDLRM_RETURN_IF_ERROR(cache.Validate(geom.table.rows));
    if (list_bin.size() != cache.lists.size()) {
      return Status::InvalidArgument("every cache list needs a bin");
    }
    for (std::int32_t bin : list_bin) {
      if (bin < 0 || static_cast<std::uint32_t>(bin) >= geom.row_shards) {
        return Status::OutOfRange("cache list assigned to nonexistent bin");
      }
    }
    if (route.size() != geom.table.rows) {
      return Status::InvalidArgument(
          "route must cover every row when caching");
    }
  } else if (!list_bin.empty() || !route.empty()) {
    return Status::InvalidArgument("cache metadata without cache lists");
  }

  if (has_replication()) {
    if (!std::is_sorted(replicated_rows.begin(), replicated_rows.end())) {
      return Status::InvalidArgument("replicated_rows must be sorted");
    }
    if (std::adjacent_find(replicated_rows.begin(),
                           replicated_rows.end()) !=
        replicated_rows.end()) {
      return Status::InvalidArgument("replicated_rows must be unique");
    }
    if (replicated_rows.back() >= geom.table.rows) {
      return Status::OutOfRange("replicated row beyond table");
    }
    for (std::uint32_t row : replicated_rows) {
      if (ListOf(row) >= 0) {
        return Status::InvalidArgument(
            "row " + std::to_string(row) + " is both cached and replicated");
      }
    }
  }

  std::vector<std::uint64_t> emt_rows = EmtRowsPerBin();
  for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
    // Every bin holds the replica region in addition to its own rows.
    const std::uint64_t emt_bytes =
        emt_rows[b] * geom.row_bytes() + ReplicaBytesPerBin();
    if (emt_bytes > capacity.emt_bytes) {
      return Status::CapacityExceeded(
          "bin " + std::to_string(b) + " EMT region needs " +
          std::to_string(emt_bytes) + " bytes, capacity " +
          std::to_string(capacity.emt_bytes));
    }
  }
  if (has_cache()) {
    const std::vector<std::uint64_t> cache_bytes = CacheBytesPerBin();
    for (std::uint32_t b = 0; b < geom.row_shards; ++b) {
      if (cache_bytes[b] > capacity.cache_bytes) {
        return Status::CapacityExceeded(
            "bin " + std::to_string(b) + " cache region needs " +
            std::to_string(cache_bytes[b]) + " bytes, capacity " +
            std::to_string(capacity.cache_bytes));
      }
    }
  }
  return emt_rows;
}

}  // namespace updlrm::partition
