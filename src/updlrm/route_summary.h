// Per-sample stage-1 route counts (DESIGN.md §6e "Stage-1 routing").
//
// Stage-1 routing sends every multi-hot index of a sample to the bin
// that owns it; each cache list the sample touches costs one subset-sum
// read in the list's bin (§3.3). The timing model only needs, per bin,
// how many EMT lookups, WRAM-tier hits and cache reads a batch makes,
// and those counts are sums over the batch's samples. The plan and the
// trace are both fixed once the engine is built, so each sample's
// per-bin counts never change: RouteSummary holds them, walked once at
// Setup, and a served batch adds up its samples' entries instead of
// re-resolving every index.
//
// Storage is CSR: sample s owns entries [sample_begin[s],
// sample_begin[s + 1]), each a packed 32-bit (bin, kind, count). A count
// above kMaxEntryCount is split over several entries of the same (bin,
// kind) — the counts add. Every entry stands for at least one index of
// its sample, so a summary never holds more entries than its trace has
// indices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.h"
#include "updlrm/placement.h"

namespace updlrm::core {

/// Index walks over a sample prefetch the route word of the index this
/// many positions ahead (the rows of a sample are scattered).
inline constexpr std::size_t kRoutePrefetch = 16;

/// Which per-bin counter a route entry adds to.
enum class RouteKind : std::uint32_t {
  kEmt = 0,    // EMT row lookups (MRAM DMA)
  kWram = 1,   // lookups of rows pinned in the bin's WRAM tier
  kCache = 2,  // subset-sum reads, one per touched cache list
};

struct RouteSummary {
  static constexpr std::uint32_t kCountBits = 8;
  static constexpr std::uint32_t kKindBits = 2;
  /// Bins addressable by an entry (the rest of the 32-bit word).
  static constexpr std::uint64_t kMaxBins = 1ULL
                                            << (32 - kCountBits - kKindBits);
  static constexpr std::uint32_t kMaxEntryCount = (1U << kCountBits) - 1;

  static constexpr std::uint32_t Pack(std::uint32_t bin, RouteKind kind,
                                      std::uint32_t count) {
    return bin << (kCountBits + kKindBits) |
           static_cast<std::uint32_t>(kind) << kCountBits | count;
  }
  static constexpr std::uint32_t Bin(std::uint32_t entry) {
    return entry >> (kCountBits + kKindBits);
  }
  static constexpr RouteKind Kind(std::uint32_t entry) {
    return static_cast<RouteKind>((entry >> kCountBits) &
                                  ((1U << kKindBits) - 1));
  }
  static constexpr std::uint32_t Count(std::uint32_t entry) {
    return entry & kMaxEntryCount;
  }

  /// Size num_samples + 1.
  std::vector<std::uint32_t> sample_begin;
  /// Packed (bin, kind, count) entries of every sample, in sample order.
  std::vector<std::uint32_t> entries;

  std::span<const std::uint32_t> Sample(std::size_t s) const {
    return {entries.data() + sample_begin[s],
            sample_begin[s + 1] - sample_begin[s]};
  }
};

/// True when `group` can be routed from a summary over `trace`: the
/// group has no replicas (their adaptive routing depends on the running
/// load), it has at most kMaxBins bins, and the entry offsets fit 32
/// bits. Per-index data (functional MRAM slots, dedup keys) is the
/// engine's call; this checks only what the summary can represent.
bool CanSummarizeRoutes(const TableGroup& group,
                        const trace::TableTrace& trace);

/// Walks every sample of `trace` once with the stage-1 routing rules: a
/// non-list route word is the index's bin (a WRAM hit when the row is
/// pinned, an EMT lookup otherwise); a list word joins its list's subset
/// mask, and each list a sample touches is one cache read in
/// list_bin[list]. Requires CanSummarizeRoutes(group, trace).
RouteSummary BuildRouteSummary(const TableGroup& group,
                               const trace::TableTrace& trace);

}  // namespace updlrm::core
