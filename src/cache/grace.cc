#include "cache/grace.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "trace/profiler.h"

namespace updlrm::cache {

namespace {

// Pairs counted per sample are capped (a sample with h hot items
// contributes O(h^2) edges). The cap keeps a *random* subset — sampling
// by frequency would count the same head items every time and starve
// mid-popularity cliques; random subsampling scales every pair's
// support by the same expected factor, preserving the ranking.
constexpr std::size_t kMaxHotPerSample = 96;

// A per-sample seed keeps the (rare) hot-item subsampling a function
// of the sample alone, independent of how the work is split.
std::uint64_t SubsampleSeed(std::size_t sample) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ sample;
  return SplitMix64(state);
}

// Shard grain for the scoring replay (samples) and the pair-count
// pass (hot ranks): big enough that per-shard scratch amortizes,
// small enough to load-balance.
std::size_t ReplayGrain(std::size_t n) {
  return std::max<std::size_t>(64, n / 256);
}

// No hot rank: returned for a cold id, and ends each sample's row of
// hot ranks in the pair-count rows.
constexpr std::uint32_t kNoRank = ~0U;

}  // namespace

Status GraceOptions::Validate() const {
  if (num_hot_items < 2) {
    return Status::InvalidArgument("num_hot_items must be >= 2");
  }
  if (max_list_size < 2 || max_list_size > kMaxCacheListSize) {
    return Status::InvalidArgument("max_list_size must be in [2, " +
                                   std::to_string(kMaxCacheListSize) + "]");
  }
  if (max_lists == 0) {
    return Status::InvalidArgument("max_lists must be >= 1");
  }
  return Status::Ok();
}

GraceMiner::GraceMiner(GraceOptions options) : options_(options) {}

Result<CacheRes> GraceMiner::Mine(const trace::TableTrace& table,
                                  std::uint64_t num_items,
                                  const trace::TableProfile* profile) const {
  UPDLRM_RETURN_IF_ERROR(options_.Validate());
  if (num_items == 0) {
    return Status::InvalidArgument("num_items must be > 0");
  }
  if (profile != nullptr && (profile->freq.size() != num_items ||
                             profile->by_freq.size() != num_items)) {
    return Status::InvalidArgument(
        "profile does not match the table shape");
  }

  trace::TableProfile own_profile;
  if (profile == nullptr) {
    own_profile = trace::ProfileTable(table, num_items);
    profile = &own_profile;
  }
  const std::span<const std::uint64_t> freq(profile->freq);

  // Hot set: the most frequent items with nonzero counts, ranked in
  // ascending id order so that rank order is id order.
  const std::span<const std::uint32_t> by_freq(profile->by_freq);
  std::vector<std::uint32_t> hot_ids;
  for (std::uint32_t id : by_freq) {
    if (hot_ids.size() >= options_.num_hot_items || freq[id] == 0) break;
    hot_ids.push_back(id);
  }
  std::sort(hot_ids.begin(), hot_ids.end());
  const std::size_t num_hot = hot_ids.size();
  // A hot id's rank is the number of hot ids below it: a bitset plus
  // per-word prefix counts answer that with one popcount in 1.5 bits
  // per item, where a per-item rank array takes 32.
  std::vector<std::uint64_t> hot_bits(CeilDiv(num_items, 64), 0);
  for (std::uint32_t id : hot_ids) hot_bits[id / 64] |= 1ULL << (id % 64);
  std::vector<std::uint32_t> hot_below(hot_bits.size());
  std::uint32_t below = 0;
  for (std::size_t w = 0; w < hot_bits.size(); ++w) {
    hot_below[w] = below;
    below += static_cast<std::uint32_t>(std::popcount(hot_bits[w]));
  }
  const auto rank_of = [&](std::uint32_t id) {
    const std::uint64_t word = hot_bits[id / 64];
    const std::uint64_t bit = 1ULL << (id % 64);
    if ((word & bit) == 0) return kNoRank;
    return hot_below[id / 64] +
           static_cast<std::uint32_t>(std::popcount(word & (bit - 1)));
  };

  // Each sample's hot set as ascending ranks, one kNoRank-terminated
  // row per sample with at least one pair. Samples index in ascending
  // id order, so the shuffle sees the same sequence it would over ids.
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> hot;
  for (std::size_t s = 0; s < table.num_samples(); ++s) {
    hot.clear();
    for (std::uint32_t idx : table.Sample(s)) {
      const std::uint32_t rank = rank_of(idx);
      if (rank != kNoRank) hot.push_back(rank);
    }
    if (hot.size() < 2) continue;
    if (hot.size() > kMaxHotPerSample) {
      Rng subsample_rng(SubsampleSeed(s));
      subsample_rng.Shuffle(hot);
      hot.resize(kMaxHotPerSample);
      std::sort(hot.begin(), hot.end());
    }
    rows.insert(rows.end(), hot.begin(), hot.end());
    rows.push_back(kNoRank);
  }
  UPDLRM_CHECK_MSG(rows.size() < kNoRank, "pair-count rows overflow");

  // Posting lists: for every occurrence of rank a, the row position
  // just past it, where a's partners b > a start.
  const auto has_partner = [&](std::size_t p) {
    return rows[p] != kNoRank && rows[p + 1] != kNoRank;
  };
  std::vector<std::uint32_t> post_begin(num_hot + 1, 0);
  for (std::size_t p = 0; p + 1 < rows.size(); ++p) {
    if (has_partner(p)) ++post_begin[rows[p] + 1];
  }
  for (std::size_t r = 0; r < num_hot; ++r) {
    post_begin[r + 1] += post_begin[r];
  }
  std::vector<std::uint32_t> tails(post_begin[num_hot]);
  std::vector<std::uint32_t> cursor(post_begin.begin(), post_begin.end() - 1);
  for (std::size_t p = 0; p + 1 < rows.size(); ++p) {
    if (has_partner(p)) {
      tails[cursor[rows[p]]++] = static_cast<std::uint32_t>(p + 1);
    }
  }

  // Pairwise co-occurrence counts, one dense row per rank a: every
  // partner b > a accumulates into a num_hot-entry counter array. Rows
  // are disjoint, so chunks of ranks count in parallel into their own
  // edge slot, and the sort below fixes the final order.
  struct Edge {
    std::uint32_t count;
    std::uint32_t a, b;  // ranks, a < b
  };
  const std::size_t grain = ReplayGrain(num_hot);
  std::vector<std::vector<Edge>> chunk_edges(CeilDiv(num_hot, grain));
  ParallelFor(
      num_hot,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> count(num_hot, 0);
        std::vector<std::uint32_t> touched;
        std::vector<Edge>& out = chunk_edges[begin / grain];
        for (std::size_t a = begin; a < end; ++a) {
          for (std::uint32_t t = post_begin[a]; t < post_begin[a + 1]; ++t) {
            for (std::size_t q = tails[t]; rows[q] != kNoRank; ++q) {
              if (count[rows[q]]++ == 0) touched.push_back(rows[q]);
            }
          }
          for (std::uint32_t b : touched) {
            if (count[b] >= options_.min_pair_count) {
              out.push_back({count[b], static_cast<std::uint32_t>(a), b});
            }
            count[b] = 0;
          }
          touched.clear();
        }
      },
      options_.num_threads, grain);

  // Heaviest edges first.
  std::vector<Edge> edges;
  for (const std::vector<Edge>& chunk : chunk_edges) {
    edges.insert(edges.end(), chunk.begin(), chunk.end());
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.count != y.count) return x.count > y.count;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });

  // Greedy group growth from heavy edges.
  std::vector<std::int32_t> group_of(num_hot, -1);
  std::vector<std::vector<std::uint32_t>> groups;
  for (const Edge& e : edges) {
    const std::int32_t ga = group_of[e.a];
    const std::int32_t gb = group_of[e.b];
    if (ga == -1 && gb == -1) {
      group_of[e.a] = static_cast<std::int32_t>(groups.size());
      group_of[e.b] = static_cast<std::int32_t>(groups.size());
      groups.push_back({e.a, e.b});
    } else if (ga >= 0 && gb == -1 &&
               groups[ga].size() < options_.max_list_size) {
      group_of[e.b] = ga;
      groups[ga].push_back(e.b);
    } else if (gb >= 0 && ga == -1 &&
               groups[gb].size() < options_.max_list_size) {
      group_of[e.a] = gb;
      groups[gb].push_back(e.a);
    }
    // Both already grouped: keep groups disjoint (no merges; subset
    // storage is exponential in list size).
  }

  CacheRes res;
  for (auto& group : groups) {
    std::sort(group.begin(), group.end());
    for (std::uint32_t& item : group) item = hot_ids[item];
    res.lists.push_back(CacheList{std::move(group), 0.0});
  }

  res = ScoreCacheLists(table, num_items, res, options_.num_threads);
  if (res.lists.size() > options_.max_lists) {
    res.lists.resize(options_.max_lists);
  }
  UPDLRM_RETURN_IF_ERROR(res.Validate(num_items));
  return res;
}

CacheRes ScoreCacheLists(const trace::TableTrace& table,
                         std::uint64_t num_items, const CacheRes& res,
                         std::uint32_t num_threads) {
  CacheRes scored = res;
  for (auto& list : scored.lists) list.benefit = 0.0;
  if (scored.lists.empty()) return scored;

  const std::vector<std::int32_t> item_to_list =
      scored.BuildItemToList(num_items);

  // Parallel replay: per-shard integer benefit counters merged by
  // addition (order-insensitive), then assigned to the double-valued
  // benefit field once. Benefits stay exact integers well below 2^53,
  // so the result is bit-identical at every thread count.
  std::vector<std::uint64_t> benefit(scored.lists.size(), 0);
  std::mutex merge_mu;
  ParallelFor(
      table.num_samples(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t> local(scored.lists.size(), 0);
        std::vector<std::uint32_t> hits(scored.lists.size(), 0);
        std::vector<std::uint32_t> touched;
        for (std::size_t s = begin; s < end; ++s) {
          touched.clear();
          for (std::uint32_t idx : table.Sample(s)) {
            const std::int32_t l = item_to_list[idx];
            if (l < 0) continue;
            if (hits[l]++ == 0) {
              touched.push_back(static_cast<std::uint32_t>(l));
            }
          }
          for (std::uint32_t l : touched) {
            // An intersection of c >= 2 items collapses into one
            // cached read.
            if (hits[l] >= 2) local[l] += hits[l] - 1;
            hits[l] = 0;
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        for (std::size_t l = 0; l < local.size(); ++l) {
          benefit[l] += local[l];
        }
      },
      num_threads, ReplayGrain(table.num_samples()));
  for (std::size_t l = 0; l < benefit.size(); ++l) {
    scored.lists[l].benefit = static_cast<double>(benefit[l]);
  }

  std::stable_sort(scored.lists.begin(), scored.lists.end(),
                   [](const CacheList& a, const CacheList& b) {
                     return a.benefit > b.benefit;
                   });
  while (!scored.lists.empty() && scored.lists.back().benefit <= 0.0) {
    scored.lists.pop_back();
  }
  return scored;
}

}  // namespace updlrm::cache
