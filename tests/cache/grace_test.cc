#include "cache/grace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "common/rng.h"
#include "trace/generator.h"

namespace updlrm::cache {
namespace {

trace::TableTrace TraceWithPlantedCliques(trace::DatasetSpec* out_spec,
                                          trace::CliqueModel* out_model) {
  trace::DatasetSpec spec;
  spec.name = "mine";
  spec.num_items = 5'000;
  spec.avg_reduction = 24.0;
  spec.zipf_alpha = 1.0;
  spec.rank_jitter = 0.1;
  spec.clique_prob = 0.7;
  spec.num_hot_items = 128;
  spec.seed = 17;
  trace::TraceGeneratorOptions options;
  options.num_samples = 800;
  options.num_tables = 1;
  trace::TraceGenerator gen(spec);
  auto t = gen.Generate(options);
  UPDLRM_CHECK(t.ok());
  if (out_spec != nullptr) *out_spec = spec;
  if (out_model != nullptr) *out_model = gen.BuildCliqueModel(0, options);
  return std::move(t->tables[0]);
}

// Reference miner: the GraceMiner pipeline written naively, with the
// pair counts in a std::map. The subsample cap and per-sample seed
// mirror the miner's.
constexpr std::size_t kOracleMaxHotPerSample = 96;

CacheRes OracleMine(const trace::TableTrace& table, std::uint64_t num_items,
                    const GraceOptions& options) {
  std::vector<std::uint64_t> freq(num_items, 0);
  for (std::uint32_t idx : table.indices()) ++freq[idx];
  std::vector<std::uint32_t> by_freq(num_items);
  std::iota(by_freq.begin(), by_freq.end(), 0U);
  std::stable_sort(by_freq.begin(), by_freq.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return freq[a] > freq[b];
                   });
  std::set<std::uint32_t> hot;
  for (std::uint32_t id : by_freq) {
    if (hot.size() >= options.num_hot_items || freq[id] == 0) break;
    hot.insert(id);
  }

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> pairs;
  for (std::size_t s = 0; s < table.num_samples(); ++s) {
    std::vector<std::uint32_t> h;
    for (std::uint32_t idx : table.Sample(s)) {
      if (hot.count(idx) != 0) h.push_back(idx);
    }
    if (h.size() > kOracleMaxHotPerSample) {
      std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ s;
      Rng rng(SplitMix64(state));
      rng.Shuffle(h);
      h.resize(kOracleMaxHotPerSample);
    }
    for (std::size_t i = 0; i < h.size(); ++i) {
      for (std::size_t j = i + 1; j < h.size(); ++j) {
        ++pairs[{std::min(h[i], h[j]), std::max(h[i], h[j])}];
      }
    }
  }

  struct Edge {
    std::uint64_t count;
    std::uint32_t a, b;
  };
  std::vector<Edge> edges;
  for (const auto& [key, count] : pairs) {
    if (count >= options.min_pair_count) {
      edges.push_back({count, key.first, key.second});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.count != y.count) return x.count > y.count;
    return std::pair(x.a, x.b) < std::pair(y.a, y.b);
  });

  std::map<std::uint32_t, std::size_t> group_of;
  std::vector<std::vector<std::uint32_t>> groups;
  for (const Edge& e : edges) {
    const bool has_a = group_of.count(e.a) != 0;
    const bool has_b = group_of.count(e.b) != 0;
    if (!has_a && !has_b) {
      group_of[e.a] = group_of[e.b] = groups.size();
      groups.push_back({e.a, e.b});
    } else if (has_a && !has_b &&
               groups[group_of[e.a]].size() < options.max_list_size) {
      group_of[e.b] = group_of[e.a];
      groups[group_of[e.a]].push_back(e.b);
    } else if (has_b && !has_a &&
               groups[group_of[e.b]].size() < options.max_list_size) {
      group_of[e.a] = group_of[e.b];
      groups[group_of[e.b]].push_back(e.a);
    }
  }
  CacheRes res;
  for (auto& group : groups) {
    std::sort(group.begin(), group.end());
    res.lists.push_back(CacheList{group, 0.0});
  }
  res = ScoreCacheLists(table, num_items, res, 1);
  if (res.lists.size() > options.max_lists) {
    res.lists.resize(options.max_lists);
  }
  return res;
}

void ExpectSameLists(const CacheRes& got, const CacheRes& want) {
  ASSERT_EQ(got.lists.size(), want.lists.size());
  for (std::size_t l = 0; l < got.lists.size(); ++l) {
    EXPECT_EQ(got.lists[l].items, want.lists[l].items) << "list " << l;
    EXPECT_EQ(got.lists[l].benefit, want.lists[l].benefit) << "list " << l;
  }
}

// Samples of `min_len`..`max_len` distinct items, skewed toward low ids
// (`skew` > 1 sharpens the head).
trace::TableTrace RandomTrace(std::uint64_t seed, std::size_t samples,
                              std::uint32_t items, std::size_t min_len,
                              std::size_t max_len, double skew) {
  Rng rng(seed);
  trace::TableTrace table;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t len = min_len + rng.NextBounded(max_len - min_len + 1);
    std::set<std::uint32_t> sample;
    while (sample.size() < std::min<std::size_t>(len, items)) {
      const double u = std::pow(rng.NextDouble(), skew);
      sample.insert(std::min(items - 1, static_cast<std::uint32_t>(
                                            u * static_cast<double>(items))));
    }
    table.AppendSample(
        std::vector<std::uint32_t>(sample.begin(), sample.end()));
  }
  return table;
}

TEST(GraceTest, OptionsValidation) {
  GraceOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_hot_items = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = GraceOptions{};
  options.max_list_size = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = GraceOptions{};
  options.max_list_size = kMaxCacheListSize + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = GraceOptions{};
  options.max_lists = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(GraceTest, MinedListsAreValid) {
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  GraceMiner miner;
  auto res = miner.Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->lists.empty());
  EXPECT_TRUE(res->Validate(5'000).ok());
}

TEST(GraceTest, BenefitsAreSortedAndPositive) {
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  auto res = GraceMiner().Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  double prev = 1e18;
  for (const auto& list : res->lists) {
    EXPECT_GT(list.benefit, 0.0);
    EXPECT_LE(list.benefit, prev);
    prev = list.benefit;
  }
}

TEST(GraceTest, RecoversPlantedCoOccurrence) {
  // The miner should group items from the same planted clique: check
  // that a large share of mined pairs are clique-mates.
  trace::CliqueModel model;
  const auto table = TraceWithPlantedCliques(nullptr, &model);
  auto res = GraceMiner().Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->lists.empty());

  // item -> planted clique id
  std::vector<std::int32_t> planted(5'000, -1);
  for (std::size_t c = 0; c < model.cliques.size(); ++c) {
    for (std::uint32_t item : model.cliques[c]) {
      planted[item] = static_cast<std::int32_t>(c);
    }
  }
  std::size_t matched_pairs = 0;
  std::size_t total_pairs = 0;
  for (const auto& list : res->lists) {
    for (std::size_t i = 0; i < list.items.size(); ++i) {
      for (std::size_t j = i + 1; j < list.items.size(); ++j) {
        ++total_pairs;
        if (planted[list.items[i]] >= 0 &&
            planted[list.items[i]] == planted[list.items[j]]) {
          ++matched_pairs;
        }
      }
    }
  }
  ASSERT_GT(total_pairs, 0u);
  EXPECT_GT(static_cast<double>(matched_pairs) /
                static_cast<double>(total_pairs),
            0.6);
}

TEST(GraceTest, BenefitMatchesReplayDefinition) {
  // Construct a tiny trace by hand: items {1,2} co-occur twice, once
  // with only item 1 present.
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{1, 2});
  table.AppendSample(std::vector<std::uint32_t>{1, 2, 3});
  table.AppendSample(std::vector<std::uint32_t>{1});
  CacheRes res;
  res.lists.push_back(CacheList{{1, 2}, 0.0});
  const CacheRes scored = ScoreCacheLists(table, 5, res);
  ASSERT_EQ(scored.lists.size(), 1u);
  // Two samples intersect with both items: each saves 1 access.
  EXPECT_DOUBLE_EQ(scored.lists[0].benefit, 2.0);
}

TEST(GraceTest, ScoreDropsZeroBenefitLists) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{1});
  table.AppendSample(std::vector<std::uint32_t>{2});
  CacheRes res;
  res.lists.push_back(CacheList{{1, 2}, 99.0});  // never co-occur
  const CacheRes scored = ScoreCacheLists(table, 5, res);
  EXPECT_TRUE(scored.lists.empty());
}

TEST(GraceTest, RespectsMaxListSize) {
  GraceOptions options;
  options.max_list_size = 2;
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  auto res = GraceMiner(options).Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  for (const auto& list : res->lists) {
    EXPECT_LE(list.items.size(), 2u);
  }
}

TEST(GraceTest, RespectsMaxLists) {
  GraceOptions options;
  options.max_lists = 3;
  const auto table = TraceWithPlantedCliques(nullptr, nullptr);
  auto res = GraceMiner(options).Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  EXPECT_LE(res->lists.size(), 3u);
}

TEST(GraceTest, BalancedTraceYieldsFewOrNoLists) {
  // With uniform popularity and no planted structure, co-occurrence
  // support stays below the threshold ("clo is quite balanced, and the
  // cache rate is low").
  const trace::DatasetSpec spec =
      trace::MakeBalancedSyntheticSpec(20'000, 20.0);
  trace::TraceGeneratorOptions options;
  options.num_samples = 500;
  options.num_tables = 1;
  auto t = trace::TraceGenerator(spec).Generate(options);
  ASSERT_TRUE(t.ok());
  auto res = GraceMiner().Mine(t->tables[0], 20'000);
  ASSERT_TRUE(res.ok());
  EXPECT_LT(res->lists.size(), 20u);
}

TEST(GraceTest, RejectsZeroItems) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{});
  EXPECT_FALSE(GraceMiner().Mine(table, 0).ok());
}

TEST(GraceOracleTest, SubsampledSamplesMatchOracle) {
  // 100-220 distinct items per sample over 400 ids, all hot: most
  // samples exceed the per-sample cap and take the subsample path.
  const auto table = RandomTrace(3, 120, 400, 100, 220, 1.5);
  GraceOptions options;
  options.num_hot_items = 400;
  for (std::uint64_t min_pair_count : {2, 5, 12}) {
    options.min_pair_count = min_pair_count;
    auto res = GraceMiner(options).Mine(table, 400);
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(res->lists.empty());
    ExpectSameLists(*res, OracleMine(table, 400, options));
  }
}

TEST(GraceOracleTest, HotSetCutAndListCapsMatchOracle) {
  // Fewer hot items than nonzero ones, so the frequency cut decides
  // membership; small list-size and list-count caps.
  const auto table = RandomTrace(5, 300, 2'000, 4, 40, 3.0);
  GraceOptions options;
  options.num_hot_items = 150;
  options.min_pair_count = 3;
  options.max_list_size = 3;
  options.max_lists = 20;
  auto res = GraceMiner(options).Mine(table, 2'000);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->lists.empty());
  ExpectSameLists(*res, OracleMine(table, 2'000, options));
}

TEST(GraceOracleTest, MoreHotSlotsThanNonzeroItems) {
  // Only ids below 60 of 5000 are ever touched; every nonzero item is
  // hot and the zero-frequency tail stays out.
  const auto table = RandomTrace(7, 200, 60, 3, 12, 1.2);
  GraceOptions options;
  options.num_hot_items = 16384;
  auto res = GraceMiner(options).Mine(table, 5'000);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->lists.empty());
  ExpectSameLists(*res, OracleMine(table, 5'000, options));
}

TEST(GraceOracleTest, PairsAtTheCountThreshold) {
  // {1,2} co-occurs exactly min_pair_count times, {3,4} one time less:
  // only the first becomes an edge.
  trace::TableTrace table;
  for (int i = 0; i < 4; ++i) {
    table.AppendSample(std::vector<std::uint32_t>{1, 2});
  }
  for (int i = 0; i < 3; ++i) {
    table.AppendSample(std::vector<std::uint32_t>{3, 4});
  }
  GraceOptions options;
  options.min_pair_count = 4;
  auto res = GraceMiner(options).Mine(table, 8);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->lists.size(), 1u);
  EXPECT_EQ(res->lists[0].items, (std::vector<std::uint32_t>{1, 2}));
  ExpectSameLists(*res, OracleMine(table, 8, options));

  options.min_pair_count = 3;
  res = GraceMiner(options).Mine(table, 8);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->lists.size(), 2u);
  ExpectSameLists(*res, OracleMine(table, 8, options));
}

TEST(GraceOracleTest, OneSampleTable) {
  trace::TableTrace table;
  table.AppendSample(std::vector<std::uint32_t>{2, 5, 9, 11});
  GraceOptions options;
  options.min_pair_count = 1;
  auto res = GraceMiner(options).Mine(table, 12);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->lists.empty());
  ExpectSameLists(*res, OracleMine(table, 12, options));
}

TEST(GraceOracleTest, NoPairQualifies) {
  const auto table = RandomTrace(11, 50, 10'000, 2, 6, 1.0);
  GraceOptions options;
  options.min_pair_count = 1'000;
  auto res = GraceMiner(options).Mine(table, 10'000);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->lists.empty());
  ExpectSameLists(*res, OracleMine(table, 10'000, options));
}

TEST(GraceOracleTest, ThreadCountInvariantOnHighHotness) {
  // read2-like shape: long samples dominated by a hot head.
  const auto table = RandomTrace(13, 600, 3'000, 60, 160, 2.5);
  GraceOptions options;
  options.num_threads = 1;
  auto serial = GraceMiner(options).Mine(table, 3'000);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->lists.empty());
  for (std::uint32_t threads : {2U, 4U}) {
    options.num_threads = threads;
    auto res = GraceMiner(options).Mine(table, 3'000);
    ASSERT_TRUE(res.ok());
    ExpectSameLists(*res, *serial);
  }
}

}  // namespace
}  // namespace updlrm::cache
