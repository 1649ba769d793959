#include "trace/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace updlrm::trace {
namespace {

TableTrace MakeTrace() {
  TableTrace t;
  t.AppendSample(std::vector<std::uint32_t>{0, 1, 2});
  t.AppendSample(std::vector<std::uint32_t>{0, 1});
  t.AppendSample(std::vector<std::uint32_t>{0});
  return t;
}

TEST(ProfilerTest, ItemFrequencies) {
  const auto freq = ItemFrequencies(MakeTrace(), 4);
  ASSERT_EQ(freq.size(), 4u);
  EXPECT_EQ(freq[0], 3u);
  EXPECT_EQ(freq[1], 2u);
  EXPECT_EQ(freq[2], 1u);
  EXPECT_EQ(freq[3], 0u);
}

TEST(ProfilerTest, RowBlockCountsEvenSplit) {
  const std::vector<std::uint64_t> freq = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto blocks = RowBlockCounts(freq, 4);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0], 3u);
  EXPECT_EQ(blocks[1], 7u);
  EXPECT_EQ(blocks[2], 11u);
  EXPECT_EQ(blocks[3], 15u);
}

TEST(ProfilerTest, RowBlockCountsRemainderGoesToLastBlock) {
  const std::vector<std::uint64_t> freq = {1, 1, 1, 1, 1, 1, 1};  // 7 items
  const auto blocks = RowBlockCounts(freq, 3);                    // size 2
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], 2u);
  EXPECT_EQ(blocks[1], 2u);
  EXPECT_EQ(blocks[2], 3u);  // absorbs the remainder
  EXPECT_EQ(std::accumulate(blocks.begin(), blocks.end(), 0ull), 7ull);
}

TEST(ProfilerTest, AnalyzeSkewBalanced) {
  const std::vector<std::uint64_t> blocks = {10, 10, 10, 10};
  const auto skew = AnalyzeSkew(blocks);
  EXPECT_DOUBLE_EQ(skew.max_min_ratio, 1.0);
  EXPECT_DOUBLE_EQ(skew.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(skew.cv, 0.0);
  EXPECT_DOUBLE_EQ(skew.top_block_share, 0.25);
}

TEST(ProfilerTest, AnalyzeSkewImbalanced) {
  const std::vector<std::uint64_t> blocks = {340, 100, 10, 1};
  const auto skew = AnalyzeSkew(blocks);
  EXPECT_DOUBLE_EQ(skew.max_min_ratio, 340.0);
  EXPECT_GT(skew.gini, 0.4);
  EXPECT_NEAR(skew.top_block_share, 340.0 / 451.0, 1e-12);
}

TEST(ProfilerTest, TopKAccessShare) {
  const std::vector<std::uint64_t> freq = {1, 50, 3, 46};
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 1), 0.5);
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 2), 0.96);
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 4), 1.0);
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 10), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(TopKAccessShare(freq, 0), 0.0);
}

TEST(ProfilerTest, ItemsByFrequencyDescendingStable) {
  const std::vector<std::uint64_t> freq = {5, 9, 5, 1};
  const auto order = ItemsByFrequency(freq);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);  // ties keep id order
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 3u);
}

// Reference: ids stably sorted by descending frequency.
std::vector<std::uint32_t> StableSortReference(
    const std::vector<std::uint64_t>& freq) {
  std::vector<std::uint32_t> ids(freq.size());
  std::iota(ids.begin(), ids.end(), 0U);
  std::stable_sort(ids.begin(), ids.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return freq[a] > freq[b];
                   });
  return ids;
}

TEST(ProfilerTest, ItemsByFrequencyMatchesStableSort) {
  Rng rng(29);
  const auto histogram = [&](std::size_t n, std::uint64_t max_value,
                             double zero_share) {
    std::vector<std::uint64_t> freq(n);
    for (std::uint64_t& f : freq) {
      f = rng.NextBernoulli(zero_share) ? 0 : 1 + rng.NextBounded(max_value);
    }
    return freq;
  };
  const std::vector<std::vector<std::uint64_t>> cases = {
      {},
      {7},
      {0},
      std::vector<std::uint64_t>(1000, 0),      // all zero
      histogram(1000, 1'000'000, 0.0),          // no zeros
      histogram(1000, 3, 0.3),                  // heavy ties
      histogram(5000, 1ULL << 40, 0.9),         // mostly zero, wide keys
      histogram(200'000, 50, 0.5),              // 16-bit digit path
      histogram(70'000, 1ULL << 50, 0.0),       // 16-bit, no zeros
  };
  // The last two cases hold >= 2^16 nonzero ids, so the radix sort
  // takes its 16-bit digit path.
  for (const std::vector<std::uint64_t>& freq : cases) {
    EXPECT_EQ(ItemsByFrequency(freq), StableSortReference(freq))
        << "n=" << freq.size();
  }
}

TEST(ProfilerTest, BlockCountsPreserveTotal) {
  const auto trace = MakeTrace();
  const auto freq = ItemFrequencies(trace, 4);
  const auto blocks = RowBlockCounts(freq, 2);
  EXPECT_EQ(std::accumulate(blocks.begin(), blocks.end(), 0ull),
            trace.num_lookups());
}

}  // namespace
}  // namespace updlrm::trace
