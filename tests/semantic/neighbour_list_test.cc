#include "src/semantic/neighbour_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "src/common/rng.h"

namespace edk {
namespace {

std::vector<uint32_t> Collect(const NeighbourList& list, size_t k) {
  std::vector<uint32_t> out;
  list.Collect(k, out);
  return out;
}

TEST(StrategyNameTest, AllNamed) {
  EXPECT_STREQ(StrategyName(StrategyKind::kLru), "LRU");
  EXPECT_STREQ(StrategyName(StrategyKind::kHistory), "History");
  EXPECT_STREQ(StrategyName(StrategyKind::kRandom), "Random");
  EXPECT_STREQ(StrategyName(StrategyKind::kPopularityWeighted), "PopularityWeighted");
}

TEST(LruListTest, MostRecentFirst) {
  auto list = MakeNeighbourList(StrategyKind::kLru, 3);
  list->RecordUpload(1, 1.0);
  list->RecordUpload(2, 1.0);
  list->RecordUpload(3, 1.0);
  EXPECT_EQ(Collect(*list, 3), (std::vector<uint32_t>{3, 2, 1}));
}

TEST(LruListTest, EvictsLeastRecent) {
  auto list = MakeNeighbourList(StrategyKind::kLru, 2);
  list->RecordUpload(1, 1.0);
  list->RecordUpload(2, 1.0);
  list->RecordUpload(3, 1.0);  // Evicts 1.
  EXPECT_EQ(Collect(*list, 10), (std::vector<uint32_t>{3, 2}));
  EXPECT_EQ(list->size(), 2u);
}

TEST(LruListTest, ReuseMovesToFront) {
  auto list = MakeNeighbourList(StrategyKind::kLru, 3);
  list->RecordUpload(1, 1.0);
  list->RecordUpload(2, 1.0);
  list->RecordUpload(1, 1.0);
  EXPECT_EQ(Collect(*list, 3), (std::vector<uint32_t>{1, 2}));
}

TEST(LruListTest, CollectRespectsK) {
  auto list = MakeNeighbourList(StrategyKind::kLru, 5);
  for (uint32_t p = 0; p < 5; ++p) {
    list->RecordUpload(p, 1.0);
  }
  EXPECT_EQ(Collect(*list, 2).size(), 2u);
  EXPECT_EQ(Collect(*list, 2)[0], 4u);
}

TEST(HistoryListTest, RanksByUploadCount) {
  auto list = MakeNeighbourList(StrategyKind::kHistory, 10);
  list->RecordUpload(1, 1.0);
  list->RecordUpload(2, 1.0);
  list->RecordUpload(2, 1.0);
  list->RecordUpload(3, 1.0);
  list->RecordUpload(3, 1.0);
  list->RecordUpload(3, 1.0);
  EXPECT_EQ(Collect(*list, 3), (std::vector<uint32_t>{3, 2, 1}));
}

TEST(HistoryListTest, RecencyBreaksTies) {
  auto list = MakeNeighbourList(StrategyKind::kHistory, 10);
  list->RecordUpload(1, 1.0);
  list->RecordUpload(2, 1.0);  // Same count, used later.
  EXPECT_EQ(Collect(*list, 2), (std::vector<uint32_t>{2, 1}));
}

TEST(PopularityWeightedTest, RareUploadsCountMore) {
  auto list = MakeNeighbourList(StrategyKind::kPopularityWeighted, 10);
  // Peer 1: three popular files (weight 0.01 each). Peer 2: one rare file.
  list->RecordUpload(1, 0.01);
  list->RecordUpload(1, 0.01);
  list->RecordUpload(1, 0.01);
  list->RecordUpload(2, 1.0);
  EXPECT_EQ(Collect(*list, 1), (std::vector<uint32_t>{2}));
}

TEST(PopularityWeightedTest, HistoryIgnoresRarity) {
  auto list = MakeNeighbourList(StrategyKind::kHistory, 10);
  list->RecordUpload(1, 0.01);
  list->RecordUpload(1, 0.01);
  list->RecordUpload(2, 1.0);
  EXPECT_EQ(Collect(*list, 1), (std::vector<uint32_t>{1}));
}

TEST(ScoredListTest, CollectTruncatesToKnownPeers) {
  auto list = MakeNeighbourList(StrategyKind::kHistory, 10);
  list->RecordUpload(7, 1.0);
  EXPECT_EQ(Collect(*list, 5), (std::vector<uint32_t>{7}));
  EXPECT_EQ(list->size(), 1u);
}

TEST(ScoredListTest, CollectNeverExceedsCapacity) {
  for (const StrategyKind kind :
       {StrategyKind::kHistory, StrategyKind::kPopularityWeighted, StrategyKind::kLru}) {
    auto list = MakeNeighbourList(kind, 3);
    for (uint32_t p = 0; p < 8; ++p) {
      list->RecordUpload(p, 1.0);
    }
    EXPECT_EQ(Collect(*list, 10).size(), 3u) << StrategyName(kind);
    EXPECT_EQ(list->size(), 3u) << StrategyName(kind);
  }
}

// The full-history ranking the frequency-based lists are defined by: every
// uploader's accumulated score, ordered by score then recency, cut to k.
class ReferenceScoredList {
 public:
  explicit ReferenceScoredList(bool rarity_weighted) : rarity_weighted_(rarity_weighted) {}

  void RecordUpload(uint32_t uploader, double rarity_weight) {
    Entry& entry = entries_[uploader];
    entry.score += rarity_weighted_ ? rarity_weight : 1.0;
    entry.last_used = ++clock_;
  }

  std::vector<uint32_t> Collect(size_t k) const {
    std::vector<std::pair<uint32_t, Entry>> all(entries_.begin(), entries_.end());
    const size_t take = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(take), all.end(),
                      [](const auto& a, const auto& b) {
                        if (a.second.score != b.second.score) {
                          return a.second.score > b.second.score;
                        }
                        return a.second.last_used > b.second.last_used;
                      });
    std::vector<uint32_t> out;
    for (size_t i = 0; i < take; ++i) {
      out.push_back(all[i].first);
    }
    return out;
  }

 private:
  struct Entry {
    double score = 0;
    uint64_t last_used = 0;
  };

  bool rarity_weighted_;
  uint64_t clock_ = 0;
  std::unordered_map<uint32_t, Entry> entries_;
};

struct OracleParam {
  StrategyKind strategy;
  size_t capacity;
  uint32_t universe;  // Distinct uploaders drawn from.
  uint64_t seed;
};

// Spelled out so test names never show the struct's padding bytes.
void PrintTo(const OracleParam& param, std::ostream* os) {
  *os << StrategyName(param.strategy) << " capacity=" << param.capacity
      << " universe=" << param.universe << " seed=" << param.seed;
}

class ScoredListOracleTest : public ::testing::TestWithParam<OracleParam> {};

// After every upload of a seeded random stream, Collect(k) equals the
// reference's top k for every k <= capacity. Weights come from a small set
// so equal scores (and hence recency tie-breaks) are common; a skewed
// uploader choice lets rare peers fall out of the list and climb back.
TEST_P(ScoredListOracleTest, MatchesFullHistoryRanking) {
  const OracleParam param = GetParam();
  const bool weighted = param.strategy == StrategyKind::kPopularityWeighted;
  auto list = MakeNeighbourList(param.strategy, param.capacity);
  ReferenceScoredList reference(weighted);
  Rng rng(param.seed);
  const double weights[] = {1.0, 0.5, 0.25, 1.0 / 3.0};
  for (int step = 0; step < 600; ++step) {
    uint32_t uploader = static_cast<uint32_t>(rng.NextBelow(param.universe));
    if (rng.NextBelow(2) == 0) {
      uploader = static_cast<uint32_t>(rng.NextBelow(1 + param.universe / 4));
    }
    const double weight = weights[rng.NextBelow(4)];
    list->RecordUpload(uploader, weight);
    reference.RecordUpload(uploader, weight);
    const std::vector<uint32_t> expected = reference.Collect(param.capacity);
    ASSERT_EQ(list->size(), expected.size()) << "step " << step;
    for (size_t k = 0; k <= param.capacity; ++k) {
      // Keys are unique (recency), so the reference's top k is a prefix.
      const std::vector<uint32_t> top_k(
          expected.begin(), expected.begin() + static_cast<long>(std::min(k, expected.size())));
      ASSERT_EQ(Collect(*list, k), top_k) << "step " << step << " k " << k;
    }
  }
}

std::vector<OracleParam> OracleParams() {
  std::vector<OracleParam> params;
  uint64_t seed = 100;
  for (const StrategyKind strategy :
       {StrategyKind::kHistory, StrategyKind::kPopularityWeighted}) {
    for (const size_t capacity : {1, 5, 20, 40}) {
      // Universes smaller than, equal to and far larger than the list.
      for (const uint32_t universe :
           {static_cast<uint32_t>(capacity / 2 + 1), static_cast<uint32_t>(capacity),
            static_cast<uint32_t>(capacity * 4), 300u}) {
        params.push_back({strategy, capacity, universe, seed++});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(StrategiesCapacitiesUniverses, ScoredListOracleTest,
                         ::testing::ValuesIn(OracleParams()));

}  // namespace
}  // namespace edk
