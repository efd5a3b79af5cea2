// Property sweeps of the semantic search simulator across strategies, list
// sizes and seeds: accounting identities and qualitative orderings must
// hold everywhere.

#include <gtest/gtest.h>

#include <ostream>

#include "src/common/rng.h"
#include "src/semantic/scenario.h"
#include "src/semantic/search_sim.h"

namespace edk {
namespace {

StaticCaches RandomClusteredCaches(uint64_t seed) {
  Rng rng(seed);
  StaticCaches caches;
  const size_t communities = 4 + rng.NextBelow(8);
  for (size_t c = 0; c < communities; ++c) {
    const size_t members = 8 + rng.NextBelow(15);
    const uint32_t base = static_cast<uint32_t>(c) * 500;
    for (size_t m = 0; m < members; ++m) {
      std::vector<FileId> cache;
      const size_t size = 5 + rng.NextBelow(25);
      while (cache.size() < size) {
        const FileId f(base + static_cast<uint32_t>(rng.NextBelow(80)));
        if (std::find(cache.begin(), cache.end(), f) == cache.end()) {
          cache.push_back(f);
        }
      }
      std::sort(cache.begin(), cache.end());
      caches.caches.push_back(std::move(cache));
    }
  }
  // Mix in a few free-riders (empty caches).
  for (int i = 0; i < 10; ++i) {
    caches.caches.emplace_back();
  }
  return caches;
}

struct SweepParam {
  StrategyKind strategy;
  size_t list_size;
  bool two_hop;
  uint64_t seed;
};

// Spelled out so test names never show the struct's padding bytes.
void PrintTo(const SweepParam& param, std::ostream* os) {
  *os << StrategyName(param.strategy) << " list=" << param.list_size
      << (param.two_hop ? " two-hop" : " one-hop") << " seed=" << param.seed;
}

class SearchSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SearchSweepTest, AccountingInvariants) {
  const SweepParam param = GetParam();
  const StaticCaches caches = RandomClusteredCaches(param.seed);
  SearchSimConfig config;
  config.strategy = param.strategy;
  config.list_size = param.list_size;
  config.two_hop = param.two_hop;
  config.seed = param.seed;
  const SearchSimResult result = RunSearchSimulation(caches, config);

  // Every (peer, file) pair is either a seed or a request.
  EXPECT_EQ(result.seeds + result.requests, caches.TotalReplicas());
  // Every request resolves exactly one way.
  EXPECT_EQ(result.requests, result.one_hop_hits + result.two_hop_hits + result.fallbacks);
  if (!param.two_hop) {
    EXPECT_EQ(result.two_hop_hits, 0u);
  }
  // Load bookkeeping matches message count.
  uint64_t load_sum = 0;
  for (uint32_t l : result.load) {
    load_sum += l;
  }
  EXPECT_EQ(load_sum, result.messages);
  // Hit rates are probabilities.
  EXPECT_GE(result.OneHopHitRate(), 0.0);
  EXPECT_LE(result.TotalHitRate(), 1.0);
  EXPECT_LE(result.OneHopHitRate(), result.TotalHitRate() + 1e-12);
  // A peer can be asked at most list_size (+ two-hop expansion) times per
  // request, so total messages are bounded.
  const uint64_t per_request_cap =
      param.list_size * (param.two_hop ? param.list_size + 1 : 1);
  EXPECT_LE(result.messages, result.requests * per_request_cap);
}

TEST_P(SearchSweepTest, DeterministicAcrossRuns) {
  const SweepParam param = GetParam();
  const StaticCaches caches = RandomClusteredCaches(param.seed);
  SearchSimConfig config;
  config.strategy = param.strategy;
  config.list_size = param.list_size;
  config.two_hop = param.two_hop;
  config.seed = param.seed;
  const SearchSimResult a = RunSearchSimulation(caches, config);
  const SearchSimResult b = RunSearchSimulation(caches, config);
  EXPECT_EQ(a.one_hop_hits, b.one_hop_hits);
  EXPECT_EQ(a.two_hop_hits, b.two_hop_hits);
  EXPECT_EQ(a.messages, b.messages);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchSweepTest,
    ::testing::Values(SweepParam{StrategyKind::kLru, 1, false, 11},
                      SweepParam{StrategyKind::kLru, 5, false, 12},
                      SweepParam{StrategyKind::kLru, 20, false, 13},
                      SweepParam{StrategyKind::kLru, 5, true, 14},
                      SweepParam{StrategyKind::kLru, 20, true, 15},
                      SweepParam{StrategyKind::kHistory, 5, false, 16},
                      SweepParam{StrategyKind::kHistory, 20, false, 17},
                      SweepParam{StrategyKind::kHistory, 10, true, 18},
                      SweepParam{StrategyKind::kPopularityWeighted, 10, false, 19},
                      SweepParam{StrategyKind::kPopularityWeighted, 10, true, 20},
                      SweepParam{StrategyKind::kRandom, 5, false, 21},
                      SweepParam{StrategyKind::kRandom, 50, false, 22}));

class ScenarioPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioPropertyTest, RemovalMonotonicity) {
  const StaticCaches caches = RandomClusteredCaches(GetParam());
  // More uploaders removed -> fewer replicas remain.
  size_t previous = caches.TotalReplicas() + 1;
  for (double fraction : {0.0, 0.1, 0.3, 0.6, 1.0}) {
    const size_t replicas = RemoveTopUploaders(caches, fraction).TotalReplicas();
    EXPECT_LE(replicas, previous);
    previous = replicas;
  }
  // Same for file removal.
  previous = caches.TotalReplicas() + 1;
  for (double fraction : {0.0, 0.1, 0.3, 0.6}) {
    const size_t replicas = RemoveTopFiles(caches, fraction, 10'000).TotalReplicas();
    EXPECT_LE(replicas, previous);
    previous = replicas;
  }
}

TEST_P(ScenarioPropertyTest, FileRemovalIsReplicaWeighted) {
  const StaticCaches caches = RandomClusteredCaches(GetParam());
  const auto reduced = RemoveTopFiles(caches, 0.10, 10'000);
  const auto counts = caches.SourceCounts(10'000);
  size_t files_with_sources = 0;
  for (uint32_t c : counts) {
    files_with_sources += c > 0 ? 1 : 0;
  }
  const double file_fraction = 0.10;
  const double replica_fraction =
      1.0 - static_cast<double>(reduced.TotalReplicas()) /
                static_cast<double>(caches.TotalReplicas());
  // Removing the most popular 10% of files always removes at least 10% of
  // replicas (they are the most replicated by construction).
  if (files_with_sources >= 10) {
    EXPECT_GE(replica_fraction, file_fraction - 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioPropertyTest, ::testing::Values(31, 32, 33, 34));

}  // namespace
}  // namespace edk
