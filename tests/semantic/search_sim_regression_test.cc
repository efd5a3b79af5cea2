// Pinned end-to-end results of the semantic search simulator on a small
// generated workload. Every SearchSimResult field is pinned, the per-peer
// load vector through its size, sum, maximum and an FNV-1a digest, so any
// change to neighbour ranking, RNG consumption or accounting shows here.
// The values were recorded with the full-history partial_sort ranking that
// preceded the incremental top-k lists; the two must agree exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/semantic/search_sim.h"
#include "src/trace/filter.h"
#include "src/workload/generator.h"

namespace edk {
namespace {

const StaticCaches& Caches() {
  static const StaticCaches caches = [] {
    return BuildUnionCaches(
        Extrapolate(FilterDuplicates(GenerateWorkload(SmallWorkloadConfig()).trace)));
  }();
  return caches;
}

std::string Join(const std::vector<uint64_t>& values) {
  std::ostringstream out;
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ",") << values[i];
  }
  return out.str();
}

std::string Summarise(const SearchSimResult& r) {
  uint64_t sum = 0;
  uint32_t max = 0;
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const uint32_t v : r.load) {
    sum += v;
    max = std::max(max, v);
    for (int byte = 0; byte < 4; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;
    }
  }
  std::ostringstream out;
  out << "seeds=" << r.seeds << " requests=" << r.requests
      << " one_hop=" << r.one_hop_hits << " two_hop=" << r.two_hop_hits
      << " fallbacks=" << r.fallbacks << " messages=" << r.messages
      << " probes=" << r.two_hop_probes << " load=" << r.load.size() << "/"
      << sum << "/" << max << "/" << std::hex << digest << std::dec
      << " req_pop=" << Join(r.requests_by_popularity)
      << " hit_pop=" << Join(r.hits_by_popularity);
  return out.str();
}

struct Pinned {
  StrategyKind strategy;
  bool two_hop;
  double availability;
  const char* expected;
};

// Spelled out so test names never show the struct's padding bytes.
void PrintTo(const Pinned& pinned, std::ostream* os) {
  *os << StrategyName(pinned.strategy) << (pinned.two_hop ? " two-hop" : " one-hop")
      << " availability=" << pinned.availability;
}

class SearchSimRegressionTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(SearchSimRegressionTest, MatchesPinnedResult) {
  const Pinned& pinned = GetParam();
  SearchSimConfig config;
  config.strategy = pinned.strategy;
  config.list_size = 5;
  config.two_hop = pinned.two_hop;
  config.seed = 5;
  config.track_load = true;
  config.neighbour_availability = pinned.availability;
  EXPECT_EQ(Summarise(RunSearchSimulation(Caches(), config)), pinned.expected);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesHopsAvailability, SearchSimRegressionTest,
    ::testing::Values(
        Pinned{StrategyKind::kLru, false, 1.0,
               "seeds=4203 requests=3870 one_hop=1230 two_hop=0 "
               "fallbacks=2640 messages=12966 probes=0 "
               "load=945/12966/1144/3f07edcc5cd255e9 "
               "req_pop=1787,1253,575,201,54 hit_pop=333,457,263,136,41"},
        Pinned{StrategyKind::kLru, false, 0.7,
               "seeds=4203 requests=3870 one_hop=877 two_hop=0 "
               "fallbacks=2993 messages=9730 probes=0 "
               "load=945/9730/823/b8dfb94712a1b994 "
               "req_pop=1787,1253,575,201,54 hit_pop=230,310,201,103,33"},
        Pinned{StrategyKind::kLru, true, 1.0,
               "seeds=4203 requests=3870 one_hop=1318 two_hop=782 "
               "fallbacks=1770 messages=36914 probes=24257 "
               "load=945/36914/2178/7c525c33204a83cc "
               "req_pop=1787,1253,575,201,54 hit_pop=620,773,467,188,52"},
        Pinned{StrategyKind::kLru, true, 0.7,
               "seeds=4203 requests=3870 one_hop=957 two_hop=542 "
               "fallbacks=2371 messages=25324 probes=15761 "
               "load=945/25324/1487/c9b620e2b6addbfd "
               "req_pop=1787,1253,575,201,54 hit_pop=398,528,361,161,51"},
        Pinned{StrategyKind::kHistory, false, 1.0,
               "seeds=4203 requests=3870 one_hop=1414 two_hop=0 "
               "fallbacks=2456 messages=12009 probes=0 "
               "load=945/12009/1429/64ad519c48d722d9 "
               "req_pop=1787,1253,575,201,54 hit_pop=386,535,314,136,43"},
        Pinned{StrategyKind::kHistory, false, 0.7,
               "seeds=4203 requests=3870 one_hop=1058 two_hop=0 "
               "fallbacks=2812 messages=9228 probes=0 "
               "load=945/9228/1012/6a36db1747b30a13 "
               "req_pop=1787,1253,575,201,54 hit_pop=297,396,227,104,34"},
        Pinned{StrategyKind::kHistory, true, 1.0,
               "seeds=4203 requests=3870 one_hop=1495 two_hop=693 "
               "fallbacks=1682 messages=31069 probes=19299 "
               "load=945/31069/2283/2dfe21969ac3878e "
               "req_pop=1787,1253,575,201,54 hit_pop=648,821,480,187,52"},
        Pinned{StrategyKind::kHistory, true, 0.7,
               "seeds=4203 requests=3870 one_hop=1061 two_hop=489 "
               "fallbacks=2320 messages=22340 probes=13272 "
               "load=945/22340/1645/42544b6b5705693c "
               "req_pop=1787,1253,575,201,54 hit_pop=414,569,354,165,48"},
        Pinned{StrategyKind::kPopularityWeighted, false, 1.0,
               "seeds=4203 requests=3870 one_hop=1410 two_hop=0 "
               "fallbacks=2460 messages=12191 probes=0 "
               "load=945/12191/1220/43867858d394b45d "
               "req_pop=1787,1253,575,201,54 hit_pop=408,524,291,142,45"},
        Pinned{StrategyKind::kPopularityWeighted, false, 0.7,
               "seeds=4203 requests=3870 one_hop=1025 two_hop=0 "
               "fallbacks=2845 messages=9253 probes=0 "
               "load=945/9253/939/e757f2828867452a "
               "req_pop=1787,1253,575,201,54 hit_pop=285,372,220,111,37"},
        Pinned{StrategyKind::kPopularityWeighted, true, 1.0,
               "seeds=4203 requests=3870 one_hop=1452 two_hop=736 "
               "fallbacks=1682 messages=33323 probes=21201 "
               "load=945/33323/2026/37ee7cc07a5d24fc "
               "req_pop=1787,1253,575,201,54 hit_pop=667,817,465,187,52"},
        Pinned{StrategyKind::kPopularityWeighted, true, 0.7,
               "seeds=4203 requests=3870 one_hop=1054 two_hop=513 "
               "fallbacks=2303 messages=23115 probes=13947 "
               "load=945/23115/1466/ce197090b3b55f44 "
               "req_pop=1787,1253,575,201,54 hit_pop=437,582,341,158,49"}));

}  // namespace
}  // namespace edk
