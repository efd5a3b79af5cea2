// Behaviour of the two-tier semantic gossip (RunShardedGossip) and of the
// converged views it exports: free riders sit out, views are well formed
// and converge onto the peer's own interest community, the trajectory
// improves, degenerate populations are harmless at any partitioning, the
// views are partition-independent, and as fixed neighbour lists they
// beat random lists in the §5.1 request replay.

#include "src/semantic/sharded_gossip.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/semantic/search_sim.h"
#include "src/sim/placement.h"
#include "src/workload/geography.h"

namespace edk {
namespace {

using Views = std::vector<std::vector<uint32_t>>;

constexpr sim::PlacementPolicy kPlacements[] = {
    sim::PlacementPolicy::kContiguous, sim::PlacementPolicy::kRoundRobin,
    sim::PlacementPolicy::kInterestClustered};

// `communities` disjoint groups of `members` peers; each cache holds 15 of
// its community's 40 files (community c owns files c*1000 ..). Every third
// peer id is a free rider, so the exported views must translate
// participant indices back to raw peer ids.
StaticCaches CommunityCaches(size_t communities, size_t members, uint64_t seed) {
  Rng rng(seed);
  StaticCaches caches;
  for (size_t c = 0; c < communities; ++c) {
    const uint32_t base = static_cast<uint32_t>(c) * 1000;
    for (size_t m = 0; m < members; ++m) {
      if (caches.caches.size() % 3 == 2) {
        caches.caches.emplace_back();
      }
      std::vector<FileId> cache;
      while (cache.size() < 15) {
        const FileId f(base + static_cast<uint32_t>(rng.NextBelow(40)));
        if (std::find(cache.begin(), cache.end(), f) == cache.end()) {
          cache.push_back(f);
        }
      }
      std::sort(cache.begin(), cache.end());
      caches.caches.push_back(std::move(cache));
    }
  }
  return caches;
}

uint32_t CommunityOf(const StaticCaches& caches, uint32_t peer) {
  return caches.caches[peer].front().value / 1000;
}

ShardedGossipConfig Config(size_t rounds) {
  ShardedGossipConfig config;
  config.rounds = rounds;
  config.hit_samples = 2000;
  config.seed = 7;
  return config;
}

Views RunForViews(const StaticCaches& caches, const ShardedGossipConfig& config,
                  ShardedGossipStats* stats = nullptr) {
  Views views;
  const ShardedGossipStats run = RunShardedGossip(
      caches, Geography::PaperDistribution(), config, &views);
  if (stats != nullptr) {
    *stats = run;
  }
  return views;
}

TEST(GossipTest, FreeRidersGetEmptyViewsAndDoNotParticipate) {
  const StaticCaches caches = CommunityCaches(2, 10, 1);
  ShardedGossipStats stats;
  const Views views = RunForViews(caches, Config(16), &stats);
  EXPECT_EQ(stats.participants, 20u);
  ASSERT_EQ(views.size(), caches.caches.size());
  ASSERT_GT(caches.caches.size(), 20u);
  for (uint32_t p = 0; p < caches.caches.size(); ++p) {
    SCOPED_TRACE("peer=" + std::to_string(p));
    EXPECT_EQ(views[p].empty(), caches.caches[p].empty());
    for (uint32_t member : views[p]) {
      ASSERT_LT(member, caches.caches.size());
      EXPECT_FALSE(caches.caches[member].empty()) << "free rider in a view";
    }
  }
}

TEST(GossipTest, ViewsAreBoundedSelfFreeAndDuplicateFree) {
  const StaticCaches caches = CommunityCaches(3, 12, 2);
  ShardedGossipConfig config = Config(10);
  config.view_size = 6;
  const Views views = RunForViews(caches, config);
  for (uint32_t p = 0; p < views.size(); ++p) {
    const auto& view = views[p];
    EXPECT_LE(view.size(), 6u);
    EXPECT_EQ(std::find(view.begin(), view.end(), p), view.end()) << "self in view";
    auto sorted = view;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(GossipTest, ConvergesToOwnCommunity) {
  for (size_t communities : {2u, 3u, 4u}) {
    SCOPED_TRACE("communities=" + std::to_string(communities));
    const StaticCaches caches = CommunityCaches(communities, 15, 3);
    ShardedGossipConfig config = Config(25);
    config.view_size = 8;
    const Views views = RunForViews(caches, config);
    size_t same = 0;
    size_t total = 0;
    for (uint32_t p = 0; p < views.size(); ++p) {
      for (uint32_t neighbour : views[p]) {
        same += CommunityOf(caches, neighbour) == CommunityOf(caches, p) ? 1 : 0;
        ++total;
      }
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(same) / static_cast<double>(total), 0.9);
  }
}

TEST(GossipTest, TrajectoryImprovesFromFirstToLastRound) {
  const StaticCaches caches = CommunityCaches(4, 12, 4);
  ShardedGossipStats stats;
  RunForViews(caches, Config(20), &stats);
  ASSERT_EQ(stats.trajectory.size(), 20u);
  const GossipRoundPoint& first = stats.trajectory.front();
  const GossipRoundPoint& last = stats.trajectory.back();
  EXPECT_EQ(first.round, 1u);
  EXPECT_EQ(last.round, 20u);
  EXPECT_GT(last.mean_view_overlap, first.mean_view_overlap);
  EXPECT_GT(last.view_hit_rate, first.view_hit_rate);
  EXPECT_GT(last.view_hit_rate, 0.5);  // Community caches overlap heavily.
  EXPECT_DOUBLE_EQ(stats.mean_view_overlap, last.mean_view_overlap);
  EXPECT_DOUBLE_EQ(stats.view_hit_rate, last.view_hit_rate);
}

TEST(GossipTest, DegenerateInputsAtAnyPartitioning) {
  StaticCaches free_riders;  // Nobody to gossip.
  free_riders.caches.resize(10);
  StaticCaches lonely;  // One participant: nobody to gossip with.
  lonely.caches.resize(3);
  lonely.caches[1] = {FileId(1), FileId(2)};

  for (size_t shards : {1u, 4u}) {
    for (sim::PlacementPolicy placement : kPlacements) {
      SCOPED_TRACE(std::string("placement=") +
                   sim::PlacementPolicyName(placement) +
                   " shards=" + std::to_string(shards));
      ShardedGossipConfig config = Config(4);
      config.shards = shards;
      config.placement = placement;
      for (const StaticCaches* caches : {&free_riders, &lonely}) {
        ShardedGossipStats stats;
        const Views views = RunForViews(*caches, config, &stats);
        EXPECT_EQ(stats.participants, caches == &lonely ? 1u : 0u);
        EXPECT_EQ(stats.exchanges, 0u);
        EXPECT_DOUBLE_EQ(stats.mean_view_overlap, 0.0);
        EXPECT_DOUBLE_EQ(stats.view_hit_rate, 0.0);
        ASSERT_EQ(views.size(), caches->caches.size());
        for (const auto& view : views) {
          EXPECT_TRUE(view.empty());
        }
      }
    }
  }
}

// The determinism contract extends to the exported views: they feed the
// search simulator in bench_ext_gossip, so a partition-dependent view
// would change a printed figure.
TEST(GossipTest, ViewsBitIdenticalAcrossShardsThreadsAndPlacements) {
  StaticCaches caches = MakeClusteredCaches(600, 1600, 16, 5);
  for (size_t p = 0; p < caches.caches.size(); p += 7) {
    caches.caches[p].clear();  // Free riders between participants.
  }
  ShardedGossipConfig config = Config(6);
  config.explore_every = 3;

  Views reference;
  for (sim::PlacementPolicy placement : kPlacements) {
    for (size_t shards : {1u, 2u, 4u}) {
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string("placement=") +
                     sim::PlacementPolicyName(placement) +
                     " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        config.placement = placement;
        config.shards = shards;
        config.threads = threads;
        const Views views = RunForViews(caches, config);
        if (reference.empty()) {
          reference = views;
          size_t members = 0;
          for (const auto& view : views) {
            members += view.size();
          }
          ASSERT_GT(members, caches.caches.size());  // Real views, not empty.
        }
        EXPECT_EQ(views, reference);
      }
    }
  }
}

TEST(GossipTest, FixedViewsDriveSearchSimulation) {
  const StaticCaches caches = CommunityCaches(4, 12, 8);
  ShardedGossipConfig config = Config(20);
  config.view_size = 8;
  const Views views = RunForViews(caches, config);

  SearchSimConfig fixed;
  fixed.list_size = 8;
  fixed.fixed_views = &views;
  const auto with_gossip = RunSearchSimulation(caches, fixed);
  SearchSimConfig random;
  random.strategy = StrategyKind::kRandom;
  random.list_size = 8;
  const auto with_random = RunSearchSimulation(caches, random);
  EXPECT_EQ(with_gossip.seeds + with_gossip.requests, caches.TotalReplicas());
  EXPECT_GT(with_gossip.OneHopHitRate(), with_random.OneHopHitRate());
  // Two-hop over fixed views also works.
  SearchSimConfig fixed_two = fixed;
  fixed_two.two_hop = true;
  const auto two = RunSearchSimulation(caches, fixed_two);
  EXPECT_GE(two.TotalHitRate(), with_gossip.OneHopHitRate() - 0.02);
}

TEST(GossipTest, ClusteredCachesRejectZeroFiles) {
  EXPECT_THROW(MakeClusteredCaches(10, 0, 4, 1), std::invalid_argument);
  EXPECT_THROW(MakeClusteredCaches(10, 0, 0, 1), std::invalid_argument);
  EXPECT_EQ(MakeClusteredCaches(10, 1, 4, 1).caches.size(), 10u);
}

}  // namespace
}  // namespace edk
