// Pinned outputs of the crawl simulation. The values were recorded from the
// crawl on its original single-queue kernel, before it moved onto the
// sharded engine; the move must reproduce every one of them. Delivery
// delays and connect jitter draw from different streams on the engine, so
// only outputs that do not depend on exact arrival times are pinned: the
// per-day discovery and browse counts, the ground truth, the message total
// and, on days whose browse budget does not bind, what the crawler saw.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/crawler/crawler.h"
#include "src/exec/parallel.h"

namespace edk {
namespace {

CrawlConfig SmallCrawlConfig() {
  CrawlConfig config;
  config.workload.num_peers = 300;
  config.workload.num_files = 2'000;
  config.workload.num_topics = 30;
  config.workload.num_days = 6;
  config.num_servers = 2;
  config.prefix_length = 1;
  return config;
}

// The same crawl under a budget that binds from the first day, so every
// day browses a random subset of the discovered users.
CrawlConfig BudgetBoundCrawlConfig() {
  CrawlConfig config = SmallCrawlConfig();
  config.initial_daily_browse_budget = 60;
  config.browse_budget_decay = 0.8;
  return config;
}

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// FNV-1a over every (peer, day, file ids) snapshot, in peer order.
uint64_t SnapshotDigest(const Trace& trace) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t p = 0; p < trace.peer_count(); ++p) {
    for (const CacheSnapshot& snapshot :
         trace.timeline(PeerId(static_cast<uint32_t>(p))).snapshots) {
      hash = Fnv(hash, p);
      hash = Fnv(hash, static_cast<uint64_t>(snapshot.day));
      hash = Fnv(hash, snapshot.files.size());
      for (FileId file : snapshot.files) {
        hash = Fnv(hash, file.value);
      }
    }
  }
  return hash;
}

std::vector<uint32_t> UsersPerDay(const CrawlResult& result) {
  std::vector<uint32_t> users;
  for (const CrawlDayStats& day : result.days) {
    users.push_back(day.users_discovered);
  }
  return users;
}

std::vector<uint32_t> BrowsesPerDay(const CrawlResult& result) {
  std::vector<uint32_t> browses;
  for (const CrawlDayStats& day : result.days) {
    browses.push_back(day.browses_succeeded);
  }
  return browses;
}

std::vector<uint64_t> FilesSeenPerDay(const CrawlResult& result) {
  std::vector<uint64_t> files;
  for (const CrawlDayStats& day : result.days) {
    files.push_back(day.files_seen);
  }
  return files;
}

TEST(CrawlInvariantsTest, SmallCrawlMatchesThePinnedOutputs) {
  const CrawlResult result = RunCrawlSimulation(SmallCrawlConfig());
  EXPECT_EQ(UsersPerDay(result), (std::vector<uint32_t>{135, 131, 137, 155, 139, 133}));
  EXPECT_EQ(BrowsesPerDay(result), (std::vector<uint32_t>{133, 129, 135, 153, 137, 131}));
  EXPECT_EQ(FilesSeenPerDay(result),
            (std::vector<uint64_t>{388, 509, 580, 886, 836, 814}));
  EXPECT_EQ(result.ground_truth.TotalSnapshots(), 1050u);
  EXPECT_EQ(SnapshotDigest(result.ground_truth), 0x292115c26c4b6ec6ULL);
  EXPECT_EQ(SnapshotDigest(result.observed), 0x268b2d99934ce180ULL);
  EXPECT_EQ(result.messages_sent, 6466u);
}

TEST(CrawlInvariantsTest, BudgetBoundCrawlMatchesThePinnedCounts) {
  const CrawlResult result = RunCrawlSimulation(BudgetBoundCrawlConfig());
  EXPECT_EQ(UsersPerDay(result), (std::vector<uint32_t>{135, 131, 137, 155, 139, 133}));
  EXPECT_EQ(BrowsesPerDay(result), (std::vector<uint32_t>{60, 48, 38, 30, 24, 19}));
  EXPECT_EQ(SnapshotDigest(result.ground_truth), 0x292115c26c4b6ec6ULL);
  EXPECT_EQ(result.messages_sent, 5268u);
}

TEST(CrawlInvariantsTest, ResultIsIndependentOfTheExecPoolSize) {
  SetDefaultThreads(1);
  const CrawlResult serial = RunCrawlSimulation(BudgetBoundCrawlConfig());
  SetDefaultThreads(4);
  const CrawlResult parallel = RunCrawlSimulation(BudgetBoundCrawlConfig());
  SetDefaultThreads(0);
  EXPECT_EQ(UsersPerDay(serial), UsersPerDay(parallel));
  EXPECT_EQ(BrowsesPerDay(serial), BrowsesPerDay(parallel));
  EXPECT_EQ(FilesSeenPerDay(serial), FilesSeenPerDay(parallel));
  EXPECT_EQ(SnapshotDigest(serial.observed), SnapshotDigest(parallel.observed));
  EXPECT_EQ(SnapshotDigest(serial.ground_truth), SnapshotDigest(parallel.ground_truth));
  EXPECT_EQ(serial.messages_sent, parallel.messages_sent);
}

}  // namespace
}  // namespace edk
