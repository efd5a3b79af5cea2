// Integration tests of the network substrate: a download swarm seeded by a
// single client, with partial sharing propagating availability, corruption
// injection, and server churn.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/client.h"
#include "src/net/download_manager.h"
#include "src/net/server.h"

namespace edk {
namespace {

class SwarmTest : public ::testing::Test {
 protected:
  SwarmTest() : geo_(Geography::PaperDistribution()), network_(&geo_, SimNetConfig{.seed = 31}) {
    server_ = std::make_unique<SimServer>(&network_, ServerConfig{});
    server_->set_attachment(geo_.FindCountry("DE"), AsId(3));
  }

  std::unique_ptr<SimClient> MakeClient(const std::string& nickname,
                                        double corruption = 0.0) {
    ClientConfig config;
    config.nickname = nickname;
    config.block_size = 256;
    config.content_scale = 0.001;
    config.corruption_probability = corruption;
    auto client = std::make_unique<SimClient>(&network_, config);
    client->set_attachment(geo_.FindCountry("FR"), AsId(0));
    client->Connect(server_->node_id(), nullptr);
    network_.Run();
    return client;
  }

  Geography geo_;
  SimNetwork network_;
  std::unique_ptr<SimServer> server_;
};

TEST_F(SwarmTest, FilePropagatesThroughSwarm) {
  // One seed, chain of 5 downloaders, each fetching from the previous one.
  const auto info = SimClient::MakeFileInfo(FileId(77), 2'000'000, "swarm.avi");
  auto seed = MakeClient("seed");
  seed->AddLocalFile(info);
  seed->Publish();
  network_.Run();

  std::vector<std::unique_ptr<SimClient>> swarm;
  NodeId previous = seed->node_id();
  for (int i = 0; i < 5; ++i) {
    auto peer = MakeClient("leech" + std::to_string(i));
    bool done = false;
    peer->Download(previous, info, [&done](bool ok) { done = ok; });
    network_.Run();
    ASSERT_TRUE(done) << "hop " << i;
    ASSERT_TRUE(peer->HasCompleteFile(info.digest));
    previous = peer->node_id();
    swarm.push_back(std::move(peer));
  }
  // Everyone republished: the server now lists 6 sources.
  std::vector<SourceRecord> sources;
  seed->QuerySources(info.digest, [&sources](auto s) { sources = std::move(s); });
  network_.Run();
  EXPECT_EQ(sources.size(), 6u);
}

TEST_F(SwarmTest, EveryBlockIsVerifiedAcrossTheSwarm) {
  const auto info = SimClient::MakeFileInfo(FileId(78), 3'000'000, "big swarm.avi");
  auto seed = MakeClient("seed");
  seed->AddLocalFile(info);
  auto a = MakeClient("a");
  auto b = MakeClient("b");
  a->Download(seed->node_id(), info, nullptr);
  network_.Run();
  b->Download(a->node_id(), info, nullptr);
  network_.Run();
  ASSERT_TRUE(b->HasCompleteFile(info.digest));
  const uint32_t blocks = seed->BlockCount(info.size_bytes);
  EXPECT_GE(blocks, 10u);
  EXPECT_GE(a->blocks_received(), blocks);
  EXPECT_GE(b->blocks_received(), blocks);
  EXPECT_EQ(a->blocks_corrupted() + b->blocks_corrupted(), 0u);
}

TEST_F(SwarmTest, CorruptionIsDetectedNotSilentlyAccepted) {
  // A source that corrupts aggressively: the download either completes
  // (after detected retries) or fails; it must never complete without the
  // corrupted blocks having been detected.
  auto bad_seed = MakeClient("badseed", /*corruption=*/0.5);
  const auto info = SimClient::MakeFileInfo(FileId(79), 2'000'000, "noisy.avi");
  bad_seed->AddLocalFile(info);
  auto leech = MakeClient("leech");
  bool completed = false;
  bool finished = false;
  leech->Download(bad_seed->node_id(), info, [&](bool ok) {
    completed = ok;
    finished = true;
  });
  network_.Run();
  ASSERT_TRUE(finished);
  EXPECT_GT(leech->blocks_corrupted(), 0u);
  if (completed) {
    EXPECT_TRUE(leech->HasCompleteFile(info.digest));
  } else {
    EXPECT_FALSE(leech->HasCompleteFile(info.digest));
    EXPECT_EQ(leech->downloads_failed(), 1u);
  }
}

TEST_F(SwarmTest, SourceDisappearingMidDownloadFailsCleanly) {
  const auto info = SimClient::MakeFileInfo(FileId(80), 5'000'000, "vanishing.avi");
  auto seed = MakeClient("seed");
  seed->AddLocalFile(info);
  auto leech = MakeClient("leech");
  bool finished = false;
  bool completed = true;
  leech->Download(seed->node_id(), info, [&](bool ok) {
    completed = ok;
    finished = true;
  });
  // Let the hashset exchange and a couple of blocks through, then the seed
  // stops sharing the file.
  network_.RunUntil(network_.now() + 0.8);
  seed->RemoveLocalFile(info.digest);
  network_.Run();
  ASSERT_TRUE(finished);
  EXPECT_FALSE(completed);
  EXPECT_FALSE(leech->HasCompleteFile(info.digest));
}

TEST_F(SwarmTest, ServerChurnDropsIndexButNotLocalFiles) {
  const auto info = SimClient::MakeFileInfo(FileId(81), 500'000, "steady.mp3");
  auto peer = MakeClient("steady");
  peer->AddLocalFile(info);
  peer->Publish();
  network_.Run();
  EXPECT_EQ(server_->indexed_files(), 1u);
  peer->Disconnect();
  network_.Run();
  EXPECT_EQ(server_->indexed_files(), 0u);
  EXPECT_TRUE(peer->HasCompleteFile(info.digest));
  // Reconnect republishes automatically.
  peer->Connect(server_->node_id(), nullptr);
  network_.Run();
  EXPECT_EQ(server_->indexed_files(), 1u);
}

TEST_F(SwarmTest, ConcurrentDownloadersFromOneSeed) {
  const auto info = SimClient::MakeFileInfo(FileId(82), 1'500'000, "hotfile.avi");
  auto seed = MakeClient("seed");
  seed->AddLocalFile(info);
  std::vector<std::unique_ptr<SimClient>> leeches;
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    leeches.push_back(MakeClient("l" + std::to_string(i)));
  }
  for (auto& leech : leeches) {
    leech->Download(seed->node_id(), info, [&completed](bool ok) {
      completed += ok ? 1 : 0;
    });
  }
  network_.Run();
  EXPECT_EQ(completed, 8);
  for (auto& leech : leeches) {
    EXPECT_TRUE(leech->HasCompleteFile(info.digest));
  }
}

// What a corrupting swarm did: per leech, the blocks it received, the
// corrupted blocks it detected and retried, and how its download ended.
struct CorruptSwarmOutcome {
  std::vector<uint64_t> blocks_received;
  std::vector<uint64_t> blocks_corrupted;
  std::vector<uint64_t> downloads_failed;
  std::vector<int> completed;  // 1 ok, 0 failed, -1 never finished.
  std::vector<uint32_t> manager_corrupted;
  std::vector<uint32_t> manager_sources_used;
  std::vector<int> manager_success;
  uint64_t messages = 0;
};

// Two corrupting seeds serve a crowd of leeches, half through
// SimClient::Download and half through a DownloadManager, on an engine with
// the given shard and thread counts. Each corruption draw belongs to the
// serving node, so the outcome must not depend on how nodes are sharded or
// on which worker runs them.
CorruptSwarmOutcome RunCorruptSwarm(size_t shards, size_t threads) {
  const Geography geo = Geography::PaperDistribution();
  SimNetConfig net_config;
  net_config.seed = 31;
  net_config.shards = shards;
  net_config.threads = threads;
  SimNetwork network(&geo, net_config);
  SimServer server(&network, ServerConfig{});
  server.set_attachment(geo.FindCountry("DE"), AsId(3));

  auto make_client = [&](const std::string& nickname, double corruption,
                         const char* country) {
    ClientConfig config;
    config.nickname = nickname;
    config.block_size = 256;
    config.content_scale = 0.001;
    config.corruption_probability = corruption;
    auto client = std::make_unique<SimClient>(&network, config);
    client->set_attachment(geo.FindCountry(country), AsId(0));
    client->Connect(server.node_id(), nullptr);
    return client;
  };
  const auto info = SimClient::MakeFileInfo(FileId(90), 3'000'000, "noisy swarm.avi");
  std::vector<std::unique_ptr<SimClient>> seeds;
  seeds.push_back(make_client("badseed0", 0.3, "FR"));
  seeds.push_back(make_client("badseed1", 0.2, "ES"));
  for (auto& seed : seeds) {
    seed->AddLocalFile(info);
  }
  constexpr size_t kLeeches = 8;
  std::vector<std::unique_ptr<SimClient>> leeches;
  for (size_t i = 0; i < kLeeches; ++i) {
    leeches.push_back(make_client("leech" + std::to_string(i), 0.0,
                                  i % 2 == 0 ? "FR" : "US"));
  }
  network.Run();

  CorruptSwarmOutcome outcome;
  outcome.completed.assign(kLeeches, -1);
  outcome.manager_corrupted.assign(kLeeches, 0);
  outcome.manager_sources_used.assign(kLeeches, 0);
  outcome.manager_success.assign(kLeeches, -1);
  std::vector<std::unique_ptr<DownloadManager>> managers(kLeeches);
  for (size_t i = 0; i < kLeeches; ++i) {
    if (i % 2 == 0) {
      leeches[i]->Download(seeds[i / 2 % 2]->node_id(), info,
                           [&outcome, i](bool ok) { outcome.completed[i] = ok ? 1 : 0; });
      continue;
    }
    managers[i] = std::make_unique<DownloadManager>(&network, leeches[i].get(),
                                                    MultiSourceConfig{});
    managers[i]->Fetch(info, [&outcome, i](const MultiSourceReport& report) {
      outcome.manager_corrupted[i] = report.corrupted_blocks;
      outcome.manager_sources_used[i] = report.sources_used;
      outcome.manager_success[i] = report.success ? 1 : 0;
    });
  }
  network.Run();
  for (const auto& leech : leeches) {
    outcome.blocks_received.push_back(leech->blocks_received());
    outcome.blocks_corrupted.push_back(leech->blocks_corrupted());
    outcome.downloads_failed.push_back(leech->downloads_failed());
  }
  outcome.messages = network.messages_sent();
  return outcome;
}

TEST(SwarmShardingTest, CorruptionDrawsAreIndependentOfShardsAndThreads) {
  const CorruptSwarmOutcome reference = RunCorruptSwarm(1, 1);
  uint64_t corrupted = 0;
  for (size_t i = 0; i < reference.blocks_corrupted.size(); ++i) {
    corrupted += reference.blocks_corrupted[i] + reference.manager_corrupted[i];
    // Even leeches download directly, odd ones through a manager.
    EXPECT_NE(i % 2 == 0 ? reference.completed[i] : reference.manager_success[i], -1)
        << "leech " << i << " never finished";
  }
  ASSERT_GT(corrupted, 0u) << "the seeds must actually corrupt blocks";
  for (size_t shards : {1, 2, 4}) {
    for (size_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards << " threads=" << threads);
      const CorruptSwarmOutcome outcome = RunCorruptSwarm(shards, threads);
      EXPECT_EQ(outcome.blocks_received, reference.blocks_received);
      EXPECT_EQ(outcome.blocks_corrupted, reference.blocks_corrupted);
      EXPECT_EQ(outcome.downloads_failed, reference.downloads_failed);
      EXPECT_EQ(outcome.completed, reference.completed);
      EXPECT_EQ(outcome.manager_corrupted, reference.manager_corrupted);
      EXPECT_EQ(outcome.manager_sources_used, reference.manager_sources_used);
      EXPECT_EQ(outcome.manager_success, reference.manager_success);
      EXPECT_EQ(outcome.messages, reference.messages);
    }
  }
}

}  // namespace
}  // namespace edk
