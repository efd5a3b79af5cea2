// Tests for the multi-source swarming download manager: source discovery
// via server + cross-server UDP queries, block scheduling across sources,
// partial-source awareness, corruption retry, source churn and the
// 20-minute re-query timer.

#include "src/net/download_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/server.h"

namespace edk {
namespace {

class DownloadManagerTest : public ::testing::Test {
 protected:
  DownloadManagerTest() : geo_(Geography::PaperDistribution()), network_(&geo_, SimNetConfig{.seed = 77}) {
    for (int s = 0; s < 3; ++s) {
      auto server = std::make_unique<SimServer>(&network_, ServerConfig{});
      server->set_attachment(geo_.FindCountry("DE"), AsId(3));
      servers_.push_back(std::move(server));
    }
    for (auto& a : servers_) {
      for (auto& b : servers_) {
        a->AddKnownServer(b->node_id());
      }
    }
  }

  std::unique_ptr<SimClient> MakeClient(const std::string& nickname,
                                        size_t server_index = 0,
                                        double corruption = 0.0) {
    ClientConfig config;
    config.nickname = nickname;
    config.block_size = 256;
    config.content_scale = 0.001;
    config.corruption_probability = corruption;
    auto client = std::make_unique<SimClient>(&network_, config);
    client->set_attachment(geo_.FindCountry("FR"), AsId(0));
    client->Connect(servers_[server_index]->node_id(), nullptr);
    network_.Run();
    return client;
  }

  Geography geo_;
  SimNetwork network_;
  std::vector<std::unique_ptr<SimServer>> servers_;
};

TEST_F(DownloadManagerTest, SingleSourceCompletes) {
  const auto info = SimClient::MakeFileInfo(FileId(1), 2'000'000, "single.avi");
  auto seed = MakeClient("seed");
  seed->AddLocalFile(info);
  seed->Publish();
  network_.Run();

  auto leech = MakeClient("leech");
  DownloadManager manager(&network_, leech.get(), MultiSourceConfig{});
  MultiSourceReport report;
  manager.Fetch(info, [&report](const MultiSourceReport& r) { report = r; });
  network_.Run();

  EXPECT_TRUE(report.success);
  EXPECT_TRUE(leech->HasCompleteFile(info.digest));
  EXPECT_EQ(report.sources_discovered, 1u);
  EXPECT_EQ(report.sources_used, 1u);
  EXPECT_EQ(report.corrupted_blocks, 0u);
  EXPECT_GT(report.block_count, 1u);
  EXPECT_FALSE(manager.active());
}

TEST_F(DownloadManagerTest, SpreadsBlocksAcrossSources) {
  const auto info = SimClient::MakeFileInfo(FileId(2), 6'000'000, "multi.avi");
  std::vector<std::unique_ptr<SimClient>> seeds;
  for (int i = 0; i < 4; ++i) {
    auto seed = MakeClient("seed" + std::to_string(i));
    seed->AddLocalFile(info);
    seed->Publish();
    seeds.push_back(std::move(seed));
  }
  network_.Run();

  auto leech = MakeClient("leech");
  DownloadManager manager(&network_, leech.get(), MultiSourceConfig{});
  MultiSourceReport report;
  manager.Fetch(info, [&report](const MultiSourceReport& r) { report = r; });
  network_.Run();

  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.sources_discovered, 4u);
  // With ~24 blocks and 4 parallel sources, several must contribute.
  EXPECT_GE(report.sources_used, 2u);
}

TEST_F(DownloadManagerTest, CrossServerDiscoveryViaUdp) {
  // Seed is on server 1, leech on server 0: only the UDP cross-server
  // query can find the source.
  const auto info = SimClient::MakeFileInfo(FileId(3), 1'000'000, "remote.avi");
  auto seed = MakeClient("seed", /*server_index=*/1);
  seed->AddLocalFile(info);
  seed->Publish();
  network_.Run();

  auto leech = MakeClient("leech", /*server_index=*/0);
  DownloadManager manager(&network_, leech.get(), MultiSourceConfig{});
  MultiSourceReport report;
  manager.Fetch(info, [&report](const MultiSourceReport& r) { report = r; });
  network_.Run();
  EXPECT_TRUE(report.success);

  // Control: with global queries disabled the source is invisible.
  const auto info2 = SimClient::MakeFileInfo(FileId(4), 1'000'000, "remote2.avi");
  seed->AddLocalFile(info2);
  seed->Publish();
  network_.Run();
  MultiSourceConfig local_only;
  local_only.use_global_queries = false;
  local_only.max_requery_rounds = 1;
  DownloadManager manager2(&network_, leech.get(), local_only);
  MultiSourceReport report2;
  report2.success = true;
  manager2.Fetch(info2, [&report2](const MultiSourceReport& r) { report2 = r; });
  network_.Run();
  EXPECT_FALSE(report2.success);
}

TEST_F(DownloadManagerTest, PartialSourceServesOnlyItsBlocks) {
  const auto info = SimClient::MakeFileInfo(FileId(5), 4'000'000, "partial.avi");
  auto seed = MakeClient("seed");
  seed->AddLocalFile(info);
  seed->Publish();
  // Partial holder: has only the first 3 blocks.
  auto partial = MakeClient("partial");
  for (uint32_t b = 0; b < 3; ++b) {
    partial->RegisterPartialBlock(info, b);
  }
  network_.Run();
  EXPECT_TRUE(partial->SharesFile(info.digest));
  EXPECT_FALSE(partial->HasCompleteFile(info.digest));

  // Availability maps reflect the partial state.
  const auto map = partial->HandleAvailableBlocks(info.digest);
  ASSERT_EQ(map.size(), partial->BlockCount(info.size_bytes));
  EXPECT_TRUE(map[0] && map[1] && map[2]);
  for (size_t b = 3; b < map.size(); ++b) {
    EXPECT_FALSE(map[b]);
  }
  // Blocks the partial does not hold are refused.
  Rng rng(1);
  EXPECT_FALSE(partial->HandleBlockRequest(info.digest, 0, rng).empty());
  EXPECT_TRUE(partial->HandleBlockRequest(info.digest, 5, rng).empty());

  // A manager download with both sources still completes.
  auto leech = MakeClient("leech");
  DownloadManager manager(&network_, leech.get(), MultiSourceConfig{});
  MultiSourceReport report;
  manager.Fetch(info, [&report](const MultiSourceReport& r) { report = r; });
  network_.Run();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(leech->HasCompleteFile(info.digest));
}

TEST_F(DownloadManagerTest, PartialBlocksCompleteTheFile) {
  const auto info = SimClient::MakeFileInfo(FileId(6), 1'000'000, "assemble.avi");
  auto peer = MakeClient("assembler");
  const uint32_t blocks = peer->BlockCount(info.size_bytes);
  for (uint32_t b = 0; b < blocks; ++b) {
    EXPECT_EQ(peer->HasCompleteFile(info.digest), false);
    peer->RegisterPartialBlock(info, b);
  }
  EXPECT_TRUE(peer->HasCompleteFile(info.digest));
  // Duplicate registrations are idempotent.
  peer->RegisterPartialBlock(info, 0);
  EXPECT_TRUE(peer->HasCompleteFile(info.digest));
}

TEST_F(DownloadManagerTest, SurvivesCorruptingSource) {
  const auto info = SimClient::MakeFileInfo(FileId(7), 3'000'000, "mixed.avi");
  auto good = MakeClient("good");
  good->AddLocalFile(info);
  good->Publish();
  auto bad = MakeClient("bad", 0, /*corruption=*/0.9);
  bad->AddLocalFile(info);
  bad->Publish();
  network_.Run();

  auto leech = MakeClient("leech");
  MultiSourceConfig config;
  config.max_block_retries = 50;  // Corruption must not exhaust retries.
  DownloadManager manager(&network_, leech.get(), config);
  MultiSourceReport report;
  manager.Fetch(info, [&report](const MultiSourceReport& r) { report = r; });
  network_.Run();
  EXPECT_TRUE(report.success);
  EXPECT_GT(report.corrupted_blocks, 0u);
  EXPECT_TRUE(leech->HasCompleteFile(info.digest));
}

TEST_F(DownloadManagerTest, RequeryTimerFindsLateSources) {
  const auto info = SimClient::MakeFileInfo(FileId(8), 1'000'000, "late.avi");
  auto leech = MakeClient("leech");
  MultiSourceConfig config;
  config.source_requery_interval = 60.0;
  DownloadManager manager(&network_, leech.get(), config);
  MultiSourceReport report;
  bool done = false;
  const double t0 = network_.now();
  manager.Fetch(info, [&](const MultiSourceReport& r) {
    report = r;
    done = true;
  });
  // Nothing published yet: the manager arms the requery timer. Advance
  // bounded virtual time only, so the timer chain does not burn through
  // all its rounds before the seed shows up.
  network_.RunUntil(t0 + 10.0);
  EXPECT_FALSE(done);
  // The seed appears (connect publishes its cache) before the next
  // requery fires at t0+60.
  ClientConfig seed_config;
  seed_config.nickname = "lateseed";
  seed_config.block_size = 256;
  seed_config.content_scale = 0.001;
  auto seed = std::make_unique<SimClient>(&network_, seed_config);
  seed->set_attachment(geo_.FindCountry("FR"), AsId(0));
  seed->AddLocalFile(info);
  seed->Connect(servers_[0]->node_id(), nullptr);
  network_.RunUntil(t0 + 59.0);
  EXPECT_FALSE(done);
  network_.RunUntil(t0 + 200.0);
  EXPECT_TRUE(done);
  EXPECT_TRUE(report.success);
  EXPECT_GE(report.requery_rounds, 2u);
}

TEST_F(DownloadManagerTest, GivesUpAfterMaxRequeryRounds) {
  const auto ghost = SimClient::MakeFileInfo(FileId(9), 1'000'000, "ghost.avi");
  auto leech = MakeClient("leech");
  MultiSourceConfig config;
  config.source_requery_interval = 30.0;
  config.max_requery_rounds = 3;
  DownloadManager manager(&network_, leech.get(), config);
  MultiSourceReport report;
  report.success = true;
  manager.Fetch(ghost, [&report](const MultiSourceReport& r) { report = r; });
  network_.Run();
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.requery_rounds, 3u);
  EXPECT_FALSE(manager.active());
}

TEST_F(DownloadManagerTest, AlreadyOwnedFileSucceedsInstantly) {
  const auto info = SimClient::MakeFileInfo(FileId(10), 500'000, "own.mp3");
  auto leech = MakeClient("owner");
  leech->AddLocalFile(info);
  DownloadManager manager(&network_, leech.get(), MultiSourceConfig{});
  MultiSourceReport report;
  manager.Fetch(info, [&report](const MultiSourceReport& r) { report = r; });
  network_.Run();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.sources_discovered, 0u);
}

TEST_F(DownloadManagerTest, DownloaderBecomesSourceMidTransfer) {
  // Partial sharing at manager level: while the leech downloads a long
  // file, a second leech can already fetch verified blocks from it.
  const auto info = SimClient::MakeFileInfo(FileId(11), 8'000'000, "chain.avi");
  auto seed = MakeClient("seed");
  seed->AddLocalFile(info);
  seed->Publish();
  network_.Run();

  auto first = MakeClient("first");
  DownloadManager manager(&network_, first.get(), MultiSourceConfig{});
  manager.Fetch(info, nullptr);
  network_.Run();
  ASSERT_TRUE(first->HasCompleteFile(info.digest));

  // The server should now also list `first` as a source.
  std::vector<SourceRecord> sources;
  first->QuerySources(info.digest, [&sources](auto s) { sources = std::move(s); });
  network_.Run();
  EXPECT_EQ(sources.size(), 2u);
}

TEST_F(DownloadManagerTest, GetServerListAndGlobalQuery) {
  auto client = MakeClient("probe");
  std::vector<NodeId> list;
  client->GetServerList([&list](std::vector<NodeId> servers) { list = std::move(servers); });
  network_.Run();
  // The server list excludes the server itself (it is not its own peer).
  EXPECT_EQ(list.size(), servers_.size() - 1);

  // Global query on an unknown digest returns empty without hanging.
  bool called = false;
  client->QuerySourcesGlobal(Md4::Hash("unknown"), [&called](auto sources) {
    called = true;
    EXPECT_TRUE(sources.empty());
  });
  network_.Run();
  EXPECT_TRUE(called);
}

}  // namespace
}  // namespace edk
