#include "src/net/client.h"

#include <gtest/gtest.h>

#include <memory>

namespace edk {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : geo_(Geography::PaperDistribution()), network_(&geo_, SimNetConfig{.seed = 7}) {
    server_ = std::make_unique<SimServer>(&network_, ServerConfig{});
    server_->set_attachment(geo_.FindCountry("DE"), AsId(3));
  }

  std::unique_ptr<SimClient> MakeClient(const std::string& nickname,
                                        bool firewalled = false,
                                        double corruption = 0.0) {
    ClientConfig config;
    config.nickname = nickname;
    config.firewalled = firewalled;
    config.block_size = 512;       // Small blocks for multi-block coverage.
    config.content_scale = 0.001;  // 1 MB file -> ~1 KB of moved bytes.
    config.corruption_probability = corruption;
    auto client = std::make_unique<SimClient>(&network_, config);
    client->set_attachment(geo_.FindCountry("FR"), AsId(0));
    return client;
  }

  Geography geo_;
  SimNetwork network_;
  std::unique_ptr<SimServer> server_;
};

TEST_F(ClientTest, SyntheticPayloadDeterministicAndDistinct) {
  const auto a1 = SyntheticBlockPayload(FileId(1), 0, 256);
  const auto a2 = SyntheticBlockPayload(FileId(1), 0, 256);
  const auto b = SyntheticBlockPayload(FileId(1), 1, 256);
  const auto c = SyntheticBlockPayload(FileId(2), 0, 256);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_NE(a1, c);
  EXPECT_EQ(SyntheticBlockPayload(FileId(1), 0, 10).size(), 10u);
}

TEST_F(ClientTest, MakeFileInfoDigestsAreStableAndUnique) {
  const auto a = SimClient::MakeFileInfo(FileId(1), 100, "a.mp3");
  const auto b = SimClient::MakeFileInfo(FileId(1), 100, "a.mp3");
  const auto c = SimClient::MakeFileInfo(FileId(2), 100, "a.mp3");
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);
}

TEST_F(ClientTest, ConnectPublishesCache) {
  auto client = MakeClient("alice");
  client->AddLocalFile(SimClient::MakeFileInfo(FileId(1), 4000, "song one.mp3"));
  bool connected = false;
  client->Connect(server_->node_id(), [&](bool ok) { connected = ok; });
  network_.Run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(client->connected());
  EXPECT_EQ(server_->connected_users(), 1u);
  EXPECT_EQ(server_->indexed_files(), 1u);
}

TEST_F(ClientTest, DisconnectRemovesFromIndex) {
  auto client = MakeClient("alice");
  client->AddLocalFile(SimClient::MakeFileInfo(FileId(1), 4000, "song.mp3"));
  client->Connect(server_->node_id(), nullptr);
  network_.Run();
  client->Disconnect();
  network_.Run();
  EXPECT_FALSE(client->connected());
  EXPECT_EQ(server_->connected_users(), 0u);
  EXPECT_EQ(server_->indexed_files(), 0u);
}

TEST_F(ClientTest, SearchAndQuerySourcesRoundTrip) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  const auto info = SimClient::MakeFileInfo(FileId(5), 9000, "rare live set.mp3");
  alice->AddLocalFile(info);
  alice->Connect(server_->node_id(), nullptr);
  bob->Connect(server_->node_id(), nullptr);
  network_.Run();

  std::vector<SharedFileInfo> found;
  bob->Search({"rare", "live"}, [&](std::vector<SharedFileInfo> results) {
    found = std::move(results);
  });
  network_.Run();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].digest, info.digest);

  std::vector<SourceRecord> sources;
  bob->QuerySources(info.digest, [&](std::vector<SourceRecord> results) {
    sources = std::move(results);
  });
  network_.Run();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].node, alice->node_id());
}

TEST_F(ClientTest, BrowseReturnsSharedList) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  alice->AddLocalFile(SimClient::MakeFileInfo(FileId(1), 100, "one.mp3"));
  alice->AddLocalFile(SimClient::MakeFileInfo(FileId(2), 100, "two.mp3"));
  std::optional<std::vector<SharedFileInfo>> reply;
  bob->Browse(alice->node_id(), [&](auto r) { reply = std::move(r); });
  network_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->size(), 2u);
}

TEST_F(ClientTest, BrowseDeniedWhenDisabled) {
  ClientConfig config;
  config.nickname = "private";
  config.browse_enabled = false;
  auto alice = std::make_unique<SimClient>(&network_, config);
  alice->set_attachment(geo_.FindCountry("FR"), AsId(0));
  auto bob = MakeClient("bob");
  bool called = false;
  std::optional<std::vector<SharedFileInfo>> reply;
  bob->Browse(alice->node_id(), [&](auto r) {
    called = true;
    reply = std::move(r);
  });
  network_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(reply.has_value());
}

TEST_F(ClientTest, FirewalledTargetUnreachableWithoutServer) {
  auto alice = MakeClient("alice", /*firewalled=*/true);
  auto bob = MakeClient("bob");
  std::optional<std::vector<SharedFileInfo>> reply{std::vector<SharedFileInfo>{}};
  bob->Browse(alice->node_id(), [&](auto r) { reply = std::move(r); });
  network_.Run();
  EXPECT_FALSE(reply.has_value());
}

TEST_F(ClientTest, FirewalledTargetReachableThroughServerCallback) {
  auto alice = MakeClient("alice", /*firewalled=*/true);
  alice->AddLocalFile(SimClient::MakeFileInfo(FileId(1), 100, "hidden.mp3"));
  alice->Connect(server_->node_id(), nullptr);
  network_.Run();
  auto bob = MakeClient("bob");
  std::optional<std::vector<SharedFileInfo>> reply;
  bob->Browse(alice->node_id(), [&](auto r) { reply = std::move(r); });
  network_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->size(), 1u);
}

TEST_F(ClientTest, TwoFirewalledPeersCannotConnect) {
  auto alice = MakeClient("alice", /*firewalled=*/true);
  alice->Connect(server_->node_id(), nullptr);
  network_.Run();
  auto bob = MakeClient("bob", /*firewalled=*/true);
  std::optional<std::vector<SharedFileInfo>> reply{std::vector<SharedFileInfo>{}};
  bob->Browse(alice->node_id(), [&](auto r) { reply = std::move(r); });
  network_.Run();
  EXPECT_FALSE(reply.has_value());
}

TEST_F(ClientTest, DownloadTransfersAndVerifiesAllBlocks) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  // 1 MB file, scale 0.001, block 512 -> 2-3 blocks.
  const auto info = SimClient::MakeFileInfo(FileId(9), 1'000'000, "movie.avi");
  alice->AddLocalFile(info);
  bool success = false;
  bob->Download(alice->node_id(), info, [&](bool ok) { success = ok; });
  network_.Run();
  EXPECT_TRUE(success);
  EXPECT_TRUE(bob->HasCompleteFile(info.digest));
  EXPECT_TRUE(bob->SharesFile(info.digest));
  EXPECT_EQ(bob->downloads_completed(), 1u);
  EXPECT_GE(bob->blocks_received(), 2u);
  EXPECT_EQ(bob->blocks_corrupted(), 0u);
}

TEST_F(ClientTest, DownloadRetriesCorruptedBlocks) {
  auto alice = MakeClient("alice", false, /*corruption=*/0.3);
  auto bob = MakeClient("bob");
  const auto info = SimClient::MakeFileInfo(FileId(9), 2'000'000, "big.avi");
  alice->AddLocalFile(info);
  bool success = false;
  bool done = false;
  bob->Download(alice->node_id(), info, [&](bool ok) {
    success = ok;
    done = true;
  });
  network_.Run();
  EXPECT_TRUE(done);
  // With 30% corruption and 3 retries per block, success is overwhelmingly
  // likely; corrupted blocks must have been detected either way.
  if (success) {
    EXPECT_TRUE(bob->HasCompleteFile(info.digest));
  }
  EXPECT_GT(bob->blocks_received(), 0u);
}

TEST_F(ClientTest, DownloadFromNonSharerFails) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  const auto info = SimClient::MakeFileInfo(FileId(9), 1'000'000, "ghost.avi");
  bool success = true;
  bob->Download(alice->node_id(), info, [&](bool ok) { success = ok; });
  network_.Run();
  EXPECT_FALSE(success);
  EXPECT_EQ(bob->downloads_failed(), 1u);
}

TEST_F(ClientTest, PartialSharingPublishesDuringDownload) {
  // Downloader becomes a source after its first verified block: a third
  // client can then fetch from the downloader even before completion.
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  const auto info = SimClient::MakeFileInfo(FileId(9), 4'000'000, "series.avi");
  alice->AddLocalFile(info);
  alice->Connect(server_->node_id(), nullptr);
  bob->Connect(server_->node_id(), nullptr);
  network_.Run();
  bob->Download(alice->node_id(), info, nullptr);
  network_.Run();
  // After completion bob republished; server should list both sources.
  std::vector<SourceRecord> sources;
  bob->QuerySources(info.digest, [&](auto s) { sources = std::move(s); });
  network_.Run();
  EXPECT_EQ(sources.size(), 2u);
}

TEST_F(ClientTest, SharedFilesExcludesNothingWhenComplete) {
  auto alice = MakeClient("alice");
  alice->AddLocalFile(SimClient::MakeFileInfo(FileId(1), 100, "one.mp3"));
  alice->AddLocalFile(SimClient::MakeFileInfo(FileId(2), 100, "two.mp3"));
  EXPECT_EQ(alice->SharedFiles().size(), 2u);
  EXPECT_EQ(alice->shared_file_count(), 2u);
}

TEST_F(ClientTest, RemoveLocalFile) {
  auto alice = MakeClient("alice");
  const auto info = SimClient::MakeFileInfo(FileId(1), 100, "one.mp3");
  alice->AddLocalFile(info);
  EXPECT_TRUE(alice->RemoveLocalFile(info.digest));
  EXPECT_FALSE(alice->RemoveLocalFile(info.digest));
  EXPECT_FALSE(alice->SharesFile(info.digest));
}

TEST_F(ClientTest, ScaledSizeAndBlockCount) {
  auto alice = MakeClient("alice");
  // scale 0.001: 1 MB -> 1000 bytes -> 2 blocks of 512.
  EXPECT_EQ(alice->ScaledSize(1'000'000), 1000u);
  EXPECT_EQ(alice->BlockCount(1'000'000), 2u);
  EXPECT_EQ(alice->ScaledSize(1), 1u);  // Never zero.
  EXPECT_EQ(alice->BlockCount(1), 1u);
}

}  // namespace
}  // namespace edk
