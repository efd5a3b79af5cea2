#include "src/semantic/semantic_client.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/net/server.h"

namespace edk {
namespace {

class SemanticClientTest : public ::testing::Test {
 protected:
  SemanticClientTest() : geo_(Geography::PaperDistribution()), network_(&geo_, SimNetConfig{.seed = 11}) {
    server_ = std::make_unique<SimServer>(&network_, ServerConfig{});
    server_->set_attachment(geo_.FindCountry("DE"), AsId(3));
  }

  std::unique_ptr<SemanticClient> MakeClient(const std::string& nickname,
                                             size_t list_size = 5) {
    ClientConfig config;
    config.nickname = nickname;
    config.block_size = 512;
    config.content_scale = 0.001;
    auto client = std::make_unique<SemanticClient>(&network_, config, list_size);
    client->set_attachment(geo_.FindCountry("FR"), AsId(0));
    client->Connect(server_->node_id(), nullptr);
    network_.Run();
    return client;
  }

  Geography geo_;
  SimNetwork network_;
  std::unique_ptr<SimServer> server_;
};

TEST_F(SemanticClientTest, FirstFetchGoesThroughServer) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  const auto info = SimClient::MakeFileInfo(FileId(1), 500'000, "first.mp3");
  alice->AddLocalFile(info);
  alice->Publish();
  network_.Run();

  FetchOutcome outcome;
  bob->FetchFile(info, [&](FetchOutcome o) { outcome = o; });
  network_.Run();
  EXPECT_TRUE(outcome.success);
  EXPECT_FALSE(outcome.semantic_hit);  // No neighbours yet.
  EXPECT_EQ(outcome.source, alice->node_id());
  EXPECT_EQ(bob->server_hits(), 1u);
  // Alice is now a semantic neighbour of bob.
  const auto neighbours = bob->SemanticNeighbours();
  ASSERT_EQ(neighbours.size(), 1u);
  EXPECT_EQ(neighbours[0], alice->node_id());
}

TEST_F(SemanticClientTest, SecondFetchIsServerless) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  const auto f1 = SimClient::MakeFileInfo(FileId(1), 500'000, "one.mp3");
  const auto f2 = SimClient::MakeFileInfo(FileId(2), 500'000, "two.mp3");
  alice->AddLocalFile(f1);
  alice->AddLocalFile(f2);
  alice->Publish();
  network_.Run();

  bob->FetchFile(f1, nullptr);
  network_.Run();
  const uint64_t server_queries_before = server_->queries_served();

  FetchOutcome outcome;
  bob->FetchFile(f2, [&](FetchOutcome o) { outcome = o; });
  network_.Run();
  EXPECT_TRUE(outcome.success);
  EXPECT_TRUE(outcome.semantic_hit);
  EXPECT_EQ(bob->semantic_hits(), 1u);
  // The second fetch issued no server query at all.
  EXPECT_EQ(server_->queries_served(), server_queries_before);
}

TEST_F(SemanticClientTest, FallsBackWhenNeighbourLacksFile) {
  auto alice = MakeClient("alice");
  auto carol = MakeClient("carol");
  auto bob = MakeClient("bob");
  const auto f1 = SimClient::MakeFileInfo(FileId(1), 500'000, "one.mp3");
  const auto f2 = SimClient::MakeFileInfo(FileId(2), 500'000, "two.mp3");
  alice->AddLocalFile(f1);
  carol->AddLocalFile(f2);
  alice->Publish();
  carol->Publish();
  network_.Run();

  bob->FetchFile(f1, nullptr);  // Alice becomes a neighbour.
  network_.Run();
  FetchOutcome outcome;
  bob->FetchFile(f2, [&](FetchOutcome o) { outcome = o; });  // Only carol has it.
  network_.Run();
  EXPECT_TRUE(outcome.success);
  EXPECT_FALSE(outcome.semantic_hit);
  EXPECT_EQ(outcome.source, carol->node_id());
  EXPECT_EQ(bob->SemanticNeighbours().size(), 2u);
}

TEST_F(SemanticClientTest, FetchFailsWhenNobodyShares) {
  auto bob = MakeClient("bob");
  const auto ghost = SimClient::MakeFileInfo(FileId(9), 1000, "ghost.mp3");
  FetchOutcome outcome;
  outcome.success = true;
  bob->FetchFile(ghost, [&](FetchOutcome o) { outcome = o; });
  network_.Run();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(bob->fetch_failures(), 1u);
}

TEST_F(SemanticClientTest, LruEvictionKeepsListBounded) {
  auto bob = MakeClient("bob", /*list_size=*/2);
  std::vector<std::unique_ptr<SemanticClient>> sharers;
  for (int i = 0; i < 4; ++i) {
    auto sharer = MakeClient("sharer" + std::to_string(i));
    const auto info =
        SimClient::MakeFileInfo(FileId(10 + i), 100'000, "f" + std::to_string(i));
    sharer->AddLocalFile(info);
    sharer->Publish();
    network_.Run();
    bob->FetchFile(info, nullptr);
    network_.Run();
    sharers.push_back(std::move(sharer));
  }
  EXPECT_LE(bob->SemanticNeighbours().size(), 2u);
  // Most recent uploader is at the head.
  EXPECT_EQ(bob->SemanticNeighbours()[0], sharers.back()->node_id());
}

}  // namespace
}  // namespace edk
