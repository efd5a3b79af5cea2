// SemanticClient with non-default strategies, and interaction patterns not
// covered by the basic client test: frequency-based list management over a
// longer exchange history, and behaviour when the server vanishes.

#include <gtest/gtest.h>

#include <memory>

#include "src/net/server.h"
#include "src/semantic/semantic_client.h"

namespace edk {
namespace {

class SemanticStrategyTest : public ::testing::Test {
 protected:
  SemanticStrategyTest() : geo_(Geography::PaperDistribution()), network_(&geo_, SimNetConfig{.seed = 91}) {
    server_ = std::make_unique<SimServer>(&network_, ServerConfig{});
    server_->set_attachment(geo_.FindCountry("DE"), AsId(3));
  }

  std::unique_ptr<SemanticClient> MakeClient(const std::string& nickname,
                                             StrategyKind strategy,
                                             size_t list_size = 4) {
    ClientConfig config;
    config.nickname = nickname;
    config.block_size = 512;
    config.content_scale = 0.001;
    auto client =
        std::make_unique<SemanticClient>(&network_, config, list_size, strategy);
    client->set_attachment(geo_.FindCountry("FR"), AsId(0));
    client->Connect(server_->node_id(), nullptr);
    network_.Run();
    return client;
  }

  SharedFileInfo Publish(SemanticClient& sharer, uint32_t file_id) {
    const auto info = SimClient::MakeFileInfo(FileId(file_id), 200'000,
                                              "f" + std::to_string(file_id));
    sharer.AddLocalFile(info);
    sharer.Publish();
    network_.Run();
    return info;
  }

  Geography geo_;
  SimNetwork network_;
  std::unique_ptr<SimServer> server_;
};

TEST_F(SemanticStrategyTest, HistoryKeepsFrequentUploaderFirst) {
  auto frequent = MakeClient("frequent", StrategyKind::kLru);
  auto occasional = MakeClient("occasional", StrategyKind::kLru);
  auto bob = MakeClient("bob", StrategyKind::kHistory, 4);

  // Three files from `frequent`, then one from `occasional`.
  for (uint32_t f = 1; f <= 3; ++f) {
    bob->FetchFile(Publish(*frequent, f), nullptr);
    network_.Run();
  }
  bob->FetchFile(Publish(*occasional, 10), nullptr);
  network_.Run();

  const auto neighbours = bob->SemanticNeighbours();
  ASSERT_GE(neighbours.size(), 2u);
  // History ranks by upload count, so `frequent` stays first even though
  // `occasional` served most recently (LRU would invert this).
  EXPECT_EQ(neighbours[0], frequent->node_id());

  auto lru_bob = MakeClient("lru_bob", StrategyKind::kLru, 4);
  for (uint32_t f = 21; f <= 23; ++f) {
    lru_bob->FetchFile(Publish(*frequent, f), nullptr);
    network_.Run();
  }
  lru_bob->FetchFile(Publish(*occasional, 30), nullptr);
  network_.Run();
  ASSERT_GE(lru_bob->SemanticNeighbours().size(), 2u);
  EXPECT_EQ(lru_bob->SemanticNeighbours()[0], occasional->node_id());
}

TEST_F(SemanticStrategyTest, SemanticFetchWorksAfterServerLogout) {
  auto alice = MakeClient("alice", StrategyKind::kLru);
  auto bob = MakeClient("bob", StrategyKind::kLru);
  const auto f1 = Publish(*alice, 1);
  const auto f2 = Publish(*alice, 2);
  bob->FetchFile(f1, nullptr);  // Alice becomes a neighbour.
  network_.Run();

  // Bob drops off the server; the semantic path needs no server at all.
  bob->Disconnect();
  network_.Run();
  FetchOutcome outcome;
  bob->FetchFile(f2, [&](FetchOutcome o) { outcome = o; });
  network_.Run();
  EXPECT_TRUE(outcome.success);
  EXPECT_TRUE(outcome.semantic_hit);
}

TEST_F(SemanticStrategyTest, DisconnectedClientWithoutNeighboursFails) {
  auto bob = MakeClient("bob", StrategyKind::kLru);
  bob->Disconnect();
  network_.Run();
  const auto ghost = SimClient::MakeFileInfo(FileId(99), 1000, "ghost");
  FetchOutcome outcome;
  outcome.success = true;
  bob->FetchFile(ghost, [&](FetchOutcome o) { outcome = o; });
  network_.Run();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(bob->fetch_failures(), 1u);
}

TEST_F(SemanticStrategyTest, PopularityWeightedClientWorksEndToEnd) {
  auto alice = MakeClient("alice", StrategyKind::kLru);
  auto bob = MakeClient("bob", StrategyKind::kPopularityWeighted, 4);
  const auto f1 = Publish(*alice, 1);
  FetchOutcome outcome;
  bob->FetchFile(f1, [&](FetchOutcome o) { outcome = o; });
  network_.Run();
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(bob->SemanticNeighbours().size(), 1u);
}

}  // namespace
}  // namespace edk
