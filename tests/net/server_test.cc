#include "src/net/server.h"

#include <gtest/gtest.h>

#include "src/net/client.h"

namespace edk {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : geo_(Geography::PaperDistribution()),
        network_(&geo_, SimNetConfig{.seed = 1}),
        server_(&network_, ServerConfig{}) {
    server_.set_attachment(geo_.FindCountry("DE"), AsId(3));
  }

  SharedFileInfo File(uint32_t id, const std::string& name, uint64_t size = 1000) {
    return SimClient::MakeFileInfo(FileId(id), size, name);
  }

  Geography geo_;
  SimNetwork network_;
  SimServer server_;
};

TEST_F(ServerTest, LoginLogoutLifecycle) {
  EXPECT_TRUE(server_.HandleLogin(10, "alice", false));
  EXPECT_TRUE(server_.HandleLogin(11, "bob", true));
  EXPECT_EQ(server_.connected_users(), 2u);
  EXPECT_TRUE(server_.IsConnected(10));
  // Re-login is idempotent.
  EXPECT_TRUE(server_.HandleLogin(10, "alice", false));
  EXPECT_EQ(server_.connected_users(), 2u);
  server_.HandleLogout(10);
  EXPECT_FALSE(server_.IsConnected(10));
  EXPECT_EQ(server_.connected_users(), 1u);
  server_.HandleLogout(10);  // Double logout is harmless.
}

TEST_F(ServerTest, CapacityLimit) {
  SimServer small(&network_, ServerConfig{.max_users = 2});
  EXPECT_TRUE(small.HandleLogin(1, "a", false));
  EXPECT_TRUE(small.HandleLogin(2, "b", false));
  EXPECT_FALSE(small.HandleLogin(3, "c", false));
}

TEST_F(ServerTest, PublishAndQuerySources) {
  server_.HandleLogin(10, "alice", false);
  server_.HandleLogin(11, "bob", true);
  const auto f1 = File(1, "some movie.avi");
  const auto f2 = File(2, "a song.mp3");
  server_.HandlePublish(10, {f1, f2});
  server_.HandlePublish(11, {f1});
  EXPECT_EQ(server_.indexed_files(), 2u);

  const auto sources = server_.HandleQuerySources(f1.digest);
  ASSERT_EQ(sources.size(), 2u);
  // Bob is firewalled -> low id.
  for (const auto& s : sources) {
    if (s.node == 11) {
      EXPECT_TRUE(s.low_id);
    } else {
      EXPECT_FALSE(s.low_id);
    }
  }
  EXPECT_EQ(server_.HandleQuerySources(f2.digest).size(), 1u);
  EXPECT_TRUE(server_.HandleQuerySources(File(99, "missing").digest).empty());
}

TEST_F(ServerTest, RepublishReplacesList) {
  server_.HandleLogin(10, "alice", false);
  const auto f1 = File(1, "one.mp3");
  const auto f2 = File(2, "two.mp3");
  server_.HandlePublish(10, {f1});
  server_.HandlePublish(10, {f2});
  EXPECT_TRUE(server_.HandleQuerySources(f1.digest).empty());
  EXPECT_EQ(server_.HandleQuerySources(f2.digest).size(), 1u);
  // f1 fully dropped from the index.
  EXPECT_EQ(server_.indexed_files(), 1u);
}

TEST_F(ServerTest, LogoutRemovesSources) {
  server_.HandleLogin(10, "alice", false);
  const auto f1 = File(1, "one.mp3");
  server_.HandlePublish(10, {f1});
  server_.HandleLogout(10);
  EXPECT_TRUE(server_.HandleQuerySources(f1.digest).empty());
  EXPECT_EQ(server_.indexed_files(), 0u);
}

TEST_F(ServerTest, PublishWithoutSessionIsDropped) {
  server_.HandlePublish(42, {File(1, "ghost.mp3")});
  EXPECT_EQ(server_.indexed_files(), 0u);
}

TEST_F(ServerTest, QueryUsersPrefixAndCap) {
  ServerConfig config;
  config.max_user_results = 3;
  SimServer server(&network_, config);
  server.HandleLogin(1, "anna", false);
  server.HandleLogin(2, "annabel", true);
  server.HandleLogin(3, "arnold", false);
  server.HandleLogin(4, "bob", false);
  server.HandleLogin(5, "anton", false);

  const auto an = server.HandleQueryUsers("an");
  EXPECT_EQ(an.size(), 3u);  // anna, annabel, anton.
  for (const auto& user : an) {
    EXPECT_EQ(user.nickname.substr(0, 2), "an");
  }
  const auto all_a = server.HandleQueryUsers("a");
  EXPECT_EQ(all_a.size(), 3u);  // Capped at 3 of the 4 a-users.
  EXPECT_EQ(server.HandleQueryUsers("zzz").size(), 0u);
  // Low-id flag propagated.
  bool saw_low_id = false;
  for (const auto& user : an) {
    saw_low_id |= user.low_id;
  }
  EXPECT_TRUE(saw_low_id);
}

TEST_F(ServerTest, QueryUsersDisabledOnNewServers) {
  SimServer modern(&network_, ServerConfig{.supports_query_users = false});
  modern.HandleLogin(1, "anna", false);
  EXPECT_TRUE(modern.HandleQueryUsers("a").empty());
}

TEST_F(ServerTest, KeywordSearchConjunction) {
  server_.HandleLogin(10, "alice", false);
  server_.HandlePublish(10, {File(1, "daft punk discovery.mp3"),
                             File(2, "punk rock anthology.mp3"),
                             File(3, "discovery channel.avi")});
  EXPECT_EQ(server_.HandleSearch({"punk"}).size(), 2u);
  EXPECT_EQ(server_.HandleSearch({"discovery"}).size(), 2u);
  const auto both = server_.HandleSearch({"daft", "punk"});
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].file, FileId(1));
  EXPECT_TRUE(server_.HandleSearch({"punk", "channel"}).empty());
  EXPECT_TRUE(server_.HandleSearch({}).empty());
  EXPECT_TRUE(server_.HandleSearch({"nosuchword"}).empty());
}

TEST_F(ServerTest, SearchIsCaseInsensitiveViaTokenizer) {
  server_.HandleLogin(10, "alice", false);
  server_.HandlePublish(10, {File(1, "My MOVIE (2003).avi")});
  EXPECT_EQ(server_.HandleSearch({"movie"}).size(), 1u);
  EXPECT_EQ(server_.HandleSearch({"2003"}).size(), 1u);
}

TEST_F(ServerTest, TokenizeSplitsOnNonAlnum) {
  const auto tokens = SimServer::Tokenize("Daft-Punk_Discovery (2001).mp3");
  const std::vector<std::string> expected = {"daft", "punk", "discovery", "2001",
                                             "mp3"};
  EXPECT_EQ(tokens, expected);
  EXPECT_TRUE(SimServer::Tokenize("").empty());
  EXPECT_TRUE(SimServer::Tokenize("---").empty());
}

TEST_F(ServerTest, KnownServersNoSelfNoDuplicates) {
  SimServer other(&network_, ServerConfig{});
  server_.AddKnownServer(server_.node_id());  // Self: ignored.
  server_.AddKnownServer(other.node_id());
  server_.AddKnownServer(other.node_id());  // Duplicate: ignored.
  ASSERT_EQ(server_.known_servers().size(), 1u);
  EXPECT_EQ(server_.known_servers()[0], other.node_id());
}

TEST_F(ServerTest, SharedFileKeptWhileAnySourceRemains) {
  server_.HandleLogin(10, "alice", false);
  server_.HandleLogin(11, "bob", false);
  const auto f1 = File(1, "shared.mp3");
  server_.HandlePublish(10, {f1});
  server_.HandlePublish(11, {f1});
  server_.HandleLogout(10);
  EXPECT_EQ(server_.HandleQuerySources(f1.digest).size(), 1u);
  EXPECT_EQ(server_.HandleSearch({"shared"}).size(), 1u);
}

}  // namespace
}  // namespace edk
