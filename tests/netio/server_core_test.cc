// ServerCore coverage that the SimServer delegation tests do not reach:
// the browse handler (new with the transport seam), the id-based index's
// edge cases (repeated tokens, duplicate query keywords, slot recycling)
// and the allocation discipline of the result-capped queries against
// adversarially large candidate sets.

#include "src/net/server_core.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/client.h"

namespace edk {
namespace {

SharedFileInfo File(uint32_t id, const std::string& name,
                    uint64_t size = 1000) {
  return SimClient::MakeFileInfo(FileId(id), size, name);
}

TEST(ServerCoreBrowse, ReturnsPublishOrderOfConnectedClient) {
  ServerCore core{ServerConfig{}};
  ASSERT_TRUE(core.HandleLogin(10, "alice", false));
  const std::vector<SharedFileInfo> cache = {
      File(3, "gamma.avi"), File(1, "alpha.mp3"), File(2, "beta.mp3")};
  core.HandlePublish(10, cache);

  const auto reply = core.HandleBrowse(10);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->size(), cache.size());
  for (size_t i = 0; i < cache.size(); ++i) {
    EXPECT_EQ((*reply)[i].digest, cache[i].digest) << "index " << i;
    EXPECT_EQ((*reply)[i].name, cache[i].name) << "index " << i;
  }
}

TEST(ServerCoreBrowse, UnknownOrLoggedOutTargetIsNullopt) {
  ServerCore core{ServerConfig{}};
  EXPECT_FALSE(core.HandleBrowse(10).has_value());
  ASSERT_TRUE(core.HandleLogin(10, "alice", false));
  core.HandlePublish(10, {File(1, "one.mp3")});
  EXPECT_TRUE(core.HandleBrowse(10).has_value());
  core.HandleLogout(10);
  EXPECT_FALSE(core.HandleBrowse(10).has_value());
}

TEST(ServerCoreBrowse, EmptyCacheBrowsesAsEmptyList) {
  ServerCore core{ServerConfig{}};
  ASSERT_TRUE(core.HandleLogin(10, "alice", false));
  const auto reply = core.HandleBrowse(10);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->empty());
}

TEST(ServerCoreBrowse, RepublishReplacesBrowseReply) {
  ServerCore core{ServerConfig{}};
  ASSERT_TRUE(core.HandleLogin(10, "alice", false));
  core.HandlePublish(10, {File(1, "old.mp3")});
  core.HandlePublish(10, {File(2, "new.mp3")});
  const auto reply = core.HandleBrowse(10);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->size(), 1u);
  EXPECT_EQ((*reply)[0].name, "new.mp3");
}

// --- Id-based index edge cases ------------------------------------------------

TEST(ServerCoreIndex, RepeatedTokenInNameMatchesOnce) {
  ServerCore core{ServerConfig{}};
  ASSERT_TRUE(core.HandleLogin(1, "alice", false));
  core.HandlePublish(1, {File(1, "live live.mp3"), File(2, "studio.mp3")});
  const auto results = core.HandleSearch({"live"});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "live live.mp3");
}

TEST(ServerCoreIndex, DuplicateQueryKeywordsActAsOne) {
  ServerCore core{ServerConfig{}};
  ASSERT_TRUE(core.HandleLogin(1, "alice", false));
  core.HandlePublish(1, {File(1, "live rock.mp3"), File(2, "live dub.mp3"),
                         File(3, "rock.ogg")});
  const auto once = core.HandleSearch({"live"});
  const auto twice = core.HandleSearch({"live", "live"});
  ASSERT_EQ(once.size(), 2u);
  ASSERT_EQ(twice.size(), once.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(twice[i].digest, once[i].digest) << "index " << i;
  }
  EXPECT_EQ(core.HandleSearch({"rock", "live", "rock"}).size(), 1u);
}

TEST(ServerCoreIndex, EmptyOnceEveryClientLogsOut) {
  ServerCore core{ServerConfig{}};
  for (NodeId c = 1; c <= 3; ++c) {
    ASSERT_TRUE(core.HandleLogin(c, "peer", false));
    core.HandlePublish(c, {File(1, "shared hit.mp3"), File(10 + c, "own file.avi")});
  }
  EXPECT_EQ(core.indexed_files(), 4u);
  for (NodeId c = 1; c <= 3; ++c) {
    core.HandleLogout(c);
  }
  EXPECT_EQ(core.indexed_files(), 0u);
  EXPECT_EQ(core.indexed_keywords(), 0u);
  EXPECT_TRUE(core.HandleSearch({"file"}).empty());
  EXPECT_TRUE(core.HandleQuerySources(File(1, "shared hit.mp3").digest).empty());
}

TEST(ServerCoreIndex, PublishLogoutCyclesReuseSlots) {
  ServerCore core{ServerConfig{}};
  std::vector<SharedFileInfo> corpus;
  for (uint32_t i = 0; i < 50; ++i) {
    corpus.push_back(File(i + 1, "track" + std::to_string(i) + " live mix.mp3"));
  }
  ASSERT_TRUE(core.HandleLogin(1, "alice", false));
  core.HandlePublish(1, corpus);
  core.HandleLogout(1);
  const size_t file_slots = core.file_slots();
  const size_t keyword_slots = core.keyword_slots();
  EXPECT_EQ(file_slots, corpus.size());
  EXPECT_EQ(keyword_slots, corpus.size() + 3);  // trackN, live, mix, mp3.
  for (int cycle = 0; cycle < 100; ++cycle) {
    ASSERT_TRUE(core.HandleLogin(1, "alice", false));
    core.HandlePublish(1, corpus);
    ASSERT_EQ(core.HandleSearch({"live", "mix"}).size(), 50u);
    core.HandleLogout(1);
  }
  EXPECT_EQ(core.file_slots(), file_slots);
  EXPECT_EQ(core.keyword_slots(), keyword_slots);
  EXPECT_EQ(core.indexed_files(), 0u);
}

TEST(ServerCoreIndex, RecycledSlotQuerySourcesMatchesFreshIndex) {
  // A file that re-enters the index in a recycled slot must list its
  // sources exactly as a never-used index does: 40 sources grow the source
  // set's bucket array, which a reused set would keep.
  const auto big = File(1, "big.avi");
  const auto other = File(2, "other.avi");
  ServerCore fresh{ServerConfig{}};
  ServerCore recycled{ServerConfig{}};
  for (NodeId c = 1; c <= 40; ++c) {
    ASSERT_TRUE(recycled.HandleLogin(c, "peer", false));
    recycled.HandlePublish(c, {big});
  }
  for (NodeId c = 1; c <= 40; ++c) {
    recycled.HandleLogout(c);
  }
  for (ServerCore* core : {&fresh, &recycled}) {
    for (NodeId c = 100; c < 160; c += 3) {
      ASSERT_TRUE(core->HandleLogin(c, "peer", false));
      core->HandlePublish(c, {other});
    }
  }
  const auto want = fresh.HandleQuerySources(other.digest);
  const auto got = recycled.HandleQuerySources(other.digest);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "index " << i;
  }
}

// --- Allocation discipline under adversarial corpora -------------------------
//
// The result-capped handlers reserve min(cap, candidates) up front; a
// corpus a thousand times larger than the cap must not make a reply
// allocate (or even reserve) beyond its cap.

TEST(ServerCoreAllocation, SearchAgainstHugeCandidateSetStaysAtCap) {
  ServerConfig config;
  config.max_search_results = 10;
  ServerCore core{config};
  ASSERT_TRUE(core.HandleLogin(1, "hoarder", false));
  std::vector<SharedFileInfo> cache;
  cache.reserve(5000);
  for (uint32_t i = 0; i < 5000; ++i) {
    cache.push_back(File(i + 1, "common file" + std::to_string(i) + ".avi"));
  }
  core.HandlePublish(1, cache);

  const auto results = core.HandleSearch({"common"});
  EXPECT_EQ(results.size(), config.max_search_results);
  EXPECT_LE(results.capacity(), config.max_search_results);
}

TEST(ServerCoreAllocation, QueryUsersAgainstManyMatchesStaysAtCap) {
  ServerConfig config;
  config.max_user_results = 5;
  ServerCore core{config};
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(core.HandleLogin(i + 1, "user" + std::to_string(i), false));
  }
  const auto results = core.HandleQueryUsers("user");
  EXPECT_EQ(results.size(), config.max_user_results);
  EXPECT_LE(results.capacity(), config.max_user_results);
}

TEST(ServerCoreAllocation, QuerySourcesAgainstManySourcesStaysAtCap) {
  ServerConfig config;
  config.max_source_results = 7;
  ServerCore core{config};
  const auto popular = File(1, "most wanted.avi");
  for (uint32_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(core.HandleLogin(i + 1, "peer" + std::to_string(i), false));
    core.HandlePublish(i + 1, {popular});
  }
  const auto results = core.HandleQuerySources(popular.digest);
  EXPECT_EQ(results.size(), config.max_source_results);
  EXPECT_LE(results.capacity(), config.max_source_results);
}

TEST(ServerCoreAllocation, SmallResultsReserveOnlyCandidateCount) {
  // The cap is an upper bound, not a blanket reserve: two candidates must
  // not reserve max_search_results slots.
  ServerCore core{ServerConfig{}};
  ASSERT_TRUE(core.HandleLogin(1, "alice", false));
  core.HandlePublish(1, {File(1, "rare gem.flac"), File(2, "rare find.mp3")});
  const auto results = core.HandleSearch({"rare"});
  EXPECT_EQ(results.size(), 2u);
  EXPECT_LE(results.capacity(), 2u);
}

}  // namespace
}  // namespace edk
