// ServerCore against an oracle: the string-keyed index the core used before
// it moved to interned keyword ids and file slots. Both indexes see the same
// seeded churn of logins, publishes, republishes and logouts over a small
// vocabulary, and every reply is compared after every operation:
//
//   * browse, query-users and query-sources replies must be identical,
//     order included;
//   * search replies must equal the oracle's as multisets and have the same
//     size (the id index walks postings, the oracle hash sets, so only the
//     order may differ); when the cap binds, every result must be a match;
//   * indexed_files() must agree.

#include "src/net/server_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/net/client.h"

namespace edk {
namespace {

// The string-keyed index: files by digest, keyword -> digest sets, every
// candidate re-tokenised at search time.
class OracleCore {
 public:
  explicit OracleCore(ServerConfig config) : config_(config) {}

  bool HandleLogin(NodeId client, const std::string& nickname, bool firewalled) {
    if (sessions_.contains(client)) {
      return true;
    }
    if (sessions_.size() >= config_.max_users) {
      return false;
    }
    Session session;
    session.nickname = nickname;
    session.low_id = firewalled;
    sessions_.emplace(client, std::move(session));
    users_by_nickname_.emplace(nickname, client);
    return true;
  }

  void HandleLogout(NodeId client) {
    auto it = sessions_.find(client);
    if (it == sessions_.end()) {
      return;
    }
    RemovePublished(client);
    auto [lo, hi] = users_by_nickname_.equal_range(it->second.nickname);
    for (auto u = lo; u != hi; ++u) {
      if (u->second == client) {
        users_by_nickname_.erase(u);
        break;
      }
    }
    sessions_.erase(it);
  }

  void HandlePublish(NodeId client, const std::vector<SharedFileInfo>& files) {
    auto it = sessions_.find(client);
    if (it == sessions_.end()) {
      return;
    }
    RemovePublished(client);
    for (const SharedFileInfo& info : files) {
      it->second.published.push_back(info.digest);
      auto [file_it, inserted] = files_.try_emplace(info.digest);
      if (inserted) {
        file_it->second.info = info;
        for (const std::string& token : ServerCore::Tokenize(info.name)) {
          keyword_index_[token].insert(info.digest);
        }
      }
      file_it->second.sources.insert(client);
    }
  }

  std::vector<UserRecord> HandleQueryUsers(const std::string& prefix) const {
    std::vector<UserRecord> out;
    if (!config_.supports_query_users) {
      return out;
    }
    auto it = users_by_nickname_.lower_bound(prefix);
    while (it != users_by_nickname_.end() && out.size() < config_.max_user_results) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) {
        break;
      }
      const auto session = sessions_.find(it->second);
      if (session != sessions_.end()) {
        out.push_back(UserRecord{it->first, it->second, session->second.low_id});
      }
      ++it;
    }
    return out;
  }

  std::vector<SourceRecord> HandleQuerySources(const Md4Digest& digest) const {
    std::vector<SourceRecord> out;
    const auto it = files_.find(digest);
    if (it == files_.end()) {
      return out;
    }
    for (NodeId source : it->second.sources) {
      if (out.size() >= config_.max_source_results) {
        break;
      }
      const auto session = sessions_.find(source);
      if (session != sessions_.end()) {
        out.push_back(SourceRecord{source, session->second.low_id});
      }
    }
    return out;
  }

  std::vector<SharedFileInfo> HandleSearch(const std::vector<std::string>& keywords,
                                           size_t cap) const {
    std::vector<SharedFileInfo> out;
    if (keywords.empty()) {
      return out;
    }
    const std::unordered_set<Md4Digest>* smallest = nullptr;
    for (const std::string& keyword : keywords) {
      const auto it = keyword_index_.find(keyword);
      if (it == keyword_index_.end()) {
        return out;
      }
      if (smallest == nullptr || it->second.size() < smallest->size()) {
        smallest = &it->second;
      }
    }
    for (const Md4Digest& digest : *smallest) {
      const auto file_it = files_.find(digest);
      if (file_it == files_.end()) {
        continue;
      }
      const std::vector<std::string> tokens =
          ServerCore::Tokenize(file_it->second.info.name);
      bool all = true;
      for (const std::string& keyword : keywords) {
        if (std::find(tokens.begin(), tokens.end(), keyword) == tokens.end()) {
          all = false;
          break;
        }
      }
      if (all) {
        out.push_back(file_it->second.info);
        if (out.size() >= cap) {
          break;
        }
      }
    }
    return out;
  }

  std::optional<std::vector<SharedFileInfo>> HandleBrowse(NodeId target) const {
    const auto it = sessions_.find(target);
    if (it == sessions_.end()) {
      return std::nullopt;
    }
    std::vector<SharedFileInfo> out;
    for (const Md4Digest& digest : it->second.published) {
      const auto file_it = files_.find(digest);
      if (file_it != files_.end()) {
        out.push_back(file_it->second.info);
      }
    }
    return out;
  }

  size_t indexed_files() const { return files_.size(); }

 private:
  struct Session {
    std::string nickname;
    bool low_id = false;
    std::vector<Md4Digest> published;
  };
  struct FileEntry {
    SharedFileInfo info;
    std::unordered_set<NodeId> sources;
  };

  void RemovePublished(NodeId client) {
    auto it = sessions_.find(client);
    for (const Md4Digest& digest : it->second.published) {
      auto file_it = files_.find(digest);
      if (file_it == files_.end()) {
        continue;
      }
      file_it->second.sources.erase(client);
      if (file_it->second.sources.empty()) {
        for (const std::string& token : ServerCore::Tokenize(file_it->second.info.name)) {
          auto kw = keyword_index_.find(token);
          if (kw != keyword_index_.end()) {
            kw->second.erase(digest);
            if (kw->second.empty()) {
              keyword_index_.erase(kw);
            }
          }
        }
        files_.erase(file_it);
      }
    }
    it->second.published.clear();
  }

  ServerConfig config_;
  std::unordered_map<NodeId, Session> sessions_;
  std::unordered_map<Md4Digest, FileEntry> files_;
  std::unordered_map<std::string, std::unordered_set<Md4Digest>> keyword_index_;
  std::multimap<std::string, NodeId> users_by_nickname_;
};

using FileKey = std::tuple<uint32_t, Md4Digest, uint64_t, std::string>;

FileKey Key(const SharedFileInfo& info) {
  return {info.file.value, info.digest, info.size_bytes, info.name};
}

std::vector<FileKey> Keys(const std::vector<SharedFileInfo>& files) {
  std::vector<FileKey> keys;
  for (const SharedFileInfo& info : files) {
    keys.push_back(Key(info));
  }
  return keys;
}

const std::vector<std::string> kWords = {"live", "mix", "rock", "dub", "the", "x1"};
const std::vector<std::string> kPrefixes = {"", "a", "al", "alice", "b", "zed"};
constexpr uint32_t kClients = 40;
constexpr uint32_t kDigests = 48;

// A name of one to four vocabulary words: repeats happen ("live live.mp3").
std::string RandomName(Rng& rng) {
  static const char* kSeparators[] = {" ", "_", "-", "."};
  static const char* kExtensions[] = {".mp3", ".avi", ".ogg", ""};
  std::string name;
  const size_t words = 1 + rng.NextBelow(4);
  for (size_t w = 0; w < words; ++w) {
    if (w > 0) {
      name += kSeparators[rng.NextBelow(4)];
    }
    name += kWords[rng.NextBelow(kWords.size())];
  }
  return name + kExtensions[rng.NextBelow(4)];
}

class ServerCoreOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServerCoreOracleTest, ChurnMatchesStringKeyedIndex) {
  ServerConfig config;
  config.max_users = 34;  // Fewer slots than clients: some logins fail.
  config.max_user_results = 4;
  config.max_source_results = 8;
  config.max_search_results = 6;
  ServerCore core{config};
  OracleCore oracle{config};
  Rng rng(GetParam());

  // Every digest has two names; a publish picks one, so a digest is seen
  // under both and the first name indexed wins.
  std::vector<std::vector<SharedFileInfo>> catalog(kDigests);
  for (uint32_t d = 0; d < kDigests; ++d) {
    for (int variant = 0; variant < 2; ++variant) {
      catalog[d].push_back(SimClient::MakeFileInfo(FileId(d + 1), 1000, RandomName(rng)));
    }
  }
  catalog[0][0].name = "live live.mp3";
  const std::vector<std::string> nicknames = {"alice", "al", "alan", "bob", "alice"};
  std::vector<std::vector<std::string>> queries = {{}, {"nosuchword"}, {"live", "live"}};
  for (const std::string& a : kWords) {
    queries.push_back({a});
    for (const std::string& b : kWords) {
      queries.push_back({a, b});
    }
  }

  constexpr size_t kOps = 3000;
  for (size_t op = 0; op < kOps; ++op) {
    const NodeId client = 1 + static_cast<NodeId>(rng.NextBelow(kClients));
    const uint64_t kind = rng.NextBelow(200);
    if (kind < 60) {
      const std::string& nick = nicknames[rng.NextBelow(nicknames.size())];
      const bool firewalled = rng.NextBool(0.3);
      ASSERT_EQ(core.HandleLogin(client, nick, firewalled),
                oracle.HandleLogin(client, nick, firewalled)) << "op " << op;
    } else if (kind < 160) {
      // Publish (a republish when the client already has a list), at
      // times naming one digest twice.
      std::vector<SharedFileInfo> files;
      const size_t count = rng.NextBelow(16);
      for (size_t f = 0; f < count; ++f) {
        // Skewed towards low digests, so popular files gather more
        // sources than a fresh source set has buckets.
        const uint64_t d =
            rng.NextBelow(1 + rng.NextBelow(1 + rng.NextBelow(kDigests)));
        files.push_back(catalog[d][rng.NextBelow(2)]);
      }
      if (!files.empty() && rng.NextBool(0.2)) {
        files.push_back(files[rng.NextBelow(files.size())]);
      }
      core.HandlePublish(client, files);
      oracle.HandlePublish(client, files);
    } else if (kind < 199) {
      core.HandleLogout(client);
      oracle.HandleLogout(client);
    } else {
      // Everyone leaves (as at the crawl's day boundary): every slot and
      // keyword id is recycled by the publishes that follow.
      for (NodeId c = 1; c <= kClients; ++c) {
        core.HandleLogout(c);
        oracle.HandleLogout(c);
      }
      ASSERT_EQ(core.indexed_keywords(), 0u) << "op " << op;
    }

    ASSERT_EQ(core.indexed_files(), oracle.indexed_files()) << "op " << op;
    for (NodeId c = 1; c <= kClients; ++c) {
      const auto got = core.HandleBrowse(c);
      const auto want = oracle.HandleBrowse(c);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op << " client " << c;
      if (got.has_value()) {
        ASSERT_EQ(Keys(*got), Keys(*want)) << "op " << op << " client " << c;
      }
    }
    for (const std::string& prefix : kPrefixes) {
      const auto got = core.HandleQueryUsers(prefix);
      const auto want = oracle.HandleQueryUsers(prefix);
      ASSERT_EQ(got.size(), want.size()) << "op " << op << " prefix " << prefix;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::tie(got[i].nickname, got[i].node, got[i].low_id),
                  std::tie(want[i].nickname, want[i].node, want[i].low_id))
            << "op " << op << " prefix " << prefix << " index " << i;
      }
    }
    for (const auto& variants : catalog) {
      const auto got = core.HandleQuerySources(variants[0].digest);
      const auto want = oracle.HandleQuerySources(variants[0].digest);
      ASSERT_EQ(got.size(), want.size()) << "op " << op;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::tie(got[i].node, got[i].low_id),
                  std::tie(want[i].node, want[i].low_id))
            << "op " << op << " index " << i;
      }
    }
    for (const auto& query : queries) {
      std::vector<FileKey> got = Keys(core.HandleSearch(query));
      std::vector<FileKey> want = Keys(oracle.HandleSearch(query, config.max_search_results));
      ASSERT_EQ(got.size(), want.size()) << "op " << op;
      std::sort(got.begin(), got.end());
      if (got.size() < config.max_search_results) {
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "op " << op;
      } else {
        // The cap bound: any max_search_results distinct matches will do.
        std::vector<FileKey> all = Keys(oracle.HandleSearch(
            query, std::numeric_limits<size_t>::max()));
        std::sort(all.begin(), all.end());
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
            << "op " << op;
        ASSERT_TRUE(std::includes(all.begin(), all.end(), got.begin(), got.end()))
            << "op " << op;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerCoreOracleTest, ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace edk
