#include "src/net/server_core.h"

#include <algorithm>
#include <cctype>

#include "src/obs/metrics.h"

namespace edk {

namespace {

// Per-message-type protocol counters plus peak index sizes, aggregated
// across every index core in the process (simulated servers and TCP
// front-ends alike). Gauges use UpdateMax so the totals stay deterministic
// when parallel sweep tasks run their own sims.
struct ServerMetrics {
  obs::Counter* logins;
  obs::Counter* logouts;
  obs::Counter* publishes;
  obs::Counter* published_files;
  obs::Counter* query_users;
  obs::Counter* query_sources;
  obs::Counter* searches;
  obs::Counter* browses;
  obs::Gauge* max_indexed_files;
  obs::Gauge* max_connected_users;
};

ServerMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static ServerMetrics metrics{
      &registry.GetCounter("net.server.logins"),
      &registry.GetCounter("net.server.logouts"),
      &registry.GetCounter("net.server.publishes"),
      &registry.GetCounter("net.server.published_files"),
      &registry.GetCounter("net.server.query_users"),
      &registry.GetCounter("net.server.query_sources"),
      &registry.GetCounter("net.server.searches"),
      &registry.GetCounter("net.server.browses"),
      &registry.GetGauge("net.server.max_indexed_files"),
      &registry.GetGauge("net.server.max_connected_users"),
  };
  return metrics;
}

}  // namespace

ServerCore::ServerCore(ServerConfig config) : config_(config) {}

bool ServerCore::HandleLogin(NodeId client, const std::string& nickname,
                             bool firewalled) {
  if (sessions_.contains(client)) {
    return true;  // Idempotent re-login.
  }
  if (sessions_.size() >= config_.max_users) {
    return false;
  }
  Session session;
  session.nickname = nickname;
  session.low_id = firewalled;
  sessions_.emplace(client, std::move(session));
  users_by_nickname_.emplace(nickname, client);
  ServerMetrics& metrics = Metrics();
  metrics.logins->Increment();
  metrics.max_connected_users->UpdateMax(static_cast<int64_t>(sessions_.size()));
  return true;
}

void ServerCore::HandleLogout(NodeId client) {
  auto it = sessions_.find(client);
  if (it == sessions_.end()) {
    return;
  }
  Metrics().logouts->Increment();
  RemovePublished(client, it->second);
  auto [lo, hi] = users_by_nickname_.equal_range(it->second.nickname);
  for (auto u = lo; u != hi; ++u) {
    if (u->second == client) {
      users_by_nickname_.erase(u);
      break;
    }
  }
  sessions_.erase(it);
}

bool ServerCore::FileEntry::HasKeyword(uint32_t keyword) const {
  for (const KeywordRef& ref : keywords) {
    if (ref.keyword == keyword) {
      return true;
    }
  }
  return false;
}

uint32_t ServerCore::InternKeyword(const std::string& token) {
  auto [it, inserted] = id_by_token_.try_emplace(token);
  if (inserted) {
    if (free_keywords_.empty()) {
      it->second = static_cast<uint32_t>(keywords_.size());
      keywords_.emplace_back();
    } else {
      it->second = free_keywords_.back();
      free_keywords_.pop_back();
    }
    // Map nodes never move, so the key outlives any rehash.
    keywords_[it->second].token = &it->first;
  }
  return it->second;
}

uint32_t ServerCore::AddFile(const SharedFileInfo& info) {
  uint32_t slot;
  if (free_files_.empty()) {
    slot = static_cast<uint32_t>(files_.size());
    files_.emplace_back();
  } else {
    slot = free_files_.back();
    free_files_.pop_back();
  }
  FileEntry& file = files_[slot];
  file.info = info;
  TokenizeInto(info.name, &tokens_);
  for (const std::string& token : tokens_) {
    const uint32_t keyword = InternKeyword(token);
    if (file.HasKeyword(keyword)) {
      continue;  // A repeated token is posted once.
    }
    std::vector<uint32_t>& posting = keywords_[keyword].posting;
    file.keywords.push_back(
        KeywordRef{keyword, static_cast<uint32_t>(posting.size())});
    posting.push_back(slot);
  }
  return slot;
}

void ServerCore::ReleaseFile(uint32_t slot) {
  FileEntry& file = files_[slot];
  for (const KeywordRef& ref : file.keywords) {
    Keyword& keyword = keywords_[ref.keyword];
    // Swap-remove, then point the moved file at its new position.
    const uint32_t moved = keyword.posting.back();
    keyword.posting[ref.pos] = moved;
    keyword.posting.pop_back();
    if (moved != slot) {
      for (KeywordRef& other : files_[moved].keywords) {
        if (other.keyword == ref.keyword) {
          other.pos = ref.pos;
          break;
        }
      }
    }
    if (keyword.posting.empty()) {
      id_by_token_.erase(id_by_token_.find(*keyword.token));
      keyword = Keyword{};
      free_keywords_.push_back(ref.keyword);
    }
  }
  file.keywords.clear();
  slot_by_digest_.erase(file.info.digest);
  // The next file in this slot needs a freshly constructed source set:
  // clear() keeps the bucket array, and query-sources replies follow the
  // set's iteration order.
  std::unordered_set<NodeId>().swap(file.sources);
  free_files_.push_back(slot);
}

void ServerCore::RemovePublished(NodeId client, Session& session) {
  for (uint32_t slot : session.published) {
    FileEntry& file = files_[slot];
    // A digest the list named twice finds the client already gone.
    if (file.sources.erase(client) != 0 && file.sources.empty()) {
      ReleaseFile(slot);
    }
  }
  session.published.clear();
}

void ServerCore::HandlePublish(NodeId client,
                               const std::vector<SharedFileInfo>& files) {
  auto it = sessions_.find(client);
  if (it == sessions_.end()) {
    return;  // Publishing without a session is dropped, as in the protocol.
  }
  Session& session = it->second;
  RemovePublished(client, session);
  session.published.reserve(files.size());
  for (const SharedFileInfo& info : files) {
    auto [slot_it, inserted] = slot_by_digest_.try_emplace(info.digest);
    if (inserted) {
      slot_it->second = AddFile(info);  // The first name published wins.
    }
    session.published.push_back(slot_it->second);
    files_[slot_it->second].sources.insert(client);
  }
  ServerMetrics& metrics = Metrics();
  metrics.publishes->Increment();
  metrics.published_files->Increment(files.size());
  metrics.max_indexed_files->UpdateMax(static_cast<int64_t>(slot_by_digest_.size()));
}

std::vector<UserRecord> ServerCore::HandleQueryUsers(
    const std::string& prefix) const {
  ++queries_served_;
  Metrics().query_users->Increment();
  std::vector<UserRecord> out;
  if (!config_.supports_query_users) {
    return out;
  }
  out.reserve(std::min(config_.max_user_results, sessions_.size()));
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

std::vector<SourceRecord> ServerCore::HandleQuerySources(
    const Md4Digest& digest) const {
  ++queries_served_;
  Metrics().query_sources->Increment();
  std::vector<SourceRecord> out;
  const auto it = slot_by_digest_.find(digest);
  if (it == slot_by_digest_.end()) {
    return out;
  }
  const std::unordered_set<NodeId>& sources = files_[it->second].sources;
  out.reserve(std::min(config_.max_source_results, sources.size()));
  for (NodeId source : sources) {
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

std::vector<SharedFileInfo> ServerCore::HandleSearch(
    const std::vector<std::string>& keywords) const {
  ++queries_served_;
  Metrics().searches->Increment();
  std::vector<SharedFileInfo> out;
  if (keywords.empty()) {
    return out;
  }
  // Map the query to ids once, start from the rarest keyword's posting
  // and test each candidate by id.
  std::vector<uint32_t> ids;
  ids.reserve(keywords.size());
  const std::vector<uint32_t>* smallest = nullptr;
  for (const std::string& keyword : keywords) {
    const auto it = id_by_token_.find(keyword);
    if (it == id_by_token_.end()) {
      return out;  // One keyword has no match: conjunction is empty.
    }
    const std::vector<uint32_t>& posting = keywords_[it->second].posting;
    if (smallest == nullptr || posting.size() < smallest->size()) {
      smallest = &posting;
    }
    ids.push_back(it->second);
  }
  out.reserve(std::min(config_.max_search_results, smallest->size()));
  for (uint32_t slot : *smallest) {
    const FileEntry& file = files_[slot];
    bool all = true;
    for (uint32_t id : ids) {
      if (!file.HasKeyword(id)) {
        all = false;
        break;
      }
    }
    if (all) {
      out.push_back(file.info);
      if (out.size() >= config_.max_search_results) {
        break;
      }
    }
  }
  return out;
}

std::optional<std::vector<SharedFileInfo>> ServerCore::HandleBrowse(
    NodeId target) const {
  ++queries_served_;
  Metrics().browses->Increment();
  const auto it = sessions_.find(target);
  if (it == sessions_.end()) {
    return std::nullopt;
  }
  std::vector<SharedFileInfo> out;
  out.reserve(it->second.published.size());
  for (uint32_t slot : it->second.published) {
    out.push_back(files_[slot].info);
  }
  return out;
}

void ServerCore::TokenizeInto(const std::string& name,
                              std::vector<std::string>* out) {
  out->clear();
  std::string current;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      out->push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    out->push_back(std::move(current));
  }
}

std::vector<std::string> ServerCore::Tokenize(const std::string& name) {
  std::vector<std::string> tokens;
  TokenizeInto(name, &tokens);
  return tokens;
}

}  // namespace edk
