// Transport-agnostic eDonkey index core (paper §2.1).
//
// ServerCore is the request/response half of the index server with every
// transport concern stripped out: it owns the session table, the published
// file index, the conjunctive keyword index and the nickname map, and
// answers the protocol's requests (login, logout, publish, search,
// query-sources, query-users, browse) as plain function calls.
//
// Two front-ends drive the identical logic:
//
//   * SimServer (src/net/server.h) delivers simulated messages through
//     SimNetwork.
//   * TcpServer (src/netio/tcp_server.h) decodes framed requests from real
//     sockets and calls the same handlers, so queries/sec and tail latency
//     measured over TCP exercise exactly the index the simulations use.
//
// The core itself is single-threaded: callers that dispatch from multiple
// I/O threads must serialise calls (TcpServer holds one mutex around the
// core; the simulator is single-threaded per shard by construction).
//
// Index layout: every indexed file lives in a dense slot and every keyword
// token has an interned id, both recycled through free lists. A file is
// tokenised once, when it enters the index; its entry keeps its distinct
// keyword ids, each with the file's position in that keyword's posting
// vector, so removing a file is an O(1) swap-remove per keyword and a
// search tests candidates by id instead of re-tokenising their names.
// An entry leaves the index with its last source, so memory is bounded by
// the live index.
//
// Reply order is a deterministic function of the operation history:
// browse follows publish order, query-users nickname order, query-sources
// the iteration of the file's source set (constructed fresh whenever the
// file enters the index), and search the posting order of the query's
// rarest keyword.
//
// Allocation discipline: every reply is reserved up front to
// min(result cap, candidate count) and never grows past its cap, so a
// hostile corpus (millions of files matching one keyword) costs one
// bounded allocation per request, not a geometric growth series.

#ifndef SRC_NET_SERVER_CORE_H_
#define SRC_NET_SERVER_CORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/protocol.h"

namespace edk {

struct ServerConfig {
  size_t max_users = 200'000;          // Connection cap (paper: >200k users).
  size_t max_user_results = 200;       // query-users reply cap.
  size_t max_search_results = 300;
  size_t max_source_results = 100;
  bool supports_query_users = true;    // Old servers only (paper §2.1).
};

class ServerCore {
 public:
  explicit ServerCore(ServerConfig config);

  const ServerConfig& config() const { return config_; }

  // --- Request handlers -----------------------------------------------------
  // Returns false when the server is full. On success the client is
  // registered and will be reported by query-users.
  bool HandleLogin(NodeId client, const std::string& nickname, bool firewalled);
  void HandleLogout(NodeId client);
  // Replaces the published file list of a connected client.
  void HandlePublish(NodeId client, const std::vector<SharedFileInfo>& files);
  // Nickname prefix search, capped at max_user_results.
  std::vector<UserRecord> HandleQueryUsers(const std::string& prefix) const;
  // Sources currently sharing the file.
  std::vector<SourceRecord> HandleQuerySources(const Md4Digest& digest) const;
  // Conjunctive keyword search over published file names.
  std::vector<SharedFileInfo> HandleSearch(
      const std::vector<std::string>& keywords) const;
  // Server-mediated browse: the published list of a connected client, in
  // publish order. nullopt when the target is not connected. Because
  // SimClient publishes exactly SharedFiles() (digest-sorted), this equals
  // the client-side browse reply for any client whose publish is current —
  // the invariant the TCP transport relies on for sim-equality.
  std::optional<std::vector<SharedFileInfo>> HandleBrowse(NodeId target) const;

  bool IsConnected(NodeId client) const { return sessions_.contains(client); }
  size_t connected_users() const { return sessions_.size(); }
  size_t indexed_files() const { return slot_by_digest_.size(); }
  size_t indexed_keywords() const { return id_by_token_.size(); }
  // Table sizes, free slots included: the high-water marks of the live
  // index, which recycling keeps from growing under churn.
  size_t file_slots() const { return files_.size(); }
  size_t keyword_slots() const { return keywords_.size(); }
  uint64_t queries_served() const { return queries_served_; }

  // Splits a file name into lowercase keyword tokens.
  static std::vector<std::string> Tokenize(const std::string& name);
  // Allocation-reusing variant for hot loops: clears and refills `out`.
  static void TokenizeInto(const std::string& name,
                           std::vector<std::string>* out);

 private:
  struct Session {
    std::string nickname;
    bool low_id = false;
    std::vector<uint32_t> published;  // File slots, in publish order.
  };
  // One distinct keyword of a file name: its interned id and the file's
  // position in that keyword's posting vector.
  struct KeywordRef {
    uint32_t keyword;
    uint32_t pos;
  };
  struct FileEntry {
    SharedFileInfo info;
    std::unordered_set<NodeId> sources;
    std::vector<KeywordRef> keywords;

    bool HasKeyword(uint32_t keyword) const;
  };
  struct Keyword {
    std::vector<uint32_t> posting;       // Slots of files naming the token.
    const std::string* token = nullptr;  // The key in id_by_token_.
  };

  // Takes a free slot for a file new to the index and indexes its name.
  uint32_t AddFile(const SharedFileInfo& info);
  // Drops a file whose last source left and recycles its slot.
  void ReleaseFile(uint32_t slot);
  uint32_t InternKeyword(const std::string& token);
  void RemovePublished(NodeId client, Session& session);

  ServerConfig config_;
  std::unordered_map<NodeId, Session> sessions_;
  std::unordered_map<Md4Digest, uint32_t> slot_by_digest_;
  std::vector<FileEntry> files_;
  std::vector<uint32_t> free_files_;
  std::unordered_map<std::string, uint32_t> id_by_token_;
  std::vector<Keyword> keywords_;
  std::vector<uint32_t> free_keywords_;
  std::vector<std::string> tokens_;  // AddFile's tokenizer scratch.
  // Nicknames sorted for prefix scans.
  std::multimap<std::string, NodeId> users_by_nickname_;
  mutable uint64_t queries_served_ = 0;
};

}  // namespace edk

#endif  // SRC_NET_SERVER_CORE_H_
