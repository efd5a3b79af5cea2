#include "src/net/client.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_set>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace_log.h"

namespace edk {

namespace {

// Interned span names for the client protocol verbs. Request–reply verbs
// are kSim spans covering request departure to reply arrival; Publish is
// one-way and traces as an instant.
struct NetTraceNames {
  uint16_t connect;
  uint16_t publish;
  uint16_t query_users;
  uint16_t search;
  uint16_t query_sources;
  uint16_t query_sources_global;
  uint16_t server_list;
  uint16_t browse;
  uint16_t download;
};

const NetTraceNames& NetNames() {
  auto& log = obs::TraceLog::Global();
  static const NetTraceNames names{
      log.InternName("net.connect", {"client", "accepted"}),
      log.InternName("net.publish", {"client", "files"}),
      log.InternName("net.query_users", {"client", "results"}),
      log.InternName("net.search", {"client", "results"}),
      log.InternName("net.query_sources", {"client", "results"}),
      log.InternName("net.query_sources.global", {"client", "results"}),
      log.InternName("net.server_list", {"client", "results"}),
      log.InternName("net.browse", {"client", "target", "ok", "results"}),
      log.InternName("net.download", {"client", "source", "blocks", "success"}),
  };
  return names;
}

// Everything a reply handler needs to emit the request's span: captured by
// value at request time, carried through the delivery closures. Sampling is
// keyed on the requesting node id, so one client's protocol activity is
// either fully traced or fully absent (id 0).
struct RequestTrace {
  uint16_t name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  double start = 0;
};

RequestTrace BeginRequestTrace(uint16_t name, NodeId self, uint64_t* seq,
                               SimNetwork* network) {
  RequestTrace trace;
  if (!obs::TraceLog::SampledIn(self)) {
    return trace;
  }
  trace.name = name;
  trace.id = obs::MixId2(self, ++*seq);
  trace.parent = obs::CurrentSpanParent();
  trace.start = network->NodeNow(self);
  return trace;
}

// Emits the completed request span at reply-arrival time. The caller then
// scopes the reply callback under the span id (SpanParentScope) so nested
// requests chain causally.
void EndRequestTrace(const RequestTrace& trace, SimNetwork* network, NodeId self,
                     std::initializer_list<uint64_t> args) {
  if (trace.id == 0) {
    return;
  }
  obs::EmitSimSpan(trace.name, trace.start, network->NodeNow(self), trace.id,
                   trace.parent, args);
}

}  // namespace

std::vector<uint8_t> SyntheticBlockPayload(FileId file, uint32_t block_index,
                                           size_t length) {
  std::vector<uint8_t> payload(length);
  uint64_t state = (static_cast<uint64_t>(file.value) << 32) | block_index;
  size_t offset = 0;
  while (offset < length) {
    const uint64_t word = SplitMix64(state);
    for (int b = 0; b < 8 && offset < length; ++b, ++offset) {
      payload[offset] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return payload;
}

SimClient::SimClient(SimNetwork* network, ClientConfig config)
    : network_(network), config_(std::move(config)) {
  network_->Register(this);
}

SharedFileInfo SimClient::MakeFileInfo(FileId file, uint64_t size_bytes,
                                       std::string name) {
  SharedFileInfo info;
  info.file = file;
  info.size_bytes = size_bytes;
  info.name = std::move(name);
  // Cheap stand-in for the real content hash: unique per (file, size) and
  // stable across clients, which is all the index and the trace need.
  std::string identity = "edk-file-" + std::to_string(file.value) + "-" +
                         std::to_string(size_bytes);
  info.digest = Md4::Hash(identity);
  return info;
}

uint64_t SimClient::ScaledSize(uint64_t size_bytes) const {
  const double scaled = static_cast<double>(size_bytes) * config_.content_scale;
  return std::max<uint64_t>(1, static_cast<uint64_t>(scaled));
}

uint32_t SimClient::BlockCount(uint64_t size_bytes) const {
  const uint64_t scaled = ScaledSize(size_bytes);
  return static_cast<uint32_t>((scaled + config_.block_size - 1) / config_.block_size);
}

void SimClient::AddLocalFile(const SharedFileInfo& info) {
  LocalFile local;
  local.info = info;
  local.complete = true;
  local.verified_blocks = BlockCount(info.size_bytes);
  shared_[info.digest] = std::move(local);
}

void SimClient::RegisterPartialBlock(const SharedFileInfo& info, uint32_t block_index) {
  auto& local = shared_[info.digest];
  const bool first = local.verified_blocks == 0;
  if (first) {
    local.info = info;
    local.complete = false;
    local.block_map.assign(BlockCount(info.size_bytes), false);
  }
  if (local.complete || block_index >= local.block_map.size() ||
      local.block_map[block_index]) {
    return;
  }
  local.block_map[block_index] = true;
  ++local.verified_blocks;
  if (local.verified_blocks == local.block_map.size()) {
    local.complete = true;
    local.block_map.clear();
  }
  if (first) {
    Publish();
  }
}

bool SimClient::RemoveLocalFile(const Md4Digest& digest) {
  return shared_.erase(digest) > 0;
}

bool SimClient::HasCompleteFile(const Md4Digest& digest) const {
  const auto it = shared_.find(digest);
  return it != shared_.end() && it->second.complete;
}

bool SimClient::SharesFile(const Md4Digest& digest) const {
  const auto it = shared_.find(digest);
  return it != shared_.end() && it->second.verified_blocks > 0;
}

std::vector<SharedFileInfo> SimClient::SharedFiles() const {
  std::vector<SharedFileInfo> out;
  out.reserve(shared_.size());
  for (const auto& [digest, local] : shared_) {
    if (local.verified_blocks > 0) {
      out.push_back(local.info);
    }
  }
  return out;
}

void SimClient::Connect(NodeId server, std::function<void(bool)> done) {
  auto* remote = dynamic_cast<SimServer*>(network_->node(server));
  assert(remote != nullptr && "Connect target is not a server");
  const NodeId self = node_id();
  const RequestTrace trace =
      BeginRequestTrace(NetNames().connect, self, &trace_seq_, network_);
  network_->Send(self, server, [this, remote, server, self, trace, done = std::move(done)] {
    const bool accepted = remote->HandleLogin(self, config_.nickname, config_.firewalled);
    network_->Send(server, self, [this, server, self, accepted, trace, done = std::move(done)] {
      EndRequestTrace(trace, network_, self, {self, accepted ? 1u : 0u});
      obs::SpanParentScope scope(trace.id);
      if (accepted) {
        server_ = server;
        Publish();
      }
      if (done) {
        done(accepted);
      }
    });
  });
}

void SimClient::Disconnect() {
  if (server_ == kInvalidNode) {
    return;
  }
  auto* remote = dynamic_cast<SimServer*>(network_->node(server_));
  const NodeId self = node_id();
  const NodeId server = server_;
  server_ = kInvalidNode;
  network_->Send(self, server, [remote, self] { remote->HandleLogout(self); });
}

void SimClient::Publish() {
  if (server_ == kInvalidNode) {
    return;
  }
  auto* remote = dynamic_cast<SimServer*>(network_->node(server_));
  const NodeId self = node_id();
  auto files = SharedFiles();
  if (obs::TraceLog::SampledIn(self)) {
    obs::EmitSimInstant(NetNames().publish,
                        obs::SimMicros(network_->NodeNow(self)),
                        obs::MixId2(self, ++trace_seq_),
                        obs::CurrentSpanParent(), {self, files.size()});
  }
  network_->Send(self, server_, [remote, self, files = std::move(files)] {
    remote->HandlePublish(self, files);
  });
}

void SimClient::QueryUsers(const std::string& prefix,
                           std::function<void(std::vector<UserRecord>)> on_reply) {
  assert(server_ != kInvalidNode);
  auto* remote = dynamic_cast<SimServer*>(network_->node(server_));
  const NodeId self = node_id();
  const NodeId server = server_;
  const RequestTrace trace =
      BeginRequestTrace(NetNames().query_users, self, &trace_seq_, network_);
  network_->Send(self, server,
                 [this, remote, server, self, trace, prefix, on_reply = std::move(on_reply)] {
                   auto users = remote->HandleQueryUsers(prefix);
                   network_->Send(server, self,
                                  [this, self, trace, users = std::move(users),
                                   on_reply = std::move(on_reply)]() mutable {
                                    EndRequestTrace(trace, network_, self,
                                                    {self, users.size()});
                                    obs::SpanParentScope scope(trace.id);
                                    on_reply(std::move(users));
                                  });
                 });
}

void SimClient::Search(const std::vector<std::string>& keywords,
                       std::function<void(std::vector<SharedFileInfo>)> on_reply) {
  assert(server_ != kInvalidNode);
  auto* remote = dynamic_cast<SimServer*>(network_->node(server_));
  const NodeId self = node_id();
  const NodeId server = server_;
  const RequestTrace trace =
      BeginRequestTrace(NetNames().search, self, &trace_seq_, network_);
  network_->Send(self, server,
                 [this, remote, server, self, trace, keywords, on_reply = std::move(on_reply)] {
                   auto results = remote->HandleSearch(keywords);
                   network_->Send(server, self,
                                  [this, self, trace, results = std::move(results),
                                   on_reply = std::move(on_reply)]() mutable {
                                    EndRequestTrace(trace, network_, self,
                                                    {self, results.size()});
                                    obs::SpanParentScope scope(trace.id);
                                    on_reply(std::move(results));
                                  });
                 });
}

void SimClient::QuerySources(const Md4Digest& digest,
                             std::function<void(std::vector<SourceRecord>)> on_reply) {
  assert(server_ != kInvalidNode);
  auto* remote = dynamic_cast<SimServer*>(network_->node(server_));
  const NodeId self = node_id();
  const NodeId server = server_;
  const RequestTrace trace =
      BeginRequestTrace(NetNames().query_sources, self, &trace_seq_, network_);
  network_->Send(self, server,
                 [this, remote, server, self, trace, digest, on_reply = std::move(on_reply)] {
                   auto sources = remote->HandleQuerySources(digest);
                   network_->Send(server, self,
                                  [this, self, trace, sources = std::move(sources),
                                   on_reply = std::move(on_reply)]() mutable {
                                    EndRequestTrace(trace, network_, self,
                                                    {self, sources.size()});
                                    obs::SpanParentScope scope(trace.id);
                                    on_reply(std::move(sources));
                                  });
                 });
}

void SimClient::GetServerList(std::function<void(std::vector<NodeId>)> on_reply) {
  assert(server_ != kInvalidNode);
  auto* remote = dynamic_cast<SimServer*>(network_->node(server_));
  const NodeId self = node_id();
  const NodeId server = server_;
  const RequestTrace trace =
      BeginRequestTrace(NetNames().server_list, self, &trace_seq_, network_);
  network_->Send(self, server,
                 [this, remote, server, self, trace, on_reply = std::move(on_reply)] {
    auto servers = remote->known_servers();
    network_->Send(server, self,
                   [this, self, trace, servers = std::move(servers),
                    on_reply = std::move(on_reply)]() mutable {
                     EndRequestTrace(trace, network_, self, {self, servers.size()});
                     obs::SpanParentScope scope(trace.id);
                     on_reply(std::move(servers));
                   });
  });
}

void SimClient::QuerySourcesGlobal(
    const Md4Digest& digest, std::function<void(std::vector<SourceRecord>)> on_reply) {
  assert(server_ != kInvalidNode);
  // One span covers the whole fan-out; the server-list fetch and every
  // UDP exchange become its causal children.
  const RequestTrace trace = BeginRequestTrace(NetNames().query_sources_global,
                                               node_id(), &trace_seq_, network_);
  obs::SpanParentScope fanout_scope(trace.id);
  GetServerList([this, digest, trace, on_reply = std::move(on_reply)](std::vector<NodeId> servers) {
    // Always include the connected server itself.
    if (std::find(servers.begin(), servers.end(), server_) == servers.end()) {
      servers.push_back(server_);
    }
    struct Aggregate {
      std::vector<SourceRecord> sources;
      std::unordered_set<NodeId> seen;
      size_t pending = 0;
      std::function<void(std::vector<SourceRecord>)> on_reply;
    };
    auto aggregate = std::make_shared<Aggregate>();
    aggregate->pending = servers.size();
    const NodeId self = node_id();
    aggregate->on_reply = [this, self, trace, on_reply = std::move(on_reply)](
                              std::vector<SourceRecord> sources) mutable {
      EndRequestTrace(trace, network_, self, {self, sources.size()});
      obs::SpanParentScope scope(trace.id);
      on_reply(std::move(sources));
    };
    obs::SpanParentScope scope(trace.id);
    for (NodeId server : servers) {
      auto* remote = dynamic_cast<SimServer*>(network_->node(server));
      if (remote == nullptr) {
        if (--aggregate->pending == 0) {
          aggregate->on_reply(std::move(aggregate->sources));
        }
        continue;
      }
      // UDP-style exchange: no session, one request, one reply.
      network_->Send(self, server, [this, remote, server, self, digest, aggregate] {
        auto sources = remote->HandleQuerySources(digest);
        network_->Send(server, self,
                       [aggregate, sources = std::move(sources)]() mutable {
                         for (const SourceRecord& source : sources) {
                           if (aggregate->seen.insert(source.node).second) {
                             aggregate->sources.push_back(source);
                           }
                         }
                         if (--aggregate->pending == 0) {
                           aggregate->on_reply(std::move(aggregate->sources));
                         }
                       });
      });
    }
    if (servers.empty()) {
      aggregate->on_reply({});
    }
  });
}

SimClient* SimClient::ClientAt(NodeId id) const {
  return dynamic_cast<SimClient*>(network_->node(id));
}

bool SimClient::CanReach(const SimClient& target) const {
  if (!target.firewalled()) {
    return true;
  }
  // A firewalled target can only be reached through a server-forced
  // callback, and only if this client itself accepts inbound connections.
  return !config_.firewalled && target.connected();
}

double SimClient::RelayPenalty(const SimClient& target) const {
  if (!target.firewalled()) {
    return 0.0;
  }
  // Request travels client -> server -> target before the target dials back.
  return network_->DelayBetween(node_id(), target.connected_server()) +
         network_->DelayBetween(target.connected_server(), target.node_id());
}

std::optional<std::vector<SharedFileInfo>> SimClient::HandleBrowse() const {
  if (!config_.browse_enabled) {
    return std::nullopt;
  }
  return SharedFiles();
}

void SimClient::Browse(NodeId target, BrowseCallback on_reply) {
  static obs::Counter* browses =
      &obs::MetricsRegistry::Global().GetCounter("net.client.browses");
  browses->Increment();
  SimClient* remote = ClientAt(target);
  assert(remote != nullptr && "Browse target is not a client");
  const NodeId self = node_id();
  const RequestTrace trace =
      BeginRequestTrace(NetNames().browse, self, &trace_seq_, network_);
  if (!CanReach(*remote)) {
    network_->ScheduleOn(self, 0, [this, self, target, trace,
                                   on_reply = std::move(on_reply)] {
      EndRequestTrace(trace, network_, self, {self, target, 0u, 0u});
      obs::SpanParentScope scope(trace.id);
      on_reply(std::nullopt);
    });
    return;
  }
  const double penalty = RelayPenalty(*remote);
  network_->Send(
      self, target,
      [this, remote, target, self, trace, on_reply = std::move(on_reply)] {
        auto reply = remote->HandleBrowse();
        // Reply size costs transfer time on the target's uplink.
        double transfer = 0;
        if (reply.has_value()) {
          constexpr double kBytesPerEntry = 120.0;  // Name + hash + metadata.
          transfer = kBytesPerEntry * static_cast<double>(reply->size()) /
                     remote->config().uplink_bytes_per_second;
        }
        network_->Send(target, self,
                       [this, self, target, trace, reply = std::move(reply),
                        on_reply = std::move(on_reply)]() mutable {
                         EndRequestTrace(trace, network_, self,
                                         {self, target,
                                          reply.has_value() ? 1u : 0u,
                                          reply.has_value() ? reply->size() : 0});
                         obs::SpanParentScope scope(trace.id);
                         on_reply(std::move(reply));
                       },
                       transfer);
      },
      penalty);
}

std::vector<Md4Digest> SimClient::HandleHashsetRequest(const Md4Digest& digest) const {
  std::vector<Md4Digest> hashset;
  const auto it = shared_.find(digest);
  if (it == shared_.end() || it->second.verified_blocks == 0) {
    return hashset;
  }
  const SharedFileInfo& info = it->second.info;
  const uint64_t scaled = ScaledSize(info.size_bytes);
  const uint32_t blocks = BlockCount(info.size_bytes);
  hashset.reserve(blocks);
  for (uint32_t b = 0; b < blocks; ++b) {
    const size_t length = static_cast<size_t>(
        std::min<uint64_t>(config_.block_size, scaled - uint64_t{b} * config_.block_size));
    hashset.push_back(Md4::Hash(SyntheticBlockPayload(info.file, b, length)));
  }
  return hashset;
}

std::vector<bool> SimClient::HandleAvailableBlocks(const Md4Digest& digest) const {
  const auto it = shared_.find(digest);
  if (it == shared_.end() || it->second.verified_blocks == 0) {
    return {};
  }
  if (it->second.complete) {
    return std::vector<bool>(BlockCount(it->second.info.size_bytes), true);
  }
  return it->second.block_map;
}

std::vector<uint8_t> SimClient::HandleBlockRequest(const Md4Digest& digest,
                                                   uint32_t block_index, Rng& rng) const {
  const auto it = shared_.find(digest);
  if (it == shared_.end() || it->second.verified_blocks == 0) {
    return {};
  }
  // Partial sources only serve blocks they verified (§2.1).
  if (!it->second.complete && (block_index >= it->second.block_map.size() ||
                               !it->second.block_map[block_index])) {
    return {};
  }
  const SharedFileInfo& info = it->second.info;
  const uint64_t scaled = ScaledSize(info.size_bytes);
  if (uint64_t{block_index} * config_.block_size >= scaled) {
    return {};
  }
  const size_t length = static_cast<size_t>(std::min<uint64_t>(
      config_.block_size, scaled - uint64_t{block_index} * config_.block_size));
  auto payload = SyntheticBlockPayload(info.file, block_index, length);
  if (!payload.empty() && rng.NextBool(config_.corruption_probability)) {
    // Transit corruption: flip one byte; the downloader's MD4 check catches it.
    payload[rng.NextBelow(payload.size())] ^= 0xff;
  }
  return payload;
}

void SimClient::Download(NodeId source, const SharedFileInfo& info,
                         DownloadCallback on_done) {
  static obs::Counter* downloads =
      &obs::MetricsRegistry::Global().GetCounter("net.client.downloads");
  downloads->Increment();
  SimClient* remote = ClientAt(source);
  assert(remote != nullptr && "Download source is not a client");
  const NodeId self = node_id();

  auto state = std::make_shared<DownloadState>();
  state->source = source;
  state->info = info;
  state->block_count = BlockCount(info.size_bytes);
  state->retries_left = config_.max_block_retries;
  state->on_done = std::move(on_done);
  const RequestTrace trace =
      BeginRequestTrace(NetNames().download, self, &trace_seq_, network_);
  state->trace_id = trace.id;
  state->trace_parent = trace.parent;
  state->trace_start = trace.start;

  if (!CanReach(*remote) || HasCompleteFile(info.digest)) {
    const bool already = HasCompleteFile(info.digest);
    network_->ScheduleOn(self, 0, [this, state, already] {
      FinishDownload(state, already);
    });
    return;
  }

  // Phase 1: fetch the hashset ("checksums can be propagated between
  // clients on demand", §2.1).
  network_->Send(
      self, source,
      [this, remote, source, self, state] {
        auto hashset = remote->HandleHashsetRequest(state->info.digest);
        network_->Send(source, self, [this, state, hashset = std::move(hashset)]() mutable {
          if (hashset.empty() || hashset.size() != state->block_count) {
            FinishDownload(state, false);
            return;
          }
          state->hashset = std::move(hashset);
          RequestNextBlock(state);
        });
      },
      RelayPenalty(*remote));
}

void SimClient::RequestNextBlock(std::shared_ptr<DownloadState> state) {
  if (state->next_block >= state->block_count) {
    FinishDownload(state, true);
    return;
  }
  SimClient* remote = ClientAt(state->source);
  const NodeId self = node_id();
  const uint32_t block = state->next_block;
  network_->Send(self, state->source, [this, remote, self, state, block] {
    auto payload = remote->HandleBlockRequest(state->info.digest, block,
                                              network_->NodeRng(state->source));
    const double transfer = static_cast<double>(payload.size()) /
                            remote->config().uplink_bytes_per_second;
    network_->Send(state->source, self,
                   [this, state, block, payload = std::move(payload)]() mutable {
                     // Republishes triggered by verified blocks chain to the
                     // download span.
                     obs::SpanParentScope scope(state->trace_id);
                     if (payload.empty()) {
                       FinishDownload(state, false);  // Source stopped sharing.
                       return;
                     }
                     ++blocks_received_;
                     const Md4Digest actual = Md4::Hash(payload);
                     if (actual != state->hashset[block]) {
                       ++blocks_corrupted_;
                       if (--state->retries_left < 0) {
                         FinishDownload(state, false);
                         return;
                       }
                       RequestNextBlock(state);  // Re-request the same block.
                       return;
                     }
                     // Verified. Partial sharing: after the first block the
                     // file is offered to others and republished.
                     RegisterPartialBlock(state->info, block);
                     ++state->next_block;
                     state->retries_left = config_.max_block_retries;
                     RequestNextBlock(state);
                   },
                   transfer);
  });
}

void SimClient::FinishDownload(std::shared_ptr<DownloadState> state, bool success) {
  if (state->trace_id != 0) {
    obs::EmitSimSpan(NetNames().download, state->trace_start,
                     network_->NodeNow(node_id()), state->trace_id,
                     state->trace_parent,
                     {node_id(), state->source, state->next_block,
                      success ? 1u : 0u});
  }
  obs::SpanParentScope scope(state->trace_id);
  if (success) {
    auto& local = shared_[state->info.digest];
    local.info = state->info;
    local.complete = true;
    local.verified_blocks = state->block_count;
    local.block_map.clear();
    ++downloads_completed_;
    Publish();
  } else {
    ++downloads_failed_;
  }
  if (state->on_done) {
    state->on_done(success);
  }
}

}  // namespace edk
