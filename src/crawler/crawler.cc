#include "src/crawler/crawler.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_set>

#include "src/common/log.h"
#include "src/workload/behaviour.h"
#include "src/workload/catalog.h"
#include "src/workload/population.h"

namespace edk {

std::vector<std::string> MakePrefixes(uint32_t length) {
  assert(length >= 1 && length <= 3);
  std::vector<std::string> prefixes = {""};
  for (uint32_t i = 0; i < length; ++i) {
    std::vector<std::string> next;
    next.reserve(prefixes.size() * 26);
    for (const std::string& prefix : prefixes) {
      for (char c = 'a'; c <= 'z'; ++c) {
        next.push_back(prefix + c);
      }
    }
    prefixes = std::move(next);
  }
  return prefixes;
}

std::string SyntheticFileName(uint32_t file_index, const FileMeta& meta,
                              uint32_t topic_rank) {
  static constexpr const char* kExtensions[] = {".mp3", ".avi", ".zip",
                                                ".exe", ".pdf", ".bin"};
  std::string name = "t" + std::to_string(meta.topic.value) + " r" +
                     std::to_string(topic_rank) + " " +
                     FileCategoryName(meta.category) + " f" +
                     std::to_string(file_index) +
                     kExtensions[static_cast<size_t>(meta.category)];
  return name;
}

namespace {

constexpr double kSecondsPerDay = 86'400.0;
constexpr uint64_t kCrawlSeedSalt = 0x9e3779b97f4a7c15ULL;

// Random lowercase nickname whose first characters are letters, so the
// prefix enumeration can find it.
std::string RandomNickname(Rng& rng) {
  const size_t length = 4 + rng.NextBelow(6);
  std::string name;
  name.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    name.push_back(static_cast<char>('a' + rng.NextBelow(26)));
  }
  return name;
}

class CrawlSimulation {
 public:
  explicit CrawlSimulation(const CrawlConfig& config)
      : config_(config),
        geography_(Geography::PaperDistribution()),
        rng_(config.workload.seed),
        catalog_(config.workload, geography_, rng_),
        population_(config.workload, geography_, catalog_, rng_),
        engine_(config.workload, catalog_, population_, rng_),
        network_(&geography_,
                 SimNetConfig{.seed = config.workload.seed ^ kCrawlSeedSalt, .shards = 1}),
        crawl_rng_(config.workload.seed ^ kCrawlSeedSalt),
        file_infos_(catalog_.file_count()) {}

  CrawlResult Run();

 private:
  const SharedFileInfo& InfoFor(uint32_t file_index);
  void SetupNodes();
  void SyncClientCache(uint32_t peer_index);
  void ConnectOnlinePeers(double day_start);
  void DisconnectAll();
  // The crawler's day: enumerate users on every server, browse reachable
  // ones under the day's budget, record observed snapshots.
  void CrawlDay(int day, uint32_t budget, CrawlDayStats& stats);

  CrawlConfig config_;
  Geography geography_;
  Rng rng_;
  FileCatalog catalog_;
  PeerPopulation population_;
  BehaviourEngine engine_;
  // One shard: the crawl's callbacks share the crawler's state (discovered
  // users, day stats, the observed trace), which is only safe when every
  // event runs on the calling thread.
  SimNetwork network_;
  // The crawler's own draws: server attachment, nicknames, uplinks,
  // connect jitter and the browse subset. Message delays come from the
  // nodes' streams inside the network.
  Rng crawl_rng_;

  std::vector<std::unique_ptr<SimServer>> servers_;
  std::vector<std::unique_ptr<SimClient>> clients_;     // One per peer.
  std::vector<std::unique_ptr<SimClient>> probes_;      // Crawler, one per server.
  std::vector<std::unordered_set<uint32_t>> synced_;    // Files mirrored per peer.
  std::vector<SharedFileInfo> file_infos_;              // Lazy per catalog file.
  std::vector<uint8_t> online_now_;

  CrawlResult result_;
};

const SharedFileInfo& CrawlSimulation::InfoFor(uint32_t file_index) {
  SharedFileInfo& info = file_infos_[file_index];
  if (info.name.empty()) {
    const CatalogFile& file = catalog_.file(file_index);
    info = SimClient::MakeFileInfo(
        FileId(file_index), file.meta.size_bytes,
        SyntheticFileName(file_index, file.meta, file.topic_rank));
  }
  return info;
}

void CrawlSimulation::SetupNodes() {
  // Servers, attached to the biggest countries (operators of that era ran
  // the large servers in DE and FR).
  servers_.reserve(config_.num_servers);
  for (uint32_t s = 0; s < config_.num_servers; ++s) {
    auto server = std::make_unique<SimServer>(&network_, ServerConfig{});
    const CountryId country = geography_.SampleCountry(crawl_rng_);
    server->set_attachment(country, geography_.SampleAs(country, crawl_rng_));
    servers_.push_back(std::move(server));
  }
  // Full server mesh: the server list is the only server-server data (§2.1).
  for (auto& a : servers_) {
    for (auto& b : servers_) {
      a->AddKnownServer(b->node_id());
    }
  }

  clients_.reserve(population_.size());
  synced_.resize(population_.size());
  for (uint32_t p = 0; p < population_.size(); ++p) {
    const PeerProfile& profile = population_.profile(p);
    ClientConfig client_config;
    client_config.nickname = RandomNickname(crawl_rng_);
    client_config.firewalled = profile.info.firewalled;
    client_config.uplink_bytes_per_second =
        network_.latency().SampleUplinkBytesPerSecond(crawl_rng_);
    auto client = std::make_unique<SimClient>(&network_, client_config);
    client->set_attachment(profile.info.country, profile.info.autonomous_system);
    clients_.push_back(std::move(client));
  }

  // Crawler probes: one well-connected, unfirewalled client per server.
  probes_.reserve(servers_.size());
  for (size_t s = 0; s < servers_.size(); ++s) {
    ClientConfig probe_config;
    probe_config.nickname = "zzcrawler" + std::to_string(s);
    probe_config.firewalled = false;
    probe_config.uplink_bytes_per_second = 1e6;
    auto probe = std::make_unique<SimClient>(&network_, probe_config);
    probe->set_attachment(geography_.FindCountry("FR"),
                          geography_.SampleAs(geography_.FindCountry("FR"),
                                              crawl_rng_));
    probes_.push_back(std::move(probe));
  }
}

void CrawlSimulation::SyncClientCache(uint32_t peer_index) {
  const auto& cache = engine_.cache(peer_index);
  auto& synced = synced_[peer_index];
  SimClient& client = *clients_[peer_index];
  // Remove files the behaviour engine evicted.
  std::vector<uint32_t> to_remove;
  for (uint32_t f : synced) {
    if (!cache.Contains(f)) {
      to_remove.push_back(f);
    }
  }
  for (uint32_t f : to_remove) {
    client.RemoveLocalFile(InfoFor(f).digest);
    synced.erase(f);
  }
  // Add new acquisitions.
  for (uint32_t f : cache) {
    if (synced.insert(f).second) {
      client.AddLocalFile(InfoFor(f));
    }
  }
}

void CrawlSimulation::ConnectOnlinePeers(double day_start) {
  online_now_.assign(population_.size(), 0);
  for (uint32_t p : engine_.online_peers()) {
    online_now_[p] = 1;
    if (!population_.profile(p).free_rider) {
      SyncClientCache(p);
    }
    // Each peer prefers a stable server (hash of its id).
    const size_t server_index = p % servers_.size();
    SimClient* client = clients_[p].get();
    const double jitter = crawl_rng_.NextDouble() * 600.0;
    const NodeId node = client->node_id();
    const double delay = std::max(0.0, day_start + jitter - network_.NodeNow(node));
    network_.ScheduleOn(node, delay, [client, this, server_index] {
      client->Connect(servers_[server_index]->node_id(), nullptr);
    });
  }
}

void CrawlSimulation::DisconnectAll() {
  for (uint32_t p = 0; p < population_.size(); ++p) {
    if (online_now_[p] != 0) {
      clients_[p]->Disconnect();
    }
  }
}

void CrawlSimulation::CrawlDay(int day, uint32_t budget, CrawlDayStats& stats) {
  stats.day = day;
  // Phase 1: enumerate users on every server with prefix queries.
  const auto prefixes = MakePrefixes(config_.prefix_length);
  std::unordered_set<NodeId> discovered;
  auto pending = std::make_shared<size_t>(0);
  for (size_t s = 0; s < servers_.size(); ++s) {
    SimClient* probe = probes_[s].get();
    for (const std::string& prefix : prefixes) {
      ++*pending;
      probe->QueryUsers(prefix, [&discovered, pending](std::vector<UserRecord> users) {
        for (const UserRecord& user : users) {
          if (!user.low_id) {
            discovered.insert(user.node);
          }
        }
        --*pending;
      });
    }
  }
  network_.Run();
  assert(*pending == 0);
  stats.users_discovered = static_cast<uint32_t>(discovered.size());
  stats.reachable_users = stats.users_discovered;

  // Phase 2: browse every discovered client, budget permitting. Node ids of
  // clients are peer_index + num_servers (servers were registered first),
  // but we map robustly through the network's node table.
  std::vector<NodeId> targets;
  targets.reserve(discovered.size());
  const NodeId first_client = static_cast<NodeId>(servers_.size());
  const NodeId past_clients = first_client + static_cast<NodeId>(clients_.size());
  for (NodeId node : discovered) {
    // The crawler's own probes also appear in user listings; skip them.
    if (node >= first_client && node < past_clients) {
      targets.push_back(node);
    }
  }
  std::sort(targets.begin(), targets.end());
  if (targets.size() > budget) {
    // Bandwidth-constrained days browse a random subset, like the real
    // crawler that could no longer cycle through everyone.
    crawl_rng_.Shuffle(targets);
    targets.resize(budget);
    std::sort(targets.begin(), targets.end());
  }
  SimClient* browser = probes_[0].get();
  for (NodeId target : targets) {
    ++stats.browses_attempted;
    auto* target_client = dynamic_cast<SimClient*>(network_.node(target));
    assert(target_client != nullptr);
    browser->Browse(target, [this, day, target_client, &stats](
                                std::optional<std::vector<SharedFileInfo>> reply) {
      if (!reply.has_value()) {
        return;
      }
      ++stats.browses_succeeded;
      stats.files_seen += reply->size();
      // Locate the peer index of this client to record the snapshot.
      const NodeId node = target_client->node_id();
      const uint32_t peer_index = node - static_cast<uint32_t>(servers_.size());
      std::vector<FileId> files;
      files.reserve(reply->size());
      for (const SharedFileInfo& info : *reply) {
        files.push_back(info.file);
      }
      result_.observed.AddSnapshot(PeerId(peer_index), day, std::move(files));
    });
  }
  network_.Run();
}

CrawlResult CrawlSimulation::Run() {
  SetupNodes();
  catalog_.ExportFiles(result_.observed);
  population_.ExportPeers(result_.observed);
  catalog_.ExportFiles(result_.ground_truth);
  population_.ExportPeers(result_.ground_truth);

  // The crawler probes stay connected for the whole crawl.
  for (size_t s = 0; s < probes_.size(); ++s) {
    probes_[s]->Connect(servers_[s]->node_id(), nullptr);
  }
  network_.Run();

  const int last_day = config_.workload.first_day + config_.workload.num_days - 1;
  double budget = config_.initial_daily_browse_budget;
  for (int day = config_.workload.first_day; day <= last_day; ++day) {
    const double day_start =
        static_cast<double>(day - config_.workload.first_day) * kSecondsPerDay;
    engine_.StepDay(day);

    // Ground truth: a perfect observer records every online peer.
    for (uint32_t p : engine_.online_peers()) {
      const auto& cache = engine_.cache(p);
      std::vector<FileId> files;
      files.reserve(cache.size());
      for (uint32_t raw : cache) {
        files.push_back(FileId(raw));
      }
      result_.ground_truth.AddSnapshot(PeerId(p), day, std::move(files));
    }

    ConnectOnlinePeers(day_start);
    network_.RunUntil(day_start + 1'200.0);  // Let connects settle.

    CrawlDayStats stats;
    CrawlDay(day, static_cast<uint32_t>(budget), stats);
    result_.days.push_back(stats);
    Log(LogLevel::kDebug) << "crawl day " << day << ": " << stats.users_discovered
                          << " users, " << stats.browses_succeeded << " browses";

    DisconnectAll();
    network_.Run();
    budget *= config_.browse_budget_decay;
  }
  result_.messages_sent = network_.messages_sent();
  return result_;
}

}  // namespace

CrawlResult RunCrawlSimulation(const CrawlConfig& config) {
  CrawlSimulation simulation(config);
  return simulation.Run();
}

}  // namespace edk
