#include "src/semantic/sharded_gossip.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/exec/parallel.h"
#include "src/net/latency.h"
#include "src/net/network.h"
#include "src/semantic/interest_placement.h"

namespace edk {

namespace {

// A participant: its semantic view (node ids, best overlap first) plus the
// nominal round counter. State is only ever touched from the node's own
// events, which is what makes the run partition-independent.
struct GossipNode : SimNode {
  std::vector<uint32_t> view;
  uint32_t round = 0;
};

// Per-shard tallies; inside a window each shard is driven by exactly one
// worker, so plain counters suffice. Cache-line separated to avoid false
// sharing between workers.
struct alignas(64) ShardTally {
  uint64_t exchanges = 0;
  uint64_t probes = 0;
  uint64_t probe_hits = 0;
};

class Scenario {
 public:
  Scenario(const StaticCaches& caches, const Geography& geography,
           const ShardedGossipConfig& config)
      : config_(config),
        caches_(CompactCaches(caches)),
        network_(&geography, MakeNetConfig(config, caches_)),
        tallies_(network_.engine().shard_count()) {
    nodes_.resize(caches_.size());
    Rng setup_rng(config_.seed);
    for (GossipNode& node : nodes_) {
      const CountryId country = geography.SampleCountry(setup_rng);
      node.set_attachment(country, geography.SampleAs(country, setup_rng));
      network_.Register(&node);
    }
    // Stagger the first initiation across the first half of a round so the
    // per-round event load spreads over simulated time; the half-period
    // cap plus two one-way delays keeps round r inside (r-1, r] periods,
    // which is what lets the trajectory loop measure at round boundaries.
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
      const double jitter =
          1.0 + network_.NodeRng(i).NextDouble() * (config_.round_period * 0.5);
      network_.ScheduleOn(i, jitter, [this, i] { InitiateRound(i); });
    }
  }

  ShardedGossipStats Run() {
    const auto wall_start = std::chrono::steady_clock::now();
    ShardedGossipStats stats;
    if (config_.trajectory) {
      for (size_t r = 1; r <= config_.rounds; ++r) {
        network_.RunUntil(static_cast<double>(r) * config_.round_period);
        GossipRoundPoint point;
        point.round = r;
        point.mean_view_overlap = MeanViewOverlap();
        point.view_hit_rate = ViewHitRate();
        stats.trajectory.push_back(point);
      }
    }
    network_.Run();  // Drain stragglers and the probe phase.
    stats.wall_seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    const sim::ShardedEngine& engine = network_.engine();
    stats.participants = nodes_.size();
    stats.events_executed = engine.events_executed();
    stats.messages_sent = engine.messages_sent();
    stats.windows = engine.windows_run();
    stats.clamped_sends = engine.clamped_sends();
    stats.deferred_sends = engine.deferred_sends();
    stats.cross_shard_messages = engine.cross_shard_messages();
    stats.sim_seconds = engine.now();
    for (const ShardTally& tally : tallies_) {
      stats.exchanges += tally.exchanges;
      stats.probes += tally.probes;
      stats.probe_hits += tally.probe_hits;
    }
    stats.mean_view_overlap =
        stats.trajectory.empty() ? MeanViewOverlap()
                                 : stats.trajectory.back().mean_view_overlap;
    stats.view_hit_rate = stats.trajectory.empty()
                              ? ViewHitRate()
                              : stats.trajectory.back().view_hit_rate;
    return stats;
  }

  // Moves the views out, translated from participant indices back to raw
  // peer ids (the inverse of CompactCaches). Call after Run().
  void TakeViews(const StaticCaches& caches,
                 std::vector<std::vector<uint32_t>>* views) {
    std::vector<uint32_t> peer_of;  // Participant index -> peer id.
    peer_of.reserve(nodes_.size());
    for (uint32_t p = 0; p < caches.caches.size(); ++p) {
      if (!caches.caches[p].empty()) {
        peer_of.push_back(p);
      }
    }
    views->assign(caches.caches.size(), {});
    for (size_t i = 0; i < nodes_.size(); ++i) {
      std::vector<uint32_t>& view = nodes_[i].view;
      for (uint32_t& member : view) {
        member = peer_of[member];
      }
      (*views)[peer_of[i]] = std::move(view);
    }
  }

 private:
  uint32_t Overlap(uint32_t a, uint32_t b) const {
    return static_cast<uint32_t>(OverlapSize(caches_[a], caches_[b]));
  }

  // Folds `candidates` into the node's view and keeps the view_size best
  // by cache overlap, ties by node id. Scores are computed once per entry
  // (not inside the sort comparator): the merge runs tens of millions of
  // times in a scale run.
  void MergeIntoView(uint32_t node_id, std::span<const uint32_t> candidates) {
    auto& view = nodes_[node_id].view;
    std::vector<std::pair<uint32_t, uint32_t>> scored;  // (overlap, id)
    scored.reserve(view.size() + candidates.size());
    for (uint32_t member : view) {
      scored.emplace_back(Overlap(node_id, member), member);
    }
    for (uint32_t candidate : candidates) {
      if (candidate == node_id) {
        continue;
      }
      if (std::find(view.begin(), view.end(), candidate) != view.end()) {
        continue;
      }
      scored.emplace_back(Overlap(node_id, candidate), candidate);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) {
                  return a.first > b.first;
                }
                return a.second < b.second;
              });
    if (scored.size() > config_.view_size) {
      scored.resize(config_.view_size);
    }
    view.clear();
    for (const auto& [overlap, id] : scored) {
      view.push_back(id);
    }
  }

  void InitiateRound(uint32_t i) {
    GossipNode& node = nodes_[i];
    const uint32_t round = node.round++;
    Rng& rng = network_.NodeRng(i);
    const size_t n = nodes_.size();

    // Explore a uniformly random participant every explore_every-th round
    // (round 0 always explores: views start empty), exploit the best
    // semantic neighbour otherwise.
    const size_t explore_every = std::max<size_t>(1, config_.explore_every);
    uint32_t partner = i;
    if (!node.view.empty() && round % explore_every != 0) {
      partner = node.view[0];
    } else if (n > 1) {
      do {
        partner = static_cast<uint32_t>(rng.NextBelow(n));
      } while (partner == i);
    }

    if (partner != i) {
      // Offer: self + own view head + random spice, gossip_length total.
      std::vector<uint32_t> offer;
      offer.reserve(config_.gossip_length);
      offer.push_back(i);
      for (uint32_t member : node.view) {
        if (offer.size() >= config_.gossip_length) {
          break;
        }
        offer.push_back(member);
      }
      for (int attempt = 0;
           attempt < 8 && offer.size() < config_.gossip_length && n > 1;
           ++attempt) {
        const uint32_t spice = static_cast<uint32_t>(rng.NextBelow(n));
        if (spice != i &&
            std::find(offer.begin(), offer.end(), spice) == offer.end()) {
          offer.push_back(spice);
        }
      }
      ++tallies_[network_.engine().shard_of(i)].exchanges;
      network_.Send(i, partner,
                    [this, i, partner, offer = std::move(offer)] {
                      OnRequest(partner, i, offer);
                    });
    }

    if (round + 1 < config_.rounds) {
      network_.ScheduleOn(i, config_.round_period,
                          [this, i] { InitiateRound(i); });
    } else if (config_.probe_rounds > 0) {
      network_.ScheduleOn(i, config_.round_period,
                          [this, i] { Probe(i, 0); });
    }
  }

  // Runs on the partner's shard: fold the initiator's offer in and reply
  // with our own view head.
  void OnRequest(uint32_t partner, uint32_t initiator,
                 const std::vector<uint32_t>& offer) {
    MergeIntoView(partner, offer);
    std::vector<uint32_t> reply;
    reply.reserve(config_.gossip_length);
    reply.push_back(partner);
    for (uint32_t member : nodes_[partner].view) {
      if (reply.size() >= config_.gossip_length) {
        break;
      }
      reply.push_back(member);
    }
    network_.Send(partner, initiator,
                  [this, initiator, reply = std::move(reply)] {
                    MergeIntoView(initiator, reply);
                  });
  }

  // Local semantic probe: can my view serve a file I hold? Purely local
  // (caches are immutable shared state), so no messages are needed.
  void Probe(uint32_t i, size_t k) {
    ShardTally& tally = tallies_[network_.engine().shard_of(i)];
    ++tally.probes;
    Rng& rng = network_.NodeRng(i);
    const auto& cache = caches_[i];
    const FileId file = cache[rng.NextBelow(cache.size())];
    for (uint32_t member : nodes_[i].view) {
      const auto& other = caches_[member];
      if (std::binary_search(other.begin(), other.end(), file)) {
        ++tally.probe_hits;
        break;
      }
    }
    if (k + 1 < config_.probe_rounds) {
      network_.ScheduleOn(i, config_.round_period,
                          [this, i, k] { Probe(i, k + 1); });
    }
  }

  // Mean cache overlap between every participant and its view members.
  // ParallelFor writes per-node slots; the reduction is sequential, so the
  // total is bit-identical for any thread count.
  double MeanViewOverlap() {
    const size_t n = nodes_.size();
    std::vector<double> sums(n);
    std::vector<uint32_t> counts(n);
    ParallelFor(
        0, n,
        [this, &sums, &counts](size_t i) {
          const uint32_t self = static_cast<uint32_t>(i);
          double sum = 0;
          for (uint32_t member : nodes_[i].view) {
            sum += static_cast<double>(Overlap(self, member));
          }
          sums[i] = sum;
          counts[i] = static_cast<uint32_t>(nodes_[i].view.size());
        },
        config_.threads);
    double total = 0;
    uint64_t counted = 0;
    for (size_t i = 0; i < n; ++i) {
      total += sums[i];
      counted += counts[i];
    }
    return counted == 0 ? 0.0 : total / static_cast<double>(counted);
  }

  // Fraction of (peer, file-from-its-own-cache) draws served by the
  // peer's semantic view. A dedicated sequential stream keeps the
  // estimate independent of the node streams and of the partitioning.
  double ViewHitRate() {
    if (nodes_.empty() || config_.hit_samples == 0) {
      return 0;
    }
    Rng rng(config_.seed ^ 0x5851f42d4c957f2dULL);
    uint64_t hits = 0;
    for (size_t s = 0; s < config_.hit_samples; ++s) {
      const uint32_t i = static_cast<uint32_t>(rng.NextBelow(nodes_.size()));
      const auto& cache = caches_[i];
      const FileId file = cache[rng.NextBelow(cache.size())];
      for (uint32_t member : nodes_[i].view) {
        const auto& other = caches_[member];
        if (std::binary_search(other.begin(), other.end(), file)) {
          ++hits;
          break;
        }
      }
    }
    return static_cast<double>(hits) /
           static_cast<double>(config_.hit_samples);
  }

  // Only peers with content participate.
  static std::vector<std::span<const FileId>> CompactCaches(
      const StaticCaches& caches) {
    std::vector<std::span<const FileId>> out;
    for (const auto& cache : caches.caches) {
      if (!cache.empty()) {
        out.push_back(cache);
      }
    }
    return out;
  }

  // Placement labels must come from the *compacted* caches: the node ids
  // the engine sees are participant indices, not raw peer ids.
  static SimNetConfig MakeNetConfig(
      const ShardedGossipConfig& config,
      std::span<const std::span<const FileId>> caches) {
    SimNetConfig net;
    net.seed = config.seed;
    net.shards = config.shards;
    net.threads = config.threads;
    net.window_factor = config.window_factor;
    switch (config.placement) {
      case sim::PlacementPolicy::kContiguous:
        net.placement =
            sim::Placement::Contiguous(static_cast<uint32_t>(caches.size()));
        break;
      case sim::PlacementPolicy::kInterestClustered:
        net.placement = InterestClusteredPlacement(caches);
        break;
      case sim::PlacementPolicy::kRoundRobin:
        break;
    }
    return net;
  }

  ShardedGossipConfig config_;
  std::vector<std::span<const FileId>> caches_;  // Indexed by node id.
  SimNetwork network_;
  std::vector<GossipNode> nodes_;
  std::vector<ShardTally> tallies_;
};

}  // namespace

double ShardedGossipStats::EventsPerSecond() const {
  return wall_seconds > 0 ? static_cast<double>(events_executed) / wall_seconds
                          : 0.0;
}

double ShardedGossipStats::ProbeHitRate() const {
  return probes > 0 ? static_cast<double>(probe_hits) / static_cast<double>(probes)
                    : 0.0;
}

std::string ShardedGossipStats::DeterministicSummary() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "participants=" << participants << " events=" << events_executed
     << " messages=" << messages_sent << " exchanges=" << exchanges
     << " probes=" << probes << " probe_hits=" << probe_hits
     << " windows=" << windows << " clamped=" << clamped_sends
     << " deferred=" << deferred_sends << " sim_seconds=" << sim_seconds
     << " mean_view_overlap=" << mean_view_overlap
     << " view_hit_rate=" << view_hit_rate;
  for (const GossipRoundPoint& point : trajectory) {
    os << " r" << point.round << "=" << point.mean_view_overlap << ","
       << point.view_hit_rate;
  }
  return os.str();
}

ShardedGossipStats RunShardedGossip(
    const StaticCaches& caches, const Geography& geography,
    const ShardedGossipConfig& config,
    std::vector<std::vector<uint32_t>>* views) {
  // An exchange needs two one-way delays inside one period; shorter
  // periods would stack the next initiation onto a still-in-flight
  // exchange and silently skew every derived metric, so reject them
  // outright rather than warn.
  const double min_period = 2 * LatencyModel::MinDelay();
  if (!(config.round_period >= min_period)) {
    std::ostringstream os;
    os << "ShardedGossipConfig::round_period = " << config.round_period
       << " must be >= 2 * LatencyModel::MinDelay() = " << min_period;
    throw std::invalid_argument(os.str());
  }
  Scenario scenario(caches, geography, config);
  ShardedGossipStats stats = scenario.Run();
  if (views != nullptr) {
    scenario.TakeViews(caches, views);
  }
  return stats;
}

uint32_t ClusteredCacheTopic(uint32_t peer, uint32_t topics, uint64_t seed) {
  if (topics <= 1) {
    return 0;
  }
  // A dedicated stream (salted off the cache-content streams) so the
  // assignment is a pure function of (seed, peer).
  Rng rng = TaskRng(seed ^ 0x746f706963ULL, peer);  // "topic"
  return static_cast<uint32_t>(rng.NextBelow(topics));
}

StaticCaches MakeClusteredCaches(uint32_t peers, uint32_t files,
                                 uint32_t topics, uint64_t seed) {
  // Topics slice the file space, so an empty one leaves nothing to draw.
  if (files == 0) {
    throw std::invalid_argument("MakeClusteredCaches: files must be > 0");
  }
  if (topics == 0) {
    topics = 1;
  }
  topics = std::min(topics, files);
  StaticCaches out;
  out.caches.resize(peers);
  ParallelFor(0, peers, [&](size_t p) {
    Rng rng = TaskRng(seed, p);
    const uint32_t topic =
        ClusteredCacheTopic(static_cast<uint32_t>(p), topics, seed);
    // Contiguous slice of the file space for this topic.
    const uint32_t lo = static_cast<uint32_t>(
        static_cast<uint64_t>(files) * topic / topics);
    const uint32_t hi = static_cast<uint32_t>(
        static_cast<uint64_t>(files) * (topic + 1) / topics);
    // Geometric cache sizes: most peers share a handful of files, a few
    // share a lot (the paper's skewed sharing profile, §4).
    const size_t size =
        1 + static_cast<size_t>(std::min<uint64_t>(rng.NextGeometric(0.08), 99));
    auto& cache = out.caches[p];
    cache.reserve(size);
    for (size_t f = 0; f < size; ++f) {
      const uint32_t file =
          (hi > lo && rng.NextBool(0.8))
              ? lo + static_cast<uint32_t>(rng.NextBelow(hi - lo))
              : static_cast<uint32_t>(rng.NextBelow(files));
      cache.push_back(FileId(file));
    }
    std::sort(cache.begin(), cache.end());
    cache.erase(std::unique(cache.begin(), cache.end()), cache.end());
  });
  return out;
}

}  // namespace edk
