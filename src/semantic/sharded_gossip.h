// Two-tier epidemic semantic overlay as discrete events on the sharded
// engine.
//
// The paper's §6 describes the follow-on design (Voulgaris & van Steen,
// Euro-Par 2005) that was evaluated on this very eDonkey trace: peers
// gossip view entries and each keeps the K peers whose caches overlap its
// own the most, so semantic neighbour lists exist without any download
// history. This scenario runs that exchange protocol as real discrete
// events on edk::sim::ShardedEngine, which is what lets it scale to the
// million-peer populations the paper crawled (§3: 1.16 M distinct peers).
// Every participant initiates one exchange per nominal round:
//
//   initiator --(request: self + view head + random spice)--> partner
//   partner merges the offer, replies with its own view head
//   initiator merges the reply
//
// Partner selection mixes exploitation (the best semantic neighbour) with
// uniform exploration: every `explore_every`-th round explores, the rest
// exploit. All randomness is drawn from the node's private stream and all
// view mutations happen in the owning node's events, so the run — the
// converged views included — is bit-identical for any
// --shards/--threads/--placement combination (the engine's determinism
// contract).
//
// RunShardedGossip is the entry point used by bench_ext_gossip,
// bench_ext_dynamic --shards sections, bench_scale and the equivalence
// tests.

#ifndef SRC_SEMANTIC_SHARDED_GOSSIP_H_
#define SRC_SEMANTIC_SHARDED_GOSSIP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/placement.h"
#include "src/trace/trace.h"
#include "src/workload/geography.h"

namespace edk {

struct ShardedGossipConfig {
  size_t view_size = 10;      // Semantic view size K.
  size_t gossip_length = 5;   // Entries shipped per exchange (incl. self).
  size_t rounds = 16;         // Nominal gossip rounds per participant.
  // Explore (uniform partner) every this many rounds, exploit the best
  // semantic neighbour otherwise; round 0 always explores. 2 = strict
  // alternation; larger values spend more rounds on semantic partners.
  // Clamped to >= 1.
  size_t explore_every = 2;
  // Seconds between a participant's successive initiations. Must leave
  // room for one full exchange (two one-way delays): RunShardedGossip
  // rejects periods below 2 * LatencyModel::MinDelay() with
  // std::invalid_argument (shorter periods would silently pile the next
  // initiation onto a still-in-flight exchange).
  double round_period = 10.0;
  // Local semantic-probe events per participant after the gossip rounds:
  // each draws a file from the node's own cache and checks whether its
  // semantic view can serve it (an event-driven analogue of view_hit_rate).
  size_t probe_rounds = 0;
  uint64_t seed = 1;
  size_t shards = 1;   // Engine shards.
  size_t threads = 0;  // Worker threads (0 = DefaultThreads()).
  // Node→shard placement policy. Pure performance knob (results are
  // bit-identical across policies); kInterestClustered derives labels
  // from the participant caches via InterestLabels().
  sim::PlacementPolicy placement = sim::PlacementPolicy::kRoundRobin;
  // Adaptive engine window cap as a multiple of the MinDelay() lookahead
  // (<= 1 keeps fixed lookahead-wide windows; see SimNetConfig).
  double window_factor = 1.0;
  // Samples for the final (and per-round) view-hit-rate estimate.
  size_t hit_samples = 20'000;
  // Measure overlap/hit-rate at every round boundary. Costs one pass over
  // all views per round; bench_scale disables it for the big populations.
  bool trajectory = true;
};

struct GossipRoundPoint {
  size_t round = 0;  // 1-based: measured after this many rounds elapsed.
  double mean_view_overlap = 0;
  double view_hit_rate = 0;
};

struct ShardedGossipStats {
  // Everything except wall_seconds is deterministic: a function of
  // (caches, geography, config seed/rounds/...) only, bit-identical for
  // any shards/threads combination.
  size_t participants = 0;
  uint64_t events_executed = 0;
  uint64_t messages_sent = 0;
  uint64_t exchanges = 0;
  uint64_t probes = 0;
  uint64_t probe_hits = 0;
  uint64_t windows = 0;
  // Sends whose sampled delay undercut the engine lookahead (clamped up)
  // and arrivals deferred to their window barrier by adaptive windows.
  // Both are functions of the RNG streams only, so they belong to the
  // deterministic domain.
  uint64_t clamped_sends = 0;
  uint64_t deferred_sends = 0;
  double sim_seconds = 0;
  double mean_view_overlap = 0;
  double view_hit_rate = 0;
  std::vector<GossipRoundPoint> trajectory;
  // Partition/environment-dependent: excluded from DeterministicSummary.
  uint64_t cross_shard_messages = 0;
  double wall_seconds = 0;

  double EventsPerSecond() const;
  double ProbeHitRate() const;
  // Fixed-format dump of every deterministic field (full double
  // precision). Two runs agree on the simulation iff the strings match —
  // this is what the equivalence tests and bench_scale cross-checks
  // compare.
  std::string DeterministicSummary() const;
};

// Runs the scenario over the given static caches (only peers with
// non-empty caches participate). Geography attachments are sampled at
// setup from the config seed.
//
// If `views` is non-null it receives the converged semantic views,
// indexed by raw peer id like `caches.caches` and holding raw peer ids,
// best overlap first — the shape SearchSimConfig::fixed_views takes. Free
// riders get an empty view. Like the stats, the views are bit-identical
// for any shards/threads/placement.
ShardedGossipStats RunShardedGossip(
    const StaticCaches& caches, const Geography& geography,
    const ShardedGossipConfig& config,
    std::vector<std::vector<uint32_t>>* views = nullptr);

// Synthetic clustered population for scale runs: `peers` caches over
// `files` files partitioned into `topics` interest clusters; each peer
// draws most of its (geometrically sized) cache from its own topic plus
// uniform spice. Deterministic in `seed` for any thread count.
//
// Topic membership is pseudo-random in (seed, peer) — deliberately
// uncorrelated with the peer id, like the real network where a peer's
// interest is latent in its cache, not its address. Id-based shard
// placements therefore can't exploit the clustering by accident; only
// content-derived labels (src/semantic/interest_placement.h) can.
// Throws std::invalid_argument if `files` is 0.
StaticCaches MakeClusteredCaches(uint32_t peers, uint32_t files,
                                 uint32_t topics, uint64_t seed);

// The topic MakeClusteredCaches assigned to `peer` (tests use it as the
// planted ground truth for label recovery).
uint32_t ClusteredCacheTopic(uint32_t peer, uint32_t topics, uint64_t seed);

}  // namespace edk

#endif  // SRC_SEMANTIC_SHARDED_GOSSIP_H_
