// SimNetwork: the fabric connecting simulated nodes.
//
// Owns the simulation kernel, the latency model and the node table.
// Message delivery is modelled as a scheduled closure executed after the
// one-way geographic delay between the two endpoints; nodes never call
// each other directly, so all interactions respect simulated time.
//
// The kernel is an edk::sim::ShardedEngine. It partitions the nodes
// across SimNetConfig::shards shards and runs them in conservative
// windows whose width is the latency model's MinDelay() lookahead. Every
// random draw a node makes, message delays included, comes from that
// node's own stream (NodeRng), so results are bit-identical for any
// shards/threads combination (see src/sim/sharded_engine.h). One shard
// runs every event on the calling thread, in time order: a caller whose
// callbacks share state across nodes (the crawler, the examples, most
// unit tests) runs at shards=1.
//
// Node code reaches the kernel only through the node-scoped seams (Send,
// ScheduleOn, NodeNow, NodeRng), from setup or from that node's own
// events. Callers drive it with Run() and RunUntil() and read the clock
// between runs with now().

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/net/event_queue.h"
#include "src/net/latency.h"
#include "src/net/protocol.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/geography.h"

namespace edk {

// Base class for anything attached to the network.
class SimNode {
 public:
  virtual ~SimNode() = default;

  NodeId node_id() const { return node_id_; }
  CountryId country() const { return country_; }
  AsId autonomous_system() const { return as_; }

  void set_attachment(CountryId country, AsId as) {
    country_ = country;
    as_ = as;
  }

 private:
  friend class SimNetwork;
  NodeId node_id_ = kInvalidNode;
  CountryId country_;
  AsId as_;
};

struct SimNetConfig {
  uint64_t seed = 1;
  // Shard count for the sharded engine (>= 1).
  size_t shards = 1;
  // Worker threads per window (0 = DefaultThreads()).
  size_t threads = 0;
  // Node→shard placement (src/sim/placement.h). A pure performance knob:
  // results are bit-identical for every placement; interest-clustered
  // placements cut the cross-shard message ratio.
  sim::Placement placement;
  // Adaptive window cap as a multiple of the MinDelay() lookahead
  // (engine max_window = window_factor * MinDelay()). <= 1 (default)
  // pins windows to the lookahead and keeps arrival times exact; > 1
  // lets windows widen to the observed send-delay slack, deferring the
  // rare undercutting arrival to its window barrier (deterministic, see
  // src/sim/sharded_engine.h).
  double window_factor = 1.0;
};

class SimNetwork {
 public:
  // `geography` must outlive the network.
  SimNetwork(const Geography* geography, const SimNetConfig& config);

  sim::ShardedEngine& engine() { return engine_; }
  const LatencyModel& latency() const { return latency_; }
  const Geography& geography() const { return *geography_; }

  // Registers a node; the node must outlive the network. Returns its id.
  NodeId Register(SimNode* node);
  SimNode* node(NodeId id) const { return nodes_[id]; }
  size_t node_count() const { return nodes_.size(); }

  // Delivers `handler` at the destination after the one-way delay between
  // the two nodes (plus `extra_delay`, e.g. serialisation time). The delay
  // is drawn from the sender's stream; call from setup or from the
  // sender's own events.
  void Send(NodeId from, NodeId to, std::function<void()> handler,
            double extra_delay = 0.0);

  // Timer on the node's shard, `delay` seconds after its clock. Call from
  // setup or from the node's own events.
  EventQueue::EventHandle ScheduleOn(NodeId node, double delay,
                                     EventQueue::Callback fn) {
    return engine_.ScheduleOn(node, delay, std::move(fn));
  }
  // The node's shard clock: the event's timestamp inside one of its
  // events, now() between runs.
  double NodeNow(NodeId node) const { return engine_.NodeNow(node); }
  // The node's private random stream.
  Rng& NodeRng(NodeId node) { return engine_.NodeRng(node); }

  // Drive the kernel; both return the events executed.
  size_t Run() { return static_cast<size_t>(engine_.Run()); }
  size_t RunUntil(double until) { return static_cast<size_t>(engine_.RunUntil(until)); }
  // Where the last Run/RunUntil left every clock (0 before the first).
  double now() const { return engine_.now(); }

  // One-way delay sample between two registered nodes, drawn from the
  // sender's stream.
  double DelayBetween(NodeId from, NodeId to);

  uint64_t messages_sent() const { return engine_.messages_sent(); }

 private:
  const Geography* geography_;
  LatencyModel latency_;
  sim::ShardedEngine engine_;
  std::vector<SimNode*> nodes_;
};

}  // namespace edk

#endif  // SRC_NET_NETWORK_H_
