#include "src/net/network.h"

#include <cassert>

#include "src/obs/metrics.h"

namespace edk {

namespace {

struct NetMetrics {
  obs::Counter* messages;
  obs::HistogramMetric* delay;
};

NetMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static NetMetrics metrics{
      &registry.GetCounter("net.messages_sent"),
      // One-way delays are tens to hundreds of ms; 2 s covers relay
      // penalties with headroom (the overflow bucket catches outliers).
      &registry.GetHistogram("net.delay_seconds", 0.0, 2.0, 40),
  };
  return metrics;
}

sim::ShardedEngineConfig EngineConfig(const SimNetConfig& config) {
  sim::ShardedEngineConfig engine_config;
  engine_config.shards = config.shards;
  engine_config.placement = config.placement;
  engine_config.threads = config.threads;
  engine_config.seed = config.seed;
  // The conservative window width floor: no Send() can undercut it, so
  // shards only exchange messages at window barriers.
  engine_config.lookahead = LatencyModel::MinDelay();
  // window_factor <= 1 pins the width to the lookahead (max_window 0
  // disables adaptation in the engine).
  engine_config.max_window =
      config.window_factor > 1.0 ? config.window_factor * LatencyModel::MinDelay()
                                 : 0.0;
  return engine_config;
}

}  // namespace

SimNetwork::SimNetwork(const Geography* geography, const SimNetConfig& config)
    : geography_(geography), latency_(geography), engine_(EngineConfig(config)) {}

NodeId SimNetwork::Register(SimNode* node) {
  assert(node != nullptr);
  assert(node->node_id_ == kInvalidNode && "node registered twice");
  node->node_id_ = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  engine_.EnsureNodes(static_cast<uint32_t>(nodes_.size()));
  return node->node_id_;
}

double SimNetwork::DelayBetween(NodeId from, NodeId to) {
  const SimNode* a = nodes_[from];
  const SimNode* b = nodes_[to];
  return latency_.Delay(a->country(), a->autonomous_system(), b->country(),
                        b->autonomous_system(), NodeRng(from));
}

void SimNetwork::Send(NodeId from, NodeId to, std::function<void()> handler,
                      double extra_delay) {
  assert(from < nodes_.size() && to < nodes_.size());
  const double delay = DelayBetween(from, to) + extra_delay;
  NetMetrics& metrics = Metrics();
  metrics.messages->Increment();
  metrics.delay->Record(delay);
  engine_.Send(from, to, delay, std::move(handler));
}

}  // namespace edk
