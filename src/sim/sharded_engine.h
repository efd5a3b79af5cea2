// edk::sim — sharded conservative parallel discrete-event engine.
//
// The single-threaded EventQueue caps simulations at a small fraction of
// the network the paper measured (1.16 M distinct peers). ShardedEngine
// partitions nodes across K shards — each with its own EventQueue and its
// own clock — and executes them in bounded time windows on the edk_exec
// ThreadPool. The window width starts at the conservative lookahead L:
// the minimum one-way delay any message can have (LatencyModel::MinDelay()
// for the network fabric). Because every Send() takes at least L of
// simulated time, a message sent anywhere inside the window [t, t+L]
// arrives at or beyond the next window's start, so shards never need to
// interrupt each other mid-window: cross-shard (and intra-shard) sends are
// buffered into per-(src,dst) mailboxes and merged at the window barrier.
//
// Node→shard placement is a policy (src/sim/placement.h): round-robin,
// contiguous, or interest-clustered. Placement is a pure performance knob
// — see the determinism contract below — that trades cross-shard traffic
// for locality; the cross_shard_messages() counter measures it.
//
// Determinism contract — results are bit-identical for ANY shard count,
// ANY placement and ANY worker thread count (the same invariant edk_exec
// established for the analysis kernels):
//
//   * Node state is only touched by that node's own events, and every
//     random draw a node makes comes from its own SplitMix64-derived
//     stream (NodeRng), so cross-node interleaving inside a window cannot
//     change behaviour. Shared instrumentation folds with commutative
//     operations only (see src/obs).
//   * Window boundaries are a function of the global next-event time and
//     the window width — and the width itself evolves only from the
//     deterministic send history (see "adaptive windows" below) — so they
//     are identical for every partitioning.
//   * Mailboxes are merged at the barrier in (arrival time, sending node,
//     per-sender sequence) order, and EventQueue's FIFO tiebreak for
//     same-time events preserves that order, so each node observes its
//     incoming messages in a partition-independent order.
//
// Adaptive windows (config.max_window > lookahead): after each window the
// engine folds the minimum delay requested by that window's sends — the
// observed lookahead slack — and widens (or narrows) the next window to
// it, clamped to [lookahead, max_window]. The send multiset of a window
// is partition-independent, so the width trajectory is too. A send whose
// arrival would land inside its own window (its delay undercuts the
// widened width) is deferred to the window barrier — a deterministic
// clamp counted in deferred_sends() / the sim.window_deferred_sends
// counter. With max_window == 0 (the default) the width is pinned to the
// lookahead and no send is ever deferred: arrival times are exact.
//
// The engine deliberately knows nothing about SimNode/protocols: nodes
// are dense uint32 ids. SimNetwork wires it to the latency model and the
// node table (src/net/network.h).

#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/net/event_queue.h"
#include "src/sim/placement.h"

namespace edk::sim {

struct ShardedEngineConfig {
  // Number of shards K (>= 1). `placement` maps nodes to shards;
  // determinism never depends on the mapping.
  size_t shards = 1;
  // Node→shard placement policy (default round-robin: node % K).
  Placement placement;
  // Worker threads driving the shards each window (0 = DefaultThreads()).
  size_t threads = 0;
  // Base seed of the per-node SplitMix64-derived RNG streams.
  uint64_t seed = 1;
  // Conservative lookahead: the minimum window width, and the minimum
  // delay every Send() must respect (smaller delays are clamped up and
  // counted — see clamped_sends()). Must be > 0. SimNetwork passes
  // LatencyModel::MinDelay().
  double lookahead = 0.010;
  // Upper bound for adaptive window widening (see the header comment).
  // <= lookahead (including the default 0) disables adaptation: every
  // window is exactly `lookahead` wide and arrivals are never deferred.
  double max_window = 0;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineConfig config);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  size_t shard_count() const { return shards_.size(); }
  size_t shard_of(uint32_t node) const {
    return config_.placement.ShardOf(node, shards_.size());
  }
  double lookahead() const { return config_.lookahead; }
  // Current window width: lookahead unless adaptive widening is on.
  double window_width() const { return window_width_; }

  // Grows the node table so ids [0, count) are valid. Each node gets an
  // independent RNG stream seeded TaskSeed(config.seed, node).
  void EnsureNodes(uint32_t count);
  uint32_t node_count() const { return static_cast<uint32_t>(node_rngs_.size()); }

  // The node's private random stream. Draws must happen either during
  // setup (single-threaded) or from the node's own events; the stream's
  // trajectory is then independent of the partitioning.
  Rng& NodeRng(uint32_t node) { return node_rngs_[node]; }

  // The owning shard's clock. Inside one of the node's events this is the
  // event's timestamp; between Run calls all shard clocks agree (they are
  // aligned to now() when a Run/RunUntil returns).
  double NodeNow(uint32_t node) const;

  // Timer on the node's own shard, `delay` seconds after the shard clock.
  // Must only be called from setup or from one of `node`'s own events.
  // The handle supports Cancel() from the same contexts.
  EventQueue::EventHandle ScheduleOn(uint32_t node, double delay,
                                     EventQueue::Callback fn);

  // Message from `src` to `dst`: runs `fn` on dst's shard at (src shard
  // clock + delay). `delay` must be >= lookahead — the conservative bound
  // that makes the window protocol sound; a smaller delay is clamped up
  // to it, counted in clamped_sends() and warned about once (debug and
  // release builds agree on the behaviour). Buffered in the src shard's
  // mailbox as a per-(src,dst) run, sorted at the end of the window, and
  // k-way merged into dst's queue at the next window barrier, in
  // (time, src, per-src sequence) order.
  void Send(uint32_t src, uint32_t dst, double delay, EventQueue::Callback fn);

  // Runs windows until every queue and mailbox drains, then aligns every
  // shard clock to the global drain time (= now()). Returns events run.
  uint64_t Run();
  // Runs windows while the next global event is <= `until`, then advances
  // every shard clock to `until`.
  uint64_t RunUntil(double until);

  // Engine-wide clock: the horizon every shard clock was aligned to when
  // the last Run/RunUntil returned (monotonic; 0 before the first run).
  double now() const { return now_; }

  uint64_t events_executed() const;
  uint64_t messages_sent() const;
  // Messages that crossed a shard boundary (partition-dependent: exported
  // to the env metrics domain, not the deterministic one).
  uint64_t cross_shard_messages() const;
  // Sends whose delay undercut the conservative lookahead and were
  // clamped up to it. Deterministic; nonzero means the scenario violates
  // the fabric's minimum-delay contract (sim.clamped_sends counter).
  uint64_t clamped_sends() const;
  // Sends deferred to their window barrier by adaptive widening
  // (deterministic; always 0 when max_window <= lookahead).
  uint64_t deferred_sends() const;
  // Windows executed so far. Window boundaries are partition-independent,
  // so this count is deterministic.
  uint64_t windows_run() const;

 private:
  struct Message {
    double time;       // Arrival time on the destination shard.
    uint32_t src;      // Sending node.
    uint64_t seq;      // Per-sender sequence number.
    EventQueue::Callback fn;
  };

  // Per-shard state, cache-line separated: inside a window each shard is
  // touched by exactly one worker.
  struct alignas(64) Shard {
    EventQueue queue;
    // Outgoing messages buffered this window, indexed by destination
    // shard. Each box is one pre-sorted run by the time the barrier
    // merges it (the owning worker sorts its runs at the end of the
    // window drain); the destination's worker k-way merges its column.
    std::vector<std::vector<Message>> outbox;
    uint64_t executed = 0;
    uint64_t messages = 0;
    uint64_t cross_messages = 0;
    uint64_t clamped = 0;
    uint64_t deferred = 0;
    // Minimum delay requested by this shard's sends in the current
    // window (adaptive-width signal; +inf when it sent nothing).
    double min_send_delay = 0;
    // Window and barrier scratch, reused across windows: this shard's
    // drain time and event count in the current window, the messages
    // merged into it at the last barrier, and the k-way merge's run,
    // cursor and heap vectors (touched only by the destination's worker).
    double busy_seconds = 0;
    uint64_t window_executed = 0;
    size_t merged = 0;
    std::vector<std::vector<Message>*> merge_runs;
    std::vector<size_t> merge_pos;
    std::vector<size_t> merge_heap;
  };

  static bool MessageBefore(const Message& a, const Message& b);

  // Sorts every outbox run in (time, src, seq) order. Only needed for
  // setup-time sends: runs produced inside a window are sorted by the
  // owning worker before the barrier.
  void SortOutboxRuns();
  // Runs shard k's events up to window_end_ and pre-sorts its outgoing
  // runs (one window task).
  void DrainShard(size_t k);
  // K-way merges destination dst's column of pre-sorted runs into its
  // queue, in (time, src, seq) order (one barrier task).
  void MergeInto(size_t dst);
  // Runs `merge` (MergeInto, built once per run) over every destination.
  // Runs at window barriers and before the first window (setup-time
  // sends). Returns the number of messages merged — partition-independent,
  // because EVERY send (intra- and cross-shard) is buffered until the next
  // barrier.
  size_t MergeMailboxes(const std::function<void(size_t)>& merge);
  bool AnyOutboxPending() const;
  double NextEventTime();

  ShardedEngineConfig config_;
  std::vector<Shard> shards_;
  std::vector<Rng> node_rngs_;
  std::vector<uint64_t> node_send_seq_;
  uint64_t windows_ = 0;
  // Engine-wide clock: see now().
  double now_ = 0;
  // Adaptive window width, in [lookahead, max_window]; pinned to
  // lookahead when max_window <= lookahead.
  double window_width_;
  // End of the window currently executing; workers read it to defer
  // arrivals that would land inside the window (written only between
  // barriers).
  double window_end_ = 0;
  // Whether the current run emits trace spans (read by the window and
  // barrier tasks).
  bool tracing_ = false;
  // Cursors for the metrics flush at the end of each RunUntil: counters
  // receive deltas, so several engines can coexist in one registry.
  uint64_t messages_reported_ = 0;
  uint64_t cross_reported_ = 0;
  uint64_t clamped_reported_ = 0;
  uint64_t deferred_reported_ = 0;
  // Warn-once latch for below-lookahead sends; workers race to set it.
  std::atomic<bool> clamp_warned_{false};
  bool running_ = false;
};

}  // namespace edk::sim

#endif  // SRC_SIM_SHARDED_ENGINE_H_
