#include "src/sim/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "src/common/log.h"
#include "src/exec/parallel.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace_log.h"

namespace edk::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kNoShard = static_cast<size_t>(-1);

// Trace span names (interned once; ids are stable for the process).
// sim.window and sim.barrier are deterministic — their timestamps, ids
// and args are functions of the global event timeline only. The wall
// spans profile the same structure in real time and stay in the kWall
// domain because their durations (and the per-destination merge split)
// depend on the partitioning.
struct EngineTraceNames {
  uint16_t window;         // kSim: one span per window.
  uint16_t barrier;        // kSim: one instant per non-empty barrier merge.
  uint16_t window_wall;    // kWall: the window's real drain time.
  uint16_t barrier_merge;  // kWall: the whole barrier merge.
  uint16_t mailbox_flush;  // kWall: one destination's merge share.
  uint16_t shard_drain;    // kWall: one shard's share of a window.
};

const EngineTraceNames& TraceNames() {
  auto& log = obs::TraceLog::Global();
  static const EngineTraceNames names{
      log.InternName("sim.window", {"index", "events"}),
      log.InternName("sim.barrier", {"index", "merged"}),
      log.InternName("sim.window.wall", {"index", "events"}),
      log.InternName("sim.barrier_merge", {"index", "merged"}),
      log.InternName("sim.mailbox_flush", {"dst_shard", "merged"}),
      log.InternName("sim.shard_drain", {"shard", "events"}),
  };
  return names;
}

// Salts keeping content-derived ids of different span kinds apart.
constexpr uint64_t kWindowIdSalt = 0x77696e646f77ULL;   // "window"
constexpr uint64_t kBarrierIdSalt = 0x62617272ULL;      // "barr"

// Shard currently being executed by this thread; only meaningful while the
// engine is inside a window. Used to assert that nodes schedule and send
// exclusively from their own shard (the determinism contract).
thread_local size_t tls_current_shard = kNoShard;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) {
    config_.shards = 1;
  }
  assert(config_.lookahead > 0 && "conservative lookahead must be positive");
  window_width_ = config_.lookahead;
  shards_ = std::vector<Shard>(config_.shards);
  for (Shard& shard : shards_) {
    shard.outbox.resize(config_.shards);
  }
  obs::MetricsRegistry::Global()
      .GetGauge("sim.window_width_micros")
      .Set(static_cast<int64_t>(window_width_ * 1e6));
}

void ShardedEngine::EnsureNodes(uint32_t count) {
  assert(!running_);
  while (node_rngs_.size() < count) {
    node_rngs_.push_back(TaskRng(config_.seed, node_rngs_.size()));
    node_send_seq_.push_back(0);
  }
}

double ShardedEngine::NodeNow(uint32_t node) const {
  return shards_[shard_of(node)].queue.now();
}

EventQueue::EventHandle ShardedEngine::ScheduleOn(uint32_t node, double delay,
                                                  EventQueue::Callback fn) {
  assert(node < node_count());
  const size_t shard = shard_of(node);
  assert((!running_ || tls_current_shard == shard) &&
         "ScheduleOn must run on the node's own shard");
  return shards_[shard].queue.Schedule(delay, std::move(fn));
}

void ShardedEngine::Send(uint32_t src, uint32_t dst, double delay,
                         EventQueue::Callback fn) {
  assert(src < node_count() && dst < node_count());
  const size_t src_shard = shard_of(src);
  assert((!running_ || tls_current_shard == src_shard) &&
         "Send must run on the sender's own shard");
  Shard& shard = shards_[src_shard];
  // The conservative invariant: no message may undercut the lookahead, or
  // it could arrive inside the window that sent it, after its shard
  // already drained that interval. Debug and release builds agree on the
  // behaviour — clamp, count, and warn once — so a scenario that is
  // "valid" in one build cannot silently disagree in the other; the
  // deterministic sim.clamped_sends counter makes the violation visible.
  if (delay < config_.lookahead) {
    ++shard.clamped;
    if (!clamp_warned_.exchange(true, std::memory_order_relaxed)) {
      Log(LogLevel::kWarning)
          << "sim: Send delay " << delay << "s below the conservative lookahead "
          << config_.lookahead << "s; clamping (counted in sim.clamped_sends)";
    }
    delay = config_.lookahead;
  }
  shard.min_send_delay = std::min(shard.min_send_delay, delay);
  double arrival = shard.queue.now() + delay;
  if (running_ && arrival < window_end_) {
    // Adaptive widening let this window outgrow the send's delay: the
    // destination may already have drained past the natural arrival, so
    // the message is deferred to the barrier. Window ends are
    // deterministic, hence so is the deferred arrival time.
    arrival = window_end_;
    ++shard.deferred;
  }
  const size_t dst_shard = shard_of(dst);
  shard.outbox[dst_shard].push_back(
      Message{arrival, src, node_send_seq_[src]++, std::move(fn)});
  ++shard.messages;
  if (dst_shard != src_shard) {
    ++shard.cross_messages;
  }
}

bool ShardedEngine::AnyOutboxPending() const {
  for (const Shard& shard : shards_) {
    for (const auto& box : shard.outbox) {
      if (!box.empty()) {
        return true;
      }
    }
  }
  return false;
}

bool ShardedEngine::MessageBefore(const Message& a, const Message& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  if (a.src != b.src) {
    return a.src < b.src;
  }
  return a.seq < b.seq;
}

void ShardedEngine::SortOutboxRuns() {
  ParallelFor(
      0, shards_.size(),
      [this](size_t src) {
        for (auto& box : shards_[src].outbox) {
          std::sort(box.begin(), box.end(), MessageBefore);
        }
      },
      config_.threads);
}

void ShardedEngine::MergeInto(size_t dst) {
  obs::WallSpan flush_span(tracing_ ? TraceNames().mailbox_flush : 0);
  Shard& to = shards_[dst];
  // Gather this destination's non-empty runs.
  std::vector<std::vector<Message>*>& runs = to.merge_runs;
  runs.clear();
  size_t total = 0;
  for (Shard& from : shards_) {
    auto& box = from.outbox[dst];
    if (!box.empty()) {
      total += box.size();
      runs.push_back(&box);
    }
  }
  to.merged = total;
  if (total == 0) {
    flush_span.Cancel();
    return;
  }
  flush_span.AddArg(dst);
  flush_span.AddArg(total);
  if (runs.size() == 1) {
    for (Message& message : *runs.front()) {
      to.queue.ScheduleAt(message.time, std::move(message.fn));
    }
  } else {
    // Min-heap over the run heads; pop-advance-reheap is O(M log K) with
    // K = live runs.
    std::vector<size_t>& pos = to.merge_pos;
    std::vector<size_t>& heap = to.merge_heap;
    pos.assign(runs.size(), 0);
    heap.resize(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      heap[r] = r;
    }
    const auto later = [&runs, &pos](size_t a, size_t b) {
      return MessageBefore((*runs[b])[pos[b]], (*runs[a])[pos[a]]);
    };
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const size_t r = heap.back();
      Message& message = (*runs[r])[pos[r]];
      to.queue.ScheduleAt(message.time, std::move(message.fn));
      if (++pos[r] < runs[r]->size()) {
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    }
  }
  for (auto* box : runs) {
    box->clear();
  }
}

size_t ShardedEngine::MergeMailboxes(const std::function<void(size_t)>& merge) {
  if (!AnyOutboxPending()) {
    return 0;
  }
  obs::WallSpan merge_span(tracing_ ? TraceNames().barrier_merge : 0);
  // Each destination drains its own column of the mailbox matrix: the
  // destination worker reads what source workers wrote (and pre-sorted)
  // last window, with the ParallelFor fork/join barrier ordering the two
  // phases. (time, src, seq) is a total order (src+seq is unique), every
  // run arrives sorted by it, and the FIFO tiebreak of ScheduleAt
  // preserves it for same-time arrivals: the destination observes its
  // messages in a partition-independent order at k-way-merge cost
  // (O(M log K) versus the old concat-then-sort O(M log M)).
  ParallelFor(0, shards_.size(), merge, config_.threads);
  size_t merged = 0;
  for (const Shard& shard : shards_) {
    merged += shard.merged;
  }
  if (merged == 0) {
    merge_span.Cancel();
  } else {
    merge_span.AddArg(windows_);
    merge_span.AddArg(merged);
  }
  return merged;
}

double ShardedEngine::NextEventTime() {
  double next = kInf;
  for (Shard& shard : shards_) {
    double when;
    if (shard.queue.PeekNextTime(&when)) {
      next = std::min(next, when);
    }
  }
  return next;
}

void ShardedEngine::DrainShard(size_t k) {
  obs::WallSpan drain_span(tracing_ ? TraceNames().shard_drain : 0);
  const auto start = std::chrono::steady_clock::now();
  Shard& shard = shards_[k];
  tls_current_shard = k;
  shard.min_send_delay = kInf;
  const uint64_t executed = shard.queue.RunUntil(window_end_);
  shard.executed += executed;
  // Pre-sort this shard's outgoing runs while the pool is hot: the
  // destination's barrier merge then only pays O(M log K).
  for (auto& box : shard.outbox) {
    std::sort(box.begin(), box.end(), MessageBefore);
  }
  tls_current_shard = kNoShard;
  shard.busy_seconds = Seconds(std::chrono::steady_clock::now() - start);
  shard.window_executed = executed;
  if (executed == 0) {
    drain_span.Cancel();
  } else {
    drain_span.AddArg(k);
    drain_span.AddArg(executed);
  }
}

uint64_t ShardedEngine::RunUntil(double until) {
  const size_t shard_count = shards_.size();
  const uint64_t events_before = events_executed();
  const uint64_t windows_before = windows_;
  std::vector<uint64_t> shard_events_before(shard_count);
  for (size_t k = 0; k < shard_count; ++k) {
    shard_events_before[k] = shards_[k].executed;
  }

  const auto loop_start = std::chrono::steady_clock::now();
  double stall_seconds = 0;
  std::vector<double> shard_stall(shard_count, 0.0);

  tracing_ = obs::TraceLog::Enabled();
  // The window and barrier tasks, built once per run: they capture only
  // `this` and read the window from members, so no window allocates.
  const std::function<void(size_t)> drain = [this](size_t k) { DrainShard(k); };
  const std::function<void(size_t)> merge = [this](size_t dst) { MergeInto(dst); };

  // Setup-time sends were buffered outside any window; sort them into
  // runs so the first barrier's k-way merge sees sorted input (windowed
  // sends are sorted by their own worker at the end of each drain).
  SortOutboxRuns();
  // Adaptive widening never exceeds the configured cap and never dips
  // below the conservative lookahead.
  const bool adaptive = config_.max_window > config_.lookahead;

  running_ = true;
  for (;;) {
    // Loop-top merge hands setup-time sends and last window's mailboxes to
    // their destination queues before the next window is chosen.
    const size_t merged = MergeMailboxes(merge);
    const double window_start = NextEventTime();
    if (tracing_ && merged > 0) {
      // Every send is buffered until the barrier, so the merged total (and
      // the barrier's position on the window timeline) is deterministic —
      // only the per-destination split depends on the partitioning.
      obs::EmitSimInstant(TraceNames().barrier, obs::SimMicros(window_start),
                          obs::MixId2(kBarrierIdSalt, windows_), 0,
                          {windows_, merged});
    }
    // kInf means every queue is empty (drained); the second clause stops a
    // finite horizon. Checked separately because inf <= inf holds.
    if (window_start == kInf || !(window_start <= until)) {
      break;
    }
    const double window_end = std::min(window_start + window_width_, until);
    window_end_ = window_end;
    obs::WallSpan window_span(tracing_ ? TraceNames().window_wall : 0);
    ParallelFor(0, shard_count, drain, config_.threads);
    if (tracing_) {
      uint64_t events_in_window = 0;
      for (const Shard& shard : shards_) {
        events_in_window += shard.window_executed;
      }
      window_span.AddArg(windows_);
      window_span.AddArg(events_in_window);
      window_span.Finish();
      // The deterministic twin of the wall span: window boundaries and the
      // events-per-window total are partition-independent.
      obs::EmitSimSpan(TraceNames().window, window_start, window_end,
                       obs::MixId2(kWindowIdSalt, windows_), 0,
                       {windows_, events_in_window});
    }
    ++windows_;
    if (adaptive) {
      // The window's send multiset is partition-independent, so the
      // observed slack (its minimum delay) — and therefore the whole
      // width trajectory — is deterministic. No sends leaves the width
      // untouched.
      double observed = kInf;
      for (const Shard& shard : shards_) {
        observed = std::min(observed, shard.min_send_delay);
      }
      if (std::isfinite(observed)) {
        window_width_ =
            std::clamp(observed, config_.lookahead, config_.max_window);
      }
    }
    double max_busy = 0;
    for (const Shard& shard : shards_) {
      max_busy = std::max(max_busy, shard.busy_seconds);
    }
    for (size_t k = 0; k < shard_count; ++k) {
      const double stall = max_busy - shards_[k].busy_seconds;
      shard_stall[k] += stall;
      stall_seconds += stall;
    }
  }
  running_ = false;

  // Align every shard clock to the engine-wide horizon: the caller's
  // `until` for a finite run, the global drain time for an infinite one
  // (the maximum any shard reached — NOT shard 0's clock, which may sit
  // earlier when the final events lived elsewhere).
  double horizon = until;
  if (!std::isfinite(until)) {
    horizon = now_;
    for (const Shard& shard : shards_) {
      horizon = std::max(horizon, shard.queue.now());
    }
  }
  for (Shard& shard : shards_) {
    shard.queue.RunUntil(horizon);
  }
  now_ = std::max(now_, horizon);

  // Metrics flush (single-threaded): counter deltas fold commutatively, so
  // the deterministic totals are identical for any shard/thread count;
  // everything partitioning- or wall-dependent goes to the env domain.
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t executed = events_executed() - events_before;
  registry.GetCounter("sim.events_run").Increment(executed);
  registry.GetCounter("sim.windows_run").Increment(windows_ - windows_before);
  const uint64_t messages = messages_sent();
  const uint64_t cross = cross_shard_messages();
  const uint64_t clamped = clamped_sends();
  const uint64_t deferred = deferred_sends();
  registry.GetCounter("sim.messages_total").Increment(messages - messages_reported_);
  registry.GetCounter("sim.clamped_sends").Increment(clamped - clamped_reported_);
  registry.GetCounter("sim.window_deferred_sends")
      .Increment(deferred - deferred_reported_);
  registry.GetCounter("sim.cross_shard_messages", obs::Domain::kEnv)
      .Increment(cross - cross_reported_);
  messages_reported_ = messages;
  cross_reported_ = cross;
  clamped_reported_ = clamped;
  deferred_reported_ = deferred;
  registry.GetGauge("sim.window_width_micros")
      .Set(static_cast<int64_t>(window_width_ * 1e6));
  for (size_t k = 0; k < shard_count; ++k) {
    registry.GetCounter("sim.shard" + std::to_string(k) + ".events", obs::Domain::kEnv)
        .Increment(shards_[k].executed - shard_events_before[k]);
  }
  if (windows_ != windows_before) {
    registry.RecordWallSeconds("sim.window_loop",
                               Seconds(std::chrono::steady_clock::now() - loop_start));
    registry.RecordWallSeconds("sim.barrier_stall", stall_seconds);
    // Per-shard share of the barrier imbalance: which shard the others
    // wait for. Wall domain — the split depends on the partitioning and
    // the machine.
    for (size_t k = 0; k < shard_count; ++k) {
      registry.RecordWallSeconds("sim.shard" + std::to_string(k) + ".barrier_stall",
                                 shard_stall[k]);
    }
  }
  return executed;
}

uint64_t ShardedEngine::Run() { return RunUntil(kInf); }

uint64_t ShardedEngine::events_executed() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.executed;
  }
  return total;
}

uint64_t ShardedEngine::messages_sent() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.messages;
  }
  return total;
}

uint64_t ShardedEngine::cross_shard_messages() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.cross_messages;
  }
  return total;
}

uint64_t ShardedEngine::clamped_sends() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.clamped;
  }
  return total;
}

uint64_t ShardedEngine::deferred_sends() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.deferred;
  }
  return total;
}

uint64_t ShardedEngine::windows_run() const { return windows_; }

}  // namespace edk::sim
