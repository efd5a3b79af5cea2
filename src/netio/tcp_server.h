// Real TCP front-end of the eDonkey index (DESIGN.md §6j).
//
// TcpServer listens on a loopback (or any) TCP port and serves the framed
// binary protocol of src/netio/frame.h with the exact ServerCore the
// simulator runs. The I/O machinery is epoll-based and non-blocking:
//
//   * One acceptor thread epoll-waits on the listen socket, accepts
//     non-blocking connections and hands each fd to a worker in
//     round-robin order through a mutex-guarded handoff queue + eventfd.
//   * N worker threads (config.worker_threads, default 1) each run their
//     own level-triggered epoll loop over their connections: read until
//     EAGAIN, feed a FrameAssembler, dispatch every complete frame,
//     append the reply to the connection's write buffer and flush,
//     enabling EPOLLOUT only while a partial write is pending.
//
// The index itself stays single-threaded by contract (ServerCore): every
// dispatch takes core_mutex(), so worker parallelism overlaps I/O and
// framing, not index mutation. On the single-core containers this repo
// benches on that is the honest design; the seam to scale past it is a
// sharded core keyed the same way sim::Placement shards nodes.
//
// Sessions: a connection logs in and is assigned the next NodeId from a
// process-wide allocator (config.first_client_id upwards, so ids continue
// after any corpus preloaded into the core). A connection that drops while
// logged in is logged out, exactly as a simulated client disconnect.
//
// Protocol errors (broken frame header, malformed payload, unknown tag)
// tear the connection down after an ErrorRep where the stream still
// permits one; they are counted in stats().protocol_errors and mirrored to
// the env-domain obs counters under netio.server.*.

#ifndef SRC_NETIO_TCP_SERVER_H_
#define SRC_NETIO_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/server_core.h"
#include "src/netio/frame.h"
#include "src/obs/flight_recorder.h"

namespace edk::netio {

struct TcpServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port from port().
  ServerConfig index;
  size_t worker_threads = 1;
  size_t max_connections = 4096;
  size_t max_frame_payload = kDefaultMaxPayload;
  // First NodeId handed to a TCP login. Leave room below for ids assigned
  // to a corpus preloaded straight into core() (PreloadServeCorpus).
  NodeId first_client_id = 1;
  // Dispatches slower than this land in the bounded slow-request log
  // (drained through StatsRep). 0 logs every request; < 0 disables.
  double slow_request_threshold_us = 10'000;
  // Newest slow requests retained (a FlightRecorder ring).
  size_t slow_log_capacity = 256;
};

struct TcpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_rejected = 0;  // Over max_connections.
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t requests = 0;
  uint64_t protocol_errors = 0;
  uint64_t transport_errors = 0;  // read/write failures other than EOF.
  size_t active_connections = 0;
};

class TcpServer {
 public:
  explicit TcpServer(TcpServerConfig config);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens and starts the acceptor + worker threads. Returns false
  // (with *error filled) on any socket failure.
  bool Start(std::string* error = nullptr);
  // Stops the loops, closes every connection and joins the threads.
  // Idempotent; also run by the destructor.
  void Stop();

  bool running() const { return running_; }
  // Bound port (valid after a successful Start; useful with port = 0).
  uint16_t port() const { return bound_port_; }

  // The index. Before Start() the caller may preload it directly (no
  // locking needed: the threads do not exist yet); after Start() any
  // access must hold core_mutex().
  ServerCore& core() { return core_; }
  std::mutex& core_mutex() { return core_mu_; }

  TcpServerStats stats() const;

  // Refreshes the process-level gauges (RSS, open fds, per-worker
  // connection counts, index size) in the global obs registry. Stats
  // dispatches do this before every snapshot; edk-served calls it before
  // a SIGUSR1/exit metrics dump so the file carries current values.
  void RefreshProcessGauges();

 private:
  struct Connection;
  struct Worker;

  void AcceptLoop();
  void WorkerLoop(Worker& worker);
  void AdoptPending(Worker& worker);
  // Reads, frames and dispatches; returns false when the connection must
  // close (EOF, transport error, protocol error).
  bool ServiceReadable(Worker& worker, Connection& conn);
  bool FlushWrites(Worker& worker, Connection& conn);
  void CloseConnection(Worker& worker, Connection& conn);
  bool UpdateInterest(Worker& worker, Connection& conn);
  // Dispatches one frame into the core; appends the reply to conn.outbuf.
  // Returns false on a protocol error (connection must close after the
  // error reply is flushed).
  bool Dispatch(Connection& conn, const Frame& frame);
  // The per-type switch of Dispatch; Dispatch wraps it with telemetry.
  bool DispatchFrame(Connection& conn, const Frame& frame);
  // Builds the monotonic StatsRep snapshot an in-band StatsReq is answered
  // with. Touches only env-domain metrics and (briefly, under core_mu_)
  // the index size gauges — never the request hot path's determinism.
  StatsRep BuildStatsRep(const StatsReq& req);
  // Records one dispatch into the per-type latency histograms, byte
  // counters and — past the threshold — the slow-request ring.
  void RecordRequestTelemetry(const Connection& conn, const Frame& frame,
                              std::chrono::steady_clock::time_point start,
                              size_t reply_bytes);

  TcpServerConfig config_;
  ServerCore core_;
  std::mutex core_mu_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint32_t> next_client_id_{0};
  std::atomic<size_t> next_worker_{0};

  // Stats (relaxed atomics: read by stats() while the loops run).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> transport_errors_{0};
  std::atomic<size_t> active_{0};

  // Observability plane (DESIGN.md §6k).
  std::chrono::steady_clock::time_point started_{};  // Set by Start().
  std::atomic<uint64_t> stats_seq_{0};  // Monotonic StatsRep sequence.
  obs::FlightRecorder slow_log_;  // Entry ids from AppendNumbered.
};

}  // namespace edk::netio

#endif  // SRC_NETIO_TCP_SERVER_H_
