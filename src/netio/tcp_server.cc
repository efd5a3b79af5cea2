#include "src/netio/tcp_server.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace_log.h"

namespace edk::netio {

namespace {

// Bytes per read() call in the worker loops.
constexpr size_t kReadChunkBytes = 64 * 1024;

// Env-domain counters: real-I/O event counts depend on wall-clock timing,
// so they live in the "wall" section of the metrics export and never
// participate in determinism comparisons.
struct NetioMetrics {
  obs::Counter* accepted;
  obs::Counter* closed;
  obs::Counter* requests;
  obs::Counter* protocol_errors;
  obs::Counter* transport_errors;
  // Observability plane (DESIGN.md §6k): epoll wakeup accounting.
  obs::Counter* accept_wakeups;
  obs::Counter* eventfd_wakeups;
};

NetioMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static NetioMetrics metrics{
      &registry.GetCounter("netio.server.accepted", obs::Domain::kEnv),
      &registry.GetCounter("netio.server.closed", obs::Domain::kEnv),
      &registry.GetCounter("netio.server.requests", obs::Domain::kEnv),
      &registry.GetCounter("netio.server.protocol_errors", obs::Domain::kEnv),
      &registry.GetCounter("netio.server.transport_errors", obs::Domain::kEnv),
      &registry.GetCounter("netio.server.accept_wakeups", obs::Domain::kEnv),
      &registry.GetCounter("netio.server.eventfd_wakeups", obs::Domain::kEnv),
  };
  return metrics;
}

uint16_t RequestSpanName() {
  static const uint16_t name =
      obs::TraceLog::Global().InternName("netio.server.request", {"type"});
  return name;
}

// --- Per-request-type telemetry (DESIGN.md §6k) -----------------------------
//
// Real-socket latency depends on wall-clock scheduling, so everything here
// lives in the kEnv domain: the deterministic sections the sim-vs-TCP
// equivalence tests byte-compare never see a stats-path value.

// 100 us resolution to 50 ms; slower requests land in the overflow count
// and (past the threshold) in the slow-request log with exact values.
constexpr double kLatencyHistogramHiUs = 50'000;
constexpr size_t kLatencyHistogramBins = 500;

// Telemetry of the request kinds a client can send. Other tags (replies,
// unknown bytes) fold into "other" — they are protocol errors anyway.
struct TypeTelemetry {
  obs::Counter* requests;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::HistogramMetric* latency;
};

TypeTelemetry MakeTypeTelemetry(const char* kind) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::string suffix = kind;
  return TypeTelemetry{
      &registry.GetCounter("netio.server.req." + suffix, obs::Domain::kEnv),
      &registry.GetCounter("netio.server.bytes_in." + suffix,
                           obs::Domain::kEnv),
      &registry.GetCounter("netio.server.bytes_out." + suffix,
                           obs::Domain::kEnv),
      &registry.GetHistogram("netio.server.latency_us." + suffix, 0,
                             kLatencyHistogramHiUs, kLatencyHistogramBins,
                             obs::Domain::kEnv),
  };
}

TypeTelemetry& TelemetryFor(MsgType type) {
  static TypeTelemetry login = MakeTypeTelemetry("login");
  static TypeTelemetry logout = MakeTypeTelemetry("logout");
  static TypeTelemetry publish = MakeTypeTelemetry("publish");
  static TypeTelemetry search = MakeTypeTelemetry("search");
  static TypeTelemetry query_sources = MakeTypeTelemetry("query_sources");
  static TypeTelemetry query_users = MakeTypeTelemetry("query_users");
  static TypeTelemetry browse = MakeTypeTelemetry("browse");
  static TypeTelemetry stats = MakeTypeTelemetry("stats");
  static TypeTelemetry health = MakeTypeTelemetry("health");
  static TypeTelemetry other = MakeTypeTelemetry("other");
  switch (type) {
    case MsgType::kLoginReq: return login;
    case MsgType::kLogoutReq: return logout;
    case MsgType::kPublishReq: return publish;
    case MsgType::kSearchReq: return search;
    case MsgType::kQuerySourcesReq: return query_sources;
    case MsgType::kQueryUsersReq: return query_users;
    case MsgType::kBrowseReq: return browse;
    case MsgType::kStatsReq: return stats;
    case MsgType::kHealthReq: return health;
    default: return other;
  }
}

obs::HistogramMetric& AllLatencyHistogram() {
  static obs::HistogramMetric& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "netio.server.latency_us.all", 0, kLatencyHistogramHiUs,
          kLatencyHistogramBins, obs::Domain::kEnv);
  return histogram;
}

// Resident set from /proc/self/statm (field 2, pages).
int64_t ReadRssBytes() {
  std::ifstream is("/proc/self/statm");
  long long total_pages = 0;
  long long resident_pages = 0;
  if (!(is >> total_pages >> resident_pages)) {
    return 0;
  }
  return static_cast<int64_t>(resident_pages) * sysconf(_SC_PAGESIZE);
}

// Open descriptors from /proc/self/fd, excluding the scan's own dirfd.
int64_t CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) {
    return 0;
  }
  int64_t n = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++n;
    }
  }
  closedir(dir);
  return n > 0 ? n - 1 : 0;
}

}  // namespace

// One accepted connection, owned by exactly one worker thread.
struct TcpServer::Connection {
  explicit Connection(int fd_in, size_t max_payload)
      : fd(fd_in), assembler(max_payload) {}

  int fd;
  FrameAssembler assembler;
  std::string outbuf;
  size_t out_off = 0;
  bool want_write = false;  // EPOLLOUT currently registered.
  bool logged_in = false;
  NodeId node = kInvalidNode;
};

struct TcpServer::Worker {
  int epoll_fd = -1;
  int notify_fd = -1;
  std::thread thread;
  std::mutex mu;
  std::deque<int> pending;  // Accepted fds awaiting adoption.
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  // Mirror of connections.size() readable from other threads (the gauge
  // refresh in RefreshProcessGauges); only the owning worker writes it.
  std::atomic<size_t> conn_count{0};
  // Every read() of this worker's connections lands here; allocated once.
  std::array<char, kReadChunkBytes> read_buf{};
};

TcpServer::TcpServer(TcpServerConfig config)
    : config_(std::move(config)),
      core_(config_.index),
      slow_log_(config_.slow_log_capacity) {
  next_client_id_.store(config_.first_client_id, std::memory_order_relaxed);
}

TcpServer::~TcpServer() { Stop(); }

bool TcpServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    Stop();
    return false;
  };
  if (running_) {
    if (error != nullptr) {
      *error = "already running";
    }
    return false;
  }
  stopping_ = false;

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return fail("socket");
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + config_.bind_address + ")");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (listen(listen_fd_, SOMAXCONN) != 0) {
    return fail("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  accept_wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (accept_wake_fd_ < 0) {
    return fail("eventfd");
  }

  const size_t worker_count = std::max<size_t>(config_.worker_threads, 1);
  workers_.clear();
  for (size_t i = 0; i < worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    worker->notify_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->epoll_fd < 0 || worker->notify_fd < 0) {
      workers_.push_back(std::move(worker));  // So Stop() closes the fds.
      return fail("worker epoll/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr = the notify eventfd.
    if (epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->notify_fd, &ev) != 0) {
      workers_.push_back(std::move(worker));
      return fail("epoll_ctl(notify)");
    }
    workers_.push_back(std::move(worker));
  }

  started_ = std::chrono::steady_clock::now();
  running_ = true;
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void TcpServer::Stop() {
  stopping_ = true;
  if (acceptor_.joinable()) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(accept_wake_fd_, &one, sizeof(one));
    acceptor_.join();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = write(worker->notify_fd, &one, sizeof(one));
      worker->thread.join();
    }
  }
  for (auto& worker : workers_) {
    // Close anything a worker never adopted (or the worker loop never ran).
    std::lock_guard<std::mutex> lock(worker->mu);
    for (int fd : worker->pending) {
      close(fd);
    }
    worker->pending.clear();
    for (auto& [fd, conn] : worker->connections) {
      close(fd);
    }
    worker->connections.clear();
    if (worker->notify_fd >= 0) {
      close(worker->notify_fd);
      worker->notify_fd = -1;
    }
    if (worker->epoll_fd >= 0) {
      close(worker->epoll_fd);
      worker->epoll_fd = -1;
    }
  }
  workers_.clear();
  if (accept_wake_fd_ >= 0) {
    close(accept_wake_fd_);
    accept_wake_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  active_.store(0, std::memory_order_relaxed);
  running_ = false;
}

TcpServerStats TcpServer::stats() const {
  TcpServerStats out;
  out.connections_accepted = accepted_.load(std::memory_order_relaxed);
  out.connections_closed = closed_.load(std::memory_order_relaxed);
  out.connections_rejected = rejected_.load(std::memory_order_relaxed);
  out.frames_in = frames_in_.load(std::memory_order_relaxed);
  out.frames_out = frames_out_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  out.active_connections = active_.load(std::memory_order_relaxed);
  return out;
}

void TcpServer::AcceptLoop() {
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = accept_wake_fd_;
  epoll_ctl(epoll_fd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);

  while (!stopping_.load(std::memory_order_acquire)) {
    epoll_event events[16];
    const int n = epoll_wait(epoll_fd, events, 16, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == accept_wake_fd_) {
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            read(accept_wake_fd_, &drained, sizeof(drained));
        continue;
      }
      Metrics().accept_wakeups->Increment();
      while (true) {
        const int fd = accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            break;
          }
          transport_errors_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (active_.load(std::memory_order_relaxed) >= config_.max_connections) {
          close(fd);
          rejected_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        accepted_.fetch_add(1, std::memory_order_relaxed);
        active_.fetch_add(1, std::memory_order_relaxed);
        Metrics().accepted->Increment();
        Worker& worker = *workers_[next_worker_.fetch_add(
                             1, std::memory_order_relaxed) %
                         workers_.size()];
        {
          std::lock_guard<std::mutex> lock(worker.mu);
          worker.pending.push_back(fd);
        }
        const uint64_t wake = 1;
        [[maybe_unused]] ssize_t r =
            write(worker.notify_fd, &wake, sizeof(wake));
      }
    }
  }
  close(epoll_fd);
}

void TcpServer::AdoptPending(Worker& worker) {
  std::deque<int> adopted;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    adopted.swap(worker.pending);
  }
  for (int fd : adopted) {
    auto conn = std::make_unique<Connection>(fd, config_.max_frame_payload);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
      closed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    worker.connections.emplace(fd, std::move(conn));
    worker.conn_count.store(worker.connections.size(),
                            std::memory_order_relaxed);
  }
}

void TcpServer::WorkerLoop(Worker& worker) {
  while (true) {
    epoll_event events[32];
    const int n = epoll_wait(worker.epoll_fd, events, 32, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        Metrics().eventfd_wakeups->Increment();
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            read(worker.notify_fd, &drained, sizeof(drained));
        AdoptPending(worker);
        continue;
      }
      auto* conn = static_cast<Connection*>(events[i].data.ptr);
      // The connection may have been closed while handling an earlier
      // event of this batch; epoll never reports a deleted fd in *later*
      // waits, but within one batch we guard by membership.
      const auto it = worker.connections.find(conn->fd);
      if (it == worker.connections.end() || it->second.get() != conn) {
        continue;
      }
      bool keep = true;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        keep = ServiceReadable(worker, *conn);  // Drain what remains.
        if (keep) {
          keep = false;  // Then close on the hangup.
        }
      } else {
        if ((events[i].events & EPOLLIN) != 0) {
          keep = ServiceReadable(worker, *conn);
        }
        if (keep && (events[i].events & EPOLLOUT) != 0) {
          keep = FlushWrites(worker, *conn) && UpdateInterest(worker, *conn);
        }
      }
      if (!keep) {
        CloseConnection(worker, *conn);
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Close every connection this worker owns, then exit.
      while (!worker.connections.empty()) {
        CloseConnection(worker, *worker.connections.begin()->second);
      }
      AdoptPending(worker);  // Late handoffs: close them too.
      while (!worker.connections.empty()) {
        CloseConnection(worker, *worker.connections.begin()->second);
      }
      return;
    }
  }
}

bool TcpServer::ServiceReadable(Worker& worker, Connection& conn) {
  bool saw_eof = false;
  std::array<char, kReadChunkBytes>& chunk = worker.read_buf;
  while (true) {
    const ssize_t n = read(conn.fd, chunk.data(), chunk.size());
    if (n > 0) {
      conn.assembler.Feed(chunk.data(), static_cast<size_t>(n));
      if (static_cast<size_t>(n) < chunk.size()) {
        break;  // Drained the socket.
      }
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
    Metrics().transport_errors->Increment();
    return false;
  }

  bool protocol_ok = true;
  while (protocol_ok) {
    auto frame = conn.assembler.Next();
    if (!frame.has_value()) {
      break;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    protocol_ok = Dispatch(conn, *frame);
  }
  if (protocol_ok && conn.assembler.broken()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Metrics().protocol_errors->Increment();
    ErrorRep error{kErrBadPayload,
                   std::string("broken frame: ") +
                       FrameErrorName(conn.assembler.error())};
    conn.outbuf += EncodeFrame(MsgType::kError, EncodeErrorRep(error));
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    protocol_ok = false;
  }

  // Flush whatever the dispatches produced; keep the connection only when
  // the stream is still healthy and the peer has not gone away.
  if (!FlushWrites(worker, conn)) {
    return false;
  }
  if (!protocol_ok || saw_eof) {
    return false;
  }
  return UpdateInterest(worker, conn);
}

bool TcpServer::FlushWrites(Worker& worker, Connection& conn) {
  (void)worker;
  while (conn.out_off < conn.outbuf.size()) {
    // MSG_NOSIGNAL: a client that disconnected with a reply in flight must
    // surface as EPIPE (counted, connection closed), not SIGPIPE.
    const ssize_t n = send(conn.fd, conn.outbuf.data() + conn.out_off,
                           conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;  // Backlogged: EPOLLOUT will resume.
    }
    if (errno == EINTR) {
      continue;
    }
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
    Metrics().transport_errors->Increment();
    return false;
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  return true;
}

bool TcpServer::UpdateInterest(Worker& worker, Connection& conn) {
  const bool want_write = conn.out_off < conn.outbuf.size();
  if (want_write == conn.want_write) {
    return true;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = &conn;
  if (epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
    return false;
  }
  conn.want_write = want_write;
  return true;
}

void TcpServer::CloseConnection(Worker& worker, Connection& conn) {
  if (conn.logged_in) {
    std::lock_guard<std::mutex> lock(core_mu_);
    core_.HandleLogout(conn.node);
  }
  epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  close(conn.fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  Metrics().closed->Increment();
  active_.fetch_sub(1, std::memory_order_relaxed);
  worker.connections.erase(conn.fd);  // Destroys conn.
  worker.conn_count.store(worker.connections.size(),
                          std::memory_order_relaxed);
}

bool TcpServer::Dispatch(Connection& conn, const Frame& frame) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Metrics().requests->Increment();
  obs::WallSpan span(RequestSpanName());
  span.AddArg(static_cast<uint64_t>(frame.type));

  const auto start = std::chrono::steady_clock::now();
  const size_t out_before = conn.outbuf.size();
  const bool ok = DispatchFrame(conn, frame);
  // Replies only ever append to outbuf during a dispatch, so the growth is
  // exactly this request's reply bytes (error replies included).
  RecordRequestTelemetry(conn, frame, start, conn.outbuf.size() - out_before);
  return ok;
}

bool TcpServer::DispatchFrame(Connection& conn, const Frame& frame) {
  auto reply = [&](MsgType type, const std::string& payload) {
    conn.outbuf += EncodeFrame(type, payload);
    frames_out_.fetch_add(1, std::memory_order_relaxed);
  };
  auto protocol_error = [&](uint64_t code, const char* what) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Metrics().protocol_errors->Increment();
    reply(MsgType::kError, EncodeErrorRep(ErrorRep{code, what}));
    return false;
  };

  switch (frame.type) {
    case MsgType::kLoginReq: {
      LoginReq req;
      if (!DecodeLoginReq(frame.payload, &req)) {
        return protocol_error(kErrBadPayload, "malformed login");
      }
      LoginRep rep;
      if (conn.logged_in) {
        rep.accepted = true;  // Idempotent re-login on one connection.
        rep.client_id = conn.node;
      } else {
        const NodeId id =
            next_client_id_.fetch_add(1, std::memory_order_relaxed);
        bool accepted;
        {
          std::lock_guard<std::mutex> lock(core_mu_);
          accepted = core_.HandleLogin(id, req.nickname, req.firewalled);
        }
        rep.accepted = accepted;
        if (accepted) {
          rep.client_id = id;
          conn.logged_in = true;
          conn.node = id;
        }
      }
      reply(MsgType::kLoginRep, EncodeLoginRep(rep));
      return true;
    }
    case MsgType::kLogoutReq: {
      if (!frame.payload.empty()) {
        return protocol_error(kErrBadPayload, "malformed logout");
      }
      if (conn.logged_in) {
        std::lock_guard<std::mutex> lock(core_mu_);
        core_.HandleLogout(conn.node);
        conn.logged_in = false;
        conn.node = kInvalidNode;
      }
      reply(MsgType::kLogoutRep, std::string());
      return true;
    }
    case MsgType::kPublishReq: {
      PublishReq req;
      if (!DecodePublishReq(frame.payload, &req)) {
        return protocol_error(kErrBadPayload, "malformed publish");
      }
      if (!conn.logged_in) {
        // Not a framing error: reply and keep the connection, mirroring
        // the simulator where a publish without a session is dropped.
        reply(MsgType::kError,
              EncodeErrorRep(ErrorRep{kErrNotLoggedIn, "publish needs login"}));
        return true;
      }
      PublishRep rep;
      {
        std::lock_guard<std::mutex> lock(core_mu_);
        core_.HandlePublish(conn.node, req.files);
        rep.indexed_files = core_.indexed_files();
      }
      reply(MsgType::kPublishRep, EncodePublishRep(rep));
      return true;
    }
    case MsgType::kSearchReq: {
      SearchReq req;
      if (!DecodeSearchReq(frame.payload, &req)) {
        return protocol_error(kErrBadPayload, "malformed search");
      }
      SearchRep rep;
      {
        std::lock_guard<std::mutex> lock(core_mu_);
        rep.files = core_.HandleSearch(req.keywords);
      }
      reply(MsgType::kSearchRep, EncodeSearchRep(rep));
      return true;
    }
    case MsgType::kQuerySourcesReq: {
      QuerySourcesReq req;
      if (!DecodeQuerySourcesReq(frame.payload, &req)) {
        return protocol_error(kErrBadPayload, "malformed query-sources");
      }
      SourcesRep rep;
      {
        std::lock_guard<std::mutex> lock(core_mu_);
        rep.sources = core_.HandleQuerySources(req.digest);
      }
      reply(MsgType::kSourcesRep, EncodeSourcesRep(rep));
      return true;
    }
    case MsgType::kQueryUsersReq: {
      QueryUsersReq req;
      if (!DecodeQueryUsersReq(frame.payload, &req)) {
        return protocol_error(kErrBadPayload, "malformed query-users");
      }
      UsersRep rep;
      {
        std::lock_guard<std::mutex> lock(core_mu_);
        rep.users = core_.HandleQueryUsers(req.prefix);
      }
      reply(MsgType::kUsersRep, EncodeUsersRep(rep));
      return true;
    }
    case MsgType::kBrowseReq: {
      BrowseReq req;
      if (!DecodeBrowseReq(frame.payload, &req)) {
        return protocol_error(kErrBadPayload, "malformed browse");
      }
      BrowseRep rep;
      {
        std::lock_guard<std::mutex> lock(core_mu_);
        auto files = core_.HandleBrowse(req.target);
        rep.ok = files.has_value();
        if (files.has_value()) {
          rep.files = std::move(*files);
        }
      }
      reply(MsgType::kBrowseRep, EncodeBrowseRep(rep));
      return true;
    }
    case MsgType::kStatsReq: {
      // Admin protocol (DESIGN.md §6k): no login required — a scraper is
      // not a peer and must not perturb the session table.
      StatsReq req;
      if (!DecodeStatsReq(frame.payload, &req)) {
        return protocol_error(kErrBadPayload, "malformed stats");
      }
      reply(MsgType::kStatsRep, EncodeStatsRep(BuildStatsRep(req)));
      return true;
    }
    case MsgType::kHealthReq: {
      if (!frame.payload.empty()) {
        return protocol_error(kErrBadPayload, "malformed health");
      }
      HealthRep rep;
      rep.ok = true;
      rep.uptime_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - started_)
              .count());
      rep.active_connections = active_.load(std::memory_order_relaxed);
      rep.requests_total = requests_.load(std::memory_order_relaxed);
      reply(MsgType::kHealthRep, EncodeHealthRep(rep));
      return true;
    }
    default:
      // Reply tags and unknown tags alike: a client must never send them.
      return protocol_error(kErrUnknownType, "unexpected message type");
  }
}

void TcpServer::RecordRequestTelemetry(
    const Connection& conn, const Frame& frame,
    std::chrono::steady_clock::time_point start, size_t reply_bytes) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const uint64_t latency_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  const double latency_us = static_cast<double>(latency_ns) / 1000.0;
  const uint64_t request_bytes = kFrameHeaderBytes + frame.payload.size();

  TypeTelemetry& telemetry = TelemetryFor(frame.type);
  telemetry.requests->Increment();
  telemetry.bytes_in->Increment(request_bytes);
  telemetry.bytes_out->Increment(reply_bytes);
  telemetry.latency->Record(latency_us);
  AllLatencyHistogram().Record(latency_us);

  if (config_.slow_request_threshold_us < 0 || config_.slow_log_capacity == 0 ||
      latency_us < config_.slow_request_threshold_us) {
    return;
  }
  obs::TraceEvent ev{};
  ev.ts = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - started_)
          .count());
  ev.dur = latency_ns;
  ev.domain = obs::TimeDomain::kWall;
  ev.args[0] = static_cast<uint64_t>(frame.type);
  ev.args[1] = request_bytes;
  ev.args[2] = reply_bytes;
  ev.args[3] = conn.logged_in ? conn.node : kInvalidNode;
  ev.arg_count = 4;
  // Numbered under the ring's lock, so entries from several io workers sit
  // in id order, which a scraper's slow_after_seq cursor relies on.
  slow_log_.AppendNumbered(ev);
}

void TcpServer::RefreshProcessGauges() {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("process.rss_bytes").Set(ReadRssBytes());
  registry.GetGauge("process.open_fds").Set(CountOpenFds());
  registry.GetGauge("netio.server.active_connections")
      .Set(static_cast<int64_t>(active_.load(std::memory_order_relaxed)));
  for (size_t i = 0; i < workers_.size(); ++i) {
    registry.GetGauge("netio.server.worker" + std::to_string(i) +
                      ".connections")
        .Set(static_cast<int64_t>(
            workers_[i]->conn_count.load(std::memory_order_relaxed)));
  }
  size_t indexed_files = 0;
  size_t connected_users = 0;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    indexed_files = core_.indexed_files();
    connected_users = core_.connected_users();
  }
  registry.GetGauge("netio.server.indexed_files")
      .Set(static_cast<int64_t>(indexed_files));
  registry.GetGauge("netio.server.connected_users")
      .Set(static_cast<int64_t>(connected_users));
}

StatsRep TcpServer::BuildStatsRep(const StatsReq& req) {
  RefreshProcessGauges();
  StatsRep rep;
  rep.seq = stats_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  rep.uptime_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  // Names over kMaxMetricNameBytes would make the reply undecodable; no
  // registered metric is anywhere near, but skip defensively.
  auto name_ok = [](const std::string& name) {
    return name.size() <= kMaxMetricNameBytes;
  };
  rep.counters.reserve(snapshot.counters.size() + snapshot.env_counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    if (name_ok(name)) rep.counters.push_back({name, value});
  }
  for (const auto& [name, value] : snapshot.env_counters) {
    if (name_ok(name)) rep.counters.push_back({name, value});
  }
  rep.gauges.reserve(snapshot.gauges.size());
  for (const auto& [name, value] : snapshot.gauges) {
    if (name_ok(name)) rep.gauges.push_back({name, value});
  }
  auto add_histograms = [&](const auto& source) {
    for (const auto& h : source) {
      if (!name_ok(h.name) || h.counts.size() > kMaxHistogramBins) {
        continue;
      }
      StatsHistogramValue out;
      out.name = h.name;
      out.lo = h.lo;
      out.hi = h.hi;
      out.underflow = h.underflow;
      out.overflow = h.overflow;
      out.counts = h.counts;
      rep.histograms.push_back(std::move(out));
    }
  };
  rep.histograms.reserve(snapshot.histograms.size() +
                         snapshot.env_histograms.size());
  add_histograms(snapshot.histograms);
  add_histograms(snapshot.env_histograms);

  // Slow log: ship only entries the scraper has not seen (id > cursor),
  // oldest first, capped at what one reply may carry.
  std::vector<obs::TraceEvent> events;
  slow_log_.Collect(&events);
  for (const auto& ev : events) {
    if (ev.id <= req.slow_after_seq) {
      continue;
    }
    SlowRequest slow;
    slow.seq = ev.id;
    slow.wall_ns = ev.ts;
    slow.type = static_cast<uint8_t>(ev.args[0]);
    slow.latency_us = ev.dur / 1000;
    slow.request_bytes = ev.args[1];
    slow.reply_bytes = ev.args[2];
    slow.node = static_cast<NodeId>(ev.args[3]);
    rep.slow.push_back(std::move(slow));
    if (rep.slow.size() >= kMaxSlowLogEntries) {
      break;
    }
  }
  return rep;
}

}  // namespace edk::netio
