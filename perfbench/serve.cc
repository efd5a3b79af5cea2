// serve_mixed and serve_search: the TCP index daemon under load.
//
// One process holds an in-process TcpServer (kIoThreads io threads) and the
// load generator (kConnections connections, one thread each). Three phases:
// an open loop at a fixed low rate, one at a fixed high rate, and
// saturation passes that offer a fixed batch far above capacity, so the
// generator runs as a closed loop of kConnections connections. work_s is the
// median time to serve one saturation batch, and work_cpu_s the median CPU
// time the process (server and generator) spends on one. The batches are
// short and many, so a stall of the host that slows a few of them leaves
// the medians where they were.
//
// Before any load, a fixed sample of requests is sent over TCP and the
// replies are compared byte for byte (the codecs are canonical, so bytes
// equal means every field equal) with the same requests replayed into an
// in-process ServerCore preloaded from the same corpus. serve_search's mix
// is read-only, so it repeats the comparison after the load as well.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/netio/corpus.h"
#include "src/netio/frame.h"
#include "src/netio/loadgen.h"
#include "src/netio/tcp_client.h"
#include "src/netio/tcp_server.h"
#include "src/workload/config.h"

namespace perfbench {
namespace {

using edk::NodeId;
using edk::ServerCore;
using namespace edk::netio;

constexpr size_t kConnections = 4;  // Load-generator connections (= nproc).
constexpr size_t kIoThreads = 1;
constexpr size_t kSetupRepeats = 31;
// Each open-loop phase lasts this share of --seconds; the saturation
// passes, one per kSaturationPassSeconds of kSaturationShare of --seconds
// (nominal, so the count is fixed by --seconds), take about the rest.
constexpr double kOpenLoopShare = 0.2;
constexpr double kSaturationShare = 0.5;
constexpr double kSaturationPassSeconds = 0.2;
constexpr size_t kMinSaturationPasses = 15;
constexpr size_t kSampleRequests = 400;
constexpr size_t kPublishFiles = 20;  // LoadGenConfig default.
// Saturation offers its batch at this rate: far above any capacity, so
// every arrival is late and the connections never idle.
constexpr double kSaturationRps = 1e7;
// An open-loop phase fell behind its schedule when many sends were late or
// one was very late. It is generator-bound when, at the same time, its
// connections were mostly idle: the generator, not the server, was behind.
constexpr double kBehindOverrunShare = 0.25;
constexpr double kBehindSendLagSeconds = 0.010;
constexpr double kIdleOccupancy = 0.50;
// The traced server logs every dispatch in its slow-request ring; the ring
// keeps the newest kSlowLogCapacity dispatches of a phase.
constexpr size_t kSlowLogCapacity = 32768;

// Request kinds in RunLoadGen's order (its schedule draws them by index).
constexpr int kKinds = 5;
constexpr const char* kKindNames[kKinds] = {"publish", "search",
                                            "query_sources", "query_users",
                                            "browse"};
constexpr MsgType kKindTypes[kKinds] = {
    MsgType::kPublishReq, MsgType::kSearchReq, MsgType::kQuerySourcesReq,
    MsgType::kQueryUsersReq, MsgType::kBrowseReq};

struct Shape {
  ServeCorpusConfig corpus;
  RequestMix mix;
  double lo_rps = 0;
  double hi_rps = 0;
  double saturation_batch = 0;  // Requests per saturation pass.
};

// The fixed rates are far below the measured peak (about 33k req/s for
// serve_mixed and 14k req/s for serve_search on 4 cores), and never derived
// from a run's own peak: a faster server must face the same offered load.
//
// The corpus keeps ServeCorpusConfig's own fixed seed: it is the indexed
// content both workloads are defined on. The run's seed drives the request
// streams: the reply sample and every load phase's schedule.
Shape MakeShape(bool read_only) {
  Shape shape;
  shape.mix = DeriveRequestMix(edk::WorkloadConfig{});
  if (read_only) {
    shape.corpus.clients = 2000;
    shape.corpus.files = 20000;
    shape.mix.publish = 0;
    shape.mix.query_users = 0;
    shape.lo_rps = 1000;
    shape.hi_rps = 5000;
    shape.saturation_batch = 1600;
  } else {
    shape.lo_rps = 2000;
    shape.hi_rps = 16000;
    shape.saturation_batch = 8000;
  }
  return shape;
}

struct Request {
  int kind = 0;
  PublishReq publish;
  SearchReq search;
  QuerySourcesReq sources;
  QueryUsersReq users;
  BrowseReq browse;
};

// Parameter draws of RunLoadGen, so the replayed stream is the one the
// generator sent.
class RequestMaker {
 public:
  explicit RequestMaker(const ServeCorpus& corpus)
      : corpus_(corpus),
        file_zipf_(corpus.files.size(), 0.9),
        keyword_zipf_(corpus.keyword_pool.size(), corpus.config.keyword_zipf) {}

  Request Build(int kind, uint64_t param_seed) const {
    edk::Rng rng(param_seed);
    Request req;
    req.kind = kind;
    switch (kind) {
      case 0: {
        const size_t n = 1 + rng.NextBelow(kPublishFiles);
        for (size_t f = 0; f < n; ++f) {
          req.publish.files.push_back(
              corpus_.files[file_zipf_.Sample(rng) - 1]);
        }
        break;
      }
      case 1:
        req.search.keywords.push_back(
            corpus_.keyword_pool[keyword_zipf_.Sample(rng) - 1]);
        if (rng.NextBool(0.5)) {
          req.search.keywords.push_back(
              corpus_.keyword_pool[keyword_zipf_.Sample(rng) - 1]);
        }
        break;
      case 2:
        req.sources.digest = corpus_.files[file_zipf_.Sample(rng) - 1].digest;
        break;
      case 3:
        req.users.prefix = "peer";
        if (rng.NextBool(0.7)) {
          req.users.prefix += std::to_string(rng.NextBelow(10));
        }
        break;
      default:
        req.browse.target = static_cast<NodeId>(
            1 + rng.NextBelow(corpus_.client_files.size()));
        break;
    }
    return req;
  }

 private:
  const ServeCorpus& corpus_;
  edk::ZipfSampler file_zipf_;
  edk::ZipfSampler keyword_zipf_;
};

std::string EncodeRequest(const Request& req) {
  switch (req.kind) {
    case 0: return EncodePublishReq(req.publish);
    case 1: return EncodeSearchReq(req.search);
    case 2: return EncodeQuerySourcesReq(req.sources);
    case 3: return EncodeQueryUsersReq(req.users);
    default: return EncodeBrowseReq(req.browse);
  }
}

// The kinds and parameter seeds of RunLoadGen's schedule for `config`.
std::vector<std::pair<int, uint64_t>> Schedule(const LoadGenConfig& config) {
  const double rate = std::max(config.target_rps, 1.0);
  const uint64_t total = static_cast<uint64_t>(
      std::llround(rate * std::max(config.duration_seconds, 0.0)));
  const double weights[kKinds] = {config.mix.publish, config.mix.search,
                                  config.mix.query_sources,
                                  config.mix.query_users, config.mix.browse};
  double weight_sum = 0;
  for (const double w : weights) weight_sum += std::max(w, 0.0);
  std::vector<std::pair<int, uint64_t>> out;
  edk::Rng rng(config.seed);
  for (uint64_t i = 0; i < total; ++i) {
    rng.NextExponential(rate);
    double pick = rng.NextDouble() * weight_sum;
    int kind = 0;
    for (; kind < kKinds - 1; ++kind) {
      const double w = std::max(weights[kind], 0.0);
      if (pick < w) break;
      pick -= w;
    }
    out.emplace_back(kind, rng());
  }
  return out;
}

// One request served by a ServerCore the way TcpServer dispatches it:
// decode, handler, encode. Only the handler call is timed.
struct Served {
  std::string reply;  // Encoded reply payload.
  MsgType reply_type = MsgType::kError;
  double handler_ns = 0;
  size_t results = 0;
  bool ok = false;
};

Served ServeInCore(ServerCore& core, NodeId client, int kind,
                   const std::string& payload) {
  Served out;
  auto timed = [&](auto&& handler) {
    const auto start = Clock::now();
    auto value = handler();
    out.handler_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    return value;
  };
  switch (kind) {
    case 0: {
      PublishReq req;
      if (!DecodePublishReq(payload, &req)) return out;
      timed([&] {
        core.HandlePublish(client, req.files);
        return 0;
      });
      out.reply = EncodePublishRep(PublishRep{core.indexed_files()});
      out.reply_type = MsgType::kPublishRep;
      break;
    }
    case 1: {
      SearchReq req;
      if (!DecodeSearchReq(payload, &req)) return out;
      const SearchRep rep{timed([&] { return core.HandleSearch(req.keywords); })};
      out.results = rep.files.size();
      out.reply = EncodeSearchRep(rep);
      out.reply_type = MsgType::kSearchRep;
      break;
    }
    case 2: {
      QuerySourcesReq req;
      if (!DecodeQuerySourcesReq(payload, &req)) return out;
      const SourcesRep rep{
          timed([&] { return core.HandleQuerySources(req.digest); })};
      out.results = rep.sources.size();
      out.reply = EncodeSourcesRep(rep);
      out.reply_type = MsgType::kSourcesRep;
      break;
    }
    case 3: {
      QueryUsersReq req;
      if (!DecodeQueryUsersReq(payload, &req)) return out;
      const UsersRep rep{timed([&] { return core.HandleQueryUsers(req.prefix); })};
      out.results = rep.users.size();
      out.reply = EncodeUsersRep(rep);
      out.reply_type = MsgType::kUsersRep;
      break;
    }
    default: {
      BrowseReq req;
      if (!DecodeBrowseReq(payload, &req)) return out;
      auto files = timed([&] { return core.HandleBrowse(req.target); });
      BrowseRep rep;
      rep.ok = files.has_value();
      if (files.has_value()) rep.files = std::move(*files);
      out.results = rep.files.size();
      out.reply = EncodeBrowseRep(rep);
      out.reply_type = MsgType::kBrowseRep;
      break;
    }
  }
  out.ok = true;
  return out;
}

// A reply in typed form, by request kind.
struct Reply {
  PublishRep publish;
  SearchRep search;
  SourcesRep sources;
  UsersRep users;
  BrowseRep browse;
};

bool DecodeReply(int kind, const std::string& payload, Reply* out) {
  switch (kind) {
    case 0: return DecodePublishRep(payload, &out->publish);
    case 1: return DecodeSearchRep(payload, &out->search);
    case 2: return DecodeSourcesRep(payload, &out->sources);
    case 3: return DecodeUsersRep(payload, &out->users);
    default: return DecodeBrowseRep(payload, &out->browse);
  }
}

std::string EncodeReply(int kind, const Reply& reply) {
  switch (kind) {
    case 0: return EncodePublishRep(reply.publish);
    case 1: return EncodeSearchRep(reply.search);
    case 2: return EncodeSourcesRep(reply.sources);
    case 3: return EncodeUsersRep(reply.users);
    default: return EncodeBrowseRep(reply.browse);
  }
}

bool DecodeRequest(int kind, const std::string& payload) {
  switch (kind) {
    case 0: { PublishReq r; return DecodePublishReq(payload, &r); }
    case 1: { SearchReq r; return DecodeSearchReq(payload, &r); }
    case 2: { QuerySourcesReq r; return DecodeQuerySourcesReq(payload, &r); }
    case 3: { QueryUsersReq r; return DecodeQueryUsersReq(payload, &r); }
    default: { BrowseReq r; return DecodeBrowseReq(payload, &r); }
  }
}

// Reassembles one frame from its wire bytes; false on failure.
bool Reassemble(const std::string& wire, Frame* out) {
  FrameAssembler assembler;
  assembler.Feed(wire);
  auto frame = assembler.Next();
  if (!frame.has_value()) return false;
  *out = std::move(*frame);
  return true;
}

// Per-request codec cost of one kind, split by side. The client encodes
// and frames the request, then reassembles and decodes the reply; the
// server reassembles and decodes the request, then encodes and frames the
// reply. Each side starts from the other side's wire bytes.
struct CodecCost {
  double client_ns = 0;
  double server_ns = 0;
};

CodecCost TimeCodec(int kind, const std::vector<Request>& requests,
                    const std::vector<Served>& replies) {
  CodecCost cost;
  if (requests.empty()) return cost;
  const size_t n = requests.size();
  std::vector<std::string> request_wire(n), reply_wire(n);
  std::vector<Reply> typed(n);
  for (size_t i = 0; i < n; ++i) {
    request_wire[i] = EncodeFrame(kKindTypes[kind], EncodeRequest(requests[i]));
    reply_wire[i] = EncodeFrame(replies[i].reply_type, replies[i].reply);
    if (!DecodeReply(kind, replies[i].reply, &typed[i])) return cost;
  }
  size_t sink = 0;
  constexpr int kRepeats = 3;
  std::vector<double> client(kRepeats), server(kRepeats);
  Frame frame;
  Reply scratch;
  for (int r = 0; r < kRepeats; ++r) {
    auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      sink += EncodeFrame(kKindTypes[kind], EncodeRequest(requests[i])).size();
      sink += Reassemble(reply_wire[i], &frame) &&
              DecodeReply(kind, frame.payload, &scratch);
    }
    client[r] = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
    t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      sink += Reassemble(request_wire[i], &frame) &&
              DecodeRequest(kind, frame.payload);
      sink += EncodeFrame(replies[i].reply_type, EncodeReply(kind, typed[i]))
                  .size();
    }
    server[r] = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
  }
  if (sink == 0) return cost;  // Keeps the loops observable.
  cost.client_ns = Median(client) / static_cast<double>(n);
  cost.server_ns = Median(server) / static_cast<double>(n);
  return cost;
}

struct PhaseStats {
  std::map<std::string, uint64_t> counters;  // StatsRep counters.
  int64_t rss_bytes = 0;
};

PhaseStats Scrape(TcpClient& admin, Tracer& tracer) {
  auto span = tracer.Trace("netio", "TcpClient::Stats");
  PhaseStats out;
  const auto rep = admin.Stats(~uint64_t{0});
  if (!rep.has_value()) return out;
  for (const auto& c : rep->counters) out.counters[c.name] = c.value;
  for (const auto& g : rep->gauges) {
    if (g.name == "process.rss_bytes") out.rss_bytes = g.value;
  }
  return out;
}

// Drains the traced server's slow-request ring: every dispatch logged after
// `*cursor`, as (kind index, latency us). Stats dispatches are skipped.
// Advancing the cursor to the largest seq seen is exact with one io thread
// only: TcpServer allocates a seq before appending to the ring, so two
// workers can append out of seq order.
std::vector<std::pair<int, double>> DrainDispatches(TcpClient& admin,
                                                    uint64_t* cursor,
                                                    Tracer& tracer) {
  auto span = tracer.Trace("netio", "TcpClient::Stats(slow log)");
  std::vector<std::pair<int, double>> out;
  for (;;) {
    const auto rep = admin.Stats(*cursor);
    if (!rep.has_value()) break;
    for (const SlowRequest& slow : rep->slow) {
      *cursor = std::max(*cursor, slow.seq);
      for (int k = 0; k < kKinds; ++k) {
        if (slow.type == static_cast<uint8_t>(kKindTypes[k])) {
          // Entries carry whole microseconds, truncated; +0.5 re-centres
          // them on the true value.
          out.emplace_back(k, static_cast<double>(slow.latency_us) + 0.5);
        }
      }
    }
    if (rep->slow.size() < kMaxSlowLogEntries) break;
  }
  return out;
}

LoadGenConfig PhaseConfig(const Shape& shape, uint16_t port, uint64_t seed,
                          double rps, double seconds) {
  LoadGenConfig config;
  config.port = port;
  config.connections = kConnections;
  config.target_rps = rps;
  config.duration_seconds = seconds;
  config.seed = seed;
  config.mix = shape.mix;
  config.publish_files_per_request = kPublishFiles;
  return config;
}

void Account(Result& result, const char* phase, const LoadGenReport& report) {
  const uint64_t errors =
      report.protocol_errors + report.transport_errors + report.dropped;
  result.attempted += report.scheduled;
  result.failed += errors;
  if (errors > 0 || report.completed != report.scheduled) {
    result.failures.push_back(
        std::string(phase) + ": " + std::to_string(report.completed) + "/" +
        std::to_string(report.scheduled) + " completed, " +
        std::to_string(report.protocol_errors) + " protocol, " +
        std::to_string(report.transport_errors) + " transport, " +
        std::to_string(report.dropped) + " dropped");
  }
}

std::unique_ptr<TcpServer> MakeServer(const ServeCorpus& corpus,
                                      bool slow_log_all) {
  TcpServerConfig config;
  config.worker_threads = kIoThreads;
  config.first_client_id = corpus.config.clients + 1;
  if (slow_log_all) {
    config.slow_request_threshold_us = 0;
    config.slow_log_capacity = kSlowLogCapacity;
  }
  return std::make_unique<TcpServer>(config);
}

// Sends the sample over TCP and compares every reply with the reference
// core's. Returns the digest of the replies.
uint64_t CheckSample(TcpClient& client, NodeId client_id, ServerCore& ref,
                     const std::vector<Request>& sample, const char* when,
                     Result& result, Tracer& tracer) {
  uint64_t digest = kHashSeed;
  size_t mismatches = 0;
  for (const Request& req : sample) {
    const std::string payload = EncodeRequest(req);
    std::optional<Frame> tcp;
    {
      auto span = tracer.Trace("netio", "TcpClient::Call");
      tcp = client.Call(kKindTypes[req.kind], payload);
    }
    Served want;
    {
      auto span = tracer.Trace("net", "ServerCore::Handle*");
      want = ServeInCore(ref, client_id, req.kind, payload);
    }
    ++result.attempted;
    if (!tcp.has_value() || !want.ok || tcp->type != want.reply_type ||
        tcp->payload != want.reply) {
      ++result.failed;
      ++mismatches;
      continue;
    }
    digest = HashValue(digest, static_cast<uint64_t>(tcp->type));
    digest = HashBytes(digest, tcp->payload);
  }
  if (mismatches > 0) {
    result.failures.push_back(std::string("reply sample ") + when + ": " +
                              std::to_string(mismatches) + " of " +
                              std::to_string(sample.size()) +
                              " TCP replies differ from the in-process core");
  }
  return digest;
}

}  // namespace

Result RunServe(const Options& options, bool read_only, Tracer& tracer) {
  Result result;
  const Shape shape = MakeShape(read_only);
  const bool traced = options.trace;

  // Set-up: build the corpus and preload it into a fresh server, several
  // times; setup_s is the median.
  ServeCorpus corpus;
  std::unique_ptr<TcpServer> server;
  std::vector<double> setup_times;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    {
      auto span = tracer.Trace("netio", "~TcpServer");
      server.reset();
    }
    const auto t0 = Clock::now();
    {
      auto span = tracer.Trace("netio", "BuildServeCorpus");
      corpus = BuildServeCorpus(shape.corpus);
    }
    {
      auto span = tracer.Trace("netio", "TcpServer()");
      server = MakeServer(corpus, /*slow_log_all=*/false);
    }
    {
      auto span = tracer.Trace("netio", "PreloadServeCorpus");
      PreloadServeCorpus(server->core(), corpus, 1);
    }
    setup_times.push_back(SecondsSince(t0));
  }
  result.metrics["setup_s"] = Median(setup_times);

  ServerCore ref{edk::ServerConfig{}};
  {
    auto span = tracer.Trace("net", "PreloadServeCorpus(reference)");
    PreloadServeCorpus(ref, corpus, 1);
  }
  const RequestMaker maker(corpus);
  std::vector<Request> sample;
  {
    // The sample follows the workload's mix, from its own seed.
    LoadGenConfig config = PhaseConfig(shape, 0, options.seed * 16 + 15,
                                       kSampleRequests, 1.0);
    for (const auto& [kind, param] : Schedule(config)) {
      sample.push_back(maker.Build(kind, param));
    }
  }

  auto start_server = [&](TcpServer& srv) {
    auto span = tracer.Trace("netio", "TcpServer::Start");
    std::string error;
    if (!srv.Start(&error)) {
      result.Fail("server start failed: " + error);
      return false;
    }
    return true;
  };
  auto connect = [&](TcpClient& client, uint16_t port, NodeId* id) {
    auto span = tracer.Trace("netio", "TcpClient::Connect+Login");
    if (!client.Connect("127.0.0.1", port)) return false;
    const auto login = client.Login("verify", false);
    if (!login.has_value() || !login->accepted) return false;
    *id = login->client_id;
    return true;
  };
  auto run_phase = [&](const LoadGenConfig& config, const char* name) {
    LoadGenReport report;
    {
      auto span = tracer.Trace("netio", std::string("RunLoadGen:") + name);
      report = RunLoadGen(config, corpus);
    }
    Account(result, name, report);
    return report;
  };
  const size_t saturation_passes = std::max<size_t>(
      kMinSaturationPasses,
      static_cast<size_t>(std::lround(kSaturationShare * options.seconds /
                                      kSaturationPassSeconds)));
  auto saturation = [&](uint16_t port, std::vector<LoadGenReport>* out,
                        std::vector<double>* cpu_seconds) {
    for (size_t p = 0; p < saturation_passes; ++p) {
      const double cpu0 = ProcessCpuSeconds();
      // Schedule seeds apart from the open-loop phases' and the sample's.
      out->push_back(run_phase(
          PhaseConfig(shape, port, options.seed * 4096 + 256 + p,
                      kSaturationRps, shape.saturation_batch / kSaturationRps),
          "saturation"));
      cpu_seconds->push_back(ProcessCpuSeconds() - cpu0);
    }
  };

  // The traced run first measures saturation on an untraced server and
  // tracer, then repeats everything traced: the difference is the tracing
  // overhead (spans plus the server's log-every-dispatch ring).
  double untraced_work_s = 0;
  if (traced) {
    {
      // One span, with the tracer off inside it, so the untraced passes
      // still count as netio time in the layer totals.
      auto baseline = tracer.Trace("netio", "RunLoadGen:saturation(untraced)");
      tracer.set_enabled(false);
      if (!start_server(*server)) return result;
      std::vector<LoadGenReport> passes;
      std::vector<double> cpu;
      saturation(server->port(), &passes, &cpu);
      std::vector<double> walls;
      for (const auto& r : passes) walls.push_back(r.wall_seconds);
      untraced_work_s = Median(walls);
      server->Stop();
      tracer.set_enabled(true);
    }
    // A fresh index for the traced phases, logging every dispatch.
    {
      auto span = tracer.Trace("netio", "TcpServer()");
      server = MakeServer(corpus, /*slow_log_all=*/true);
    }
    auto span = tracer.Trace("netio", "PreloadServeCorpus");
    PreloadServeCorpus(server->core(), corpus, 1);
  }

  if (!start_server(*server)) return result;
  const uint16_t port = server->port();
  TcpClient admin;
  NodeId admin_id = edk::kInvalidNode;
  if (!connect(admin, port, &admin_id)) {
    result.Fail("verify client cannot connect/login: " + admin.last_error());
    return result;
  }
  {
    auto span = tracer.Trace("net", "ServerCore::HandleLogin(reference)");
    ref.HandleLogin(admin_id, "verify", false);
  }
  result.digest = CheckSample(admin, admin_id, ref, sample, "before load",
                              result, tracer);

  uint64_t slow_cursor = 0;
  if (traced) DrainDispatches(admin, &slow_cursor, tracer);
  const PhaseStats before_lo = Scrape(admin, tracer);
  const LoadGenReport lo = run_phase(
      PhaseConfig(shape, port, options.seed * 16 + 1, shape.lo_rps,
                  kOpenLoopShare * options.seconds),
      "low-rate");
  std::vector<std::pair<int, double>> lo_dispatch;
  if (traced) lo_dispatch = DrainDispatches(admin, &slow_cursor, tracer);
  const PhaseStats before_hi = Scrape(admin, tracer);
  const LoadGenConfig hi_config = PhaseConfig(
      shape, port, options.seed * 16 + 2, shape.hi_rps,
      kOpenLoopShare * options.seconds);
  const LoadGenReport hi = run_phase(hi_config, "high-rate");
  std::vector<std::pair<int, double>> hi_dispatch;
  if (traced) hi_dispatch = DrainDispatches(admin, &slow_cursor, tracer);
  const PhaseStats after_hi = Scrape(admin, tracer);
  std::vector<LoadGenReport> passes;
  std::vector<double> pass_cpu_s;
  saturation(port, &passes, &pass_cpu_s);
  const PhaseStats after_sat = Scrape(admin, tracer);

  if (read_only) {
    const uint64_t after = CheckSample(admin, admin_id, ref, sample,
                                       "after load", result, tracer);
    result.Check(after == result.digest,
                 "reply sample digest changed across the read-only load");
  }
  admin.Close();
  {
    auto span = tracer.Trace("netio", "TcpServer::Stop");
    server->Stop();
  }

  std::vector<double> walls, rates;
  for (const auto& r : passes) {
    walls.push_back(r.wall_seconds);
    rates.push_back(r.achieved_rps);
  }
  const double work_s = Median(walls);
  auto& m = result.metrics;
  m["work_s"] = work_s;
  m["work_cpu_s"] = Median(pass_cpu_s);
  m["qps_peak"] = Median(rates);
  m["p50_us_at_lo"] = lo.open_loop.p50_us;
  m["p90_us_at_lo"] = lo.open_loop.p90_us;
  m["p99_us_at_lo"] = lo.open_loop.p99_us;
  m["p50_us_at_hi"] = hi.open_loop.p50_us;
  m["p90_us_at_hi"] = hi.open_loop.p90_us;
  m["p99_us_at_hi"] = hi.open_loop.p99_us;
  m["process.rss_mb"] =
      static_cast<double>(std::max({before_lo.rss_bytes, before_hi.rss_bytes,
                                    after_hi.rss_bytes, after_sat.rss_bytes})) /
      (1024.0 * 1024.0);

  // Open-loop honesty: per phase, how many sends were late, how late the
  // worst was, and whether the generator rather than the server was behind.
  auto honesty = [&](const char* tag, const LoadGenReport& r, bool open_loop) {
    const double overrun =
        r.scheduled ? static_cast<double>(r.schedule_overruns) /
                          static_cast<double>(r.scheduled)
                    : 0.0;
    m[std::string("netio.loadgen.overrun_ratio.") + tag] = overrun;
    m[std::string("netio.loadgen.send_lag_max_ms.") + tag] =
        1000 * r.max_send_lag_seconds;
    const double occupancy =
        r.wall_seconds > 0
            ? static_cast<double>(r.completed) * r.service.mean_us * 1e-6 /
                  (r.wall_seconds * kConnections)
            : 0.0;
    char line[200];
    if (open_loop) {
      const bool behind = overrun > kBehindOverrunShare ||
                          r.max_send_lag_seconds > kBehindSendLagSeconds;
      const bool generator_bound = behind && occupancy < kIdleOccupancy;
      m[std::string("netio.loadgen.generator_bound.") + tag] =
          generator_bound ? 1 : 0;
      std::snprintf(line, sizeof(line),
                    "%s phase: %.0f req/s offered, %.0f achieved, overruns "
                    "%.1f%%, max send lag %.2f ms, connection occupancy "
                    "%.2f -> %s",
                    tag, r.scheduled / std::max(r.wall_seconds, 1e-9),
                    r.achieved_rps, 100 * overrun,
                    1000 * r.max_send_lag_seconds, occupancy,
                    !behind           ? "on schedule"
                    : generator_bound ? "GENERATOR-bound"
                                      : "server-bound");
    } else {
      std::snprintf(line, sizeof(line),
                    "%s phase: closed loop of %zu connections, %.0f req/s "
                    "(offered far above capacity by design)",
                    tag, kConnections, r.achieved_rps);
    }
    result.notes.push_back(line);
  };
  honesty("lo", lo, true);
  honesty("hi", hi, true);
  honesty("sat", passes[passes.size() / 2], false);

  // Bytes per request of each kind over the high-rate phase, from the
  // StatsRep counter deltas.
  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = kKindNames[k];
    auto delta = [&](const std::string& name) {
      const auto a = after_hi.counters.find(name);
      const auto b = before_hi.counters.find(name);
      const uint64_t va = a == after_hi.counters.end() ? 0 : a->second;
      const uint64_t vb = b == before_hi.counters.end() ? 0 : b->second;
      return static_cast<double>(va - vb);
    };
    const double reqs = delta("netio.server.req." + kind);
    m["netio.server.bytes_per_req." + kind] =
        reqs > 0 ? (delta("netio.server.bytes_in." + kind) +
                    delta("netio.server.bytes_out." + kind)) /
                       reqs
                 : 0.0;
  }
  m["bench.trace_overhead_ratio"] =
      traced && untraced_work_s > 0 ? work_s / untraced_work_s - 1 : 0.0;

  if (traced) {
    // Replay the high-rate stream on one thread into a preloaded core, and
    // time the codecs on the same requests and replies.
    ServerCore core{edk::ServerConfig{}};
    {
      auto span = tracer.Trace("net", "PreloadServeCorpus(replay)");
      PreloadServeCorpus(core, corpus, 1);
    }
    std::vector<std::vector<Request>> requests(kKinds);
    std::vector<std::vector<Served>> replies(kKinds);
    double search_results = 0;
    {
      auto span = tracer.Trace("net", "ServerCore::Handle*(replay)");
      const NodeId first = admin_id + 1;
      for (NodeId c = 0; c < kConnections; ++c) {
        core.HandleLogin(first + c, "loadgen" + std::to_string(c), false);
      }
      const auto schedule = Schedule(hi_config);
      for (size_t i = 0; i < schedule.size(); ++i) {
        const auto [kind, param] = schedule[i];
        Request req = maker.Build(kind, param);
        Served served =
            ServeInCore(core, first + static_cast<NodeId>(i % kConnections),
                        kind, EncodeRequest(req));
        if (!served.ok) {
          result.Fail("replay: request could not be decoded");
          continue;
        }
        if (kind == 1) search_results += static_cast<double>(served.results);
        requests[kind].push_back(std::move(req));
        replies[kind].push_back(std::move(served));
      }
    }
    std::vector<double> handle_us(kKinds, 0), dispatch_us(kKinds, 0);
    std::vector<CodecCost> codec(kKinds);
    {
      auto span = tracer.Trace("netio", "frame codecs");
      for (int k = 0; k < kKinds; ++k) {
        codec[k] = TimeCodec(k, requests[k], replies[k]);
      }
    }
    for (int k = 0; k < kKinds; ++k) {
      const std::string kind = kKindNames[k];
      double sum = 0;
      for (const Served& s : replies[k]) sum += s.handler_ns;
      handle_us[k] = replies[k].empty() ? 0 : sum / 1000 / replies[k].size();
      m["net.core.handle_us." + kind] = handle_us[k];
      m["netio.frame.codec_ns." + kind] =
          codec[k].client_ns + codec[k].server_ns;
      double dsum = 0;
      size_t dn = 0;
      for (const auto& [dk, us] : hi_dispatch) {
        if (dk == k) {
          dsum += us;
          ++dn;
        }
      }
      dispatch_us[k] = dn ? dsum / dn : 0;
      m["netio.server.dispatch_us." + kind] = dispatch_us[k];
    }
    m["net.core.search_results_mean"] =
        requests[1].empty() ? 0 : search_results / requests[1].size();
    // Core-mutex wait: what the dispatch spends beyond the handler and the
    // server-side codec, averaged over the high-rate phase's requests.
    double wait_sum = 0;
    for (const auto& [k, us] : hi_dispatch) {
      wait_sum += us - handle_us[k] - codec[k].server_ns / 1000;
    }
    m["net.core.wait_us"] = hi_dispatch.empty() ? 0 : wait_sum / hi_dispatch.size();
    // Socket residual at the low rate: the client's mean service time minus
    // the mean dispatch and the mean client-side codec of the phase's
    // requests. Means throughout: search's long tail makes a median of one
    // minus a mean of the other meaningless.
    double lo_dispatch_sum = 0, lo_codec_sum = 0;
    for (const auto& [k, us] : lo_dispatch) {
      lo_dispatch_sum += us;
      lo_codec_sum += codec[k].client_ns / 1000;
    }
    m["netio.socket_residual_us"] =
        lo_dispatch.empty()
            ? 0
            : lo.service.mean_us - (lo_dispatch_sum + lo_codec_sum) /
                                       lo_dispatch.size();
  }

  char line[240];
  std::snprintf(line, sizeof(line),
                "setup %.4f s; %zu saturation batches of %.0f requests, "
                "median %.4f s (%.0f req/s), %.4f CPU s; p50/p99 open-loop "
                "%.0f/%.0f us at %.0f req/s, %.0f/%.0f us at %.0f req/s",
                m["setup_s"], passes.size(), shape.saturation_batch, work_s,
                m["qps_peak"], m["work_cpu_s"],
                lo.open_loop.p50_us, lo.open_loop.p99_us, shape.lo_rps,
                hi.open_loop.p50_us, hi.open_loop.p99_us, shape.hi_rps);
  result.notes.push_back(line);
  return result;
}

}  // namespace perfbench
