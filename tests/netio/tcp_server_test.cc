// End-to-end tests of the TCP front-end (DESIGN.md §6j): the live-socket
// protocol must answer byte-identically to the simulated path on the same
// catalog, survive hostile bytes, and run its accept/worker threads clean
// under TSan.

#include "src/netio/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/netio/corpus.h"
#include "src/netio/tcp_client.h"

namespace edk::netio {
namespace {

SharedFileInfo TestFile(uint32_t id, const std::string& name,
                        uint64_t size = 1000) {
  return SimClient::MakeFileInfo(FileId(id), size, name);
}

void ExpectFilesEqual(const std::vector<SharedFileInfo>& tcp,
                      const std::vector<SharedFileInfo>& sim) {
  ASSERT_EQ(tcp.size(), sim.size());
  for (size_t i = 0; i < tcp.size(); ++i) {
    EXPECT_EQ(tcp[i].file.value, sim[i].file.value) << "index " << i;
    EXPECT_EQ(tcp[i].digest, sim[i].digest) << "index " << i;
    EXPECT_EQ(tcp[i].size_bytes, sim[i].size_bytes) << "index " << i;
    EXPECT_EQ(tcp[i].name, sim[i].name) << "index " << i;
  }
}

class TcpServerTest : public ::testing::Test {
 protected:
  TcpServer& StartServer(TcpServerConfig config = {}) {
    server_ = std::make_unique<TcpServer>(std::move(config));
    std::string error;
    EXPECT_TRUE(server_->Start(&error)) << error;
    return *server_;
  }

  std::unique_ptr<TcpServer> server_;
};

// The acceptance test of the transport seam: one catalog preloaded into a
// SimNetwork-attached server and a live TCP server, the same request
// sequence driven through both, every reply field-identical. The identical
// ServerCore plus identical operation order makes even the unordered-map
// iteration orders (and so reply orders) agree.
TEST_F(TcpServerTest, TcpRepliesEqualSimRepliesOnSameCatalog) {
  ServeCorpusConfig corpus_config;
  corpus_config.seed = 7;
  corpus_config.clients = 20;
  corpus_config.files = 120;
  corpus_config.keywords = 16;
  const ServeCorpus corpus = BuildServeCorpus(corpus_config);

  // Simulated path, driven through SimServer's SimNetwork-facing surface.
  Geography geo = Geography::PaperDistribution();
  SimNetwork network(&geo, SimNetConfig{.seed = 1});
  SimServer sim(&network, ServerConfig{});
  const NodeId next_id = PreloadServeCorpus(sim.core(), corpus, 1);

  // Live TCP path on the same catalog; logins continue at the same id.
  TcpServerConfig config;
  config.first_client_id = next_id;
  {
    TcpServer& tcp = StartServer(std::move(config));
    // Preload happened after Start here, so take the lock.
    std::lock_guard<std::mutex> lock(tcp.core_mutex());
    PreloadServeCorpus(tcp.core(), corpus, 1);
  }

  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.last_error();

  // login: same id assigned over TCP as the sim hands out.
  const auto login = client.Login("fresh-peer", false);
  ASSERT_TRUE(login.has_value()) << client.last_error();
  EXPECT_TRUE(login->accepted);
  EXPECT_EQ(login->client_id, next_id);
  ASSERT_TRUE(sim.HandleLogin(next_id, "fresh-peer", false));

  // publish: the new peer shares two files on both paths.
  const std::vector<SharedFileInfo> cache = {
      TestFile(100001, "kw000 fresh upload.avi", 42 << 20),
      TestFile(100002, "kw001 fresh tune.mp3", 5 << 20)};
  const auto publish = client.Publish(cache);
  ASSERT_TRUE(publish.has_value()) << client.last_error();
  sim.HandlePublish(next_id, cache);
  EXPECT_EQ(publish->indexed_files, sim.indexed_files());

  // search: single keyword and conjunctive, reply order and all.
  for (const std::vector<std::string>& query :
       {std::vector<std::string>{"kw000"},
        std::vector<std::string>{"kw000", "kw001"},
        std::vector<std::string>{"file7"},
        std::vector<std::string>{"no-such-keyword"}}) {
    const auto tcp_reply = client.Search(query);
    ASSERT_TRUE(tcp_reply.has_value()) << client.last_error();
    ExpectFilesEqual(tcp_reply->files, sim.HandleSearch(query));
  }

  // query-sources: a digest guaranteed published (first cache entry of the
  // first corpus client) and a digest nobody shares.
  ASSERT_FALSE(corpus.client_files[0].empty());
  const Md4Digest shared = corpus.files[corpus.client_files[0][0]].digest;
  for (const Md4Digest& digest :
       {shared, TestFile(999999, "unshared").digest}) {
    const auto tcp_reply = client.QuerySources(digest);
    ASSERT_TRUE(tcp_reply.has_value()) << client.last_error();
    const auto sim_reply = sim.HandleQuerySources(digest);
    ASSERT_EQ(tcp_reply->sources.size(), sim_reply.size());
    for (size_t i = 0; i < sim_reply.size(); ++i) {
      EXPECT_EQ(tcp_reply->sources[i].node, sim_reply[i].node);
      EXPECT_EQ(tcp_reply->sources[i].low_id, sim_reply[i].low_id);
    }
  }

  // query-users: prefix scan over the corpus nicknames.
  for (const std::string prefix : {"peer", "peer1", "fresh", "zzz"}) {
    const auto tcp_reply = client.QueryUsers(prefix);
    ASSERT_TRUE(tcp_reply.has_value()) << client.last_error();
    const auto sim_reply = sim.HandleQueryUsers(prefix);
    ASSERT_EQ(tcp_reply->users.size(), sim_reply.size()) << prefix;
    for (size_t i = 0; i < sim_reply.size(); ++i) {
      EXPECT_EQ(tcp_reply->users[i].nickname, sim_reply[i].nickname);
      EXPECT_EQ(tcp_reply->users[i].node, sim_reply[i].node);
      EXPECT_EQ(tcp_reply->users[i].low_id, sim_reply[i].low_id);
    }
  }

  // browse: a corpus client, the fresh peer itself, and a ghost.
  for (const NodeId target : {NodeId{1}, next_id, NodeId{999999}}) {
    const auto tcp_reply = client.Browse(target);
    ASSERT_TRUE(tcp_reply.has_value()) << client.last_error();
    const auto sim_reply = sim.core().HandleBrowse(target);
    EXPECT_EQ(tcp_reply->ok, sim_reply.has_value()) << target;
    if (sim_reply.has_value()) {
      ExpectFilesEqual(tcp_reply->files, *sim_reply);
    }
  }

  // logout: both indexes drop the peer and its files.
  EXPECT_TRUE(client.Logout());
  sim.HandleLogout(next_id);
  {
    std::lock_guard<std::mutex> lock(server_->core_mutex());
    EXPECT_EQ(server_->core().connected_users(), sim.connected_users());
    EXPECT_EQ(server_->core().indexed_files(), sim.indexed_files());
  }
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(TcpServerTest, DisconnectLogsTheSessionOut) {
  TcpServer& server = StartServer();
  {
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    const auto login = client.Login("ghost", false);
    ASSERT_TRUE(login.has_value());
    client.Publish({TestFile(1, "vanishing.mp3")});
  }  // Connection dropped without logout.
  // The worker observes EOF and logs the session out like a sim disconnect.
  for (int i = 0; i < 200; ++i) {
    {
      std::lock_guard<std::mutex> lock(server.core_mutex());
      if (server.core().connected_users() == 0) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::lock_guard<std::mutex> lock(server.core_mutex());
  EXPECT_EQ(server.core().connected_users(), 0u);
  EXPECT_EQ(server.core().indexed_files(), 0u);
}

TEST_F(TcpServerTest, ServerFullRejectsLogin) {
  TcpServerConfig config;
  config.index.max_users = 1;
  TcpServer& server = StartServer(std::move(config));
  TcpClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  const auto a = first.Login("a", false);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->accepted);
  TcpClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()));
  const auto b = second.Login("b", false);
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(b->accepted);
}

TEST_F(TcpServerTest, PublishWithoutLoginKeepsConnectionUsable) {
  TcpServer& server = StartServer();
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // Mirrors the simulator: a publish without a session is dropped, not a
  // framing offence.
  EXPECT_FALSE(client.Publish({TestFile(1, "early.mp3")}).has_value());
  EXPECT_TRUE(client.last_was_protocol_error());
  const auto login = client.Login("late", false);
  ASSERT_TRUE(login.has_value()) << client.last_error();
  EXPECT_TRUE(login->accepted);
  EXPECT_TRUE(client.Publish({TestFile(1, "early.mp3")}).has_value());
}

TEST_F(TcpServerTest, MalformedPayloadClosesConnection) {
  TcpServer& server = StartServer();
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // A login whose payload is not a LoginReq: protocol error, ErrorRep,
  // connection torn down.
  const auto reply = client.Call(MsgType::kLoginReq, "\xff\xff\xff");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  ErrorRep error;
  ASSERT_TRUE(DecodeErrorRep(reply->payload, &error));
  EXPECT_EQ(error.code, kErrBadPayload);
  // The stream is dead now.
  EXPECT_FALSE(client.Call(MsgType::kLoginReq,
                           EncodeLoginReq({"alice", false}))
                   .has_value());
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST_F(TcpServerTest, UnknownTagClosesConnection) {
  TcpServer& server = StartServer();
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  const auto reply = client.Call(static_cast<MsgType>(0x55), "");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  ErrorRep error;
  ASSERT_TRUE(DecodeErrorRep(reply->payload, &error));
  EXPECT_EQ(error.code, kErrUnknownType);
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST_F(TcpServerTest, GarbageBytesTearTheConnectionDown) {
  TcpServer& server = StartServer();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string garbage = "GET / HTTP/1.1\r\nHost: not-edonkey\r\n\r\n";
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  // The server replies with at most one ErrorRep frame and closes; the
  // read eventually reaches EOF instead of hanging.
  char buf[4096];
  ssize_t n;
  size_t total = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    total += static_cast<size_t>(n);
    ASSERT_LT(total, sizeof(buf));  // Bounded reply, no echo loop.
  }
  EXPECT_EQ(n, 0);  // EOF: connection closed by the server.
  ::close(fd);
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST_F(TcpServerTest, ConcurrentClientsOnMultipleWorkers) {
  // Drives the accept thread and two worker epoll loops from four client
  // threads at once — the schedule TSan checks for data races.
  TcpServerConfig config;
  config.worker_threads = 2;
  TcpServer& server = StartServer(std::move(config));

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TcpClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        failures.fetch_add(1);
        return;
      }
      const auto login =
          client.Login("worker" + std::to_string(t), (t % 2) == 1);
      if (!login.has_value() || !login->accepted) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        const auto file = TestFile(
            static_cast<uint32_t>(t * 1000 + i),
            "thread" + std::to_string(t) + " round" + std::to_string(i) +
                ".mp3");
        if (!client.Publish({file}).has_value() ||
            !client.Search({"thread" + std::to_string(t)}).has_value() ||
            !client.QuerySources(file.digest).has_value() ||
            !client.Browse(login->client_id).has_value()) {
          failures.fetch_add(1);
          return;
        }
      }
      client.Logout();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_GE(stats.requests, static_cast<uint64_t>(kThreads * kRounds * 4));
}

TEST_F(TcpServerTest, StopClosesLiveConnections) {
  TcpServer& server = StartServer();
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(),
                             /*recv_timeout_seconds=*/5.0));
  ASSERT_TRUE(client.Login("doomed", false).has_value());
  server.Stop();
  // The next call fails fast (EOF/reset), not by timeout.
  EXPECT_FALSE(client.Search({"anything"}).has_value());
  // Stop is idempotent.
  server.Stop();
}

TEST_F(TcpServerTest, StartOnBusyPortFails) {
  TcpServer& server = StartServer();
  TcpServerConfig config;
  config.port = server.port();
  TcpServer clash(std::move(config));
  std::string error;
  EXPECT_FALSE(clash.Start(&error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace edk::netio
