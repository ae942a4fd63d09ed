// Serving-layer tests: a real 3-node KvServer cluster on port-0 listeners,
// driven both through KvClient (leader tracking, retries) and through raw
// sockets speaking serve::kv_wire (redirects, session dedup).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/escape_policy.h"
#include "rpc/wire.h"
#include "serve/kv_client.h"
#include "serve/kv_server.h"

namespace escape::serve {
namespace {

using namespace std::chrono_literals;

net::PolicyFactory fast_escape() {
  core::EscapeOptions opts;
  opts.base_time = from_ms(300);
  opts.gap = from_ms(150);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<core::EscapePolicy>(id, n, opts);
  };
}

/// Three KvServers, every listener on a kernel-assigned port: raft listeners
/// are all bound before any server is constructed, so no port can be stolen
/// between discovery and use.
struct ServingCluster {
  std::vector<std::unique_ptr<KvServer>> servers;
  std::map<ServerId, std::uint16_t> client_ports;

  explicit ServingCluster(std::uint64_t seed = 42) {
    std::map<ServerId, std::uint16_t> endpoints;
    std::map<ServerId, int> raft_fds;
    for (ServerId id = 1; id <= 3; ++id) {
      const auto listener = net::bind_loopback_listener(0);
      endpoints[id] = listener.port;
      raft_fds[id] = listener.fd;
    }
    for (ServerId id = 1; id <= 3; ++id) {
      KvServer::Options options;
      options.node.node.heartbeat_interval = from_ms(60);
      options.node.listen_fd = raft_fds[id];
      options.node.seed = seed + id;
      servers.push_back(std::make_unique<KvServer>(id, endpoints, fast_escape(), options));
    }
    for (auto& server : servers) server->start();
    for (auto& server : servers) client_ports[server->id()] = server->client_port();
  }

  ~ServingCluster() {
    for (auto& server : servers) {
      if (server) server->stop();
    }
  }

  ServerId wait_for_leader(std::chrono::milliseconds timeout = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const auto& server : servers) {
        if (server && server->node().role() == Role::kLeader) return server->id();
      }
      std::this_thread::sleep_for(10ms);
    }
    return kNoServer;
  }

  ServerId kill_leader() {
    for (auto& server : servers) {
      if (server && server->node().role() == Role::kLeader) {
        const ServerId victim = server->id();
        server->stop();
        server.reset();
        return victim;
      }
    }
    return kNoServer;
  }
};

/// Synchronous submit through KvClient.
std::pair<Status, kv::CommandResult> sync_op(KvClient& client, kv::Command command,
                                             std::chrono::milliseconds timeout = 5000ms) {
  auto promise = std::make_shared<std::promise<std::pair<Status, kv::CommandResult>>>();
  auto future = promise->get_future();
  client.submit(std::move(command), [promise](Status s, const kv::CommandResult& r) {
    promise->set_value({s, r});
  });
  if (future.wait_for(timeout) != std::future_status::ready) {
    return {Status::kTimeout, {}};
  }
  return future.get();
}

kv::Command put(const std::string& key, const std::string& value) {
  kv::Command c;
  c.op = kv::Op::kPut;
  c.key = key;
  c.value = value;
  return c;
}

kv::Command get(const std::string& key) {
  kv::Command c;
  c.op = kv::Op::kGet;
  c.key = key;
  return c;
}

// --- raw-socket client (no KvClient retry machinery in the way) --------------

int connect_blocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

/// Reads whole frames off one raw connection; frames that arrive together
/// stay buffered for the next call.
struct FrameSource {
  int fd;
  rpc::FrameReader reader;

  /// Blocks for the next Response (nullopt on close or after `timeout`).
  std::optional<Response> next(std::chrono::seconds timeout = 10s) {
    timeval tv{static_cast<time_t>(timeout.count()), 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::vector<std::uint8_t> buf(16 * 1024);
    while (true) {
      if (auto payload = reader.next()) return decode_response(*payload);
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      reader.feed(buf.data(), static_cast<std::size_t>(n));
    }
  }
};

/// Sends one Request and blocks for its Response (10 s cap), skipping any
/// leadership notice (request_id 0) that arrives first.
std::optional<Response> roundtrip(FrameSource& source, const Request& request) {
  const auto frame = rpc::frame_payload(encode_request(request));
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(source.fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    off += static_cast<std::size_t>(n);
  }
  while (auto response = source.next()) {
    if (response->request_id != 0) return response;
  }
  return std::nullopt;
}

/// Threads of this process.
std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

// --- tests -------------------------------------------------------------------

TEST(KvServerTest, PutGetRoundtripThroughRealCluster) {
  ServingCluster cluster;
  ASSERT_NE(cluster.wait_for_leader(), kNoServer);

  KvClient client(cluster.client_ports, 10'000);
  client.start();

  auto [put_status, put_result] = sync_op(client, put("alpha", "1"));
  EXPECT_EQ(put_status, Status::kOk);

  auto [get_status, get_result] = sync_op(client, get("alpha"));
  EXPECT_EQ(get_status, Status::kOk);
  EXPECT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.value, "1");

  auto [miss_status, miss_result] = sync_op(client, get("absent"));
  EXPECT_EQ(miss_status, Status::kOk);
  EXPECT_FALSE(miss_result.ok);

  client.stop();
}

TEST(KvServerTest, FollowerAnswersNotLeaderWithHint) {
  ServingCluster cluster;
  const ServerId leader = cluster.wait_for_leader();
  ASSERT_NE(leader, kNoServer);

  ServerId follower = kNoServer;
  for (const auto& [id, port] : cluster.client_ports) {
    if (id != leader) {
      follower = id;
      break;
    }
  }
  ASSERT_NE(follower, kNoServer);

  Request request;
  request.request_id = 1;
  request.command = put("redirected", "x");
  request.command.client_id = 501;
  request.command.sequence = 1;

  // The hint converges once the follower has heard a heartbeat; retry briefly.
  const int fd = connect_blocking(cluster.client_ports[follower]);
  FrameSource source{fd, {}};
  Response last;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto response = roundtrip(source, request);
    ASSERT_TRUE(response.has_value()) << "follower closed the connection";
    last = *response;
    ASSERT_EQ(last.status, Status::kNotLeader);
    if (last.leader_hint == leader) break;
    std::this_thread::sleep_for(50ms);
    ++request.request_id;
  }
  EXPECT_EQ(last.status, Status::kNotLeader);
  EXPECT_EQ(last.leader_hint, leader);
  ::close(fd);
}

TEST(KvServerTest, SessionDedupMakesRetriesExactlyOnce) {
  ServingCluster cluster;
  const ServerId leader = cluster.wait_for_leader();
  ASSERT_NE(leader, kNoServer);

  const int fd = connect_blocking(cluster.client_ports[leader]);
  FrameSource source{fd, {}};

  Request first;
  first.request_id = 1;
  first.command = put("dedup", "original");
  first.command.client_id = 700;
  first.command.sequence = 5;
  const auto r1 = roundtrip(source, first);
  ASSERT_TRUE(r1.has_value());
  ASSERT_EQ(r1->status, Status::kOk);

  // The same (client_id, sequence) with a DIFFERENT value models a client
  // retry after a lost response: the command must not execute twice, so the
  // store keeps the original value and the cached result is replayed.
  Request retry = first;
  retry.request_id = 2;
  retry.command.value = "replayed-must-not-apply";
  const auto r2 = roundtrip(source, retry);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->status, Status::kOk);

  Request check;
  check.request_id = 3;
  check.command = get("dedup");
  const auto r3 = roundtrip(source, check);
  ASSERT_TRUE(r3.has_value());
  ASSERT_EQ(r3->status, Status::kOk);
  EXPECT_TRUE(r3->result.ok);
  EXPECT_EQ(r3->result.value, "original");
  ::close(fd);
}

TEST(KvServerTest, LeaderKillResolvesEveryPendingWrite) {
  ServingCluster cluster;
  ASSERT_NE(cluster.wait_for_leader(), kNoServer);

  KvClient::Options options;
  options.timeout = from_ms(4000);
  KvClient client(cluster.client_ports, 20'000, options);
  client.start();

  // A stream of writes with the leader dying mid-stream: every callback must
  // fire (no request may hang), and the stream must make progress again on
  // the new leader.
  constexpr int kWrites = 120;
  std::atomic<int> done{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < kWrites; ++i) {
    client.submit(put("k" + std::to_string(i % 10), std::to_string(i)),
                  [&](Status s, const kv::CommandResult&) {
                    if (s == Status::kOk) ok.fetch_add(1);
                    done.fetch_add(1);
                  });
    if (i == 30) cluster.kill_leader();
    std::this_thread::sleep_for(2ms);
  }

  const auto deadline = std::chrono::steady_clock::now() + 15s;
  while (done.load() < kWrites && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(done.load(), kWrites) << "some requests never completed";
  EXPECT_GT(ok.load(), 0);

  // The survivors re-elected; a fresh write must succeed.
  auto [status, result] = sync_op(client, put("after-failover", "yes"), 10000ms);
  EXPECT_EQ(status, Status::kOk);
  auto [get_status, get_result] = sync_op(client, get("after-failover"), 10000ms);
  EXPECT_EQ(get_status, Status::kOk);
  EXPECT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.value, "yes");

  client.stop();
}

TEST(KvServerTest, NewLeaderNotifiesEveryClientConnection) {
  ServingCluster cluster;
  const ServerId leader = cluster.wait_for_leader();
  ASSERT_NE(leader, kNoServer);

  // Two raw connections to every server; the election after the kill takes
  // hundreds of milliseconds, so each is accepted long before it ends.
  std::map<ServerId, std::vector<FrameSource>> sources;
  for (const auto& [id, port] : cluster.client_ports) {
    for (int i = 0; i < 2; ++i) sources[id].push_back(FrameSource{connect_blocking(port), {}});
  }
  ASSERT_EQ(cluster.kill_leader(), leader);
  const ServerId winner = cluster.wait_for_leader();
  ASSERT_NE(winner, kNoServer);
  ASSERT_NE(winner, leader);

  for (auto& source : sources[winner]) {
    const auto notice = source.next(5s);
    ASSERT_TRUE(notice.has_value()) << "no leadership notice from the winner";
    EXPECT_EQ(notice->request_id, 0u);
    EXPECT_EQ(notice->status, Status::kNotLeader);
    EXPECT_EQ(notice->leader_hint, winner);
  }
  for (auto& [id, list] : sources) {
    for (auto& source : list) ::close(source.fd);
  }
}

TEST(KvServerTest, ClientResumesOnTheNoticeNotTheBackoff) {
  ServingCluster cluster;
  ASSERT_NE(cluster.wait_for_leader(), kNoServer);

  KvClient::Options options;
  options.retry_backoff = from_ms(2000);
  options.timeout = from_ms(10'000);
  KvClient client(cluster.client_ports, 30'000, options);
  client.start();
  ASSERT_EQ(sync_op(client, put("before", "1")).first, Status::kOk);

  // A write submitted as the leader dies waits out the election; the
  // winner's notice, not the 2 s backoff, must send it on.
  cluster.kill_leader();
  using Outcome = std::pair<Status, std::chrono::steady_clock::time_point>;
  auto outcome = std::make_shared<std::promise<Outcome>>();
  auto future = outcome->get_future();
  client.submit(put("during", "2"), [outcome](Status s, const kv::CommandResult&) {
    outcome->set_value({s, std::chrono::steady_clock::now()});
  });
  ASSERT_NE(cluster.wait_for_leader(), kNoServer);
  const auto leader_seen = std::chrono::steady_clock::now();
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  const auto [status, done] = future.get();
  EXPECT_EQ(status, Status::kOk);
  EXPECT_LT(done - leader_seen, 1000ms) << "the write waited for the backoff";
  client.stop();
}

TEST(KvServerTest, HintToAConnectedServerIsFollowedAtOnce) {
  ServingCluster cluster;
  const ServerId leader = cluster.wait_for_leader();
  ASSERT_NE(leader, kNoServer);
  // KvClient targets the lowest id first, and ESCAPE's initial priorities
  // (priority = id) elect the highest, so the first write meets a follower.
  ASSERT_NE(leader, cluster.client_ports.begin()->first);

  KvClient::Options options;
  options.retry_backoff = from_ms(2000);
  KvClient client(cluster.client_ports, 40'000, options);
  client.start();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(sync_op(client, put("hinted", "1")).first, Status::kOk);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2000ms) << "the hint waited for the backoff";
  client.stop();
}

TEST(KvServerTest, DeadlineFiresOnTheClientLoopTimer) {
  ServingCluster cluster;
  ASSERT_NE(cluster.wait_for_leader(), kNoServer);
  // One server of three: no write can commit.
  cluster.servers[0]->stop();
  cluster.servers[1]->stop();

  KvClient::Options options;
  options.timeout = from_ms(300);
  KvClient client(cluster.client_ports, 50'000, options);
  const std::size_t threads = thread_count();
  client.start();
  EXPECT_EQ(thread_count(), threads + 1) << "KvClient runs one thread: its loop";

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(sync_op(client, put("orphan", "x")).first, Status::kTimeout);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 300ms);
  EXPECT_LT(elapsed, 400ms);
  client.stop();
}

}  // namespace
}  // namespace escape::serve
