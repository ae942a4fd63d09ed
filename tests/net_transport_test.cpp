// Real-socket tests: TCP transport framing/delivery and a 3-node real-time
// cluster on 127.0.0.1. Every listener binds port 0 (kernel-assigned) and is
// handed to its transport as an open fd, so parallel ctest workers can never
// collide on a port and no port can be stolen between discovery and use.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <unistd.h>

#include "common/serde.h"
#include "core/escape_policy.h"
#include "net/event_loop.h"
#include "net/real_cluster.h"
#include "net/tcp_transport.h"

namespace escape::net {
namespace {

using namespace std::chrono_literals;

/// Kernel-assigned ports for a set of members: binds one port-0 listener per
/// id and keeps the open fds for the transports to adopt (TransportOptions /
/// RealNode::Options listen_fd).
struct Port0Cluster {
  std::map<ServerId, std::uint16_t> endpoints;
  std::map<ServerId, int> fds;

  explicit Port0Cluster(std::initializer_list<ServerId> ids) {
    for (ServerId id : ids) {
      const BoundListener listener = bind_loopback_listener(0);
      endpoints[id] = listener.port;
      fds[id] = listener.fd;
    }
  }

  TransportOptions options_for(ServerId id, TransportOptions base = {}) {
    base.listen_fd = fds.at(id);
    return base;
  }
};

/// A loopback port that is currently free: bound, discovered, and released.
/// Connecting to it gets ECONNREFUSED (barring an improbable immediate
/// reuse), which is what the dead-peer tests need.
std::uint16_t dead_port() {
  const BoundListener listener = bind_loopback_listener(0);
  const std::uint16_t port = listener.port;
  ::close(listener.fd);
  return port;
}

rpc::Message probe_message(Term term) {
  rpc::RequestVote rv;
  rv.term = term;
  rv.candidate_id = 1;
  rv.last_log_index = 3;
  rv.last_log_term = 2;
  return rv;
}

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<rpc::Envelope> messages;

  void push(const rpc::Envelope& env) {
    {
      std::lock_guard lock(mu);
      messages.push_back(env);
    }
    cv.notify_all();
  }

  bool wait_for_count(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return messages.size() >= n; });
  }
};

TEST(TcpTransportTest, DeliversBetweenTwoEndpoints) {
  Port0Cluster ports({1, 2});
  Mailbox inbox1, inbox2;
  TcpTransport t1(1, ports.endpoints, [&](const rpc::Envelope& e) { inbox1.push(e); },
                  ports.options_for(1));
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox2.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();

  t1.send({1, 2, probe_message(7)});
  ASSERT_TRUE(inbox2.wait_for_count(1, 5000ms));
  EXPECT_EQ(inbox2.messages[0].from, 1u);
  EXPECT_EQ(inbox2.messages[0].to, 2u);
  EXPECT_EQ(inbox2.messages[0].message, probe_message(7));

  // Reply direction reuses / establishes the reverse connection.
  t2.send({2, 1, probe_message(8)});
  ASSERT_TRUE(inbox1.wait_for_count(1, 5000ms));
  EXPECT_EQ(inbox1.messages[0].message, probe_message(8));

  t1.stop();
  t2.stop();
}

TEST(TcpTransportTest, ManyMessagesArriveInOrder) {
  Port0Cluster ports({1, 2});
  Mailbox inbox;
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();

  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    t1.send({1, 2, probe_message(i)});
  }
  ASSERT_TRUE(inbox.wait_for_count(kCount, 10000ms));
  for (int i = 0; i < kCount; ++i) {
    const auto& rv = std::get<rpc::RequestVote>(inbox.messages[static_cast<std::size_t>(i)].message);
    EXPECT_EQ(rv.term, i);  // single TCP stream preserves order
  }
  t1.stop();
  t2.stop();
}

TEST(TcpTransportTest, SendToUnknownPeerDrops) {
  Port0Cluster ports({1});
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  t1.start();
  t1.send({1, 99, probe_message(1)});
  EXPECT_EQ(t1.stats().dropped.load(), 1u);
  t1.stop();
}

TEST(TcpTransportTest, SendToDeadPeerDoesNotBlock) {
  Port0Cluster ports({1});
  // Peer 2's port has no listener.
  auto endpoints = ports.endpoints;
  endpoints[2] = dead_port();
  TcpTransport t1(1, endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  t1.start();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) t1.send({1, 2, probe_message(i)});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 1s);  // connection failure must not stall the sender
  t1.stop();
}

TEST(TcpTransportTest, RequiresSelfEndpoint) {
  EXPECT_THROW(TcpTransport(1, {{2, 1234}}, [](const rpc::Envelope&) {}),
               std::invalid_argument);
}

TEST(TcpTransportTest, StopIsIdempotent) {
  Port0Cluster ports({1});
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  t1.start();
  t1.stop();
  t1.stop();  // second stop is a no-op
}

// --- robustness: EINTR and short writes --------------------------------------
// The syscall seams (net/tcp_transport.h testhooks) stand in for the kernel:
// they return the exact (-1, EINTR) / short-count / (0, stale errno) shapes
// the sockets API is allowed to produce, while a real no-op SIGUSR1 raised
// mid-transfer makes the interrupts genuine signal deliveries rather than
// pure stubs. Each test fails on the pre-fix transport, which treated EINTR
// as fatal and consulted errno on a 0-byte send.

void noop_signal_handler(int) {}

/// Installs a no-op SIGUSR1 handler (without SA_RESTART, so syscalls really
/// can return EINTR) and restores the previous disposition on destruction.
struct SigUsr1Scope {
  struct sigaction old {};
  SigUsr1Scope() {
    struct sigaction sa {};
    sa.sa_handler = noop_signal_handler;
    ::sigaction(SIGUSR1, &sa, &old);
  }
  ~SigUsr1Scope() { ::sigaction(SIGUSR1, &old, nullptr); }
};

struct HookScope {
  ~HookScope() { testhooks::reset(); }
};

std::atomic<int> g_recv_calls{0};
std::atomic<int> g_send_calls{0};
std::atomic<int> g_send_zero_budget{0};
std::atomic<int> g_accept_eintr_budget{0};

ssize_t eintr_recv(int fd, void* buf, std::size_t len, int flags) {
  if (g_recv_calls.fetch_add(1) % 3 == 1) {
    ::raise(SIGUSR1);
    errno = EINTR;
    return -1;
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t eintr_short_send(int fd, const void* buf, std::size_t len, int flags) {
  if (g_send_calls.fetch_add(1) % 2 == 1) {
    ::raise(SIGUSR1);
    errno = EINTR;
    return -1;
  }
  // A short write: the kernel may accept any prefix. 97 is deliberately not
  // a divisor of the frame size, so frames straddle send() boundaries.
  return ::send(fd, buf, std::min<std::size_t>(len, 97), flags);
}

ssize_t zero_return_send(int fd, const void* buf, std::size_t len, int flags) {
  if (g_send_zero_budget.fetch_sub(1) > 0) {
    // A 0 return with errno left over from an unrelated failure; errno is
    // only meaningful for negative returns, so the transport must not act
    // on this value.
    errno = ECONNRESET;
    return 0;
  }
  return ::send(fd, buf, len, flags);
}

int eintr_accept(int fd, sockaddr* addr, socklen_t* addrlen) {
  if (g_accept_eintr_budget.fetch_sub(1) > 0) {
    errno = EINTR;
    return -1;
  }
  return ::accept(fd, addr, addrlen);
}

TEST(TcpTransportRobustnessTest, SurvivesEintrDuringRecv) {
  SigUsr1Scope sig;
  HookScope hooks;
  g_recv_calls.store(0);
  testhooks::recv_fn = &eintr_recv;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) t1.send({1, 2, probe_message(i)});
  ASSERT_TRUE(inbox.wait_for_count(kCount, 10000ms))
      << "only " << inbox.messages.size() << " of " << kCount
      << " messages survived EINTR-interrupted recv";
  for (int i = 0; i < kCount; ++i) {
    const auto& rv =
        std::get<rpc::RequestVote>(inbox.messages[static_cast<std::size_t>(i)].message);
    EXPECT_EQ(rv.term, i);
  }
  EXPECT_GT(g_recv_calls.load(), 0);
  t1.stop();
  t2.stop();
}

TEST(TcpTransportRobustnessTest, SurvivesEintrAndShortWritesDuringSend) {
  SigUsr1Scope sig;
  HookScope hooks;
  g_send_calls.store(0);
  testhooks::send_fn = &eintr_short_send;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();

  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i) t1.send({1, 2, probe_message(i)});
  ASSERT_TRUE(inbox.wait_for_count(kCount, 15000ms))
      << "only " << inbox.messages.size() << " of " << kCount
      << " messages survived interrupt + short-write interleavings";
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(inbox.messages[static_cast<std::size_t>(i)].message, probe_message(i));
  }
  t1.stop();
  t2.stop();
}

TEST(TcpTransportRobustnessTest, ZeroByteSendDoesNotActOnStaleErrno) {
  HookScope hooks;
  g_send_zero_budget.store(1);
  testhooks::send_fn = &zero_return_send;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();

  // Pre-fix, the 0 return fell through to the stale-ECONNRESET branch and
  // closed the connection with this frame still queued — losing it.
  t1.send({1, 2, probe_message(1)});
  ASSERT_TRUE(inbox.wait_for_count(1, 5000ms))
      << "frame queued behind a 0-byte send() was lost";
  EXPECT_EQ(inbox.messages[0].message, probe_message(1));
  t1.stop();
  t2.stop();
}

TEST(TcpTransportRobustnessTest, SurvivesEintrDuringAccept) {
  HookScope hooks;
  g_accept_eintr_budget.store(2);
  testhooks::accept_fn = &eintr_accept;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();

  t1.send({1, 2, probe_message(3)});
  ASSERT_TRUE(inbox.wait_for_count(1, 5000ms));
  EXPECT_EQ(inbox.messages[0].message, probe_message(3));
  t1.stop();
  t2.stop();
}

TEST(TcpTransportRobustnessTest, FramesSurviveTinySendBuffer) {
  // A 1-entry AppendEntries with a 64 KiB command dwarfs SO_SNDBUF, so every
  // frame crosses many partial send() calls; CRC framing must reassemble
  // each one intact.
  TransportOptions tiny;
  tiny.sndbuf = 4096;
  tiny.rcvbuf = 4096;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1, tiny));
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox.push(e); },
                  ports.options_for(2, tiny));
  t1.start();
  t2.start();

  auto bulk_message = [](int i) -> rpc::Message {
    rpc::AppendEntries ae;
    ae.term = i;
    ae.leader_id = 1;
    rpc::LogEntry entry;
    entry.term = i;
    entry.index = i + 1;
    entry.command.assign(64 * 1024, static_cast<std::uint8_t>(i));
    ae.entries.push_back(std::move(entry));
    return ae;
  };

  constexpr int kCount = 20;
  for (int i = 0; i < kCount; ++i) t1.send({1, 2, bulk_message(i)});
  ASSERT_TRUE(inbox.wait_for_count(kCount, 20000ms))
      << "only " << inbox.messages.size() << " of " << kCount
      << " bulk frames crossed the tiny send buffer";
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(inbox.messages[static_cast<std::size_t>(i)].message, bulk_message(i));
  }
  t1.stop();
  t2.stop();
}

// --- leader-loss signal: probes and refusals ----------------------------------

/// Peers a transport reported down, in report order.
struct DownLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ServerId> peers;

  void push(ServerId peer) {
    {
      std::lock_guard lock(mu);
      peers.push_back(peer);
    }
    cv.notify_all();
  }
  std::size_t count() {
    std::lock_guard lock(mu);
    return peers.size();
  }
  ServerId at(std::size_t i) {
    std::lock_guard lock(mu);
    return peers.at(i);
  }
  bool wait_for_count(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return peers.size() >= n; });
  }
};

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// A blocking raw client on 127.0.0.1:`port`: an impostor that speaks the
/// transport's wire format by hand. -1 when the connect fails.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void raw_send(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// The first frame on every transport link: the sender's id.
std::vector<std::uint8_t> hello_from(ServerId id) {
  Encoder e;
  e.u32(id);
  return rpc::frame_payload(e.take());
}

std::atomic<int> g_dials{0};
std::atomic<std::uint16_t> g_dial_port{0};

/// connect() that counts the dials to g_dial_port.
int counting_connect(int fd, const sockaddr* addr, socklen_t len) {
  if (ntohs(reinterpret_cast<const sockaddr_in*>(addr)->sin_port) == g_dial_port.load()) {
    g_dials.fetch_add(1);
  }
  return ::connect(fd, addr, len);
}

/// Counts the dials to `port` from here on; install counting_connect (in a
/// HookScope) before any loop starts.
void count_dials_to(std::uint16_t port) {
  g_dials.store(0);
  g_dial_port.store(port);
}

TEST(TcpTransportTest, RefusedDialReportsPeerDown) {
  // Peer 2 talks with transport 1, then stops: both links close from its
  // side, 1's probe to its port is refused, and 1 reports it down — once.
  Port0Cluster ports({1, 2});
  Mailbox inbox1, inbox2;
  DownLog down;
  TcpTransport t1(1, ports.endpoints, [&](const rpc::Envelope& e) { inbox1.push(e); },
                  ports.options_for(1));
  t1.set_peer_down([&](ServerId peer) { down.push(peer); });
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox2.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();
  t1.send({1, 2, probe_message(1)});
  t2.send({2, 1, probe_message(2)});
  ASSERT_TRUE(inbox1.wait_for_count(1, 5000ms));
  ASSERT_TRUE(inbox2.wait_for_count(1, 5000ms));

  t2.stop();
  ASSERT_TRUE(down.wait_for_count(1, 5000ms));
  EXPECT_EQ(down.at(0), 2u);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(down.count(), 1u);
  t1.stop();
}

TEST(TcpTransportTest, PeerClosedLinkIsProbedAndALiveListenerIsNotReported) {
  // A link from "2" closes from 2's side while 2 is alive: 1 dials 2's port
  // once, 2's listener accepts the probe, and nothing is reported.
  HookScope hooks;
  testhooks::connect_fn = &counting_connect;
  Port0Cluster ports({1, 2});
  count_dials_to(ports.endpoints.at(2));
  DownLog down;
  TcpTransport t1(1, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  t1.set_peer_down([&](ServerId peer) { down.push(peer); });
  TcpTransport t2(2, ports.endpoints, [](const rpc::Envelope&) {}, ports.options_for(2));
  t1.start();
  t2.start();

  const int fd = raw_connect(t1.port());
  ASSERT_GE(fd, 0);
  raw_send(fd, hello_from(2));
  ASSERT_TRUE(wait_until([&] { return t1.loop().stats().frames_in.load() >= 1; }, 5000ms));
  ::close(fd);
  ASSERT_TRUE(wait_until([&] { return t2.loop().stats().accepted.load() >= 1; }, 5000ms));
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(g_dials.load(), 1);
  EXPECT_EQ(down.count(), 0u);
  t1.stop();
  t2.stop();
}

TEST(TcpTransportTest, LocallyClosedLinkIsNotReported) {
  // Peer 2's port is closed, so a probe would be refused and reported. A
  // link from "2" that 1 closes itself, after a frame decode error, dials
  // nothing; the same link closed by its far side is probed and reported.
  HookScope hooks;
  testhooks::connect_fn = &counting_connect;
  Port0Cluster ports({1});
  auto endpoints = ports.endpoints;
  endpoints[2] = dead_port();
  count_dials_to(endpoints[2]);
  DownLog down;
  TcpTransport t1(1, endpoints, [](const rpc::Envelope&) {}, ports.options_for(1));
  t1.set_peer_down([&](ServerId peer) { down.push(peer); });
  t1.start();
  const auto& stats = t1.loop().stats();

  const int fd = raw_connect(t1.port());
  ASSERT_GE(fd, 0);
  raw_send(fd, hello_from(2));
  ASSERT_TRUE(wait_until([&] { return stats.frames_in.load() >= 1; }, 5000ms));
  raw_send(fd, std::vector<std::uint8_t>(16, 0xFF));  // not a frame header
  ASSERT_TRUE(wait_until([&] { return stats.decode_errors.load() >= 1; }, 5000ms));
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(g_dials.load(), 0);
  EXPECT_EQ(down.count(), 0u);
  ::close(fd);

  const int far = raw_connect(t1.port());
  ASSERT_GE(far, 0);
  raw_send(far, hello_from(2));
  ASSERT_TRUE(wait_until([&] { return stats.frames_in.load() >= 2; }, 5000ms));
  ::close(far);
  ASSERT_TRUE(down.wait_for_count(1, 5000ms));
  EXPECT_EQ(down.at(0), 2u);
  EXPECT_EQ(g_dials.load(), 1);
  t1.stop();
}

TEST(TcpTransportTest, NoDialLoopAgainstADeadPeer) {
  // With no traffic, a reported peer's closed port is not dialed again: a
  // refusal never re-probes, and its other links closing find it reported.
  HookScope hooks;
  testhooks::connect_fn = &counting_connect;
  Port0Cluster ports({1, 2});
  count_dials_to(ports.endpoints.at(2));
  Mailbox inbox1, inbox2;
  DownLog down;
  TcpTransport t1(1, ports.endpoints, [&](const rpc::Envelope& e) { inbox1.push(e); },
                  ports.options_for(1));
  t1.set_peer_down([&](ServerId peer) { down.push(peer); });
  TcpTransport t2(2, ports.endpoints, [&](const rpc::Envelope& e) { inbox2.push(e); },
                  ports.options_for(2));
  t1.start();
  t2.start();
  t1.send({1, 2, probe_message(1)});
  t2.send({2, 1, probe_message(2)});
  ASSERT_TRUE(inbox1.wait_for_count(1, 5000ms));
  ASSERT_TRUE(inbox2.wait_for_count(1, 5000ms));
  const int before = g_dials.load();
  t2.stop();
  ASSERT_TRUE(down.wait_for_count(1, 5000ms));
  std::this_thread::sleep_for(200ms);
  EXPECT_LE(g_dials.load() - before, 2);

  // A listener that accepts and at once closes every connection — one caught
  // closing, or a stranger on the port — gets a few probe rounds, no loop.
  Port0Cluster rude({3});
  const int listen_fd = rude.fds.at(3);
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    while (!stop.load()) {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn >= 0) {
        ::close(conn);
      } else {
        std::this_thread::sleep_for(1ms);
      }
    }
  });
  Port0Cluster third({4});
  auto endpoints = third.endpoints;
  endpoints[3] = rude.endpoints.at(3);
  count_dials_to(endpoints[3]);
  TcpTransport t4(4, endpoints, [](const rpc::Envelope&) {}, third.options_for(4));
  t4.set_peer_down([&](ServerId peer) { down.push(peer); });
  t4.start();
  const int fd = raw_connect(t4.port());
  ASSERT_GE(fd, 0);
  raw_send(fd, hello_from(3));
  ASSERT_TRUE(wait_until([&] { return t4.loop().stats().frames_in.load() >= 1; }, 5000ms));
  ::close(fd);
  ASSERT_TRUE(wait_until([&] { return g_dials.load() >= 1; }, 5000ms));
  std::this_thread::sleep_for(200ms);
  EXPECT_LE(g_dials.load(), 4);
  EXPECT_EQ(down.count(), 1u);  // peer 2 only: no probe of 3 was refused
  t4.stop();
  stop.store(true);
  acceptor.join();
  ::close(listen_fd);
  t1.stop();
}

// --- real-time cluster -------------------------------------------------------

PolicyFactory fast_escape() {
  core::EscapeOptions opts;
  opts.base_time = from_ms(300);
  opts.gap = from_ms(150);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<core::EscapePolicy>(id, n, opts);
  };
}

ServerId wait_for_leader(std::vector<std::unique_ptr<RealNode>>& nodes,
                         std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const auto& node : nodes) {
      if (node && node->role() == Role::kLeader) return node->id();
    }
    std::this_thread::sleep_for(10ms);
  }
  return kNoServer;
}

TEST(RealClusterTest, ElectsReplicatesAndFailsOver) {
  Port0Cluster ports({1, 2, 3});

  std::vector<std::unique_ptr<RealNode>> nodes;
  for (ServerId id = 1; id <= 3; ++id) {
    RealNode::Options options;
    options.node.heartbeat_interval = from_ms(60);
    options.listen_fd = ports.fds[id];
    nodes.push_back(std::make_unique<RealNode>(id, ports.endpoints, fast_escape(), options));
  }
  std::atomic<int> applied{0};
  for (auto& node : nodes) {
    node->set_apply_hook([&](const rpc::LogEntry&) { applied.fetch_add(1); });
    node->start();
  }

  const ServerId leader = wait_for_leader(nodes, 5000ms);
  ASSERT_NE(leader, kNoServer);

  // Non-leaders reject submissions and point at the leader.
  for (const auto& node : nodes) {
    if (node->id() != leader) {
      EXPECT_FALSE(node->submit({1}).has_value());
    }
  }

  const auto index = nodes[leader - 1]->submit({42});
  ASSERT_TRUE(index.has_value());
  const auto commit_deadline = std::chrono::steady_clock::now() + 5000ms;
  while (applied.load() < 3 && std::chrono::steady_clock::now() < commit_deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(applied.load(), 3);  // committed and applied on every replica

  // Kill the leader; survivors re-elect.
  const Term old_term = nodes[leader - 1]->term();
  nodes[leader - 1]->stop();
  nodes[leader - 1].reset();
  const ServerId next = wait_for_leader(nodes, 5000ms);
  ASSERT_NE(next, kNoServer);
  EXPECT_NE(next, leader);
  EXPECT_GT(nodes[next - 1]->term(), old_term);

  for (auto& node : nodes) {
    if (node) node->stop();
  }
}

TEST(RealClusterTest, LinearizableReadBarrierOverTcp) {
  Port0Cluster ports({1, 2, 3});

  std::vector<std::unique_ptr<RealNode>> nodes;
  for (ServerId id = 1; id <= 3; ++id) {
    RealNode::Options options;
    options.node.heartbeat_interval = from_ms(60);
    options.listen_fd = ports.fds[id];
    nodes.push_back(std::make_unique<RealNode>(id, ports.endpoints, fast_escape(), options));
  }
  std::atomic<int> granted{0};
  std::atomic<int> lease_granted{0};
  std::atomic<LogIndex> read_index{-1};
  for (auto& node : nodes) {
    node->set_read_hook([&](const raft::ReadGrant& grant) {
      if (!grant.ok) return;
      read_index.store(grant.read_index);
      if (grant.via_lease) lease_granted.fetch_add(1);
      granted.fetch_add(1);
    });
    node->start();
  }
  const ServerId leader = wait_for_leader(nodes, 5000ms);
  ASSERT_NE(leader, kNoServer);

  // Followers refuse reads, as they refuse writes.
  for (const auto& node : nodes) {
    if (node->id() != leader) {
      EXPECT_FALSE(node->submit_read().has_value());
    }
  }

  const auto index = nodes[leader - 1]->submit({7});
  ASSERT_TRUE(index.has_value());
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (nodes[leader - 1]->commit_index() < *index &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_GE(nodes[leader - 1]->commit_index(), *index);

  // A handful of read barriers: every grant must cover the committed write.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(nodes[leader - 1]->submit_read().has_value());
    const auto read_deadline = std::chrono::steady_clock::now() + 5000ms;
    while (granted.load() < i + 1 && std::chrono::steady_clock::now() < read_deadline) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_EQ(granted.load(), i + 1) << "read " << i << " never granted";
    EXPECT_GE(read_index.load(), *index);
    std::this_thread::sleep_for(20ms);  // let heartbeat rounds extend the lease
  }
  const auto counters = nodes[leader - 1]->counters();
  EXPECT_EQ(counters.lease_reads + counters.read_index_reads, 5u);

  for (auto& node : nodes) node->stop();
}

TEST(RealClusterTest, DurableStateSurvivesRestart) {
  Port0Cluster ports({1});
  const std::string dir = "/tmp/escape_real_test_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);

  RealNode::Options options;
  options.node.heartbeat_interval = from_ms(60);
  options.data_dir = dir;

  Term term_before = 0;
  {
    auto first_options = options;
    first_options.listen_fd = ports.fds[1];
    RealNode node(1, ports.endpoints, fast_escape(), first_options);
    node.start();
    // Single-node cluster: leads immediately after its first timeout.
    const auto deadline = std::chrono::steady_clock::now() + 5000ms;
    while (node.role() != Role::kLeader && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(10ms);
    }
    ASSERT_EQ(node.role(), Role::kLeader);
    ASSERT_TRUE(node.submit({9}).has_value());
    const auto commit_deadline = std::chrono::steady_clock::now() + 2000ms;
    while (node.commit_index() < 1 && std::chrono::steady_clock::now() < commit_deadline) {
      std::this_thread::sleep_for(10ms);
    }
    term_before = node.term();
    node.stop();
  }

  // The restart re-binds the (now released) port itself: SO_REUSEADDR makes
  // the same endpoint available again immediately after stop().
  RealNode restarted(1, ports.endpoints, fast_escape(), options);
  restarted.start();
  // Persisted term must be restored (it may then advance when it re-elects).
  EXPECT_GE(restarted.term(), term_before);
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (restarted.commit_index() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(restarted.commit_index(), 1);  // WAL replayed the entry
  restarted.stop();
  std::filesystem::remove_all(dir);
}

TEST(RealClusterTest, OnePostedBurstSharesOneWalSync) {
  // Group commit on the real path: the node drains once per loop iteration,
  // after all of its inputs, so 64 submissions from one posted task persist
  // as one WAL batch under one sync. Draining per input would sync 64 times.
  Port0Cluster ports({1});
  const std::string dir = "/tmp/escape_group_commit_test_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  RealNode::Options options;
  options.node.heartbeat_interval = from_ms(60);
  options.data_dir = dir;
  options.listen_fd = ports.fds[1];
  RealNode node(1, ports.endpoints, fast_escape(), options);
  node.start();
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (node.commit_index() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(node.role(), Role::kLeader);
  ASSERT_GE(node.commit_index(), 1);  // the election's no-op is durable

  const raft::NodeCounters before = node.counters();
  std::atomic<LogIndex> last{0};
  node.post([&] {
    for (std::uint8_t i = 0; i < 64; ++i) last.store(node.submit({i}).value_or(-1));
  });
  const auto commit_deadline = std::chrono::steady_clock::now() + 5000ms;
  while ((last.load() == 0 || node.commit_index() < last.load()) &&
         std::chrono::steady_clock::now() < commit_deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_GT(last.load(), 0);
  ASSERT_GE(node.commit_index(), last.load());
  const raft::NodeCounters after = node.counters();
  EXPECT_EQ(after.wal_group_syncs - before.wal_group_syncs, 1u);
  EXPECT_EQ(after.wal_records_per_sync.sum - before.wal_records_per_sync.sum, 64u);
  EXPECT_EQ(after.wal_records_per_sync.max, 64u);
  node.stop();
  std::filesystem::remove_all(dir);
}


// --- real-time cluster: the leader-loss signal --------------------------------

/// ESCAPE with baseTime 1 s and gap 500 ms: a failover that waits for the
/// election timer takes at least a second.
PolicyFactory slow_escape() {
  core::EscapeOptions opts;
  opts.base_time = from_ms(1000);
  opts.gap = from_ms(500);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<core::EscapePolicy>(id, n, opts);
  };
}

std::vector<std::unique_ptr<RealNode>> start_cluster(Port0Cluster& ports,
                                                     const PolicyFactory& policy) {
  std::vector<std::unique_ptr<RealNode>> nodes;
  for (const auto& [id, port] : ports.endpoints) {
    RealNode::Options options;
    options.node.heartbeat_interval = from_ms(60);
    options.listen_fd = ports.fds.at(id);
    nodes.push_back(std::make_unique<RealNode>(id, ports.endpoints, policy, options));
  }
  for (auto& node : nodes) node->start();
  return nodes;
}

/// Waits for a leader whose followers have each adopted a patrol
/// configuration, so the ladder is dealt: one follower holds P = n.
ServerId wait_for_settled_leader(std::vector<std::unique_ptr<RealNode>>& nodes) {
  const ServerId leader = wait_for_leader(nodes, 10000ms);
  if (leader == kNoServer) return kNoServer;
  const bool dealt = wait_until(
      [&] {
        for (const auto& node : nodes) {
          if (node->id() != leader && node->counters().config_adoptions == 0) return false;
        }
        return true;
      },
      5000ms);
  return dealt ? leader : kNoServer;
}

std::uint64_t total(const std::vector<std::unique_ptr<RealNode>>& nodes,
                    std::uint64_t raft::NodeCounters::*counter) {
  std::uint64_t sum = 0;
  for (const auto& node : nodes) sum += node->counters().*counter;
  return sum;
}

std::vector<Term> terms(const std::vector<std::unique_ptr<RealNode>>& nodes) {
  std::vector<Term> out;
  for (const auto& node : nodes) out.push_back(node->term());
  return out;
}

TEST(RealClusterTest, StoppedLeaderRefusesSubmissions) {
  // A stopped node's loop is gone and post_and_wait runs submissions
  // inline; they must not reach a core that still believes it leads.
  Port0Cluster ports({1});
  RealNode::Options options;
  options.node.heartbeat_interval = from_ms(60);
  options.listen_fd = ports.fds[1];
  RealNode node(1, ports.endpoints, fast_escape(), options);
  node.start();
  ASSERT_TRUE(wait_until([&] { return node.role() == Role::kLeader; }, 5000ms));
  ASSERT_TRUE(node.submit({1}).has_value());
  ASSERT_TRUE(node.submit_read().has_value());

  node.stop();
  EXPECT_EQ(node.role(), Role::kLeader);
  EXPECT_FALSE(node.submit({2}).has_value());
  EXPECT_FALSE(node.submit_read().has_value());
}

TEST(RealClusterTest, StoppedLeaderIsReplacedWithoutWaitingBaseTime) {
  Port0Cluster ports({1, 2, 3});
  auto nodes = start_cluster(ports, slow_escape());
  const ServerId leader = wait_for_settled_leader(nodes);
  ASSERT_NE(leader, kNoServer);
  const Term old_term = nodes[leader - 1]->term();
  const std::uint64_t campaigns = total(nodes, &raft::NodeCounters::campaigns_started);

  const auto stopped_at = std::chrono::steady_clock::now();
  nodes[leader - 1]->stop();
  ServerId next = kNoServer;
  ASSERT_TRUE(wait_until(
      [&] {
        for (const auto& node : nodes) {
          if (node->id() != leader && node->role() == Role::kLeader) next = node->id();
        }
        return next != kNoServer;
      },
      5000ms));
  const auto elapsed = std::chrono::steady_clock::now() - stopped_at;
  EXPECT_LT(elapsed, 100ms);
  EXPECT_GT(nodes[next - 1]->term(), old_term);

  // The next priority's pulled-in deadline (one gap) passes without a rival.
  std::this_thread::sleep_for(700ms);
  EXPECT_EQ(nodes[next - 1]->role(), Role::kLeader);
  EXPECT_EQ(total(nodes, &raft::NodeCounters::campaigns_started) - campaigns, 1u);
  EXPECT_EQ(total(nodes, &raft::NodeCounters::leaders_lost), 2u);  // each survivor, once
  for (auto& node : nodes) node->stop();
}

TEST(RealClusterTest, HungLeaderKeepsItsLeadership) {
  // A leader whose loop stalls closes no socket: nothing is probed, and the
  // stall is shorter than any election timeout.
  Port0Cluster ports({1, 2, 3});
  auto nodes = start_cluster(ports, slow_escape());
  const ServerId leader = wait_for_settled_leader(nodes);
  ASSERT_NE(leader, kNoServer);
  const std::uint64_t campaigns = total(nodes, &raft::NodeCounters::campaigns_started);
  const std::vector<Term> before = terms(nodes);

  nodes[leader - 1]->post([] { std::this_thread::sleep_for(400ms); });
  std::this_thread::sleep_for(700ms);
  EXPECT_EQ(nodes[leader - 1]->role(), Role::kLeader);
  EXPECT_EQ(terms(nodes), before);
  EXPECT_EQ(total(nodes, &raft::NodeCounters::campaigns_started), campaigns);
  EXPECT_EQ(total(nodes, &raft::NodeCounters::leaders_lost), 0u);
  for (auto& node : nodes) node->stop();
}

TEST(RealClusterTest, ForgedLeaderLinkCloseDoesNotDepose) {
  // An impostor opens a link to a follower under the leader's id and closes
  // it. The follower probes the leader's port, the live listener accepts,
  // and nothing changes.
  HookScope hooks;
  testhooks::connect_fn = &counting_connect;
  Port0Cluster ports({1, 2, 3});
  auto nodes = start_cluster(ports, slow_escape());
  const ServerId leader = wait_for_settled_leader(nodes);
  ASSERT_NE(leader, kNoServer);
  const ServerId follower = leader == 1 ? 2 : 1;
  const std::uint64_t campaigns = total(nodes, &raft::NodeCounters::campaigns_started);
  const std::vector<Term> before = terms(nodes);
  count_dials_to(ports.endpoints.at(leader));

  const int fd = raw_connect(ports.endpoints.at(follower));
  ASSERT_GE(fd, 0);
  raw_send(fd, hello_from(leader));
  std::this_thread::sleep_for(50ms);
  ::close(fd);
  ASSERT_TRUE(wait_until([&] { return g_dials.load() >= 1; }, 5000ms));

  // Longer than the pulled-in deadline of either follower's priority.
  std::this_thread::sleep_for(700ms);
  EXPECT_EQ(nodes[leader - 1]->role(), Role::kLeader);
  EXPECT_EQ(terms(nodes), before);
  EXPECT_EQ(total(nodes, &raft::NodeCounters::campaigns_started), campaigns);
  EXPECT_EQ(total(nodes, &raft::NodeCounters::leaders_lost), 0u);
  for (auto& node : nodes) node->stop();
}
}  // namespace
}  // namespace escape::net
