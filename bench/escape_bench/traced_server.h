// The traced run's KV replica: serve::KvServer over net::RealNode, rebuilt
// from the stack's public classes (RaftNode, raft::NodeDriver, the file
// stores, TcpTransport, EventLoop, KvStore, kv_wire) with a span around
// every call into each layer.
//
// It keeps their options and their thread, mailbox and lock layout: the
// transport's loop thread queues peer messages in a mailbox; a driver thread
// steps them and drains Ready batches under the node lock (persistence
// included) and flushes sends, applies and read grants outside it; a client
// loop thread decodes kv_wire requests and parks them in pending tables
// under their own mutex, held across the node submit. It uses no
// net::RealNode or net::RealDriver internals, so those can change without
// breaking this build — and, when they do, this twin stops describing them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "kv/kv_store.h"
#include "net/event_loop.h"
#include "net/real_cluster.h"
#include "net/tcp_transport.h"
#include "raft/driver.h"
#include "raft/raft_node.h"
#include "serve/kv_wire.h"

namespace escape::bench {

class TracedServer {
 public:
  struct Options {
    raft::NodeOptions node;
    std::string data_dir;
    std::uint64_t seed = 1;
    int raft_listen_fd = -1;    ///< pre-bound peer listener
    int client_listen_fd = -1;  ///< pre-bound client listener
  };

  TracedServer(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
               const net::PolicyFactory& policy, Options options);
  ~TracedServer();

  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  void start();
  void stop();

  Role role() const;
  Term term() const;
  raft::NodeCounters counters() const;
  std::uint64_t client_wakeups() const { return loop_.stats().wakeups.load(); }

 private:
  /// Environment effects of one flush unit (see net::RealDriver::pump_unit).
  struct Effects {
    std::vector<rpc::Envelope> messages;
    std::vector<rpc::LogEntry> committed;
    std::vector<raft::ReadGrant> read_grants;

    void clear() {
      messages.clear();
      committed.clear();
      read_grants.clear();
    }
  };
  struct PendingWrite {
    net::EventLoop::ConnId conn = 0;
    std::uint64_t request_id = 0;
    std::uint64_t client_id = 0;
    std::uint64_t sequence = 0;
    std::uint64_t rid = 0;
    std::int64_t accepted = 0;
  };
  struct PendingRead {
    net::EventLoop::ConnId conn = 0;
    std::uint64_t request_id = 0;
    std::string key;
    std::uint64_t rid = 0;
    std::int64_t accepted = 0;
  };

  // Node half (net::RealNode).
  std::unique_lock<std::mutex> lock_node(std::uint64_t rid = 0) const;
  void run_loop();
  bool pump_unit(Effects& out);
  void note_sends(const std::vector<rpc::Envelope>& messages);
  void note_ack(const rpc::Envelope& envelope, std::int64_t now);

  // Client half (serve::KvServer).
  void on_frames(net::EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  void handle_request(net::EventLoop::ConnId conn, const serve::Request& request,
                      std::uint64_t rid);
  void on_apply(const rpc::LogEntry& entry);
  void on_read(const raft::ReadGrant& grant);
  void respond(net::EventLoop::ConnId conn, const serve::Response& response, std::uint64_t rid);

  const ServerId id_;
  const Options options_;
  SteadyClock clock_;

  std::unique_ptr<storage::StateStore> state_;
  std::unique_ptr<storage::Wal> wal_;
  std::unique_ptr<storage::SnapshotStore> snaps_;
  std::unique_ptr<raft::NodeDriver> driver_;  // guarded by mu_
  std::unique_ptr<raft::RaftNode> node_;      // guarded by mu_
  std::unique_ptr<net::TcpTransport> transport_;
  Effects* sink_ = nullptr;  ///< non-null only inside pump_unit

  mutable std::mutex mu_;  // the node lock
  std::condition_variable cv_;
  std::deque<std::pair<rpc::Envelope, std::int64_t>> mailbox_;  ///< with enqueue time

  /// Entry-carrying AppendEntries in flight per follower: (last index, sent
  /// at). Driver thread only.
  std::map<ServerId, std::deque<std::pair<LogIndex, std::int64_t>>> ae_sent_;

  net::EventLoop loop_;
  kv::KvStore store_;  ///< driver thread only

  std::mutex pending_mu_;  // guards the pending tables
  std::map<LogIndex, PendingWrite> pending_writes_;
  std::map<raft::ReadId, PendingRead> pending_reads_;

  std::thread driver_thread_;
  std::atomic<bool> running_{false};
};

}  // namespace escape::bench
