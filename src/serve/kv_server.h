// One replica of the replicated KV service: a RealNode (consensus over TCP)
// plus a client-facing EventLoop speaking serve::kv_wire.
//
// Two event loops (two threads) per server, mirroring the deployment split:
// the node's loop carries peer traffic and runs the consensus core, the
// client loop carries only Request/Response frames. The client loop runs in
// serving mode — bounded per-connection output with slow-client eviction —
// so a client that stops reading its responses is cut loose instead of
// pinning server memory. It decodes each readiness burst of requests and
// posts them to the node's loop in closures of at most kMaxBatch requests:
// the closures the node loop finds queued together share one drain and one
// WAL sync, and the first chunk of a large burst (a client resending
// everything on a leadership notice) is answered without waiting for the
// rest.
//
// Request handling (on the node's loop thread):
//   * writes (Put/Del/Cas) submit to the node and park in a pending table
//     keyed by the returned log index. The apply hook feeds every committed
//     entry to the local KvStore; when the entry at a pending index
//     arrives, the stored (client_id, sequence) decides the outcome —
//     a match answers kOk with the apply result, a mismatch means this
//     leader's entry was displaced by a newer term and the client must
//     resubmit (kRetry; session dedup keeps the retry exactly-once).
//   * reads (Get) go through submit_read; the grant licenses serving the
//     key from the local store (every committed entry up to the read index
//     has already been applied).
//   * a non-leader answers kNotLeader with its leader hint.
//
// Leadership notices: the client loop keeps the set of open client
// connections. When the node's SoftState first reports it leading in a new
// term, the node loop posts one closure to the client loop that sends every
// open connection a notice — a Response with request_id 0 and kNotLeader
// naming this server — so clients retarget the moment a leader exists
// instead of on their next retry.
//
// Submissions, hooks, the KvStore and the pending tables all live on the
// node's loop thread, so none of them needs a lock: a commit cannot land
// between a submit and its pending-table insert. Responses cross back
// through the client loop's thread-safe send().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "kv/kv_store.h"
#include "net/event_loop.h"
#include "net/real_cluster.h"
#include "serve/kv_wire.h"

namespace escape::serve {

class KvServer {
 public:
  struct Options {
    net::RealNode::Options node;
    /// Pre-bound client listener to adopt (port-0 path); when < 0 the
    /// server binds 127.0.0.1:client_port (0 = kernel-assigned).
    int client_listen_fd = -1;
    std::uint16_t client_port = 0;
    /// Client-loop backpressure bound (see EventLoop::Options).
    std::size_t max_client_outbuf = 4u << 20;
  };

  /// `raft_endpoints` maps every member (including `id`) to its raft
  /// transport port, exactly as for RealNode.
  KvServer(ServerId id, std::map<ServerId, std::uint16_t> raft_endpoints,
           net::PolicyFactory policy, Options options);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  void start();
  void stop();

  /// Client-facing port (kernel-assigned when Options asked for port 0).
  std::uint16_t client_port() const { return loop_.port(); }

  net::RealNode& node() { return node_; }
  const net::EventLoopStats& loop_stats() const { return loop_.stats(); }
  ServerId id() const { return id_; }

 private:
  struct PendingWrite {
    net::EventLoop::ConnId conn = 0;
    std::uint64_t request_id = 0;
    std::uint64_t client_id = 0;
    std::uint64_t sequence = 0;
  };
  struct PendingRead {
    net::EventLoop::ConnId conn = 0;
    std::uint64_t request_id = 0;
    std::string key;
  };

  /// Most requests one closure hands to the node loop (see on_frames).
  static constexpr std::size_t kMaxBatch = 64;

  // Client loop thread.
  void on_frames(net::EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  // Node loop thread.
  void handle_request(net::EventLoop::ConnId conn, const Request& request);
  void on_apply(const rpc::LogEntry& entry);
  void on_read(const raft::ReadGrant& grant);
  void on_restore(const raft::Snapshot& snapshot);
  void on_soft_state(const raft::SoftState& soft);
  void respond(net::EventLoop::ConnId conn, const Response& response);

  const ServerId id_;
  net::RealNode node_;
  net::EventLoop loop_;
  Options options_;
  // Client loop thread only.
  std::set<net::EventLoop::ConnId> clients_;
  // Node loop thread only.
  kv::KvStore store_;
  std::map<LogIndex, PendingWrite> pending_writes_;
  std::map<raft::ReadId, PendingRead> pending_reads_;
  Term noticed_term_ = 0;  ///< term of the last leadership notice sent
};

}  // namespace escape::serve
