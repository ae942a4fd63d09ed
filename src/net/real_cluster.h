// Real-time runtime: one consensus server over TCP and steady_clock.
//
// RealNode runs a RaftNode core entirely on its TcpTransport's event loop
// thread, the tarantool shape: one core driven by one loop. Inbound frames
// are stepped inside the transport's deliver-batch callback, the loop timer
// fires the core's timers, and a closure posted once per loop iteration —
// after every input of that iteration — drains the Ready batches through a
// plain raft::NodeDriver whose hooks act immediately: one group-commit WAL
// sync per burst, sends queued on the loop's output rings (flushed at the
// end of the same iteration), then restores, applies, read grants and the
// batch's SoftState report. The core stays single-threaded and performs no
// I/O, exactly as in the simulator, and no lock guards it.
//
// Off-loop callers: role()/term()/leader_hint()/commit_index() read atomics
// published after every input and before start() returns;
// submit()/submit_read()/counters() run on the loop thread via
// EventLoop::post_and_wait (directly when already there, or when the loop is
// not running). A stopped node refuses submissions: it holds no leadership
// anyone else will honour.
//
// Leader loss: the transport reports a peer whose probe was refused
// (TcpTransport::set_peer_down), and the node passes it to the core as
// RaftNode::peer_down. When that peer is the leader, a follower skips the
// detection wait: ESCAPE's top priority campaigns at once and the rest keep
// their Eq. 1 gaps. A leader that dies without closing its sockets (host
// loss, a partition, a hung loop) is still found by the election timer.
//
// This is the deployment path a downstream user runs on a real cluster. The
// paper figures use the simulator (determinism and virtual time); the
// wall-clock benches (bench/escape_bench, fig16_serving) run RealNode.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/clock.h"
#include "net/tcp_transport.h"
#include "raft/driver.h"
#include "raft/raft_node.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::net {

/// Builds an election policy for a member (same shape as sim::PolicyFactory).
using PolicyFactory =
    std::function<std::unique_ptr<raft::ElectionPolicy>(ServerId id, std::size_t cluster_size)>;

class RealNode {
 public:
  struct Options {
    Options() { node.commit_noop_on_elect = true; }  // production semantics

    raft::NodeOptions node;
    /// When non-empty, durable state lives in `<data_dir>/S<id>.state`,
    /// `<data_dir>/S<id>.wal` and `<data_dir>/S<id>.snap`; otherwise
    /// volatile in-memory stores are used.
    std::string data_dir;
    /// Seeds the core's RNG (randomized election timeouts); each member
    /// draws its own stream of it.
    std::uint64_t seed = 1;
    /// Pre-bound listening socket to adopt (port-0 path; see
    /// bind_loopback_listener). When < 0, the transport binds
    /// endpoints[id] itself in start().
    int listen_fd = -1;
  };

  /// `endpoints` maps every member (including `id`) to a 127.0.0.1 port.
  RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints, PolicyFactory policy,
           Options options);
  RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints, PolicyFactory policy);
  ~RealNode();

  RealNode(const RealNode&) = delete;
  RealNode& operator=(const RealNode&) = delete;

  /// Starts the core, publishes its state, then binds the transport and
  /// launches its loop thread.
  void start();

  /// Marks the node stopped, then stops the loop thread and transport.
  /// Idempotent.
  void stop();

  /// Command submission (leader only, not stopped; nullopt otherwise).
  /// Thread-safe.
  std::optional<LogIndex> submit(std::vector<std::uint8_t> command);

  /// Linearizable-read submission (leader only, not stopped; nullopt
  /// otherwise — redirect via leader_hint()). Thread-safe. The completion
  /// arrives on the loop thread through the read hook, after every
  /// committed entry up to the grant's read index was handed to the apply
  /// hook; an `ok` grant therefore licenses serving the read from the local
  /// state machine.
  std::optional<raft::ReadId> submit_read();

  /// Runs `fn` on the loop thread, where the hooks run and submit()/
  /// submit_read() execute without a hop. The submissions of one closure
  /// share one drain, so their entries share one WAL sync.
  void post(std::function<void()> fn);

  // Hooks run on the loop thread. Set them before start().

  /// Invoked for every committed entry.
  void set_apply_hook(std::function<void(const rpc::LogEntry&)> hook);

  /// Invoked for every read grant/rejection.
  void set_read_hook(std::function<void(const raft::ReadGrant&)> hook);

  /// Invoked when a leader snapshot supersedes this node's log — rebuild the
  /// application state machine from it before the next apply. Also fired
  /// from start() when the node boots from a stored snapshot.
  void set_restore_hook(std::function<void(const raft::Snapshot&)> hook);

  /// Invoked with the core's SoftState at the end of each drained batch in
  /// which role, leader, term or confClock changed — e.g. the batch in which
  /// this node won an election. KvServer sends its leadership notice here.
  void set_soft_state_hook(std::function<void(const raft::SoftState&)> hook);

  // Thread-safe snapshots of node state.
  Role role() const { return role_.load(); }
  Term term() const { return term_.load(); }
  ServerId leader_hint() const { return leader_hint_.load(); }
  LogIndex commit_index() const { return commit_index_.load(); }
  raft::NodeCounters counters() const;
  ServerId id() const { return id_; }

  /// Port the transport listens on (kernel-assigned with the port-0 path).
  /// Meaningful after start().
  std::uint16_t listen_port() const;

 private:
  // Loop thread only (or the caller of start(), before the loop runs).
  void on_timer();
  void request_drain();
  void drain();

  const ServerId id_;
  Options options_;
  SteadyClock clock_;

  std::unique_ptr<storage::StateStore> store_;
  std::unique_ptr<storage::Wal> wal_;
  std::unique_ptr<storage::SnapshotStore> snaps_;
  std::unique_ptr<raft::NodeDriver> driver_;
  std::unique_ptr<raft::RaftNode> node_;
  std::shared_ptr<const raft::Snapshot> boot_snapshot_;  ///< replayed in start()

  bool drain_posted_ = false;
  bool stopped_ = false;               ///< stop() began; submissions refused
  TimePoint timer_deadline_ = kNever;  ///< deadline the loop timer is armed for

  // Published by request_drain() for off-loop readers.
  std::atomic<Role> role_{Role::kFollower};
  std::atomic<Term> term_{0};
  std::atomic<ServerId> leader_hint_{kNoServer};
  std::atomic<LogIndex> commit_index_{0};

  std::unique_ptr<TcpTransport> transport_;  ///< last: its loop thread uses the above
};

}  // namespace escape::net
