// Asynchronous KV client over serve::kv_wire.
//
// One KvClient drives one EventLoop (client-only, no listener, one thread)
// holding `connections_per_server` connections to every server: start()
// dials them all, and a connection that drops is re-dialled after
// `retry_backoff`. Commands go to the server the client believes leads, and
// the target moves on news of leadership:
//
//   * a leadership notice (a Response with request_id 0, pushed by a server
//     the moment it becomes leader) retargets the client and resends every
//     waiting command at once;
//   * a kNotLeader reply whose hint names another server with an open
//     connection moves the target there and resends at once;
//   * any other kNotLeader reply moves the target to the hinted server (or,
//     with no hint, on to the next server) and resends after
//     `retry_backoff`; a dropped connection to the target, or a failed
//     re-dial, moves the target on to the next server;
//   * a reply to a command sent before the latest notice never moves the
//     target: a kNotLeader one resends at once to the notice's leader, and
//     so does a command whose connection drops after the notice came;
//   * kRetry, and a command whose target cannot be reached (its connection
//     dropped, or none is up), resend after `retry_backoff`.
//
// Per-command deadlines, backoffs and re-dials all fire from the loop's
// timer, armed for the earliest of them: a command that gets no final
// answer completes with Status::kTimeout at its deadline. The open-loop load
// generators (bench/loadgen, bench/escape_bench) measure leader-failover
// unavailability as the gap this machinery leaves between successful
// completions.
//
// Sessions and write concurrency: the server's exactly-once dedup keys on
// (client_id, sequence) and caches only the LAST result per session, which
// makes a session safe only with one outstanding write at a time. The
// client therefore multiplexes writes over `lanes` independent sessions
// (client_id = base + lane, sequence monotone per lane): each lane has at
// most one write in flight and queues the rest, so total write concurrency
// is `lanes` while every session stays sequential. Reads (kGet) bypass
// sessions entirely (they travel the read-index path, not the log) and run
// with unbounded concurrency.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "kv/kv_command.h"
#include "net/event_loop.h"
#include "serve/kv_wire.h"

namespace escape::serve {

class KvClient {
 public:
  struct Options {
    Duration timeout = from_ms(2000);  ///< total per-command deadline
    /// Delay before resending after kRetry or to an unreachable server, and
    /// before re-dialling a dropped connection.
    Duration retry_backoff = from_ms(10);
    int lanes = 16;  ///< concurrent write sessions
    int connections_per_server = 1;
  };

  /// Terminal outcome: kOk (result valid), kTimeout, or — after stop() —
  /// kRetry for commands still in flight.
  using Callback = std::function<void(Status, const kv::CommandResult&)>;

  /// `client_ports` maps each server to its client-facing port on
  /// 127.0.0.1. `base_client_id` seeds the session ids; two concurrently
  /// live clients must keep their [base, base + lanes) ranges disjoint.
  KvClient(std::map<ServerId, std::uint16_t> client_ports, std::uint64_t base_client_id,
           Options options);
  KvClient(std::map<ServerId, std::uint16_t> client_ports, std::uint64_t base_client_id)
      : KvClient(std::move(client_ports), base_client_id, Options()) {}
  ~KvClient();

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Starts the loop thread and dials every server.
  void start();
  void stop();

  /// Thread-safe, never blocks. The client stamps the command's session
  /// identity (client_id, sequence); callers only set op/key/value/expected.
  /// `done` runs on the loop thread (or, after stop(), on the caller's) and
  /// must not block.
  void submit(kv::Command command, Callback done);

  /// Commands not yet completed (flow-control probe for the load generator).
  std::size_t outstanding() const;

 private:
  using ConnId = net::EventLoop::ConnId;
  using Completions = std::vector<std::pair<Callback, std::pair<Status, kv::CommandResult>>>;

  struct Pending {
    Request request;
    std::vector<std::uint8_t> frame;  ///< the request, framed for the wire
    Callback done;
    TimePoint deadline = 0;
    TimePoint retry_at = 0;  ///< earliest resend while not in flight
    bool in_flight = false;
    int lane = -1;  ///< >= 0: the write session this command occupies
    ConnId sent_conn = 0;
    std::uint64_t sent_notices = 0;  ///< notices_ when last sent
  };
  struct Lane {
    std::uint64_t next_sequence = 1;
    std::uint64_t active = 0;  ///< request_id of the in-flight write (0: idle)
    std::deque<std::uint64_t> waiting;
  };
  /// One connection slot to a server. A dialled connection is open: frames
  /// queue on it until the connect completes, and a failed connect closes it.
  struct Link {
    ConnId conn = 0;  ///< 0: down, re-dialled at redial_at
    TimePoint redial_at = 0;
  };

  // Loop thread.
  void on_frames(ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  void on_close(ConnId conn);
  void on_timer();

  // Under mu_.
  void dial_locked(ServerId server, std::size_t slot, TimePoint now);
  /// A connection to the target server; 0 while none is up.
  ConnId target_conn_locked(std::uint64_t request_id);
  void rotate_leader_locked();
  bool is_open_locked(ServerId server) const;
  /// Waiting, and free to be sent (a read, or its lane's active write).
  bool sendable_locked(std::uint64_t request_id, const Pending& pending) const;
  void send_locked(std::uint64_t request_id, Pending& pending, TimePoint now);
  void retry_later_locked(Pending& pending, TimePoint now);
  /// Arms the loop timer for `at` unless it is already armed earlier.
  void schedule_locked(TimePoint at);
  /// Completes the request and, for a write, activates the lane's next
  /// queued command. Appends the callback to `completions` for invocation
  /// outside the lock.
  void finish_locked(std::uint64_t request_id, Status status, kv::CommandResult result,
                     TimePoint now, Completions& completions);

  const std::map<ServerId, std::uint16_t> ports_;
  const std::uint64_t base_client_id_;
  const Options options_;
  const std::vector<ServerId> servers_;
  SteadyClock clock_;

  net::EventLoop loop_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Pending> pending_;
  std::vector<Lane> lanes_;
  std::uint64_t next_request_ = 1;  ///< 0 is reserved for leadership notices
  std::uint64_t next_lane_ = 0;     ///< round-robin lane assignment
  ServerId leader_;
  std::uint64_t notices_ = 0;  ///< leadership notices received
  std::map<ServerId, std::vector<Link>> links_;
  std::map<ConnId, std::pair<ServerId, std::size_t>> link_of_;
  TimePoint timer_at_ = kNever;  ///< deadline the loop timer is armed for
  bool stopped_ = false;
};

}  // namespace escape::serve
