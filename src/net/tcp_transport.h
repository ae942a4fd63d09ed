// Real TCP transport for deploying the consensus core outside the simulator.
//
// Each server owns one TcpTransport: a listening socket plus lazily
// established outgoing connections to peers, multiplexed by one EventLoop
// (edge-triggered epoll, per-connection ring buffers — see event_loop.h).
// Messages are framed with rpc::frame_message (length prefix + CRC); a
// corrupt frame closes the connection, and outgoing sends reconnect
// transparently — consensus tolerates lost messages by design, so the
// transport drops rather than blocks when a peer is unreachable.
//
// Thread model: send()/send_batch() may be called from any thread (they
// enqueue on the loop's output rings and wake it via its eventfd); the
// deliver callback runs on the loop thread and must not block. With
// set_deliver_batch, every complete frame of one readiness burst arrives in
// a single callback. RealNode runs its whole consensus core on this loop
// (see loop()): it steps frames in the deliver callback and drains once per
// loop iteration.
//
// Leader-loss signal (set_peer_down): when a link to or from peer X is
// closed from X's side, the transport dials X once — the probe, which
// becomes its outgoing link to X. A probe the kernel refuses is reported as
// proof that X's process is gone: the transport is loopback-only, so the
// local kernel itself says nothing listens on X's port, and EventLoop::stop
// closes a listener only after its loop thread has exited. A probe that
// connects is a live link and reports nothing; one that is then reset (it
// landed in a listener that was closing) probes again, a few rounds at
// most. A frame from X arriving after the dial cancels the probe's report.
// X is reported once: its other links closing dial nothing more until X
// speaks again. Nothing else is reported: a refused ordinary send, a link
// this side closed (decode error), or a peer that stops answering without
// closing (host loss, partition, a hung loop) — those keep the election
// timer.
//
// The net::testhooks syscall seams live in event_loop.h (shared with the
// serving layer).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "net/event_loop.h"
#include "rpc/messages.h"
#include "rpc/wire.h"

namespace escape::net {

/// Statistics for tests and diagnostics.
struct TransportStats {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> reconnects{0};
};

struct TransportOptions {
  /// When > 0, sets SO_SNDBUF / SO_RCVBUF on every socket. Tests use tiny
  /// buffers to force partial writes; 0 keeps the kernel defaults.
  int sndbuf = 0;
  int rcvbuf = 0;
  /// When >= 0, start() adopts this already-bound listening socket (see
  /// bind_loopback_listener) instead of binding endpoints[self]. This is the
  /// port-0 path: reserve every listener first, discover the kernel-assigned
  /// ports, then hand each open fd to its transport — no rebind race.
  int listen_fd = -1;
};

class TcpTransport {
 public:
  using DeliverFn = std::function<void(const rpc::Envelope&)>;
  using DeliverBatchFn = std::function<void(std::vector<rpc::Envelope>&&)>;
  using PeerDownFn = std::function<void(ServerId peer)>;

  /// `endpoints` maps every cluster member (including `self`) to a TCP port
  /// on 127.0.0.1. The transport binds self's port in start() (unless
  /// options.listen_fd adopts a pre-bound listener). `deliver` may be null
  /// when set_deliver_batch() installs a batch callback before start().
  TcpTransport(ServerId self, std::map<ServerId, std::uint16_t> endpoints, DeliverFn deliver,
               TransportOptions options = {});
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Replaces per-envelope delivery with whole-burst delivery: all messages
  /// parsed from one readiness edge arrive in a single call, in order.
  /// Call before start().
  void set_deliver_batch(DeliverBatchFn deliver_batch);

  /// Installs the leader-loss signal (see the file comment): `peer_down`
  /// runs on the loop thread with the id of a peer whose probe was refused.
  /// Call before start(). Without it the transport never probes.
  void set_peer_down(PeerDownFn peer_down);

  /// Binds (or adopts), listens and launches the event-loop thread. Throws
  /// std::runtime_error on bind failure.
  void start();

  /// Stops the event loop and closes all sockets. Idempotent and terminal —
  /// a stopped transport cannot be restarted.
  void stop();

  /// Queues `envelope` for its destination. Never blocks; drops (and counts)
  /// when the peer is unreachable or the outbound queue is saturated.
  void send(const rpc::Envelope& envelope);

  /// Queues a whole Ready batch: one lock acquisition on the transport, and
  /// the loop coalesces all frames sharing a destination into few write()s.
  void send_batch(const std::vector<rpc::Envelope>& envelopes);

  /// Port the transport is listening on. Meaningful after start(); with a
  /// pre-bound listener this is the kernel-assigned port.
  std::uint16_t port() const;

  /// The loop the transport runs on; owners post work and set its timer here.
  EventLoop& loop() { return *loop_; }

  const TransportStats& stats() const { return stats_; }
  ServerId self() const { return self_; }

 private:
  /// A dial that reports `peer` down if the kernel refuses it.
  struct Probe {
    EventLoop::ConnId conn = 0;  ///< 0: refused and reported
    int round = 0;               ///< earlier probes in this chain, each reset by the peer
  };
  /// Probes per chain: enough for a listener caught mid-close, and a bound
  /// on dials against one that accepts and resets every connection.
  static constexpr int kMaxProbeRounds = 4;

  void on_frames(EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  void on_conn_closed(EventLoop::ConnId conn, EventLoop::CloseCause cause);
  EventLoop::ConnId outgoing_locked(ServerId peer);  // mu_ held
  /// Dials `peer` as its new outgoing link (mu_ held). Returns 0 when the
  /// dial failed at once; `refused`, when given, says whether it was a
  /// refusal.
  EventLoop::ConnId dial_locked(ServerId peer, bool* refused = nullptr);
  /// Starts probe round `round` against `peer` (mu_ held). Returns true
  /// when the kernel refused it at once: `peer` is down.
  bool probe_locked(ServerId peer, int round);

  const ServerId self_;
  const std::map<ServerId, std::uint16_t> endpoints_;
  DeliverFn deliver_;
  DeliverBatchFn deliver_batch_;
  PeerDownFn peer_down_;
  const TransportOptions options_;

  std::unique_ptr<EventLoop> loop_;

  std::mutex mu_;  // guards peer_conn_, conn_peer_, probes_
  std::map<ServerId, EventLoop::ConnId> peer_conn_;  ///< outgoing connection per peer
  std::map<EventLoop::ConnId, ServerId> conn_peer_;  ///< known (outgoing) or learned (hello)
  std::map<ServerId, Probe> probes_;                 ///< per peer, until it next speaks

  TransportStats stats_;
};

}  // namespace escape::net
