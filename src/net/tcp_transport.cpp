#include "net/tcp_transport.h"

#include <stdexcept>

#include "common/logging.h"
#include "common/serde.h"

namespace escape::net {
namespace {

// The first frame on an outgoing connection carries a one-u32 hello (the
// sender's id) so the acceptor can attribute inbound traffic to a ServerId.
std::vector<std::uint8_t> hello_frame(ServerId self) {
  Encoder e;
  e.u32(self);
  return rpc::frame_payload(e.take());
}

}  // namespace

TcpTransport::TcpTransport(ServerId self, std::map<ServerId, std::uint16_t> endpoints,
                           DeliverFn deliver, TransportOptions options)
    : self_(self),
      endpoints_(std::move(endpoints)),
      deliver_(std::move(deliver)),
      options_(options) {
  if (endpoints_.find(self_) == endpoints_.end()) {
    throw std::invalid_argument("endpoints must include self");
  }
  EventLoop::Options loop_options;
  loop_options.sndbuf = options_.sndbuf;
  loop_options.rcvbuf = options_.rcvbuf;
  // Transport mode: overflow drops the frame but keeps the connection —
  // consensus retransmits by design, and evicting a live peer link would
  // only force a reconnect.
  loop_options.evict_on_overflow = false;
  EventLoop::Handler handler;
  handler.on_frames = [this](EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
    on_frames(conn, std::move(frames));
  };
  handler.on_close_cause = [this](EventLoop::ConnId conn, EventLoop::CloseCause cause) {
    on_conn_closed(conn, cause);
  };
  loop_ = std::make_unique<EventLoop>(std::move(handler), loop_options);
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::set_deliver_batch(DeliverBatchFn deliver_batch) {
  deliver_batch_ = std::move(deliver_batch);
}

void TcpTransport::set_peer_down(PeerDownFn peer_down) { peer_down_ = std::move(peer_down); }

void TcpTransport::start() {
  BoundListener listener{options_.listen_fd, endpoints_.at(self_)};
  if (listener.fd < 0) listener = bind_loopback_listener(listener.port);
  loop_->listen(listener);
  loop_->start();
}

void TcpTransport::stop() {
  loop_->stop();
  std::lock_guard lock(mu_);
  peer_conn_.clear();
  conn_peer_.clear();
  probes_.clear();
}

std::uint16_t TcpTransport::port() const { return loop_->port(); }

EventLoop::ConnId TcpTransport::outgoing_locked(ServerId peer) {
  const auto existing = peer_conn_.find(peer);
  if (existing != peer_conn_.end()) return existing->second;
  return dial_locked(peer);
}

EventLoop::ConnId TcpTransport::dial_locked(ServerId peer, bool* refused) {
  const auto endpoint = endpoints_.find(peer);
  if (endpoint == endpoints_.end()) return 0;
  const EventLoop::ConnId conn = loop_->connect(endpoint->second, refused);
  if (conn == 0) return 0;
  // An earlier outgoing link that is still open stays attributed to `peer`
  // until it closes, but sends move to this one.
  peer_conn_[peer] = conn;
  conn_peer_[conn] = peer;
  stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  loop_->send(conn, hello_frame(self_));
  return conn;
}

bool TcpTransport::probe_locked(ServerId peer, int round) {
  probes_.erase(peer);
  if (round >= kMaxProbeRounds || peer == self_) return false;
  bool refused = false;
  const EventLoop::ConnId conn = dial_locked(peer, &refused);
  // A refused probe stays as a marker: the peer is reported down, and its
  // other links closing dial nothing more until it speaks again.
  if (conn != 0 || refused) probes_[peer] = Probe{conn, round};
  return refused;
}

void TcpTransport::send(const rpc::Envelope& envelope) {
  const auto frame = rpc::frame_message(envelope.message);
  EventLoop::ConnId conn;
  {
    std::lock_guard lock(mu_);
    conn = outgoing_locked(envelope.to);
  }
  if (conn == 0 || loop_->send(conn, frame) != EventLoop::SendResult::kOk) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stats_.sent.fetch_add(1, std::memory_order_relaxed);
}

void TcpTransport::send_batch(const std::vector<rpc::Envelope>& envelopes) {
  // Per-envelope path; the loop already coalesces every frame queued this
  // pass into few write()s per destination.
  for (const auto& envelope : envelopes) send(envelope);
}

void TcpTransport::on_frames(EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
  ServerId peer = kNoServer;
  {
    std::lock_guard lock(mu_);
    const auto it = conn_peer_.find(conn);
    if (it != conn_peer_.end()) {
      peer = it->second;
      probes_.erase(peer);  // the peer spoke after the dial: its refusal proves nothing
    }
  }
  std::vector<rpc::Envelope> batch;
  batch.reserve(frames.size());
  bool corrupt = false;
  std::size_t i = 0;
  try {
    if (peer == kNoServer) {
      // First inbound frame is the hello carrying the sender's id.
      Decoder d(frames[0]);
      peer = d.u32();
      d.expect_end();
      std::lock_guard lock(mu_);
      conn_peer_[conn] = peer;
      probes_.erase(peer);
      i = 1;
    }
    for (; i < frames.size(); ++i) {
      rpc::Envelope env;
      env.from = peer;
      env.to = self_;
      env.message = rpc::decode_message(frames[i]);
      batch.push_back(std::move(env));
    }
  } catch (const DecodeError& e) {
    LOG_WARN("transport " << server_name(self_)
                          << ": closing connection after decode error: " << e.what());
    corrupt = true;
  }
  stats_.received.fetch_add(batch.size(), std::memory_order_relaxed);
  // Frames decoded before the corrupt one still deliver, matching the
  // stream-prefix semantics of the old per-frame path.
  if (!batch.empty()) {
    if (deliver_batch_) {
      deliver_batch_(std::move(batch));
    } else if (deliver_) {
      for (const auto& env : batch) deliver_(env);
    }
  }
  if (corrupt) loop_->close(conn);
}

void TcpTransport::on_conn_closed(EventLoop::ConnId conn, EventLoop::CloseCause cause) {
  ServerId peer = kNoServer;
  bool down = false;
  {
    std::lock_guard lock(mu_);
    const auto it = conn_peer_.find(conn);
    if (it == conn_peer_.end()) return;
    peer = it->second;
    const auto out = peer_conn_.find(peer);
    // Only forget the outgoing link when it is this connection — an inbound
    // connection from the same peer closing must not sever our own link.
    if (out != peer_conn_.end() && out->second == conn) peer_conn_.erase(out);
    conn_peer_.erase(it);
    if (!peer_down_) return;
    const auto probe = probes_.find(peer);
    const bool was_probe = probe != probes_.end() && probe->second.conn == conn;
    if (cause == EventLoop::CloseCause::kPeer) {
      // One probe at a time per peer; a probe the peer reset starts the next
      // round of its chain.
      if (probe == probes_.end() || was_probe) {
        down = probe_locked(peer, was_probe ? probe->second.round + 1 : 0);
      }
    } else if (cause == EventLoop::CloseCause::kRefused && was_probe) {
      down = true;
      probe->second.conn = 0;  // the marker, as for a refusal at dial time
    } else if (was_probe) {
      probes_.erase(probe);
    }
  }
  if (down) peer_down_(peer);
}

}  // namespace escape::net
