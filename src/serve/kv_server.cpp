#include "serve/kv_server.h"

#include "common/logging.h"
#include "rpc/wire.h"

namespace escape::serve {

namespace {

net::EventLoop::Options client_loop_options(const KvServer::Options& options) {
  net::EventLoop::Options o;
  o.max_outbuf_bytes = options.max_client_outbuf;
  o.evict_on_overflow = true;  // serving mode: slow clients are evicted
  return o;
}

}  // namespace

KvServer::KvServer(ServerId id, std::map<ServerId, std::uint16_t> raft_endpoints,
                   net::PolicyFactory policy, Options options)
    : id_(id),
      node_(id, std::move(raft_endpoints), std::move(policy), options.node),
      loop_(
          [this] {
            net::EventLoop::Handler h;
            h.on_open = [this](net::EventLoop::ConnId conn, bool) { clients_.insert(conn); };
            h.on_frames = [this](net::EventLoop::ConnId conn,
                                 std::vector<std::vector<std::uint8_t>>&& frames) {
              on_frames(conn, std::move(frames));
            };
            h.on_close = [this](net::EventLoop::ConnId conn) { clients_.erase(conn); };
            return h;
          }(),
          client_loop_options(options)),
      options_(std::move(options)) {
  node_.set_apply_hook([this](const rpc::LogEntry& entry) { on_apply(entry); });
  node_.set_read_hook([this](const raft::ReadGrant& grant) { on_read(grant); });
  node_.set_restore_hook([this](const raft::Snapshot& snapshot) { on_restore(snapshot); });
  node_.set_soft_state_hook([this](const raft::SoftState& soft) { on_soft_state(soft); });
}

KvServer::~KvServer() { stop(); }

void KvServer::start() {
  net::BoundListener listener{options_.client_listen_fd, options_.client_port};
  if (listener.fd < 0) listener = net::bind_loopback_listener(listener.port);
  loop_.listen(listener);
  node_.start();
  loop_.start();
}

void KvServer::stop() {
  // Node first: once its loop is gone nothing responds on the client loop,
  // and client bursts posted to it are refused.
  node_.stop();
  loop_.stop();
}

void KvServer::respond(net::EventLoop::ConnId conn, const Response& response) {
  // Overflow (slow client) evicts inside send(); nothing more to do here.
  loop_.send(conn, rpc::frame_payload(encode_response(response)));
}

void KvServer::on_soft_state(const raft::SoftState& soft) {
  // One notice per leadership: a leader's later reports (a new confClock)
  // carry no news for clients.
  if (soft.role != Role::kLeader || soft.term == noticed_term_) return;
  noticed_term_ = soft.term;
  Response notice;  // request_id 0: answers no request
  notice.status = Status::kNotLeader;
  notice.leader_hint = id_;
  loop_.post([this, frame = rpc::frame_payload(encode_response(notice))] {
    for (const auto conn : clients_) loop_.send(conn, frame);
  });
}

void KvServer::on_frames(net::EventLoop::ConnId conn,
                         std::vector<std::vector<std::uint8_t>>&& frames) {
  // Requests go to the node loop in chunks of at most kMaxBatch, posted as
  // they are decoded: a chunk that finds the node loop idle is drained (and
  // answered) before the rest of a large burst is handled, while chunks that
  // queue up behind a busy node loop still share one drain and WAL sync.
  std::vector<Request> requests;
  const auto hand_off = [&] {
    if (requests.empty()) return;
    node_.post([this, conn, requests = std::move(requests)] {
      for (const auto& request : requests) handle_request(conn, request);
    });
    requests.clear();
  };
  for (const auto& payload : frames) {
    auto request = decode_request(payload);
    if (!request) {
      // The requests decoded before a corrupt one are still submitted.
      hand_off();
      LOG_WARN("kv server " << server_name(id_) << ": undecodable client request; closing");
      loop_.close(conn);
      return;
    }
    requests.push_back(std::move(*request));
    if (requests.size() == kMaxBatch) hand_off();
  }
  hand_off();
}

void KvServer::handle_request(net::EventLoop::ConnId conn, const Request& request) {
  Response response;
  response.request_id = request.request_id;
  response.status = Status::kNotLeader;
  if (request.command.op == kv::Op::kGet) {
    if (const auto read = node_.submit_read()) {
      pending_reads_[*read] = PendingRead{conn, request.request_id, request.command.key};
      return;
    }
  } else if (const auto index = node_.submit(kv::encode_command(request.command))) {
    pending_writes_[*index] = PendingWrite{conn, request.request_id, request.command.client_id,
                                           request.command.sequence};
    return;
  }
  response.leader_hint = node_.leader_hint();
  respond(conn, response);
}

void KvServer::on_apply(const rpc::LogEntry& entry) {
  // The store is applied unconditionally (every replica runs the same state
  // machine); only the leader that accepted the request has a pending to
  // answer.
  const auto result_bytes = store_.apply(entry);

  const auto it = pending_writes_.find(entry.index);
  if (it == pending_writes_.end()) return;
  const PendingWrite pending = it->second;
  pending_writes_.erase(it);

  Response response;
  response.request_id = pending.request_id;
  const auto command = kv::decode_command(entry.command);
  if (command && command->client_id == pending.client_id &&
      command->sequence == pending.sequence) {
    auto result = kv::decode_result(result_bytes);
    response.status = Status::kOk;
    if (result) response.result = std::move(*result);
  } else {
    // A different entry committed at this index: leadership changed and our
    // proposal was displaced. The client resubmits; session dedup returns
    // the cached result if the command did land under a later index.
    response.status = Status::kRetry;
  }
  respond(pending.conn, response);
}

void KvServer::on_read(const raft::ReadGrant& grant) {
  const auto it = pending_reads_.find(grant.id);
  if (it == pending_reads_.end()) return;
  const PendingRead pending = std::move(it->second);
  pending_reads_.erase(it);
  Response response;
  response.request_id = pending.request_id;
  if (grant.ok) {
    // Every entry up to the read index was already applied, so the local
    // store is a linearizable view for this read.
    const auto value = store_.peek(pending.key);
    response.status = Status::kOk;
    response.result.ok = value.has_value();
    if (value) response.result.value = *value;
  } else {
    response.status = Status::kRetry;
  }
  respond(pending.conn, response);
}

void KvServer::on_restore(const raft::Snapshot& snapshot) {
  if (!store_.restore(snapshot.state)) {
    LOG_WARN("kv server " << server_name(id_) << ": snapshot restore failed");
  }
  // Writes at or below the snapshot index committed but their per-index
  // outcome is unknowable now; kRetry is safe — session dedup answers from
  // the restored session table if the command already executed.
  for (auto it = pending_writes_.begin(); it != pending_writes_.end();) {
    if (it->first > snapshot.last_included_index) break;
    Response response;
    response.request_id = it->second.request_id;
    response.status = Status::kRetry;
    respond(it->second.conn, response);
    it = pending_writes_.erase(it);
  }
}

}  // namespace escape::serve
