#include "traced_server.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <variant>

#include "common/logging.h"
#include "rpc/wire.h"
#include "serve/kv_server.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"
#include "trace.h"

namespace escape::bench {
namespace {

class TracedWal final : public storage::Wal {
 public:
  explicit TracedWal(std::string path) : inner_(std::move(path)) {}

  void append(const rpc::LogEntry& entry) override {
    ScopedSpan span(SpanKind::kStorageWalWrite, 0, entry.index);
    inner_.append(entry);
  }
  void append_batch(const std::vector<rpc::LogEntry>& entries) override {
    ScopedSpan span(SpanKind::kStorageWalWrite, 0, entries.empty() ? 0 : entries.back().index);
    inner_.append_batch(entries);
  }
  void truncate_from(LogIndex from) override {
    ScopedSpan span(SpanKind::kStorageWalWrite, 0, from);
    inner_.truncate_from(from);
  }
  void compact_to(LogIndex upto) override {
    ScopedSpan span(SpanKind::kStorageWalWrite, 0, upto);
    inner_.compact_to(upto);
  }
  void sync() override {
    ScopedSpan span(SpanKind::kStorageWalSync);
    inner_.sync();
  }
  std::vector<rpc::LogEntry> recovered() const override { return inner_.recovered(); }

 private:
  storage::FileWal inner_;
};

class TracedStateStore final : public storage::StateStore {
 public:
  explicit TracedStateStore(std::string path) : inner_(std::move(path)) {}

  void save(const storage::PersistentState& state) override {
    ScopedSpan span(SpanKind::kStorageStateSave);
    inner_.save(state);
  }
  std::optional<storage::PersistentState> load() override { return inner_.load(); }

 private:
  storage::FileStateStore inner_;
};

/// Times every ElectionPolicy call that does work; plain accessors pass
/// through untimed so the decorator does not dwarf what it measures.
class TracedPolicy final : public raft::ElectionPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<raft::ElectionPolicy> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Term campaign_term(Term current) const override { return inner_->campaign_term(current); }
  Duration min_election_timeout() const override { return inner_->min_election_timeout(); }
  ConfClock vote_request_clock() const override { return inner_->vote_request_clock(); }
  bool approve_candidate(const rpc::RequestVote& request) const override {
    ScopedSpan span(SpanKind::kCorePolicy);
    return inner_->approve_candidate(request);
  }
  bool on_config_received(const rpc::Configuration& config) override {
    ScopedSpan span(SpanKind::kCorePolicy);
    return inner_->on_config_received(config);
  }
  rpc::Configuration current_config() const override { return inner_->current_config(); }
  void restore(const rpc::Configuration& config) override { inner_->restore(config); }
  void on_become_leader(const std::vector<ServerId>& others, Term term) override {
    ScopedSpan span(SpanKind::kCorePolicy);
    inner_->on_become_leader(others, term);
  }
  void on_membership_changed(const std::vector<ServerId>& voter_others,
                             std::size_t n_voters) override {
    ScopedSpan span(SpanKind::kCorePolicy);
    inner_->on_membership_changed(voter_others, n_voters);
  }
  void on_follower_status(ServerId from, const rpc::ConfigStatus& status) override {
    ScopedSpan span(SpanKind::kCorePolicy);
    inner_->on_follower_status(from, status);
  }
  void on_follower_backlog(ServerId follower, LogIndex backlog, std::size_t inflight) override {
    ScopedSpan span(SpanKind::kCorePolicy);
    inner_->on_follower_backlog(follower, backlog, inflight);
  }
  void begin_heartbeat_round() override {
    ScopedSpan span(SpanKind::kCorePatrol);
    inner_->begin_heartbeat_round();
  }
  std::optional<rpc::Configuration> config_for(ServerId dest) override {
    ScopedSpan span(SpanKind::kCorePolicy);
    return inner_->config_for(dest);
  }
  std::optional<rpc::Configuration> assignment_for(ServerId dest) override {
    return inner_->assignment_for(dest);
  }

 protected:
  Duration sample_election_timeout(Rng& rng) override {
    ScopedSpan span(SpanKind::kCorePolicy);
    return inner_->next_election_timeout(rng);
  }

 private:
  std::unique_ptr<raft::ElectionPolicy> inner_;
};

net::EventLoop::Options client_loop_options() {
  net::EventLoop::Options o;
  o.max_outbuf_bytes = serve::KvServer::Options{}.max_client_outbuf;
  o.evict_on_overflow = true;
  return o;
}

}  // namespace

TracedServer::TracedServer(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
                           const net::PolicyFactory& policy, Options options)
    : id_(id),
      options_(std::move(options)),
      loop_(
          [this] {
            net::EventLoop::Handler h;
            h.on_frames = [this](net::EventLoop::ConnId conn,
                                 std::vector<std::vector<std::uint8_t>>&& frames) {
              on_frames(conn, std::move(frames));
            };
            return h;
          }(),
          client_loop_options()) {
  std::vector<ServerId> members;
  for (const auto& [member, port] : endpoints) members.push_back(member);

  const std::string base = options_.data_dir + "/" + server_name(id_);
  state_ = std::make_unique<TracedStateStore>(base + ".state");
  wal_ = std::make_unique<TracedWal>(base + ".wal");
  snaps_ = std::make_unique<storage::FileSnapshotStore>(base + ".snap");
  driver_ = std::make_unique<raft::NodeDriver>(*state_, *wal_, snaps_.get());
  auto boot = driver_->recover();
  if (boot.snapshot && boot.snapshot->last_included_index > 0) {
    // KvServer never compacts, so no run of this benchmark writes one.
    throw std::runtime_error("traced server: snapshot recovery is not mirrored");
  }
  node_ = std::make_unique<raft::RaftNode>(
      id_, members, std::make_unique<TracedPolicy>(policy(id_, members.size())),
      Rng(options_.seed ^ (0xC0FFEEull + id_)), options_.node, std::move(boot));
  driver_->attach(*node_);

  auto& hooks = driver_->hooks();
  hooks.send = [this](const std::vector<rpc::Envelope>& batch) {
    sink_->messages.insert(sink_->messages.end(), batch.begin(), batch.end());
  };
  hooks.restore = [](const std::shared_ptr<const raft::Snapshot>&) {
    throw std::logic_error("traced server: snapshot install is not mirrored");
  };
  hooks.apply = [this](const rpc::LogEntry& entry) { sink_->committed.push_back(entry); };
  hooks.read = [this](const raft::ReadGrant& grant) { sink_->read_grants.push_back(grant); };
  node_->set_event_hook([this](const raft::NodeEvent& event) {
    if (event.kind == raft::NodeEvent::Kind::kCommitAdvanced) {
      const auto now = mono_ns();
      record_span(SpanKind::kRaftCommit, now, now, 0, event.index);
    } else if (event.kind == raft::NodeEvent::Kind::kBecameLeader) {
      ae_sent_.clear();
    }
  });

  net::TransportOptions topts;
  topts.listen_fd = options_.raft_listen_fd;
  transport_ = std::make_unique<net::TcpTransport>(id_, std::move(endpoints),
                                                   net::TcpTransport::DeliverFn{}, topts);
  transport_->set_deliver_batch([this](std::vector<rpc::Envelope>&& batch) {
    const auto now = mono_ns();
    {
      const auto lock = lock_node();
      for (auto& env : batch) mailbox_.emplace_back(std::move(env), now);
    }
    cv_.notify_one();
  });
}

TracedServer::~TracedServer() { stop(); }

void TracedServer::start() {
  loop_.listen(net::BoundListener{options_.client_listen_fd, 0});
  transport_->start();
  running_.store(true);
  {
    const auto lock = lock_node();
    node_->start(clock_.now());
  }
  driver_thread_ = std::thread([this] { run_loop(); });
  loop_.start();
}

void TracedServer::stop() {
  loop_.stop();
  if (!running_.exchange(false)) return;
  cv_.notify_all();
  if (driver_thread_.joinable()) driver_thread_.join();
  transport_->stop();
}

Role TracedServer::role() const {
  const auto lock = lock_node();
  return node_->role();
}

Term TracedServer::term() const {
  const auto lock = lock_node();
  return node_->term();
}

raft::NodeCounters TracedServer::counters() const {
  const auto lock = lock_node();
  return node_->counters();
}

std::unique_lock<std::mutex> TracedServer::lock_node(std::uint64_t rid) const {
  const auto start = mono_ns();
  std::unique_lock lock(mu_);
  record_span(SpanKind::kNetLockWait, start, mono_ns(), rid);
  return lock;
}

void TracedServer::run_loop() {
  using namespace std::chrono;
  Effects effects;
  while (running_.load()) {
    {
      auto lock = lock_node();
      if (mailbox_.empty() && !node_->has_ready()) {
        const TimePoint deadline = node_->next_deadline();
        Duration wait_us = deadline == kNever ? from_ms(100) : deadline - clock_.now();
        wait_us = std::clamp<Duration>(wait_us, 0, from_ms(100));
        cv_.wait_for(lock, microseconds(wait_us));
      }
      if (!running_.load()) break;
      while (!mailbox_.empty()) {
        const auto [env, queued] = std::move(mailbox_.front());
        mailbox_.pop_front();
        const auto start = mono_ns();
        record_span(SpanKind::kNetMailboxWait, queued, start);
        note_ack(env, start);
        node_->step(env, clock_.now());
        record_span(SpanKind::kRaftStep, start, mono_ns());
      }
      ScopedSpan tick(SpanKind::kRaftTick);
      node_->tick(clock_.now());
    }
    for (;;) {
      effects.clear();
      bool drained = false;
      {
        const auto lock = lock_node();
        ScopedSpan pump(SpanKind::kRaftPump);
        drained = pump_unit(effects);
      }
      if (!drained) break;
      note_sends(effects.messages);
      {
        ScopedSpan send(SpanKind::kNetSend);
        transport_->send_batch(effects.messages);
      }
      for (const auto& entry : effects.committed) on_apply(entry);
      for (const auto& grant : effects.read_grants) on_read(grant);
    }
  }
}

bool TracedServer::pump_unit(Effects& out) {
  bool any = false;
  Effects batch;
  for (;;) {
    batch.clear();
    sink_ = &batch;
    const bool drained = driver_->pump_one();
    sink_ = nullptr;
    if (!drained) break;
    any = true;
    out.messages.insert(out.messages.end(), std::make_move_iterator(batch.messages.begin()),
                        std::make_move_iterator(batch.messages.end()));
    if (!batch.committed.empty() || !batch.read_grants.empty()) {
      out.committed = std::move(batch.committed);
      out.read_grants = std::move(batch.read_grants);
      break;
    }
  }
  return any;
}

void TracedServer::note_sends(const std::vector<rpc::Envelope>& messages) {
  const auto now = mono_ns();
  for (const auto& env : messages) {
    const auto* append = std::get_if<rpc::AppendEntries>(&env.message);
    if (append && !append->entries.empty()) {
      ae_sent_[env.to].emplace_back(append->entries.back().index, now);
    }
  }
}

void TracedServer::note_ack(const rpc::Envelope& envelope, std::int64_t now) {
  const auto* reply = std::get_if<rpc::AppendEntriesReply>(&envelope.message);
  if (!reply) return;
  auto& sent = ae_sent_[envelope.from];
  if (!reply->success) {
    sent.clear();  // the follower is probed from scratch; nothing pending will be acked
    return;
  }
  while (!sent.empty() && sent.front().first <= reply->match_index) {
    record_span(SpanKind::kRaftReplRtt, sent.front().second, now, 0, sent.front().first);
    sent.pop_front();
  }
}

void TracedServer::on_frames(net::EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
  for (const auto& payload : frames) {
    const auto start = mono_ns();
    const auto request = serve::decode_request(payload);
    const std::uint64_t rid = request ? id_of(request->command.value) : 0;
    record_span(SpanKind::kServeDecode, start, mono_ns(), rid);
    if (!request) {
      LOG_WARN("traced server " << server_name(id_) << ": undecodable client request; closing");
      loop_.close(conn);
      return;
    }
    handle_request(conn, *request, rid);
  }
}

void TracedServer::handle_request(net::EventLoop::ConnId conn, const serve::Request& request,
                                  std::uint64_t rid) {
  serve::Response response;
  response.request_id = request.request_id;
  const auto not_leader = [&] {
    response.status = serve::Status::kNotLeader;
    {
      const auto lock = lock_node(rid);
      response.leader_hint = node_->leader_hint();
    }
    respond(conn, response, rid);
  };

  // pending_mu_ is held across the submit and the table insert, as in
  // KvServer: the grant or apply can land before submit returns.
  if (request.command.op == kv::Op::kGet) {
    std::unique_lock lock(pending_mu_);
    std::optional<raft::ReadId> read;
    {
      const auto node = lock_node(rid);
      ScopedSpan span(SpanKind::kRaftSubmit, rid);
      read = node_->submit_read(clock_.now());
    }
    cv_.notify_one();
    if (!read) {
      lock.unlock();
      not_leader();
      return;
    }
    pending_reads_[*read] =
        PendingRead{conn, request.request_id, request.command.key, rid, mono_ns()};
    return;
  }

  std::unique_lock lock(pending_mu_);
  auto command = kv::encode_command(request.command);
  std::optional<LogIndex> index;
  {
    const auto node = lock_node(rid);
    ScopedSpan span(SpanKind::kRaftSubmit, rid);
    index = node_->submit(std::move(command), clock_.now());
  }
  cv_.notify_one();
  if (!index) {
    lock.unlock();
    not_leader();
    return;
  }
  pending_writes_[*index] = PendingWrite{conn, request.request_id, request.command.client_id,
                                         request.command.sequence, rid, mono_ns()};
}

void TracedServer::on_apply(const rpc::LogEntry& entry) {
  const auto start = mono_ns();
  const auto result_bytes = store_.apply(entry);
  const auto applied = mono_ns();

  PendingWrite pending;
  bool found = false;
  {
    std::lock_guard lock(pending_mu_);
    const auto it = pending_writes_.find(entry.index);
    if (it != pending_writes_.end()) {
      pending = it->second;
      pending_writes_.erase(it);
      found = true;
    }
  }
  record_span(SpanKind::kKvApply, start, applied, pending.rid, entry.index);
  if (!found) return;
  record_span(SpanKind::kServePending, pending.accepted, start, pending.rid, entry.index);

  serve::Response response;
  response.request_id = pending.request_id;
  const auto command = kv::decode_command(entry.command);
  if (command && command->client_id == pending.client_id &&
      command->sequence == pending.sequence) {
    auto result = kv::decode_result(result_bytes);
    response.status = serve::Status::kOk;
    if (result) response.result = std::move(*result);
  } else {
    response.status = serve::Status::kRetry;
  }
  respond(pending.conn, response, pending.rid);
}

void TracedServer::on_read(const raft::ReadGrant& grant) {
  const auto start = mono_ns();
  PendingRead pending;
  {
    std::lock_guard lock(pending_mu_);
    const auto it = pending_reads_.find(grant.id);
    if (it == pending_reads_.end()) return;
    pending = std::move(it->second);
    pending_reads_.erase(it);
  }
  record_span(SpanKind::kServeReadWait, pending.accepted, start, pending.rid);
  serve::Response response;
  response.request_id = pending.request_id;
  if (grant.ok) {
    std::optional<std::string> value;
    {
      ScopedSpan span(SpanKind::kKvPeek, pending.rid);
      value = store_.peek(pending.key);
    }
    response.status = serve::Status::kOk;
    response.result.ok = value.has_value();
    if (value) response.result.value = *value;
  } else {
    response.status = serve::Status::kRetry;
  }
  respond(pending.conn, response, pending.rid);
}

void TracedServer::respond(net::EventLoop::ConnId conn, const serve::Response& response,
                           std::uint64_t rid) {
  ScopedSpan span(SpanKind::kServeRespond, rid, static_cast<std::int64_t>(response.status));
  loop_.send(conn, rpc::frame_payload(serve::encode_response(response)));
}

}  // namespace escape::bench
