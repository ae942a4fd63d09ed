#include "net/real_cluster.h"

namespace escape::net {

RealNode::RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
                   PolicyFactory policy, Options options)
    : id_(id), options_(std::move(options)) {
  std::vector<ServerId> members;
  for (const auto& [member, port] : endpoints) members.push_back(member);

  if (options_.data_dir.empty()) {
    store_ = std::make_unique<storage::MemoryStateStore>();
    wal_ = std::make_unique<storage::NullWal>();
    snaps_ = std::make_unique<storage::MemorySnapshotStore>();
  } else {
    const std::string base = options_.data_dir + "/" + server_name(id_);
    store_ = std::make_unique<storage::FileStateStore>(base + ".state");
    wal_ = std::make_unique<storage::FileWal>(base + ".wal");
    snaps_ = std::make_unique<storage::FileSnapshotStore>(base + ".snap");
  }

  driver_ = std::make_unique<raft::NodeDriver>(*store_, *wal_, snaps_.get());
  auto boot = driver_->recover();
  if (boot.snapshot && boot.snapshot->last_included_index > 0) {
    boot_snapshot_ = std::make_shared<const raft::Snapshot>(*boot.snapshot);
  }
  // One independent stream per member: callers often pass seed + id, which
  // an xor-and-add mix can map two members onto one seed, and members with
  // equal randomized timeouts split their votes in lockstep.
  node_ = std::make_unique<raft::RaftNode>(id_, members, policy(id_, members.size()),
                                           Rng::stream(options_.seed, id_), options_.node,
                                           std::move(boot));
  driver_->attach(*node_);
  TransportOptions topts;
  topts.listen_fd = options_.listen_fd;
  transport_ = std::make_unique<TcpTransport>(id_, endpoints, TcpTransport::DeliverFn{}, topts);
  // Whole-burst delivery on the loop thread: every message of one readiness
  // edge is stepped here, and the iteration's single drain follows.
  transport_->set_deliver_batch([this](std::vector<rpc::Envelope>&& batch) {
    for (const auto& env : batch) node_->step(env, clock_.now());
    request_drain();
  });
  // A refused probe proves the peer's process is gone; the core acts on it
  // only when that peer is the leader it follows.
  transport_->set_peer_down([this](ServerId peer) {
    node_->peer_down(peer, clock_.now());
    request_drain();
  });
  transport_->loop().set_timer([this] { on_timer(); });
  // Sends queue on the loop's output rings, after the batch's WAL sync, and
  // leave in this iteration's flush.
  driver_->hooks().send = [this](const std::vector<rpc::Envelope>& batch) {
    transport_->send_batch(batch);
  };
}

RealNode::RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
                   PolicyFactory policy)
    : RealNode(id, std::move(endpoints), std::move(policy), Options()) {}

RealNode::~RealNode() { stop(); }

void RealNode::start() {
  // Rebuild the application state machine from the stored snapshot before
  // any entry beyond it can reach the apply hook.
  if (boot_snapshot_ && driver_->hooks().restore) driver_->hooks().restore(boot_snapshot_);
  node_->start(clock_.now());
  // Publishes the recovered state before start() returns; the drain's sends
  // queue until the loop runs.
  request_drain();
  transport_->start();
}

void RealNode::stop() {
  // Marked on the loop thread, so no submission the loop runs after this
  // reaches the core; post_and_wait runs later ones inline, and they see
  // the mark too.
  transport_->loop().post_and_wait([this] { stopped_ = true; });
  transport_->stop();
}

std::optional<LogIndex> RealNode::submit(std::vector<std::uint8_t> command) {
  std::optional<LogIndex> index;
  transport_->loop().post_and_wait([&] {
    if (stopped_) return;
    index = node_->submit(std::move(command), clock_.now());
    request_drain();
  });
  return index;
}

std::optional<raft::ReadId> RealNode::submit_read() {
  std::optional<raft::ReadId> read;
  transport_->loop().post_and_wait([&] {
    if (stopped_) return;
    read = node_->submit_read(clock_.now());
    request_drain();
  });
  return read;
}

void RealNode::post(std::function<void()> fn) { transport_->loop().post(std::move(fn)); }

void RealNode::set_apply_hook(std::function<void(const rpc::LogEntry&)> hook) {
  driver_->hooks().apply = std::move(hook);
}

void RealNode::set_read_hook(std::function<void(const raft::ReadGrant&)> hook) {
  driver_->hooks().read = std::move(hook);
}

void RealNode::set_restore_hook(std::function<void(const raft::Snapshot&)> hook) {
  driver_->hooks().restore = [hook = std::move(hook)](
                                 const std::shared_ptr<const raft::Snapshot>& snapshot) {
    hook(*snapshot);
  };
}

void RealNode::set_soft_state_hook(std::function<void(const raft::SoftState&)> hook) {
  driver_->hooks().soft_state = std::move(hook);
}

raft::NodeCounters RealNode::counters() const {
  raft::NodeCounters counters;
  transport_->loop().post_and_wait([&] { counters = node_->counters(); });
  return counters;
}

std::uint16_t RealNode::listen_port() const { return transport_->port(); }

void RealNode::on_timer() {
  timer_deadline_ = kNever;  // one-shot: the timer is disarmed once it fires
  node_->tick(clock_.now());
  request_drain();
}

void RealNode::request_drain() {
  // Inputs change these at once (a vote won is leadership), not at the drain.
  role_.store(node_->role());
  term_.store(node_->term());
  leader_hint_.store(node_->leader_hint());
  commit_index_.store(node_->commit_index());
  EventLoop& loop = transport_->loop();
  if (!loop.on_loop_thread()) {
    drain();  // the loop is not running: there is no iteration to batch with
    return;
  }
  if (drain_posted_) return;
  drain_posted_ = true;
  loop.post([this] {
    drain_posted_ = false;
    drain();
  });
}

void RealNode::drain() {
  driver_->pump();
  // Only an earlier deadline needs a re-arm; a later one is found by the
  // drain after the armed timer fires (ticking early is a no-op).
  const TimePoint deadline = node_->next_deadline();
  if (deadline < timer_deadline_) {
    timer_deadline_ = deadline;
    transport_->loop().arm_timer(deadline - clock_.now());
  }
}

}  // namespace escape::net
