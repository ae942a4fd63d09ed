// Single-node test harness: a RaftNode core paired with a NodeDriver over
// caller-owned stores, exposing the buffered take_*() observation style the
// direct unit tests drive the node through.
//
// Each input (message, tick, submit, ...) steps the core and immediately
// drains every resulting Ready batch through the driver — persistence lands
// in the fixture's stores (so tests keep asserting on store.load() and
// wal.entries()), while outbound messages, applied entries, read grants and
// installed snapshots accumulate in buffers until the test take_*()s them.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "raft/driver.h"
#include "raft/raft_node.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::raft {

class DrivenNode {
 public:
  /// `recovered` is accepted for fixture convenience but ignored: the driver
  /// recovers the log suffix from `wal` itself, and fixtures keep the WAL
  /// consistent with what they claim was recovered.
  DrivenNode(ServerId id, std::vector<ServerId> members,
             std::unique_ptr<ElectionPolicy> policy, storage::StateStore& store,
             storage::Wal& wal, Rng rng, NodeOptions options = {},
             std::vector<rpc::LogEntry> recovered = {},
             storage::SnapshotStore* snapshots = nullptr)
      : driver_(store, wal, snapshots) {
    (void)recovered;
    node_ = std::make_unique<RaftNode>(id, std::move(members), std::move(policy), rng,
                                       options, driver_.recover());
    driver_.attach(*node_);
    auto& hooks = driver_.hooks();
    hooks.send = [this](const std::vector<rpc::Envelope>& batch) {
      outbox_.insert(outbox_.end(), batch.begin(), batch.end());
    };
    hooks.restore = [this](const std::shared_ptr<const Snapshot>& snap) { installed_ = *snap; };
    hooks.apply = [this](const rpc::LogEntry& entry) { committed_.push_back(entry); };
    hooks.read = [this](const ReadGrant& grant) { read_grants_.push_back(grant); };
  }

  // --- inputs (each drains the resulting Ready batches) ---------------------
  void start(TimePoint now) {
    node_->start(now);
    driver_.pump();
  }
  void on_message(const rpc::Envelope& envelope, TimePoint now) {
    node_->step(envelope, now);
    driver_.pump();
  }
  void on_tick(TimePoint now) {
    node_->tick(now);
    driver_.pump();
  }
  void peer_down(ServerId peer, TimePoint now) {
    node_->peer_down(peer, now);
    driver_.pump();
  }
  std::optional<LogIndex> submit(std::vector<std::uint8_t> command, TimePoint now) {
    const auto index = node_->submit(std::move(command), now);
    driver_.pump();
    return index;
  }
  std::optional<ReadId> submit_read(TimePoint now) {
    const auto read = node_->submit_read(now);
    driver_.pump();
    return read;
  }
  bool transfer_leadership(ServerId target, TimePoint now) {
    const bool ok = node_->transfer_leadership(target, now);
    driver_.pump();
    return ok;
  }
  std::optional<LogIndex> compact(LogIndex upto, std::vector<std::uint8_t> state,
                                  TimePoint now) {
    const auto result = node_->compact(upto, std::move(state), now);
    driver_.pump();
    return result;
  }

  // --- buffered observations ------------------------------------------------
  std::vector<rpc::Envelope> take_outbox() { return std::exchange(outbox_, {}); }
  std::vector<rpc::LogEntry> take_committed() { return std::exchange(committed_, {}); }
  std::vector<ReadGrant> take_read_grants() { return std::exchange(read_grants_, {}); }
  std::optional<Snapshot> take_installed_snapshot() {
    return std::exchange(installed_, std::nullopt);
  }

  // --- introspection passthroughs -------------------------------------------
  ServerId id() const { return node_->id(); }
  Role role() const { return node_->role(); }
  Term term() const { return node_->term(); }
  ServerId leader_hint() const { return node_->leader_hint(); }
  LogIndex commit_index() const { return node_->commit_index(); }
  LogIndex last_applied() const { return node_->last_applied(); }
  const Log& log() const { return node_->log(); }
  const NodeCounters& counters() const { return node_->counters(); }
  ConfClock conf_clock() const { return node_->conf_clock(); }
  bool lease_valid(TimePoint now) const { return node_->lease_valid(now); }
  std::size_t pending_reads() const { return node_->pending_reads(); }
  const ElectionPolicy& policy() const { return node_->policy(); }
  TimePoint next_deadline() const { return node_->next_deadline(); }
  void set_event_hook(std::function<void(const NodeEvent&)> hook) {
    node_->set_event_hook(std::move(hook));
  }

  RaftNode& core() { return *node_; }
  NodeDriver& driver() { return driver_; }

 private:
  NodeDriver driver_;
  std::unique_ptr<RaftNode> node_;
  std::vector<rpc::Envelope> outbox_;
  std::vector<rpc::LogEntry> committed_;
  std::vector<ReadGrant> read_grants_;
  std::optional<Snapshot> installed_;
};

}  // namespace escape::raft
