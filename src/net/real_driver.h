// The real-time runtime's Ready consumer.
//
// RealNode's driver thread holds a mutex while stepping the core, but must
// not hold it while touching the transport or the application hooks (a slow
// apply hook would stall message ingestion; a transport send could deadlock
// against a peer doing the same). RealDriver therefore splits each batch:
// pump_one() runs under the lock — persistence happens there, keeping the
// persist-before-send ordering trivially correct — and buffers the
// environment-facing effects into an Effects record the caller flushes
// after releasing the lock, in the same mandatory order (send, restore,
// apply, grant).
//
// driver_conformance_test replays identical scenarios through this buffered
// style and a bare raft::NodeDriver with immediate hooks (the simulator's
// style) and asserts the Ready streams match — the two runtimes drive one
// core the same way.
#pragma once

#include <memory>
#include <vector>

#include "raft/driver.h"

namespace escape::net {

/// One server's driver in the TCP runtime: drains batches under the node
/// lock into Effects records flushed outside it.
class RealDriver {
 public:
  /// The environment-facing portion of one Ready batch, in flush order.
  struct Effects {
    std::vector<rpc::Envelope> messages;
    std::shared_ptr<const raft::Snapshot> restore;  ///< null: no restore
    std::vector<rpc::LogEntry> committed;
    std::vector<raft::ReadGrant> read_grants;

    bool empty() const {
      return messages.empty() && !restore && committed.empty() && read_grants.empty();
    }
    void clear() {
      messages.clear();
      restore.reset();
      committed.clear();
      read_grants.clear();
    }
  };

  RealDriver(storage::StateStore& store, storage::Wal& wal, storage::SnapshotStore* snapshots);

  /// See raft::NodeDriver::recover().
  raft::Bootstrap recover() { return base_.recover(); }

  /// See raft::NodeDriver::attach().
  void attach(raft::RaftNode& node) { base_.attach(node); }

  /// Drains at most one batch (call holding the node lock): persistence
  /// executes immediately, environment effects land in `out` for the caller
  /// to flush after unlocking. Returns false when nothing was pending.
  bool pump_one(Effects& out);

  /// Drains one flush *unit*: consecutive message-only batches merge into
  /// `out` (requires out.empty()), and the first batch that carries a
  /// restore, committed entries or read grants terminates the unit. Flushing
  /// `out` in the usual order then equals flushing each batch in order —
  /// every merged batch's persistence already ran here, before any of its
  /// messages escape, and no apply/restore can be reordered across a later
  /// batch. This is what lets RealNode ship a whole burst of AppendEntries
  /// fan-out as one transport send_batch(). Returns false when nothing was
  /// pending.
  bool pump_unit(Effects& out);

  /// The generic drain underneath — tests attach phase hooks and Ready
  /// observers here.
  raft::NodeDriver& base() { return base_; }

 private:
  raft::NodeDriver base_;
  Effects* sink_ = nullptr;  ///< non-null only inside pump_one
};

}  // namespace escape::net
