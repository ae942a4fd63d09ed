#include "net/real_driver.h"

#include <stdexcept>

namespace escape::net {

RealDriver::RealDriver(storage::StateStore& store, storage::Wal& wal,
                       storage::SnapshotStore* snapshots)
    : base_(store, wal, snapshots) {
  auto& hooks = base_.hooks();
  hooks.send = [this](const std::vector<rpc::Envelope>& batch) {
    sink_->messages.insert(sink_->messages.end(), batch.begin(), batch.end());
  };
  hooks.restore = [this](const std::shared_ptr<const raft::Snapshot>& snap) {
    sink_->restore = snap;
    // A restore supersedes anything this batch buffered so far (the core
    // clears its committed list the same way); entries after this point in
    // the batch post-date the snapshot and stay.
    sink_->committed.clear();
  };
  hooks.apply = [this](const rpc::LogEntry& entry) { sink_->committed.push_back(entry); };
  hooks.read = [this](const raft::ReadGrant& grant) { sink_->read_grants.push_back(grant); };
}

bool RealDriver::pump_one(Effects& out) {
  if (sink_) throw std::logic_error("RealDriver::pump_one() re-entered");
  sink_ = &out;
  bool drained = false;
  try {
    drained = base_.pump_one();
  } catch (...) {
    sink_ = nullptr;
    throw;
  }
  sink_ = nullptr;
  return drained;
}

bool RealDriver::pump_unit(Effects& out) {
  bool any = false;
  Effects batch;
  for (;;) {
    batch.clear();
    if (!pump_one(batch)) break;
    any = true;
    out.messages.insert(out.messages.end(), std::make_move_iterator(batch.messages.begin()),
                        std::make_move_iterator(batch.messages.end()));
    if (batch.restore || !batch.committed.empty() || !batch.read_grants.empty()) {
      // This batch carries environment effects beyond messages: stop merging
      // so the caller's send -> restore -> apply -> grant flush preserves the
      // per-batch order.
      out.restore = std::move(batch.restore);
      out.committed = std::move(batch.committed);
      out.read_grants = std::move(batch.read_grants);
      break;
    }
  }
  return any;
}

}  // namespace escape::net
