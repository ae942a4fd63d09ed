#include "kv/kv_cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace escape::kv {

KvCluster::KvCluster(sim::SimCluster& cluster) : cluster_(cluster) {
  for (ServerId id : cluster_.members()) stores_[id] = std::make_unique<KvStore>();
  cluster_.set_apply_hook([this](ServerId id, const rpc::LogEntry& entry) {
    // A replayed index means the node restarted and is rebuilding its state
    // machine from the log; start from a fresh store. A host added after
    // construction (SimCluster::add_host) gets its store on its first apply.
    auto& store = stores_[id];
    auto& last = last_applied_[id];
    if (!store || entry.index <= last) store = std::make_unique<KvStore>();
    last = entry.index;
    const auto result_bytes = store->apply(entry);
    if (const auto cmd = decode_command(entry.command)) {
      if (const auto result = decode_result(result_bytes)) {
        results_[id][{cmd->client_id, cmd->sequence}] = *result;
      }
    }
  });
  // Compaction glue: snapshots serialize the replica's KvStore (sessions
  // included, so exactly-once survives), and a restore — whether from the
  // leader's InstallSnapshot or a restart from the local snapshot store —
  // replaces the replica's store wholesale and fast-forwards its applied
  // cursor to the snapshot boundary.
  cluster_.set_snapshot_state_hook(
      [this](ServerId id) { return stores_.at(id)->snapshot(); });
  cluster_.set_snapshot_restore_hook(
      [this](ServerId id, const storage::Snapshot& snap) {
        auto store = std::make_unique<KvStore>();
        if (!snap.state.empty() && !store->restore(snap.state)) {
          LOG_WARN("S" << id << ": malformed snapshot state; starting empty");
        }
        stores_[id] = std::move(store);
        last_applied_[id] = snap.last_included_index;
      });
  // Read fast path: grants arrive after the same pump applied every newly
  // committed entry, so peeking the serving replica's store here observes a
  // state at least as fresh as the grant's read index.
  cluster_.add_read_listener([this](ServerId id, const raft::ReadGrant& grant) {
    if (!pending_read_ || pending_read_->server != id || pending_read_->id != grant.id) {
      // Not (yet) ours: either another issuer's read (a scenario's
      // ClientRead probe) or our own grant racing the ticket record — a
      // lease grant fires inside submit_read, before read() learns its id.
      // Stash it; read() claims right after submitting. Bounded by evicting
      // the oldest — never by dropping the new grant, which could be the
      // one read() is about to claim (a dropped claim would stall the
      // client for its whole timeout).
      while (unclaimed_grants_.size() >= 256) {
        unclaimed_grants_.erase(unclaimed_grants_.begin());
      }
      unclaimed_grants_[{id, grant.id}] = grant;
      return;
    }
    resolve_grant(grant);
  });
}

std::optional<CommandResult> KvCluster::put(const std::string& key, const std::string& value,
                                            Duration timeout) {
  Command c;
  c.op = Op::kPut;
  c.key = key;
  c.value = value;
  return run(std::move(c), timeout);
}

std::optional<CommandResult> KvCluster::get(const std::string& key, Duration timeout) {
  Command c;
  c.op = Op::kGet;
  c.key = key;
  return run(std::move(c), timeout);
}

std::optional<CommandResult> KvCluster::del(const std::string& key, Duration timeout) {
  Command c;
  c.op = Op::kDel;
  c.key = key;
  return run(std::move(c), timeout);
}

std::optional<CommandResult> KvCluster::cas(const std::string& key, const std::string& expected,
                                            const std::string& value, Duration timeout) {
  Command c;
  c.op = Op::kCas;
  c.key = key;
  c.expected = expected;
  c.value = value;
  return run(std::move(c), timeout);
}

void KvCluster::resolve_grant(const raft::ReadGrant& grant) {
  if (!grant.ok) {
    pending_read_->rejected = true;
    return;
  }
  const auto value = stores_.at(pending_read_->server)->peek(pending_read_key_);
  pending_read_->result.ok = value.has_value();
  pending_read_->result.value = value.value_or("");
  pending_read_->done = true;
}

void KvCluster::retire_pending_read() {
  if (!pending_read_) return;
  // Drop only the retired ticket's stash entry, never the whole stash: the
  // listener may stash grants for *other* issuers' probes (scenario
  // ClientReads) at any time, and — the race this is keyed against — the
  // next ticket's lease grant lands in the stash *inside* submit_read(),
  // between the reset of the old ticket and the record of the new one. A
  // wholesale clear anywhere in that window would discard the very grant the
  // claim path is about to look up, stalling the client for its full
  // timeout.
  unclaimed_grants_.erase({pending_read_->server, pending_read_->id});
  pending_read_.reset();
}

std::optional<CommandResult> KvCluster::read(const std::string& key, Duration timeout) {
  const TimePoint deadline = cluster_.loop().now() + timeout;
  pending_read_key_ = key;
  retire_pending_read();
  while (cluster_.loop().now() < deadline) {
    if (!pending_read_ || pending_read_->rejected) {
      // (Re)issue through whatever leads now; a rejection means the previous
      // leadership ended before confirming the batch. Retire the rejected
      // ticket first so a late grant for it can't linger in the stash.
      retire_pending_read();
      const ServerId leader = cluster_.leader();
      if (leader != kNoServer) {
        if (const auto read = cluster_.submit_read(leader)) {
          pending_read_ = PendingClientRead{leader, *read, false, false, {}};
          // A lease read already resolved inside submit_read; claim it. The
          // peek happens in the same virtual instant as the grant (no loop
          // turn in between), so it observes exactly the granted state.
          const auto it = unclaimed_grants_.find({leader, *read});
          if (it != unclaimed_grants_.end()) {
            const raft::ReadGrant grant = it->second;
            unclaimed_grants_.erase(it);
            resolve_grant(grant);
          }
        }
      }
    }
    if (pending_read_ && pending_read_->done) {
      auto result = pending_read_->result;
      retire_pending_read();
      return result;
    }
    // A crashed leader never answers; cap the wait so the retry loop can
    // re-route instead of sleeping out the whole deadline.
    cluster_.loop().run_until(std::min(deadline, cluster_.loop().now() + from_ms(100)));
    if (pending_read_ && pending_read_->server != cluster_.leader() && !pending_read_->done) {
      pending_read_->rejected = true;  // leadership moved; re-issue
    }
  }
  std::optional<CommandResult> result;
  if (pending_read_ && pending_read_->done) result = pending_read_->result;
  retire_pending_read();
  return result;
}

std::optional<CommandResult> KvCluster::run(Command cmd, Duration timeout) {
  cmd.client_id = client_id_;
  cmd.sequence = next_sequence_++;
  const auto session_key = std::make_pair(cmd.client_id, cmd.sequence);
  const auto bytes = encode_command(cmd);
  const TimePoint deadline = cluster_.loop().now() + timeout;

  auto find_result = [&]() -> std::optional<CommandResult> {
    // Applied on any replica implies committed.
    for (const auto& [id, by_session] : results_) {
      const auto it = by_session.find(session_key);
      if (it != by_session.end()) return it->second;
    }
    return std::nullopt;
  };

  // Submit to the current leader; when leadership moves, resubmit through
  // the new leader (the original entry may have been truncated). Session
  // dedup in KvStore makes resubmission exactly-once.
  ServerId submitted_to = kNoServer;
  while (cluster_.loop().now() < deadline) {
    if (auto r = find_result()) return r;
    const ServerId leader = cluster_.leader();
    if (leader != kNoServer && leader != submitted_to) {
      if (cluster_.node(leader).submit(bytes, cluster_.loop().now())) {
        submitted_to = leader;
        cluster_.pump(leader);
      }
    }
    cluster_.loop().run_until(std::min(deadline, cluster_.loop().now() + from_ms(100)));
  }
  return find_result();
}

}  // namespace escape::kv
