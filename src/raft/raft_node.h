// The consensus core: a deterministic, side-effect-free replicated state
// machine participant implementing Raft's leader election and log
// replication (Ongaro & Ousterhout, USENIX ATC'14) with the election
// behaviour delegated to an ElectionPolicy (vanilla Raft, Z-Raft, or ESCAPE).
//
// RaftNode performs NO I/O: no WAL, no state store, no transport, no clock,
// no threads. Inputs are step(envelope)/tick()/submit()/submit_read(), plus
// peer_down() when a runtime can prove a peer's process is gone, all
// stamped with a caller-supplied time; every side effect the protocol
// requires is *described* in a Ready batch (raft/ready.h) that a driver
// drains and executes:
//
//   node.step(envelope, now);        // or tick / submit / submit_read
//   while (node.has_ready()) {
//     raft::Ready rd = node.ready();
//     /* persist -> send -> restore -> apply -> grant (see ready.h) */
//     node.advance(applied);
//   }
//   schedule_wakeup_at(node.next_deadline());
//
// Two runtimes drive it: the simulator (SimCluster) and the TCP runtime
// (net::RealNode, on its transport's event loop). Both consume Ready through
// raft::NodeDriver, so SimCheck fuzzes exactly the code production runs —
// including all the ESCAPE machinery (patrol rearrangement π(P, k),
// PPF pool, confClock strides, lease arming/revocation, vote-recency guard),
// which lives entirely inside this class.
//
// Determinism: identical input sequences (messages, times, RNG seed) yield
// byte-identical Ready streams and final state, which is what makes 1000-run
// election sweeps, seed-parameterized property tests, and SimCheck's
// trace-determinism replay reproducible (see raft_core_determinism_test).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "raft/election_policy.h"
#include "raft/log.h"
#include "raft/membership.h"
#include "raft/ready.h"
#include "raft/snapshot.h"
#include "rpc/messages.h"

namespace escape::raft {

/// Tunables that are not election-policy specific.
struct NodeOptions {
  /// Leader-to-follower heartbeat period. The paper's PPF advances the
  /// configuration clock once per heartbeat round.
  Duration heartbeat_interval = from_ms(500);

  /// Cap on entries shipped per AppendEntries (flow control).
  std::size_t max_entries_per_rpc = 128;

  /// Byte budget per AppendEntries (sum of command payloads plus a fixed
  /// per-entry framing estimate). A batch always carries at least one entry,
  /// even when that entry alone exceeds the budget — otherwise an oversized
  /// command could never replicate.
  std::size_t max_bytes_per_msg = 1 << 20;

  /// Pipelining window: maximum entry-carrying AppendEntries batches kept in
  /// flight per follower. The leader advances its per-peer `next` cursor
  /// optimistically on send; a rejection flips the peer into probe state
  /// (single message outstanding) and conflict hints walk the cursor back.
  /// 1 degenerates to one-batch-per-RTT replication.
  std::size_t max_inflight_msgs = 16;

  /// Append and replicate a no-op entry on winning an election (commits
  /// prior-term entries per Raft §5.4.2). Off by default so election-latency
  /// experiments keep scripted log contents; the real-time runtime
  /// (net::RealNode) turns it on — without it a fresh leader cannot commit
  /// entries recovered from prior terms until new client traffic arrives.
  bool commit_noop_on_elect = false;

  /// Leader-lease length as a fraction of the policy's minimum election
  /// timeout (ESCAPE: baseTime, the Eq. 1 period of the top priority P = n).
  /// Each quorum-acknowledged heartbeat round extends the lease to
  /// `send time + lease_ratio x min_election_timeout`; while it holds, reads
  /// are served locally with zero messages. Soundness: every follower that
  /// acked the round rearmed its election timer at receipt >= send time and
  /// (per vote_guard_ratio below) refuses votes for longer than the lease
  /// lasts after that contact; any electing quorum intersects the acking
  /// quorum, so no rival can be elected before the lease expires — even when
  /// ESCAPE's patrol hands out fresh π(P, k) assignments, whose periods
  /// never drop below baseTime. Must be strictly below vote_guard_ratio;
  /// 0 disables leases (reads always confirm through a ReadIndex round).
  double lease_ratio = 0.75;

  /// Vote-recency guard window as a fraction of the minimum election
  /// timeout: a server refuses (and does not adopt the term of) a
  /// non-transfer RequestVote received within this window of hearing from a
  /// current leader (Raft dissertation §4.2.3). Any value > lease_ratio
  /// keeps leases sound; the gap below 1 is deliberate slack for
  /// receipt-time skew — a candidate whose last heartbeat arrived earlier
  /// than the voter's (asymmetric geo latency) campaigns "early" by the
  /// skew, and a full-window guard would refuse legitimate first campaigns
  /// and resurrect the split votes ESCAPE exists to kill. The slack does
  /// NOT cover a candidate that *lost* the final broadcast outright (its
  /// timer runs a full heartbeat interval ahead of the voters'); such a
  /// campaign is refused and failover pays one extra timeout — the price of
  /// guard-class protocols under loss, bounded by the guard window itself.
  double vote_guard_ratio = 0.85;
};

/// Observable state transitions, consumed by measurement observers and the
/// invariant checkers. Delivered synchronously from within the node.
struct NodeEvent {
  enum class Kind : std::uint8_t {
    kCampaignStarted,    ///< became candidate / re-candidate; term is the campaign term
    kBecameLeader,       ///< won an election
    kSteppedDown,        ///< leader or candidate reverted to follower
    kConfigAdopted,      ///< ESCAPE configuration adopted (config field valid)
    kCommitAdvanced,     ///< commit_index moved (index field valid)
    kVoteGranted,        ///< this node granted its vote (to `peer`) in `term`
    kSnapshotTaken,      ///< compacted own log (index = last included index)
    kSnapshotInstalled,  ///< installed a leader snapshot (index = last included)
    kReadGranted,        ///< linearizable read released (index = read index)
    kReadRejected,       ///< pending read dropped (leadership lost)
    kMembershipChanged,  ///< adopted a configuration entry (index = its log slot)
  };
  Kind kind{};
  ServerId node = kNoServer;
  ServerId peer = kNoServer;
  Term term = 0;
  LogIndex index = 0;
  rpc::Configuration config{};
  TimePoint at = 0;
  ReadId read_id = 0;      ///< valid for the read events
  bool via_lease = false;  ///< kReadGranted: served under the lease
};

/// Power-of-two bucketed histogram for small-integer distributions (batch
/// sizes, inflight depths, records-per-sync). Bucket i counts values whose
/// bit width is i: bucket 0 holds 0, bucket 1 holds 1, bucket 2 holds 2–3,
/// bucket 3 holds 4–7, …; the last bucket absorbs everything larger.
struct PowHistogram {
  static constexpr std::size_t kBuckets = 20;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v) {
    std::size_t b = 0;
    for (std::uint64_t x = v; x != 0; x >>= 1) ++b;
    if (b >= kBuckets) b = kBuckets - 1;
    ++buckets[b];
    ++count;
    sum += v;
    if (v > max) max = v;
  }
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Monotonic counters for observability and bench reporting.
struct NodeCounters {
  std::uint64_t campaigns_started = 0;
  std::uint64_t votes_granted = 0;
  std::uint64_t elections_won = 0;
  std::uint64_t heartbeat_rounds = 0;
  std::uint64_t append_entries_sent = 0;
  std::uint64_t request_votes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t entries_committed = 0;
  std::uint64_t config_adoptions = 0;
  std::uint64_t snapshots_taken = 0;           ///< local compactions
  std::uint64_t snapshots_installed = 0;       ///< leader snapshots restored
  std::uint64_t install_snapshots_sent = 0;    ///< snapshot catch-ups shipped
  std::uint64_t lease_reads = 0;               ///< reads served under the lease
  std::uint64_t read_index_reads = 0;          ///< reads confirmed by a round
  std::uint64_t reads_rejected = 0;            ///< pending reads dropped
  std::uint64_t votes_refused_recent_leader = 0;  ///< vote-recency guard hits
  std::uint64_t membership_changes = 0;           ///< conf entries adopted
  std::uint64_t leaders_lost = 0;                 ///< peer_down reports acted on
  PowHistogram append_batch_entries;  ///< entries per entry-carrying AppendEntries
  PowHistogram inflight_depth;        ///< per-peer window depth after each such send
  std::uint64_t wal_group_syncs = 0;  ///< driver group-commit syncs (see NodeDriver)
  PowHistogram wal_records_per_sync;  ///< WAL records amortized per group sync
};

/// One consensus participant. Single-threaded; not internally synchronized.
class RaftNode {
 public:
  /// Leader-side replication progress toward one follower — the pipelining
  /// window (the `maxSizePerMsg`/`maxInflightMsgs` shape).
  struct Progress {
    LogIndex next = 1;         ///< next index to ship; advanced optimistically on send
    LogIndex match = 0;        ///< highest index known replicated on the peer
    std::size_t inflight = 0;  ///< unacked entry-carrying batches in flight
    /// Set when the peer rejected an append: the window closes to a single
    /// probe until a success re-establishes where the logs agree.
    bool probing = false;
  };

  /// `members` lists every cluster member including `id` (all voters; the
  /// pre-membership-change bootstrap shape). `boot` carries the durable
  /// state a driver recovered (NodeDriver::recover()): persisted hard state,
  /// the stored snapshot (the log rebases onto it; recovered entries at or
  /// below its boundary are skipped; commit/applied resume from its point —
  /// the driver restores the state machine from the same snapshot), and the
  /// WAL entry suffix.
  RaftNode(ServerId id, std::vector<ServerId> members,
           std::unique_ptr<ElectionPolicy> policy, Rng rng, NodeOptions options = {},
           Bootstrap boot = {});

  /// Membership-aware bootstrap: `base` is the membership in force at the
  /// log's origin — for a seed server, the cluster's initial voter set; for
  /// a server joining at runtime, just itself as a learner (it learns the
  /// real membership from the snapshot or conf entries the leader ships).
  /// The boot snapshot's membership (when present) and any conf entries in
  /// the recovered log override `base`, latest wins.
  RaftNode(ServerId id, rpc::Membership base, std::unique_ptr<ElectionPolicy> policy,
           Rng rng, NodeOptions options = {}, Bootstrap boot = {});

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Adopts the bootstrapped persistent state and arms the election timer.
  /// Must be called once before any other input.
  void start(TimePoint now);

  // --- inputs --------------------------------------------------------------

  /// Steps the state machine with one protocol message addressed to this
  /// node. Effects accumulate into the pending Ready batch.
  void step(const rpc::Envelope& envelope, TimePoint now);

  /// Fires any timer whose deadline is <= now.
  void tick(TimePoint now);

  /// The runtime has proof that `peer`'s process is gone (net::RealNode: a
  /// dial to its loopback port was refused). A voter that follows `peer`
  /// forgets it — leader hint and vote-recency contact; the restart guard
  /// stays — and pulls its election deadline in to
  /// `now + (period − min_election_timeout)`: ESCAPE's P = n campaigns at
  /// the next tick and every lower priority keeps its Eq. 1 gap, while
  /// randomized Raft draws from [0, max − min]. Never delays an armed
  /// deadline. Any other report (a follower, or this node leads or
  /// campaigns) changes nothing. The simulator never calls it outside
  /// SimCheck's crash-notify action.
  void peer_down(ServerId peer, TimePoint now);

  /// Leader-side command submission. Returns the assigned log index, or
  /// nullopt when this node is not the leader (caller redirects using
  /// leader_hint()).
  std::optional<LogIndex> submit(std::vector<std::uint8_t> command, TimePoint now);

  /// Linearizable read fast path. Accepts the read (leader only; nullopt
  /// otherwise — caller redirects using leader_hint()) and resolves it via
  /// the cheapest sound route: under a live lease the grant is released
  /// immediately with zero messages; otherwise the read joins the pending
  /// ReadIndex batch, which records the current commit index and is released
  /// once one subsequent heartbeat round is acknowledged by a quorum (the
  /// proof no newer leader existed when the read was accepted) and
  /// last_applied has caught up to it. Grants and rejections come back
  /// through Ready::read_grants.
  std::optional<ReadId> submit_read(TimePoint now);

  /// Proactive leadership handoff: sends TimeoutNow to `target`, which
  /// campaigns immediately (no election-timeout wait), turning a planned
  /// shutdown into a sub-RTT view change. Requires this node to lead and
  /// `target` to be fully caught up (otherwise returns false and no message
  /// is sent — an uncaught-up target could not win anyway).
  bool transfer_leadership(ServerId target, TimePoint now);

  /// Takes a snapshot at `upto` (clamped to last_applied()) and compacts the
  /// in-memory log up to it, emitting kSaveSnapshot + kCompactTo ops into
  /// the Ready batch. `state` must be the application state machine's
  /// serialized state after applying exactly the entries through that index
  /// (drivers apply Ready::committed synchronously, so their state machine
  /// is always at last_applied()). Returns the snapshot's last included
  /// index, or nullopt when there is nothing new to compact or the driver
  /// cannot persist snapshots (Bootstrap::can_compact). The ESCAPE
  /// configuration currently adopted is captured inside the snapshot, so the
  /// confClock travels with the state through every later restore or
  /// InstallSnapshot.
  std::optional<LogIndex> compact(LogIndex upto, std::vector<std::uint8_t> state,
                                  TimePoint now);

  /// Outcome of propose_conf_change: `index` is the conf entry's log slot
  /// when status == kOk.
  struct ConfChangeResult {
    rpc::ConfChangeStatus status = rpc::ConfChangeStatus::kNotLeader;
    LogIndex index = 0;
  };

  /// Leader-side membership change (the admin plane's entry point; also
  /// reached via a ConfChangeRequest message). Appends a configuration
  /// entry carrying the *resulting* membership and replicates it like any
  /// command. One change at a time: while a conf entry is uncommitted or a
  /// joint configuration is in force, further changes return kBusy.
  /// Promotion additionally requires the learner's replication progress to
  /// have reached the current commit index (kNotCaughtUp otherwise) — the
  /// dissertation's availability gate: a straggler must not enter the
  /// quorum. When the joint entry commits under BOTH majorities the leader
  /// auto-appends Cnew; once Cnew commits a leader that removed itself
  /// steps down.
  ConfChangeResult propose_conf_change(const ConfChange& change, TimePoint now);

  // --- the Ready interface -------------------------------------------------

  /// True when side effects are pending. Inputs may be stepped while a batch
  /// is pending (effects accumulate into one larger batch), but NOT between
  /// ready() and advance().
  bool has_ready() const;

  /// Drains the pending batch. Must not be called again (nor may any input
  /// be stepped) until advance() acknowledges this batch — the driver is in
  /// the middle of making it durable.
  Ready ready();

  /// Acknowledges the batch returned by the last ready(). `applied` is the
  /// highest index the driver's state machine has now applied (restore
  /// boundary and committed entries included); the core checks it against
  /// its own apply cursor to catch drivers that drop entries.
  void advance(LogIndex applied);

  /// Earliest pending timer deadline (election or heartbeat); kNever when
  /// no timer is armed. The driver must call tick no later than this.
  TimePoint next_deadline() const;

  /// Installs a hook receiving NodeEvents; pass nullptr to remove.
  void set_event_hook(std::function<void(const NodeEvent&)> hook) {
    event_hook_ = std::move(hook);
  }

  // --- introspection -------------------------------------------------------
  ServerId id() const { return id_; }
  Role role() const { return role_; }
  Term term() const { return current_term_; }
  /// The leader this node currently believes in (kNoServer when unknown).
  ServerId leader_hint() const { return leader_id_; }
  LogIndex commit_index() const { return commit_index_; }
  LogIndex last_applied() const { return last_applied_; }
  const Log& log() const { return log_; }
  std::size_t cluster_size() const { return others_.size() + (membership_.contains(id_) ? 1 : 0); }
  /// Majority of the (new) voter set. Joint configurations need majorities
  /// of both sets — the commit/vote/read paths check that internally; this
  /// accessor reports the primary set for tests and observers.
  std::size_t quorum() const { return membership_.voters.size() / 2 + 1; }
  /// Membership currently in force (the latest configuration entry in the
  /// log, or the bootstrap/snapshot membership when none).
  const rpc::Membership& membership() const { return membership_; }
  /// Log index of the configuration entry membership() came from (0 when it
  /// is the bootstrap/snapshot base).
  LogIndex conf_index() const { return conf_index_; }
  const ElectionPolicy& policy() const { return *policy_; }
  ElectionPolicy& mutable_policy() { return *policy_; }
  const NodeCounters& counters() const { return counters_; }
  /// Driver-side write access: NodeDriver records WAL group-commit stats
  /// here so one NodeCounters struct tells the whole batching story.
  NodeCounters& mutable_counters() { return counters_; }
  /// Replication progress toward `peer` (nullptr when not leader or unknown
  /// peer). Test/bench introspection into the pipelining window.
  const Progress* progress(ServerId peer) const {
    const auto it = progress_.find(peer);
    return it == progress_.end() ? nullptr : &it->second;
  }
  /// Configuration clock currently adopted (0 under vanilla Raft).
  ConfClock conf_clock() const { return policy_->current_config().conf_clock; }
  /// True when this leader's lease authorizes zero-message reads at `now`.
  bool lease_valid(TimePoint now) const;
  /// Reads accepted but not yet granted or rejected.
  std::size_t pending_reads() const { return pending_reads_.size(); }
  /// The snapshot this node currently holds in memory (its own latest
  /// compaction, an installed one, or the bootstrapped one); nullptr when
  /// the log was never compacted. This is what InstallSnapshot ships.
  std::shared_ptr<const Snapshot> snapshot() const { return snapshot_; }

 private:
  // Role transitions.
  void become_follower(Term term, ServerId leader, TimePoint now, bool reset_timer);
  void start_campaign(TimePoint now, bool leadership_transfer = false);
  void become_leader(TimePoint now);

  // Message handlers.
  void handle_request_vote(const rpc::RequestVote& m, TimePoint now);
  void handle_request_vote_reply(const rpc::RequestVoteReply& m, TimePoint now);
  void handle_append_entries(const rpc::AppendEntries& m, TimePoint now);
  void handle_append_entries_reply(const rpc::AppendEntriesReply& m, TimePoint now);
  void handle_timeout_now(const rpc::TimeoutNow& m, TimePoint now);
  void handle_install_snapshot(const rpc::InstallSnapshot& m, TimePoint now);
  void handle_install_snapshot_reply(const rpc::InstallSnapshotReply& m, TimePoint now);
  void handle_conf_change_request(ServerId from, const rpc::ConfChangeRequest& m,
                                  TimePoint now);
  /// Shared prologue of the AppendEntries and InstallSnapshot handlers: a
  /// stale leader gets a `Reply` refusal carrying our term; otherwise we
  /// follow `leader` (false only when we lead this very term ourselves).
  template <typename Reply>
  bool accept_leader(Term term, ServerId leader, TimePoint now);
  /// Shared prologue of the reply handlers: a reply from a higher term
  /// deposes this server; otherwise the reply counts only when it is from
  /// our term and we still hold `role`.
  bool accept_reply(Term term, Role role, TimePoint now);
  /// Adopts a leader-shipped ESCAPE configuration when it is fresher than
  /// ours, counting and reporting the adoption. Returns whether it adopted.
  bool adopt_config(const rpc::Configuration& config, TimePoint now);

  // Membership machinery.
  /// Adopts `m` as the membership in force (latest-config-in-log: applied
  /// the moment the conf entry is appended, not committed — dissertation
  /// §4.1). Rebuilds the peer set and leader Progress, re-deals the
  /// election policy's priority pool over the new voter set, and arms or
  /// disarms the election timer as this server's voter status changes.
  void set_membership(rpc::Membership m, LogIndex at, TimePoint now);
  /// Recomputes membership from base + surviving conf entries after a log
  /// truncation or snapshot rebase invalidated conf_index_.
  void rescan_membership(TimePoint now);
  /// Membership as of log index `upto` (base + conf entries <= upto), with
  /// the index of the conf entry it came from (0 = base).
  std::pair<rpc::Membership, LogIndex> membership_at(LogIndex upto) const;
  /// Leader-only: appends Cnew when the joint entry has committed under
  /// both majorities; steps down once Cnew commits without this server.
  void maybe_finish_conf_change(TimePoint now);
  /// True when a majority of every active voter set granted its vote.
  bool votes_win() const;
  /// voter_union(membership_) minus self — who campaigns are addressed to.
  std::vector<ServerId> voter_others() const;
  /// membership_.voters minus self — the destination voter set the patrol
  /// pool re-deals priorities over (old-only voters are being retired and
  /// keep their standing, stale-clock assignments).
  std::vector<ServerId> patrol_others() const;
  bool sole_voter() const {
    return !membership_.joint() && membership_.voters.size() == 1 &&
           membership_.voters[0] == id_;
  }

  // Leader machinery.
  void broadcast_heartbeat_round(TimePoint now);
  void send_append_entries(ServerId peer, bool include_config);
  /// Fills `peer`'s pipelining window: sends batches while the window has
  /// room, the peer is not probing, and backlog remains.
  void maybe_send_appends(ServerId peer);
  /// Log slice starting at `from`, trimmed to max_entries_per_rpc and
  /// max_bytes_per_msg (always at least one entry when any exists).
  std::vector<rpc::LogEntry> gather_entries(LogIndex from) const;
  void send_install_snapshot(ServerId peer);
  void maybe_advance_commit(TimePoint now);

  // Read fast path (leader side).
  void note_round_ack(ServerId peer, std::uint64_t round, TimePoint now);
  void release_ready_reads(TimePoint now);
  /// Completes read `id`: records the grant (ok) or rejection in the Ready
  /// batch, counts it, and emits the matching read event.
  void finish_read(ReadId id, LogIndex read_index, bool ok, bool via_lease, TimePoint now);
  void revoke_lease();
  /// Rejects pending reads, kills the lease, and zeroes the round-tracking
  /// state. Called on every role transition — the read fast path is strictly
  /// per-leadership state.
  void reset_read_state(TimePoint now);

  // Common machinery.
  void arm_election_timer(TimePoint now);
  /// Marks the hard state dirty: the pending Ready batch carries the current
  /// (term, vote, config) for the driver to persist before it sends.
  void persist_state();
  /// Appends `entry` to the in-memory log and records a kAppend op. A
  /// configuration entry takes effect here (latest-config-in-log).
  void append_entry(rpc::LogEntry entry, TimePoint now);
  /// Leader-side: appends a new current-term entry at the log tail and
  /// returns its index. An empty kNormal entry is the no-op barrier (§5.4.2:
  /// committing it commits every inherited prior-term entry transitively).
  LogIndex append_new(rpc::EntryKind kind, std::vector<std::uint8_t> command, TimePoint now);
  /// append_new, then replicate to every peer's window and commit at once
  /// when this server alone is a quorum.
  LogIndex replicate_new(rpc::EntryKind kind, std::vector<std::uint8_t> command, TimePoint now);
  void apply_committed(TimePoint now);
  void send(ServerId to, rpc::Message message);
  void emit(NodeEvent event);
  rpc::ConfigStatus own_status() const;
  SoftState soft_state() const;
  /// Folds any role/leader/term/confClock change since the last drained batch
  /// into ready_.soft_state. Called at the end of every public input.
  void sync_soft_state();
  void assert_inputs_allowed() const;

  // Identity & collaborators.
  const ServerId id_;
  /// Membership in force at the log's base (bootstrap seed, overridden by
  /// the boot/installed snapshot's membership, advanced by compaction).
  rpc::Membership base_membership_;
  /// Membership currently in force: base + the latest conf entry in the log.
  rpc::Membership membership_;
  /// Index of the conf entry membership_ came from (0 = base).
  LogIndex conf_index_ = 0;
  /// Everyone this server replicates to / hears from: all_members minus self.
  std::vector<ServerId> others_;
  std::unique_ptr<ElectionPolicy> policy_;
  Rng rng_;
  const NodeOptions options_;
  /// Hard state recovered by the driver; consumed in start().
  std::optional<HardState> boot_hard_state_;
  /// Configuration carried by the boot-time snapshot; merged with the
  /// persisted configuration in start() so a restored node's confClock never
  /// regresses below the generation its snapshotted state embodies.
  std::optional<rpc::Configuration> snapshot_boot_config_;
  /// Whether the driver can persist snapshots (Bootstrap::can_compact).
  const bool can_compact_;

  // Persistent state (emitted via Ready::hard_state on change).
  Term current_term_ = 0;
  ServerId voted_for_ = kNoServer;

  // Volatile state.
  Role role_ = Role::kFollower;
  ServerId leader_id_ = kNoServer;
  Log log_;
  LogIndex commit_index_ = 0;
  LogIndex last_applied_ = 0;
  /// In-memory copy of the latest snapshot (bootstrapped, self-taken, or
  /// installed). The core never loads it from anywhere: it either arrived in
  /// Bootstrap or was built right here.
  std::shared_ptr<const Snapshot> snapshot_;

  // Candidate state.
  std::set<ServerId> votes_;

  // Leader state.
  std::unordered_map<ServerId, Progress> progress_;
  /// Heartbeat round at which an InstallSnapshot was last shipped per peer;
  /// throttles resends to silent followers (see kSnapshotRetryRounds).
  std::unordered_map<ServerId, std::uint64_t> install_sent_round_;

  // Read fast path (leader volatile state; cleared on every role change).
  struct PendingRead {
    ReadId id = 0;
    LogIndex read_index = 0;        ///< leader commit index when accepted
    std::uint64_t required_round = 0;  ///< round whose quorum ack confirms it
  };
  /// Backpressure cap on pending_reads_ (see submit_read): far above any
  /// healthy batch (a batch drains per confirmation RTT), only reachable
  /// when confirmations stopped entirely.
  static constexpr std::size_t kMaxPendingReads = 1024;
  std::vector<PendingRead> pending_reads_;  ///< in acceptance (= release) order
  std::uint64_t broadcast_round_ = 0;       ///< rounds broadcast this leadership
  std::uint64_t confirmed_round_ = 0;       ///< highest quorum-acked round
  std::unordered_map<ServerId, std::uint64_t> acked_round_;  ///< highest echo per peer
  std::map<std::uint64_t, TimePoint> round_sent_at_;  ///< unconfirmed rounds only
  TimePoint lease_until_ = 0;   ///< lease expiry (0 = no lease)
  ConfClock lease_clock_ = 0;   ///< confClock when granted; advance revokes
  /// Set once transfer_leadership sanctions a rival: the rival's campaign
  /// bypasses the vote-recency guard, so no round confirmed from here on may
  /// grant or extend a lease for the remainder of this leadership.
  bool transfer_pending_ = false;
  ReadId next_read_id_ = 0;
  TimePoint last_leader_contact_ = kNever;  ///< vote-recency guard input
  /// A node restarting with prior persisted state may have acked a lease
  /// round just before crashing — and its fresh incarnation remembers no
  /// leader contact, so without this floor it would grant a rival's vote
  /// inside a lease it helped establish. Votes are refused until this
  /// deadline (one guard window past start()); genuinely new servers (term
  /// 0, empty log) never acked anything and vote immediately.
  TimePoint restart_guard_until_ = 0;

  // Timers (deadlines in virtual time; kNever = disarmed).
  TimePoint election_deadline_ = kNever;
  TimePoint heartbeat_deadline_ = kNever;

  // The pending Ready batch and its lifecycle.
  Ready ready_;
  std::uint64_t next_sequence_ = 0;
  bool ready_in_flight_ = false;  ///< between ready() and advance()
  /// Last soft state handed to a driver; ready() diffs against it.
  SoftState reported_soft_;
  bool soft_reported_once_ = false;

  std::function<void(const NodeEvent&)> event_hook_;

  NodeCounters counters_;
  bool started_ = false;
};

}  // namespace escape::raft
