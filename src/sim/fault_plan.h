// Declarative fault/experiment plans.
//
// A FaultPlan is a typed, virtual-time-stamped schedule of actions — crash or
// recover a node, isolate it, cut links (symmetric or one-way), swap the
// latency model, change the loss rate Δ, transfer leadership, drive client
// traffic, script election timeouts, snapshot/compact a node's log (alone or
// paired with an immediate crash), crash a node and tell the survivors —
// that a PlanRuntime executes
// deterministically on a SimCluster's EventLoop. Scenarios thereby become
// *data*: the paper's drivers (src/sim/scenario.cpp), every bench harness,
// and the named scenarios in the registry (src/sim/scenario_registry.h) all
// compose these actions instead of hand-rolling driving loops.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "raft/election_policy.h"
#include "raft/membership.h"
#include "sim/sim_cluster.h"

namespace escape::sim {

/// Names a server either directly or symbolically; symbolic references are
/// resolved at the virtual time the action executes, so a plan can say
/// "crash whoever leads then" without knowing ids up front.
struct NodeRef {
  enum class Kind : std::uint8_t {
    kId,           ///< a fixed server id
    kLeader,       ///< the cluster's leader at execution time
    kLastCrashed,  ///< the node most recently crashed by this runtime
    kTopFollower,  ///< alive follower with the highest configuration priority
  };
  Kind kind = Kind::kId;
  ServerId server = kNoServer;

  static NodeRef id(ServerId s) { return {Kind::kId, s}; }
  static NodeRef leader() { return {Kind::kLeader, kNoServer}; }
  static NodeRef last_crashed() { return {Kind::kLastCrashed, kNoServer}; }
  static NodeRef top_follower() { return {Kind::kTopFollower, kNoServer}; }
};

// --- action vocabulary -------------------------------------------------------

/// Kills the referenced node. Crashing the *leader* when the cluster is
/// momentarily leaderless defers the crash to the next election: the action
/// fires as soon as a leader emerges (the paper's repeated-crash protocol
/// under loss needs exactly this). Crash-of-leader actions automatically
/// start a measurement episode (see PlanMarker::episode).
struct CrashNode {
  NodeRef node;
};

/// Restarts a crashed node from its durable state. No-op if it is alive.
struct RecoverNode {
  NodeRef node = NodeRef::last_crashed();
};

/// Restarts every crashed node. The robust closer for plans whose crash
/// targets resolve dynamically (a deferred crash-the-leader may fire after
/// its paired RecoverNode already ran).
struct RecoverAll {};

/// Cuts every link touching the node (symmetric partition).
struct IsolateNode {
  NodeRef node;
};

/// Clears a prior IsolateNode on the node. (Pairwise and one-way cuts are
/// separate faults: heal those with HealLink / HealPartial.)
struct HealNode {
  NodeRef node;
};

/// Severs one pairwise link; `bidirectional = false` cuts only a -> b.
struct CutLink {
  NodeRef a;
  NodeRef b;
  bool bidirectional = true;
};

/// Restores one pairwise link (both directions and the one-way direction).
struct HealLink {
  NodeRef a;
  NodeRef b;
};

/// Direction selector for asymmetric node-level partitions.
enum class LinkDirection : std::uint8_t {
  kOutbound,  ///< node -> everyone cut; node still hears the cluster
  kInbound,   ///< everyone -> node cut; node still reaches the cluster
};

/// Cuts one direction of every link touching the node — e.g. a leader whose
/// heartbeats stop arriving while it still receives replies.
struct PartialIsolate {
  NodeRef node;
  LinkDirection direction = LinkDirection::kOutbound;
};

/// Heals all one-way cuts touching the node (both directions).
struct HealPartial {
  NodeRef node;
};

/// Swaps the network latency model; an empty function restores the model the
/// cluster had when the PlanRuntime was created.
struct SwapLatency {
  LatencyFn latency;
};

/// Adds `extra` delay to every message *sent by* the node on top of the
/// current model — a gray, degraded server rather than a dead one.
struct DegradeNode {
  NodeRef node;
  Duration extra = from_ms(3000);
};

/// Drops all latency overrides (SwapLatency and DegradeNode) and restores
/// the baseline model.
struct RestoreLatency {};

/// Changes the loss knobs mid-run: Section VI-D's broadcast receiver-omission
/// fraction Δ and/or the independent per-message drop probability.
struct SetLossRate {
  double broadcast_omission = 0.0;
  double uniform_loss = 0.0;
};

/// Asks the current leader for a proactive handoff (TimeoutNow) to `target`.
/// Best-effort: recorded as a failed marker when there is no leader or the
/// target is not fully caught up.
struct LeaderTransfer {
  NodeRef target = NodeRef::top_follower();
};

/// Submits a small command through whatever leader exists every `interval`
/// for `duration`, event-driven (no blocking loop), so traffic interleaves
/// with every other planned action.
struct TrafficBurst {
  Duration duration;
  Duration interval = from_ms(100);
  std::size_t payload_bytes = 16;
};

/// Open-loop write storm: submits `per_tick` commands through whatever
/// leader exists every `interval` for `duration`, regardless of completions
/// — unlike TrafficBurst's one-at-a-time trickle, this builds real
/// replication backlog. The pressure lever for the batched/pipelined write
/// path: storms racing failover, snapshot catch-up and partitions are where
/// a stale conflict hint or a lost in-flight batch would strand the commit
/// index or diverge a replica.
struct ProposalBurst {
  Duration duration;
  Duration interval = from_ms(20);
  std::size_t per_tick = 8;
  std::size_t payload_bytes = 16;
};

/// Issues a linearizable fast-path read through whatever leader exists every
/// `interval` for `duration` — the read-side twin of TrafficBurst. Reads go
/// through SimCluster::submit_read, so each one lands in the probe ledger
/// and the InvariantChecker audits its grant for staleness; hammering reads
/// across crashes, partitions, transfers and snapshots is how the
/// read-linearizability invariant earns its keep.
struct ClientRead {
  Duration duration;
  Duration interval = from_ms(150);
};

/// Installs (or, with an empty function, clears) a scripted election-timeout
/// override on the node's policy — the Figure-10 forced-competition lever.
struct ScriptTimeout {
  NodeRef node;
  raft::ElectionPolicy::TimeoutOverride script;
};

/// Explicitly starts a measurement episode (for scenarios whose triggering
/// fault is not a leader crash, e.g. a gray leader or a planned handoff).
struct MarkEpisode {
  std::string label;
};

/// Snapshots the node's state machine at its applied index and compacts its
/// log (SimCluster::trigger_snapshot). Recorded as a failed marker when the
/// node is down or nothing new is compactable.
struct TriggerSnapshot {
  NodeRef node = NodeRef::leader();
};

/// Drives the full AddServer workflow for a brand-new server: provisions the
/// host (SimCluster::add_host, unless it already exists — e.g. a replacement
/// scenario pre-staged the machine), proposes kAddLearner through whatever
/// leader exists, waits for the learner to catch up (snapshot or log
/// replication — the core answers kNotCaughtUp until it has), then proposes
/// kPromote and waits for the joint configuration to resolve. Every step
/// retries each `retry_interval` across leaderless gaps, kBusy windows
/// (another change in flight) and leader changes, so joins interleave with
/// arbitrary faults; a "join-complete" marker records when the server is a
/// settled voter.
struct JoinServer {
  ServerId id = kNoServer;
  Duration retry_interval = from_ms(200);
};

/// Drives RemoveServer: proposes kRemove for the node (resolved at execution
/// time, so NodeRef::leader() removes whoever leads then — the retiring-
/// leader path) and retries until the server is out of the configuration,
/// recording a "leave-complete" marker. The host itself stays racked (and
/// keeps ticking, harmlessly non-voting) — crash it separately to model
/// decommissioning.
struct LeaveServer {
  NodeRef node;
  Duration retry_interval = from_ms(200);
};

/// Snapshot immediately followed by a crash of the same node — the
/// compact-to-last-applied-then-restart hazard as one atomic action (a
/// paired RecoverNode/RecoverAll restarts it from the snapshot). Crashing
/// the leader this way opens a measurement episode, as CrashNode does.
struct SnapshotAndCrash {
  NodeRef node = NodeRef::leader();
};

/// Crashes the node as CrashNode does (a leaderless cluster records a failed
/// marker instead of deferring), then tells the survivors, as a real node
/// learns it from a refused dial: one link latency (victim -> member) later,
/// if the victim is still down, every live member whose links with it are
/// up in both directions gets RaftNode::peer_down(victim).
struct CrashNotify {
  NodeRef node = NodeRef::leader();
};

using FaultAction =
    std::variant<CrashNode, RecoverNode, RecoverAll, IsolateNode, HealNode, CutLink,
                 HealLink, PartialIsolate, HealPartial, SwapLatency, DegradeNode,
                 RestoreLatency, SetLossRate, LeaderTransfer, TrafficBurst, ProposalBurst,
                 ClientRead, ScriptTimeout, MarkEpisode, TriggerSnapshot, SnapshotAndCrash,
                 JoinServer, LeaveServer, CrashNotify>;

/// Human-readable tag for traces and markers ("crash", "traffic", ...).
const char* action_name(const FaultAction& action);

/// One scheduled action; `at` is a virtual-time offset from plan install.
struct PlannedAction {
  Duration at = 0;
  FaultAction action;
};

/// An ordered schedule of actions. Build with at()/then(); install with
/// PlanRuntime (or the higher-level ScenarioRunner).
class FaultPlan {
 public:
  /// Schedules `action` at `offset` from plan install. Offsets need not be
  /// monotone; the EventLoop orders execution.
  FaultPlan& at(Duration offset, FaultAction action);

  /// Schedules `action` `delay` after the previously added action.
  FaultPlan& then(Duration delay, FaultAction action);

  bool empty() const { return actions_.empty(); }
  const std::vector<PlannedAction>& actions() const { return actions_; }

  /// Offset of the latest scheduled action (0 for an empty plan). Traffic
  /// bursts extend the span by their duration.
  Duration span() const;

 private:
  std::vector<PlannedAction> actions_;
  Duration cursor_ = 0;
};

/// Execution record: one entry per action actually executed (plus deferred
/// crash-of-leader firings), with the resolved node where applicable.
struct PlanMarker {
  TimePoint at = 0;
  std::string what;
  ServerId node = kNoServer;
  bool ok = true;        ///< false when the action could not apply (e.g. no target)
  bool episode = false;  ///< starts a measured failover episode
  std::string label;     ///< MarkEpisode label, empty otherwise
  /// Size of the cluster's event log when the marker was recorded. Episode
  /// analysis starts here, which disambiguates same-virtual-time ticks: a
  /// deferred crash fires in the tick of the election win that triggered it,
  /// and the victim's own win must not converge the victim's episode.
  std::size_t log_index = 0;
};

/// Installs FaultPlans on a SimCluster and executes their actions at the
/// scheduled virtual times. One runtime can install many plans over a
/// cluster's lifetime (the series protocol installs one per run).
///
/// The runtime is a *scoped guard* for everything it overrides: the latency
/// model, loss knobs, and scripted timeouts are captured at construction and
/// restored by the destructor (or restore_overrides()), so an exception or
/// early return inside a scenario cannot leak a scripted topology into the
/// next run.
class PlanRuntime {
 public:
  explicit PlanRuntime(SimCluster& cluster);
  ~PlanRuntime();

  PlanRuntime(const PlanRuntime&) = delete;
  PlanRuntime& operator=(const PlanRuntime&) = delete;

  /// Schedules every action of `plan` at now() + offset. Returns the virtual
  /// time of the last scheduled action (traffic bursts: their end).
  TimePoint install(const FaultPlan& plan);

  /// Markers for every executed action, in execution order.
  const std::vector<PlanMarker>& markers() const { return markers_; }

  /// Time of the most recent episode-starting marker, or kNever.
  TimePoint last_episode_at() const;

  /// Resets markers, the traffic counter, and any still-pending deferred
  /// crash-of-leader trigger; series protocols call this between runs.
  void clear_markers();

  /// Defuses a crash-the-leader that is still waiting for an election win,
  /// without touching markers. A series run that timed out leaderless must
  /// not let its stale trigger kill the leader elected during the settle
  /// window (which nothing would recover).
  void disarm_deferred_crash();

  /// Commands submitted by TrafficBurst actions since the last clear.
  std::size_t traffic_submitted() const { return traffic_submitted_; }

  /// Fast-path reads issued by ClientRead actions since the last clear.
  std::size_t reads_issued() const { return reads_issued_; }

  /// Node most recently crashed by this runtime (kNoServer if none).
  ServerId last_crashed() const { return last_crashed_; }

  /// Restores everything this runtime overrode: the latency model, loss
  /// knobs, scripted timeouts, and any link faults (isolations, symmetric
  /// and one-way cuts) its plans installed. Idempotent; also run by the
  /// destructor, so an exception mid-scenario cannot leak a scripted
  /// topology into later runs on the same cluster.
  void restore_overrides();

  SimCluster& cluster() { return cluster_; }

 private:
  /// Shared with every closure this runtime schedules on the EventLoop.
  /// `active` is cleared by the destructor, turning closures that outlive
  /// the runtime (pending traffic ticks, a deferred crash) into no-ops.
  struct LiveFlag {
    bool active = true;
    /// Crash-the-leader actions awaiting an election win. A counter, not a
    /// flag: overlapping deferred crashes (churn under slow elections) each
    /// keep their per-action contract instead of silently merging.
    int crashes_pending = 0;
  };

  void execute(const FaultAction& action);
  ServerId resolve(const NodeRef& ref) const;
  void crash_now(ServerId id, bool deferred);
  /// Schedules CrashNotify's peer_down reports about `victim`.
  void notify_down(ServerId victim);
  void apply_latency();
  void traffic_tick(TimePoint end, Duration interval, std::size_t payload_bytes);
  void proposal_tick(TimePoint end, Duration interval, std::size_t per_tick,
                     std::size_t payload_bytes);
  void read_tick(TimePoint end, Duration interval);
  /// One retry of a JoinServer/LeaveServer workflow: takes the next
  /// raft::membership_step, marks completion, or reschedules itself.
  void membership_tick(ServerId id, raft::MembershipGoal goal, Duration interval);

  SimCluster& cluster_;
  NetworkOptions base_options_;  ///< snapshot for scoped restore
  LatencyFn swapped_latency_;    ///< active SwapLatency model (null = baseline)
  std::map<ServerId, Duration> degraded_;
  std::set<ServerId> scripted_;  ///< nodes holding a ScriptTimeout override
  // Link faults installed by this runtime's plans, healed on restore.
  std::set<ServerId> isolated_;
  std::set<std::pair<ServerId, ServerId>> cut_links_;
  std::set<std::pair<ServerId, ServerId>> one_way_cuts_;
  std::vector<PlanMarker> markers_;
  std::size_t traffic_submitted_ = 0;
  std::size_t reads_issued_ = 0;
  ServerId last_crashed_ = kNoServer;
  std::shared_ptr<LiveFlag> live_;
  std::size_t listener_handle_ = 0;
};

}  // namespace escape::sim
