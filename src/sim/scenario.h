// Experiment drivers implementing the paper's measurement protocol, built on
// the declarative scenario engine (sim/fault_plan.h).
//
// Section VI records leader election time from the instant the leader
// crashes to the instant a new leader is elected, split into:
//   detection period — crash .. first candidate appears (first campaign)
//   election period  — first campaign .. new leader elected
//
// ScenarioRunner is the engine every experiment runs on: it installs
// FaultPlans, runs the event loop, and derives per-episode FailoverResults
// from the cluster's event log. A runner either owns its cluster or borrows
// one, so a one-off measurement on an existing cluster is
// `ScenarioRunner(cluster).measure_failover()`. drive_traffic is the one
// free-function driver left: it composes a traffic plan on a temporary
// runner and returns the submission count.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "sim/fault_plan.h"
#include "sim/sim_cluster.h"

namespace escape::sim {

/// Outcome of one leader-failure experiment.
struct FailoverResult {
  bool converged = false;
  Duration detection = 0;       ///< crash -> first campaign
  Duration election = 0;        ///< first campaign -> new leader
  Duration total = 0;           ///< crash -> new leader
  std::size_t campaigns = 0;    ///< election campaigns started in the window
  ServerId new_leader = kNoServer;
  Term new_term = 0;
};

/// Canonical one-line rendering of a NodeEvent; identical seeds yield
/// identical lines, so a vector of them is the determinism fingerprint the
/// scenario tests compare.
std::string trace_line(const raft::NodeEvent& event);

/// Measures one failover episode from an event log: the first kBecameLeader
/// in the closed window [start, end] converges the episode (a win dispatched
/// in the same virtual-time tick as the fault counts); campaigns are counted
/// from `start` to the election (or to `end` when unconverged). Only events
/// at positions [begin_index, end_index) are considered — episode markers
/// record their log position so same-tick events *preceding* the fault
/// (e.g. the election win that triggered a deferred crash) are excluded.
FailoverResult analyze_window(const std::vector<raft::NodeEvent>& log, TimePoint start,
                              TimePoint end, std::size_t begin_index = 0,
                              std::size_t end_index = static_cast<std::size_t>(-1));

/// Derives one FailoverResult per episode marker: episode i spans from its
/// marker to the next episode marker (or the end of the log).
std::vector<FailoverResult> analyze_episodes(const std::vector<raft::NodeEvent>& log,
                                             const std::vector<PlanMarker>& markers);

/// Cold-starts the cluster: runs until the first leader emerges, then lets
/// the system settle (heartbeats propagate, ESCAPE patrol rounds assign
/// configurations). Returns the leader id, or kNoServer on timeout.
ServerId bootstrap(SimCluster& cluster, Duration max_wait = from_ms(60'000),
                   Duration settle = from_ms(3'000));

/// Tuning for the forced-competition experiment (Figure 10).
struct CompetitionOptions {
  /// Number of forced phases with competing candidates (0..3 in the paper).
  int phases = 0;
  /// Scripted timeout for each contested phase is sampled from
  /// [phase_timeout_lo, phase_timeout_hi] and *shared* by both rivals so
  /// their campaigns collide within one network latency.
  Duration phase_timeout_lo = from_ms(1500);
  Duration phase_timeout_hi = from_ms(1700);
  /// Extra delay added to the losing rival's final timeout so the winning
  /// rival completes the decisive campaign uncontested.
  Duration divergence = from_ms(1200);
  /// Timeout pinned on non-rival followers so they only vote.
  Duration bystander_timeout = from_ms(120'000);
  /// Virtual time to keep running after installing the scripts so every
  /// follower re-arms its timer with a scripted value before the crash.
  Duration rearm_window = from_ms(1'500);
  /// To make each contested phase split deterministically, every bystander
  /// is assigned a "favorite" rival whose messages reach it with
  /// `favored_latency` while the other rival's take `unfavored_latency`
  /// (the geo-group effect of Section II-B). The gap must exceed the rivals'
  /// campaign-start skew (one network latency) so favorites never flip.
  Duration favored_latency = from_ms(100);
  Duration unfavored_latency = from_ms(400);
  /// Timer arms within this window after the crash are treated as pre-crash:
  /// they come from heartbeats that were already in flight when the leader
  /// died and must not consume scripted phase timeouts.
  Duration inflight_grace = from_ms(300);
};

/// The paper's Section VI measurement protocol: on one long-lived cluster,
/// repeatedly (1) serve client traffic, (2) crash the leader and record the
/// election, (3) recover the crashed server and let the system settle.
struct SeriesOptions {
  std::size_t runs = 100;
  Duration traffic_window = from_ms(3'000);   ///< client load before each crash
  Duration traffic_interval = from_ms(100);   ///< submission period
  Duration settle = from_ms(2'000);           ///< recovery settle between runs
  Duration max_wait = from_ms(120'000);       ///< per-election timeout
};

/// Drives a SimCluster through declarative FaultPlans and measures the
/// resulting failover episodes. Owns the cluster when constructed from
/// ClusterOptions, or borrows an existing one.
///
/// Every override a plan installs (latency, loss, scripted timeouts) is
/// scoped to the runner's PlanRuntime and restored on destruction, so an
/// exception mid-scenario cannot leak a scripted topology into later runs.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ClusterOptions options);
  explicit ScenarioRunner(SimCluster& cluster);

  SimCluster& cluster() { return cluster_; }
  const SimCluster& cluster() const { return cluster_; }
  EventLoop& loop() { return cluster_.loop(); }
  PlanRuntime& runtime() { return runtime_; }

  /// Cold-starts the cluster (see sim::bootstrap).
  ServerId bootstrap(Duration max_wait = from_ms(60'000), Duration settle = from_ms(3'000));

  /// Installs `plan` and runs the loop until every action (and `drain` more
  /// virtual time) has elapsed. Time-bounded, hence fully deterministic.
  void run_plan(const FaultPlan& plan, Duration drain = 0);

  /// Installs `plan`, runs until the first measurement episode it opens has
  /// elected a leader, and returns that episode's measurement. `max_wait` is
  /// the election budget measured from the episode start (the paper's
  /// per-election timeout): the run is bounded by plan span + max_wait from
  /// install, extended to episode start + max_wait when the triggering
  /// fault fires late (a deferred crash-the-leader).
  FailoverResult run_failover_plan(const FaultPlan& plan, Duration max_wait);

  /// Crashes the current leader and measures recovery per the paper's
  /// protocol. The cluster must have a leader.
  FailoverResult measure_failover(Duration max_wait = from_ms(60'000));

  /// Forces `options.phases` rounds of simultaneous candidate timeouts after
  /// crashing the leader, then measures recovery (Figure 10). Under Raft each
  /// forced round yields a split vote; under ESCAPE/Z-Raft the
  /// priority-scattered terms resolve the very first round (Section VI-C).
  FailoverResult measure_competition(const CompetitionOptions& options,
                                     Duration max_wait = from_ms(120'000));

  /// Runs `options.runs` crash-recover cycles (bootstrapping first if needed)
  /// and returns one FailoverResult per cycle; unconverged entries are kept
  /// so callers can count them. Returns empty when bootstrap fails.
  std::vector<FailoverResult> run_series(const SeriesOptions& options);

  /// Per-episode measurements for the markers recorded since the last
  /// clear, derived from the cluster's event log.
  std::vector<FailoverResult> episodes() const;

  /// Canonical textual trace of every recorded NodeEvent (determinism key).
  std::vector<std::string> trace() const;

 private:
  FailoverResult run_failover_plan_on(PlanRuntime& runtime, const FaultPlan& plan,
                                      Duration max_wait);

  std::unique_ptr<SimCluster> owned_;
  SimCluster& cluster_;
  PlanRuntime runtime_;
};

/// Submits a small command through whatever leader exists every `interval`
/// for `duration` of virtual time (a scoped TrafficBurst plan). Under message
/// loss this keeps follower logs unevenly replicated — the precondition for
/// Section VI-D's "unqualified candidate" dynamics. Returns the number of
/// submissions.
std::size_t drive_traffic(SimCluster& cluster, Duration duration, Duration interval,
                          std::size_t payload_bytes = 16);

}  // namespace escape::sim
