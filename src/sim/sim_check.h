// SimCheck: randomized scenario fuzzing for the simulator.
//
// The registry's hand-written scenarios only exercise the fault schedules we
// thought to write. SimCheck composes *legal* random FaultPlans from the
// full action vocabulary — crashes (direct and crash-the-leader, and
// crash-notify, which also reports the death to the survivors), symmetric
// and one-way link cuts, partial isolation, node degradation, loss-rate
// storms, planned leadership transfers, traffic bursts, snapshot actions,
// linearizable read storms (client-read) — runs each
// under the InvariantChecker (listeners during the run, deep_check() at
// quiescence), and replays the trial to verify same-seed trace determinism.
//
// Every trial is a pure function of one scenario seed: cluster size, policy,
// baseline loss, cluster RNG seed, and the whole fault schedule all derive
// from it. A violation therefore reproduces from the seed alone, and
// SimCheck reports the one-line repro command (`sim_check --scenario-seed N`)
// for every failure. Trials fan out over sim::TrialPool, so a thousand-trial
// fuzz run costs wall-clock time of trials/threads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/scenario_registry.h"

namespace escape::sim {

/// Generation and execution knobs. The defaults define the repro contract:
/// `sim_check --scenario-seed N` regenerates a trial bit-exactly only under
/// the same generation knobs, so CI and the CLI stick to the defaults.
struct SimCheckOptions {
  std::size_t trials = 100;
  std::uint64_t root_seed = 0xE5CA9Eull;  ///< trial i uses stream_seed(root, i)
  std::size_t threads = 0;                ///< 0 = TrialPool::default_threads()
  std::size_t min_servers = 3;
  std::size_t max_servers = 7;
  std::size_t max_faults = 8;        ///< fault actions sampled per plan
  Duration drain = from_ms(20'000);  ///< run-out after the last planned action
  bool check_determinism = true;     ///< replay every trial, compare traces
  bool announce_failures = true;     ///< print repro lines to stderr when found
  /// Per-action sampling-weight overrides, keyed by the names in
  /// default_action_weights(); entries replace the default weight (0 retires
  /// an action from the vocabulary). Non-default weights change the
  /// seed -> schedule mapping, so repro lines must quote the same --actions.
  std::map<std::string, int> action_weights;
};

/// The fuzz vocabulary's default sampling weights, keyed by action name
/// ("crash", "cut-link", ..., "snapshot", "snapshot-crash"). The CLI's
/// --actions flag validates its overrides against these keys.
const std::map<std::string, int>& default_action_weights();

/// Sum of the effective weights after applying `overrides` to the defaults
/// (negative overrides clamp to 0). A total of 0 retires every action
/// family — make_fuzz_case rejects it, and callers validating user input
/// should too, with the same arithmetic.
int effective_action_weight_total(const std::map<std::string, int>& overrides);

/// Everything one fuzzed trial is built from, derived purely from
/// `scenario_seed` (see make_fuzz_case).
struct FuzzCase {
  std::uint64_t scenario_seed = 0;
  ScenarioParams params;  ///< servers / policy / baseline loss / cluster seed
  FaultPlan plan;
};

/// The full record of one failing trial.
struct SimCheckFailure {
  std::uint64_t scenario_seed = 0;
  std::string policy;
  std::size_t servers = 0;
  bool bootstrapped = true;     ///< false: no leader before any fault fired
  bool trace_diverged = false;  ///< same-seed replay produced a different trace
  std::vector<std::string> violations;  ///< invariant violations (live + deep)
  std::string repro;                    ///< one-line repro command
};

/// Aggregate over a fuzz run; counters are summed in trial-index order, so
/// the whole struct is identical across thread counts.
struct SimCheckResult {
  std::size_t trials = 0;
  std::size_t executed_actions = 0;    ///< plan actions the runtimes executed
  std::size_t episodes = 0;            ///< measured failover episodes
  std::size_t converged_episodes = 0;  ///< episodes that elected a leader
  std::size_t traffic_submitted = 0;   ///< client commands across all trials
  /// Scheduled plan actions by name across every trial (closing-sweep heals
  /// included) — the coverage evidence that each vocabulary family actually
  /// ran; CI prints it so a silently retired action is visible in the log.
  std::map<std::string, std::size_t> action_histogram;
  std::vector<SimCheckFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Derives the complete fuzz case for `scenario_seed`: cluster shape, policy,
/// baseline loss, cluster seed, and a legal fault schedule (crashes never
/// exceed a minority at plan-construction time, every fault is healed and
/// every server recovered before the drain, so deep_check() runs against a
/// whole cluster).
FuzzCase make_fuzz_case(std::uint64_t scenario_seed, const SimCheckOptions& options = {});

/// One-line renderings of a plan's schedule ("2200ms crash(leader)"), for
/// the CLI's verbose repro output.
std::vector<std::string> describe_plan(const FaultPlan& plan);

/// Runs the single trial for `scenario_seed` (generation + execution +
/// optional determinism replay) and returns the scenario report of the first
/// execution. `failure`, when non-null, receives the failure record (and is
/// left untouched for a passing trial).
ScenarioReport run_fuzz_trial(std::uint64_t scenario_seed, const SimCheckOptions& options,
                              SimCheckFailure* failure = nullptr);

/// The fuzzer: `options.trials` independent trials over a TrialPool.
/// Deterministic in (root_seed, trials, generation knobs) — thread count
/// changes wall-clock only.
SimCheckResult run_sim_check(const SimCheckOptions& options = {});

}  // namespace escape::sim
