#include "sim/sim_check.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/trial_pool.h"

namespace escape::sim {

namespace {

// Action weights for the fuzz vocabulary. Crashes dominate (they are the
// paper's subject and the only episode openers), but every fault family —
// including the snapshot pair — keeps enough mass that a few hundred trials
// cover the whole vocabulary.
enum class FuzzAction : int {
  kCrash = 0,
  kCutLink,
  kPartialIsolate,
  kIsolate,
  kDegrade,
  kLossStorm,
  kTransfer,
  kBurst,
  kProposalBurst,
  kSnapshot,
  kSnapshotCrash,
  kClientRead,
  kJoinServer,
  kLeaveServer,
  kCrashNotify,
  kCount,
};

constexpr std::size_t kFuzzActionCount = static_cast<std::size_t>(FuzzAction::kCount);

/// Name + default weight per FuzzAction, in enum order.
struct ActionSpec {
  const char* name;
  int weight;
};
// The membership pair and crash-notify default to weight 0: a zero weight
// draws no RNG and adds nothing to the weight total, so every older scenario
// seed still maps to the byte-identical schedule (the repro contract). CI's
// dedicated passes opt in with --actions join-server=N,... and
// --actions crash-notify=N,...
constexpr ActionSpec kActionSpecs[] = {
    {"crash", 30},   {"cut-link", 12}, {"partial-isolate", 12}, {"isolate", 8},
    {"degrade", 10}, {"loss-storm", 10}, {"transfer", 8},       {"burst", 10},
    {"proposal-burst", 12}, {"snapshot", 12}, {"snapshot-crash", 8}, {"client-read", 14},
    {"join-server", 0}, {"leave-server", 0}, {"crash-notify", 0},
};
static_assert(std::size(kActionSpecs) == kFuzzActionCount,
              "every FuzzAction needs a name + default weight row");

/// Default weights with `overrides` applied (unknown keys are ignored here;
/// the CLI validates them against default_action_weights()). A fully zeroed
/// table is a misconfiguration, not a request to fuzz nothing — honoring the
/// "=0 retires a family" contract means never silently substituting one.
std::array<int, kFuzzActionCount> resolve_weights(
    const std::map<std::string, int>& overrides) {
  if (effective_action_weight_total(overrides) <= 0) {
    throw std::invalid_argument("SimCheck: every action weight is zero");
  }
  std::array<int, kFuzzActionCount> weights{};
  for (std::size_t i = 0; i < kFuzzActionCount; ++i) {
    const auto it = overrides.find(kActionSpecs[i].name);
    weights[i] = it == overrides.end() ? kActionSpecs[i].weight : std::max(0, it->second);
  }
  return weights;
}

FuzzAction pick_action(Rng& rng, const std::array<int, kFuzzActionCount>& weights) {
  int total = 0;
  for (int w : weights) total += w;
  std::int64_t roll = rng.uniform_int(0, total - 1);  // total > 0 by resolve_weights
  for (std::size_t i = 0;; ++i) {
    roll -= weights[i];
    if (roll < 0) return static_cast<FuzzAction>(i);
  }
}

Duration ms_between(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return from_ms(rng.uniform_int(lo, hi));
}

}  // namespace

const std::map<std::string, int>& default_action_weights() {
  static const std::map<std::string, int> weights = [] {
    std::map<std::string, int> m;
    for (const auto& spec : kActionSpecs) m.emplace(spec.name, spec.weight);
    return m;
  }();
  return weights;
}

int effective_action_weight_total(const std::map<std::string, int>& overrides) {
  int total = 0;
  for (const auto& spec : kActionSpecs) {
    const auto it = overrides.find(spec.name);
    total += it == overrides.end() ? spec.weight : std::max(0, it->second);
  }
  return total;
}

FuzzCase make_fuzz_case(std::uint64_t scenario_seed, const SimCheckOptions& options) {
  FuzzCase c;
  c.scenario_seed = scenario_seed;
  Rng rng(scenario_seed);

  const auto n = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(options.min_servers),
      static_cast<std::int64_t>(options.max_servers)));
  c.params.servers = n;
  // Bias toward the paper's policy; Z-Raft and Raft keep the invariants
  // honest on the non-ESCAPE paths too.
  static const char* kPolicies[] = {"escape", "escape", "zraft", "raft"};
  c.params.policy = kPolicies[rng.uniform_int(0, 3)];
  static constexpr double kBaselineLoss[] = {0.0, 0.0, 0.1, 0.2};
  c.params.broadcast_omission = kBaselineLoss[rng.uniform_int(0, 3)];
  // Half the trials run with automatic compaction so snapshots interleave
  // with every other fault family even when no snapshot action is drawn; the
  // thresholds are small enough that sustained background traffic crosses
  // them several times per trial.
  static constexpr LogIndex kSnapshotIntervals[] = {0, 0, 40, 80};
  c.params.snapshot_interval = kSnapshotIntervals[rng.uniform_int(0, 3)];
  c.params.seed = rng.next_u64();

  // --- compose a legal schedule -------------------------------------------
  // Legality at plan-construction time: concurrently scheduled crashes +
  // isolations never reach a quorum of servers, every link fault and
  // latency/loss override is healed, and every server is recovered before
  // the drain — so quiescence is a whole, connected cluster and deep_check
  // verifies a state every server participates in. (A crash-the-leader that
  // defers past its RecoverAll can briefly exceed the budget; the safety
  // invariants do not depend on liveness, and the closing sweep recovers
  // stragglers.)
  FaultPlan& plan = c.plan;
  const auto weights = resolve_weights(options.action_weights);
  const auto fault_budget = static_cast<std::size_t>((n - 1) / 2);
  const std::size_t action_count = static_cast<std::size_t>(
      rng.uniform_int(3, static_cast<std::int64_t>(std::max<std::size_t>(options.max_faults, 3))));

  Duration t = 0;
  std::size_t crashed_down = 0;          // outstanding crash schedules
  std::vector<Duration> crash_repairs;   // times of scheduled per-crash recoveries
  std::size_t isolated_down = 0;         // outstanding symmetric isolations
  std::vector<Duration> isolate_heals;   // times of scheduled HealNode actions
  std::vector<std::pair<ServerId, ServerId>> cut_pairs;  // symmetric cuts
  bool used_one_way = false;             // one-way cuts / partial isolations
  bool touched_latency = false;
  bool touched_loss = false;
  // Joined-but-not-yet-left server ids. Joins mint fresh ids above the seed
  // range (crash/isolate targeting stays on 1..n, so the quorum budget
  // arithmetic — computed against the seed voter count — remains a
  // conservative bound as the voter set grows); leaves only ever target an
  // outstanding joined id, never a seed voter.
  std::vector<ServerId> joined_live;
  auto next_join = static_cast<ServerId>(n) + 1;

  auto random_server = [&] {
    return static_cast<ServerId>(rng.uniform_int(1, static_cast<std::int64_t>(n)));
  };

  // Background client traffic for the whole fuzz window: under faults this
  // keeps follower logs unevenly replicated, which is what gives the
  // log-matching and state-machine invariants something to bite on.
  const Duration traffic_interval = ms_between(rng, 80, 250);

  for (std::size_t k = 0; k < action_count; ++k) {
    t += ms_between(rng, 400, 2'800);
    // Credit repairs that are scheduled at or before the new action time.
    for (auto it = crash_repairs.begin(); it != crash_repairs.end();) {
      if (*it <= t) {
        if (crashed_down > 0) --crashed_down;
        it = crash_repairs.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = isolate_heals.begin(); it != isolate_heals.end();) {
      if (*it <= t) {
        if (isolated_down > 0) --isolated_down;
        it = isolate_heals.erase(it);
      } else {
        ++it;
      }
    }

    const FuzzAction action = pick_action(rng, weights);
    switch (action) {
      case FuzzAction::kCrash:
      case FuzzAction::kCrashNotify: {
        if (crashed_down + isolated_down >= fault_budget) break;  // keep quorum
        // The leader is the interesting victim (it opens a measurement
        // episode and may defer); direct ids probe follower crashes. Each
        // crash pairs with a *targeted* recovery so overlapping crashes keep
        // independent down-windows and the multi-node-down budget actually
        // gets sustained exercise. A leader crash's victim is unknown until
        // it fires, so its repair is best-effort (last_crashed may point at
        // a newer victim by then); the closing sweeps revive stragglers.
        // crash-notify also tells the survivors (RaftNode::peer_down), so
        // the victim's followers skip the detection wait.
        const bool leader = rng.chance(0.6);
        const ServerId direct = random_server();
        const NodeRef victim = leader ? NodeRef::leader() : NodeRef::id(direct);
        if (action == FuzzAction::kCrash) {
          plan.at(t, CrashNode{victim});
        } else {
          plan.at(t, CrashNotify{victim});
        }
        ++crashed_down;
        const Duration up = t + ms_between(rng, 2'500, 8'000);
        plan.at(up, RecoverNode{leader ? NodeRef::last_crashed() : NodeRef::id(direct)});
        crash_repairs.push_back(up);
        break;
      }
      case FuzzAction::kCutLink: {
        const ServerId a = random_server();
        ServerId b = random_server();
        if (a == b) b = (b % static_cast<ServerId>(n)) + 1;
        const bool bidirectional = rng.chance(0.5);
        plan.at(t, CutLink{NodeRef::id(a), NodeRef::id(b), bidirectional});
        if (bidirectional) {
          cut_pairs.emplace_back(a, b);
        } else {
          used_one_way = true;
        }
        plan.at(t + ms_between(rng, 1'500, 6'000), HealLink{NodeRef::id(a), NodeRef::id(b)});
        break;
      }
      case FuzzAction::kPartialIsolate: {
        // Id-targeted so the paired heal always reaches the same victim; a
        // closing HealPartial sweep covers every node regardless.
        const ServerId victim = random_server();
        const auto direction =
            rng.chance(0.5) ? LinkDirection::kOutbound : LinkDirection::kInbound;
        plan.at(t, PartialIsolate{NodeRef::id(victim), direction});
        used_one_way = true;
        plan.at(t + ms_between(rng, 2'000, 7'000), HealPartial{NodeRef::id(victim)});
        break;
      }
      case FuzzAction::kIsolate: {
        if (crashed_down + isolated_down >= fault_budget) break;  // keep quorum
        const ServerId victim = random_server();
        plan.at(t, IsolateNode{NodeRef::id(victim)});
        ++isolated_down;
        const Duration heal = t + ms_between(rng, 1'500, 5'000);
        plan.at(heal, HealNode{NodeRef::id(victim)});
        isolate_heals.push_back(heal);
        break;
      }
      case FuzzAction::kDegrade: {
        const bool leader = rng.chance(0.5);
        plan.at(t, DegradeNode{leader ? NodeRef::leader() : NodeRef::id(random_server()),
                               ms_between(rng, 1'000, 5'000)});
        touched_latency = true;
        break;
      }
      case FuzzAction::kLossStorm: {
        plan.at(t, SetLossRate{rng.uniform_real(0.0, 0.4), rng.uniform_real(0.0, 0.15)});
        touched_loss = true;
        break;
      }
      case FuzzAction::kTransfer: {
        plan.at(t, LeaderTransfer{rng.chance(0.7) ? NodeRef::top_follower()
                                                  : NodeRef::id(random_server())});
        break;
      }
      case FuzzAction::kBurst: {
        plan.at(t, TrafficBurst{ms_between(rng, 1'000, 5'000), ms_between(rng, 50, 250)});
        break;
      }
      case FuzzAction::kProposalBurst: {
        // Open-loop write storm racing whatever faults surround it: the
        // leader builds real replication backlog, so failover, snapshot
        // catch-up and partitions land mid-pipeline — where a stale conflict
        // hint or a lost in-flight batch would strand the commit index or
        // diverge a replica (both audited at quiescence by deep_check).
        plan.at(t, ProposalBurst{ms_between(rng, 1'000, 4'000), ms_between(rng, 10, 60),
                                 static_cast<std::size_t>(rng.uniform_int(2, 16))});
        break;
      }
      case FuzzAction::kClientRead: {
        // A read storm overlapping whatever faults surround it: every grant
        // is audited by the read-linearizability invariant, so a lease
        // served stale across a crash/partition/transfer shows up as a
        // violation with a one-line repro.
        plan.at(t, ClientRead{ms_between(rng, 1'500, 6'000), ms_between(rng, 80, 350)});
        break;
      }
      case FuzzAction::kSnapshot: {
        // Compacting the leader is what forces InstallSnapshot catch-up on
        // anyone who falls behind later; follower snapshots probe the
        // restart-from-own-snapshot path.
        const bool leader = rng.chance(0.6);
        plan.at(t, TriggerSnapshot{leader ? NodeRef::leader() : NodeRef::id(random_server())});
        break;
      }
      case FuzzAction::kSnapshotCrash: {
        if (crashed_down + isolated_down >= fault_budget) break;  // keep quorum
        // Compact-then-die: the victim restarts from the snapshot it just
        // took. Same budget and targeted-recovery pairing as kCrash.
        const bool leader = rng.chance(0.5);
        const ServerId direct = random_server();
        plan.at(t, SnapshotAndCrash{leader ? NodeRef::leader() : NodeRef::id(direct)});
        ++crashed_down;
        const Duration up = t + ms_between(rng, 2'500, 8'000);
        plan.at(up, RecoverNode{leader ? NodeRef::last_crashed() : NodeRef::id(direct)});
        crash_repairs.push_back(up);
        break;
      }
      case FuzzAction::kJoinServer: {
        // Full AddServer workflow (provision, learner catch-up, promote)
        // racing whatever faults surround it; the retry loop rides through
        // leaderless gaps and kBusy windows on its own.
        plan.at(t, JoinServer{next_join});
        joined_live.push_back(next_join);
        ++next_join;
        break;
      }
      case FuzzAction::kLeaveServer: {
        if (joined_live.empty()) break;  // nothing legally removable yet
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(joined_live.size()) - 1));
        plan.at(t, LeaveServer{NodeRef::id(joined_live[idx])});
        joined_live.erase(joined_live.begin() + static_cast<std::ptrdiff_t>(idx));
        break;
      }
      case FuzzAction::kCount:
        break;  // unreachable
    }
  }

  // Closing sweep: restore the baseline world so the drain runs on a whole
  // cluster. A second RecoverAll mid-drain picks up any crash-the-leader
  // that deferred past the first sweep.
  const Duration t_end = t + ms_between(rng, 1'000, 3'000);
  plan.at(t_end, RecoverAll{});
  for (const auto& [a, b] : cut_pairs) {
    plan.at(t_end, HealLink{NodeRef::id(a), NodeRef::id(b)});
  }
  if (used_one_way) {
    for (ServerId id = 1; id <= static_cast<ServerId>(n); ++id) {
      plan.at(t_end, HealPartial{NodeRef::id(id)});
    }
  }
  if (touched_latency) plan.at(t_end, RestoreLatency{});
  if (touched_loss) plan.at(t_end, SetLossRate{c.params.broadcast_omission, 0.0});
  plan.at(0, TrafficBurst{t_end, traffic_interval});
  plan.at(t_end + options.drain / 2, RecoverAll{});
  return c;
}

std::vector<std::string> describe_plan(const FaultPlan& plan) {
  // Stable sort by time so same-instant actions (the closing sweep) keep
  // their deterministic insertion order in the repro output.
  std::vector<PlannedAction> ordered = plan.actions();
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const PlannedAction& a, const PlannedAction& b) { return a.at < b.at; });
  std::vector<std::string> lines;
  lines.reserve(ordered.size());
  for (const auto& planned : ordered) {
    lines.push_back(std::to_string(to_ms(planned.at)) + "ms " + action_name(planned.action));
  }
  return lines;
}

ScenarioReport run_fuzz_trial(std::uint64_t scenario_seed, const SimCheckOptions& options,
                              SimCheckFailure* failure) {
  const FuzzCase fuzz = make_fuzz_case(scenario_seed, options);

  ScenarioSpec spec;
  spec.name = "simcheck-" + std::to_string(scenario_seed);
  spec.description = "randomized fault schedule";
  spec.plan = [&fuzz](SimCluster&, const ScenarioParams&) { return fuzz.plan; };
  spec.drain = options.drain;
  spec.min_servers = fuzz.params.servers;

  ScenarioReport report = run_scenario(spec, fuzz.params);
  bool diverged = false;
  if (options.check_determinism) {
    const ScenarioReport replay = run_scenario(spec, fuzz.params);
    diverged = replay.trace != report.trace;
  }

  if ((!report.bootstrapped || !report.safety_ok() || diverged) && failure) {
    failure->scenario_seed = scenario_seed;
    failure->policy = fuzz.params.policy;
    failure->servers = fuzz.params.servers;
    failure->bootstrapped = report.bootstrapped;
    failure->trace_diverged = diverged;
    failure->violations = report.violations;
    failure->repro = "sim_check --scenario-seed " + std::to_string(scenario_seed);
    // Weight overrides redefine the seed -> schedule mapping; a repro line
    // that omitted them would regenerate a different trial and "pass".
    if (!options.action_weights.empty()) {
      std::string spec;
      for (const auto& [name, weight] : options.action_weights) {
        spec += (spec.empty() ? "" : ",") + name + "=" + std::to_string(weight);
      }
      failure->repro += " --actions " + spec;
    }
  }
  return report;
}

SimCheckResult run_sim_check(const SimCheckOptions& options) {
  struct TrialSummary {
    std::size_t executed_actions = 0;
    std::size_t episodes = 0;
    std::size_t converged = 0;
    std::size_t traffic = 0;
    std::map<std::string, std::size_t> histogram;
    bool failed = false;
    SimCheckFailure failure;
  };

  TrialPool pool(options.threads);
  const std::vector<TrialSummary> summaries = pool.map_seeded<TrialSummary>(
      options.trials, options.root_seed, [&](std::size_t, std::uint64_t seed) {
        TrialSummary s;
        // Regenerating the case for the histogram is cheap (plan synthesis
        // is RNG arithmetic, no simulation) and keeps run_fuzz_trial's
        // signature focused on the verdict.
        const FuzzCase fuzz = make_fuzz_case(seed, options);
        for (const auto& planned : fuzz.plan.actions()) {
          ++s.histogram[action_name(planned.action)];
        }
        SimCheckFailure failure;  // failure.repro stays empty for a passing trial
        const ScenarioReport report = run_fuzz_trial(seed, options, &failure);
        s.executed_actions = report.executed_actions;
        s.episodes = report.episodes.size();
        for (const auto& e : report.episodes) {
          if (e.converged) ++s.converged;
        }
        s.traffic = report.traffic_submitted;
        if (!failure.repro.empty()) {
          s.failed = true;
          s.failure = failure;
          if (options.announce_failures) {
            // One buffered write per failure: concurrent workers must not
            // interleave a repro line with another seed's violation detail.
            std::string msg = "SimCheck violation (seed " + std::to_string(seed) + ", " +
                              failure.policy + ", " + std::to_string(failure.servers) +
                              " servers)" +
                              (failure.trace_diverged ? " [trace diverged]" : "") +
                              "; repro: " + failure.repro + "\n";
            for (const auto& v : failure.violations) msg += "  violation: " + v + "\n";
            std::fputs(msg.c_str(), stderr);
          }
        }
        return s;
      });

  SimCheckResult result;
  result.trials = options.trials;
  for (const auto& s : summaries) {  // trial-index order: thread-count invariant
    result.executed_actions += s.executed_actions;
    result.episodes += s.episodes;
    result.converged_episodes += s.converged;
    result.traffic_submitted += s.traffic;
    for (const auto& [name, count] : s.histogram) result.action_histogram[name] += count;
    if (s.failed) result.failures.push_back(s.failure);
  }
  return result;
}

}  // namespace escape::sim
