// Tests for SimCheck, the randomized scenario fuzzer: fuzz cases derive
// purely from their scenario seed, generated plans are legal (quorum kept,
// everything healed), a bounded fuzz run holds every invariant, and the
// aggregate result is bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <variant>

#include "sim/presets.h"
#include "sim/sim_check.h"

namespace escape {
namespace {

using sim::FuzzCase;
using sim::SimCheckOptions;
using sim::SimCheckResult;
using sim::make_fuzz_case;

SimCheckOptions small_options() {
  SimCheckOptions o;
  o.trials = 10;
  o.root_seed = 0x51AC4EC;
  o.threads = 2;
  o.announce_failures = false;
  return o;
}

TEST(SimCheckTest, FuzzCaseIsAPureFunctionOfTheSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 0xFEEDull}) {
    const FuzzCase a = make_fuzz_case(seed);
    const FuzzCase b = make_fuzz_case(seed);
    EXPECT_EQ(a.params.servers, b.params.servers);
    EXPECT_EQ(a.params.policy, b.params.policy);
    EXPECT_EQ(a.params.seed, b.params.seed);
    EXPECT_EQ(a.plan.actions().size(), b.plan.actions().size());
    EXPECT_EQ(sim::describe_plan(a.plan), sim::describe_plan(b.plan));
  }
  EXPECT_NE(sim::describe_plan(make_fuzz_case(1).plan),
            sim::describe_plan(make_fuzz_case(2).plan));
}

TEST(SimCheckTest, GeneratedPlansStayLegal) {
  // Across many seeds: cluster shape within bounds, every crash paired with
  // its own targeted recovery, and the world restored — the final planned
  // instant recovers everyone, and loss/latency overrides are cleared
  // whenever they were touched.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const FuzzCase c = make_fuzz_case(seed);
    ASSERT_GE(c.params.servers, 3u) << seed;
    ASSERT_LE(c.params.servers, 7u) << seed;
    ASSERT_TRUE(c.params.policy == "escape" || c.params.policy == "zraft" ||
                c.params.policy == "raft")
        << seed;
    std::size_t crashes = 0, recovers = 0, recover_alls = 0, loss_sets = 0, degrades = 0,
                restore_latency = 0;
    Duration last_recover_all = -1;
    for (const auto& planned : c.plan.actions()) {
      // SnapshotAndCrash is a crash for pairing purposes: it downs its
      // target and draws the same targeted recovery as CrashNode.
      if (std::holds_alternative<sim::CrashNode>(planned.action) ||
          std::holds_alternative<sim::SnapshotAndCrash>(planned.action)) {
        ++crashes;
      }
      if (std::holds_alternative<sim::RecoverNode>(planned.action)) ++recovers;
      if (std::holds_alternative<sim::RecoverAll>(planned.action)) {
        ++recover_alls;
        last_recover_all = std::max(last_recover_all, planned.at);
      }
      if (std::holds_alternative<sim::SetLossRate>(planned.action)) ++loss_sets;
      if (std::holds_alternative<sim::DegradeNode>(planned.action)) ++degrades;
      if (std::holds_alternative<sim::RestoreLatency>(planned.action)) ++restore_latency;
    }
    EXPECT_EQ(recovers, crashes) << seed;            // one targeted repair per crash
    EXPECT_GE(recover_alls, 2u) << seed;             // closing + mid-drain sweeps
    EXPECT_EQ(last_recover_all, c.plan.span()) << seed;  // final action recovers all
    if (degrades > 0) EXPECT_GE(restore_latency, 1u) << seed;
    if (loss_sets > 0) EXPECT_GE(loss_sets, 2u) << seed;  // storm + baseline restore
  }
}

TEST(SimCheckTest, SeedsExploreTheWholeVocabulary) {
  std::set<std::string> kinds;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    // Bind the case: actions() returns a reference into it, and a range-for
    // over a temporary's member dangles (caught by the ASan CI job).
    const FuzzCase c = make_fuzz_case(seed);
    for (const auto& planned : c.plan.actions()) {
      kinds.insert(sim::action_name(planned.action));
    }
  }
  for (const char* expected : {"crash", "recover", "recover-all", "cut-link", "heal-link",
                               "partial-isolate", "heal-partial", "isolate", "heal",
                               "degrade", "restore-latency", "set-loss", "leader-transfer",
                               "traffic", "snapshot", "snapshot-crash"}) {
    EXPECT_TRUE(kinds.count(expected)) << "vocabulary never sampled: " << expected;
  }
}

TEST(SimCheckTest, ActionWeightOverridesRetireAndBoostFamilies) {
  // Zeroing a family removes it from generated schedules; boosting another
  // keeps generation legal. Weight changes redefine the seed -> schedule
  // mapping, which is exactly why the default table is the repro contract.
  SimCheckOptions no_snapshots;
  no_snapshots.action_weights = {{"snapshot", 0}, {"snapshot-crash", 0}};
  SimCheckOptions snapshot_heavy;
  snapshot_heavy.action_weights = {{"snapshot", 60}, {"crash", 0}};
  std::set<std::string> without, heavy;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const FuzzCase a = make_fuzz_case(seed, no_snapshots);
    for (const auto& planned : a.plan.actions()) {
      without.insert(sim::action_name(planned.action));
    }
    const FuzzCase b = make_fuzz_case(seed, snapshot_heavy);
    for (const auto& planned : b.plan.actions()) {
      heavy.insert(sim::action_name(planned.action));
    }
  }
  EXPECT_FALSE(without.count("snapshot"));
  EXPECT_FALSE(without.count("snapshot-crash"));
  EXPECT_TRUE(heavy.count("snapshot"));
  // The default table is exposed for CLI validation and covers the enum.
  EXPECT_TRUE(sim::default_action_weights().count("snapshot-crash"));
  EXPECT_GE(sim::default_action_weights().size(), 10u);
}

TEST(SimCheckTest, SingleTrialReproducesBitExactly) {
  SimCheckOptions options = small_options();
  sim::SimCheckFailure failure;
  const auto first = sim::run_fuzz_trial(99, options, &failure);
  EXPECT_TRUE(failure.repro.empty()) << failure.repro;
  const auto second = sim::run_fuzz_trial(99, options, nullptr);
  ASSERT_TRUE(first.bootstrapped);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.episodes.size(), second.episodes.size());
  EXPECT_EQ(first.traffic_submitted, second.traffic_submitted);
}

TEST(SimCheckTest, BoundedFuzzRunHoldsAllInvariants) {
  const SimCheckOptions options = small_options();
  const SimCheckResult result = sim::run_sim_check(options);
  EXPECT_EQ(result.trials, options.trials);
  EXPECT_GT(result.executed_actions, 0u);
  ASSERT_TRUE(result.ok()) << result.failures.front().repro << " ("
                           << (result.failures.front().violations.empty()
                                   ? "trace diverged"
                                   : result.failures.front().violations.front())
                           << ")";
}

TEST(SimCheckTest, AggregateIsThreadCountInvariant) {
  SimCheckOptions serial = small_options();
  serial.threads = 1;
  serial.check_determinism = false;  // per-trial replay already covered above
  SimCheckOptions parallel = serial;
  parallel.threads = 4;
  const SimCheckResult a = sim::run_sim_check(serial);
  const SimCheckResult b = sim::run_sim_check(parallel);
  EXPECT_EQ(a.executed_actions, b.executed_actions);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.converged_episodes, b.converged_episodes);
  EXPECT_EQ(a.traffic_submitted, b.traffic_submitted);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(SimCheckTest, MembershipActionsAreRetiredByDefaultButWeightable) {
  // The membership verbs ship at weight 0 so every pre-existing seed keeps
  // its byte-identical schedule; they only enter the vocabulary when asked.
  ASSERT_TRUE(sim::default_action_weights().count("join-server"));
  ASSERT_TRUE(sim::default_action_weights().count("leave-server"));
  EXPECT_EQ(sim::default_action_weights().at("join-server"), 0);
  EXPECT_EQ(sim::default_action_weights().at("leave-server"), 0);

  SimCheckOptions weighted = small_options();
  weighted.action_weights = {{"join-server", 25}, {"leave-server", 15}};
  bool planned_join = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FuzzCase c = make_fuzz_case(seed, weighted);
    for (const auto& planned : c.plan.actions()) {
      const std::string name = sim::action_name(planned.action);
      planned_join = planned_join || name == "join-server";
      if (name == "leave-server") {
        // Leaves only ever target servers a prior join racked: the seed
        // cluster's fault budget stays untouched by membership churn.
        const auto& leave = std::get<sim::LeaveServer>(planned.action);
        EXPECT_GT(leave.node.server, c.params.servers) << seed;
      }
    }
  }
  EXPECT_TRUE(planned_join);
}

TEST(SimCheckTest, WeightedMembershipFuzzRunHoldsAllInvariants) {
  SimCheckOptions options = small_options();
  options.action_weights = {{"join-server", 25}, {"leave-server", 15}};
  const SimCheckResult result = sim::run_sim_check(options);
  EXPECT_EQ(result.trials, options.trials);
  ASSERT_TRUE(result.ok()) << result.failures.front().repro << " ("
                           << (result.failures.front().violations.empty()
                                   ? "trace diverged"
                                   : result.failures.front().violations.front())
                           << ")";
}

TEST(SimCheckTest, PassingTrialLeavesTheFailureRecordUntouched) {
  sim::SimCheckFailure untouched;
  (void)sim::run_fuzz_trial(7, small_options(), &untouched);
  EXPECT_TRUE(untouched.repro.empty());
  EXPECT_TRUE(untouched.violations.empty());
}

TEST(SimCheckTest, CrashNotifyCampaignsBeforeBaseTime) {
  // crash-notify ships at weight 0, so every older seed keeps its schedule.
  // Weighted in, it crashes a node and reports the death to the survivors
  // (RaftNode::peer_down); the invariants judge that input like any other,
  // and a follower told its leader is gone campaigns well inside baseTime.
  ASSERT_TRUE(sim::default_action_weights().count("crash-notify"));
  EXPECT_EQ(sim::default_action_weights().at("crash-notify"), 0);

  SimCheckOptions options = small_options();
  options.action_weights = {{"crash-notify", 60}, {"crash", 0}, {"snapshot-crash", 0}};
  const SimCheckResult result = sim::run_sim_check(options);
  ASSERT_TRUE(result.ok()) << result.failures.front().repro << " ("
                           << (result.failures.front().violations.empty()
                                   ? "trace diverged"
                                   : result.failures.front().violations.front())
                           << ")";
  EXPECT_GT(result.action_histogram.at("crash-notify"), 0u);

  // On a quiet paper-preset cluster (100-200 ms links, 500 ms heartbeats),
  // a timer-driven campaign starts at least baseTime - 500 ms - 100 ms after
  // the crash; told of it, the top priority campaigns one link latency in.
  const auto first_failover = [](auto crash) {
    sim::ScenarioSpec spec;
    spec.name = "crash-notify-probe";
    spec.plan = [crash](sim::SimCluster&, const sim::ScenarioParams&) {
      sim::FaultPlan plan;
      plan.at(from_ms(3'000), crash);
      return plan;
    };
    const sim::ScenarioReport report = sim::run_scenario(spec, sim::ScenarioParams{});
    EXPECT_TRUE(report.safety_ok());
    EXPECT_EQ(report.episodes.size(), 1u);
    return report.episodes.empty() ? sim::FailoverResult{} : report.episodes.front();
  };
  const Duration base_time = sim::presets::paper_escape_options().base_time;
  const sim::FailoverResult told = first_failover(sim::CrashNotify{sim::NodeRef::leader()});
  const sim::FailoverResult timed = first_failover(sim::CrashNode{sim::NodeRef::leader()});
  ASSERT_TRUE(told.converged);
  ASSERT_TRUE(timed.converged);
  EXPECT_LE(told.detection, from_ms(200));
  EXPECT_EQ(told.campaigns, 1u);
  EXPECT_GE(timed.detection, base_time - from_ms(600));
}

}  // namespace
}  // namespace escape
