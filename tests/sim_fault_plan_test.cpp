// Tests for the declarative scenario engine: plan building, deterministic
// action execution (crash/recover, link faults, latency/loss overrides,
// traffic, leadership transfer), the deferred crash-of-leader trigger, and
// the scoped restore of every override a runtime installs.
#include <gtest/gtest.h>

#include "sim/fault_plan.h"
#include "sim/scenario.h"
#include "test_cluster_util.h"

namespace escape {
namespace {

using sim::CrashNode;
using sim::FaultPlan;
using sim::HealLink;
using sim::LinkDirection;
using sim::NodeRef;
using sim::PlanRuntime;
using sim::ScenarioRunner;
using sim::SimCluster;
using testutil::paper_escape_cluster;
using testutil::paper_raft_cluster;

TEST(FaultPlanTest, BuilderOrdersAndSpans) {
  FaultPlan plan;
  plan.at(from_ms(100), sim::MarkEpisode{"a"})
      .then(from_ms(50), sim::MarkEpisode{"b"})
      .at(from_ms(20), sim::MarkEpisode{"c"});
  ASSERT_EQ(plan.actions().size(), 3u);
  EXPECT_EQ(plan.actions()[0].at, from_ms(100));
  EXPECT_EQ(plan.actions()[1].at, from_ms(150));
  EXPECT_EQ(plan.actions()[2].at, from_ms(20));
  EXPECT_EQ(plan.span(), from_ms(150));

  // A traffic burst extends the span by its duration.
  FaultPlan burst;
  burst.at(from_ms(10), sim::TrafficBurst{from_ms(500)});
  EXPECT_EQ(burst.span(), from_ms(510));
}

TEST(FaultPlanTest, CrashAndRecoverLeaderViaPlan) {
  ScenarioRunner runner(paper_escape_cluster(5, 11));
  const ServerId old_leader = runner.bootstrap();
  ASSERT_NE(old_leader, kNoServer);

  FaultPlan plan;
  plan.at(0, CrashNode{NodeRef::leader()});
  plan.at(from_ms(6'000), sim::RecoverNode{NodeRef::last_crashed()});
  runner.run_plan(plan, from_ms(4'000));

  EXPECT_EQ(runner.runtime().last_crashed(), old_leader);
  const auto episodes = runner.episodes();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_TRUE(episodes[0].converged);
  EXPECT_NE(episodes[0].new_leader, old_leader);
  for (ServerId id : runner.cluster().members()) EXPECT_TRUE(runner.cluster().alive(id));
}

TEST(FaultPlanTest, CrashLeaderDefersWhenLeaderless) {
  ScenarioRunner runner(paper_escape_cluster(5, 12));
  runner.cluster().start_all();  // no election yet: the cluster is leaderless

  FaultPlan plan;
  plan.at(0, CrashNode{NodeRef::leader()});
  const auto result = runner.run_failover_plan(plan, from_ms(60'000));

  // The first elected leader was crashed immediately and a successor took
  // over; the measured episode is the successor's election — never the
  // victim's own (same-tick) win, and never zero-length.
  EXPECT_TRUE(result.converged);
  EXPECT_NE(result.new_leader, runner.runtime().last_crashed());
  EXPECT_GT(result.total, 0);
  bool armed = false, fired = false;
  for (const auto& m : runner.runtime().markers()) {
    if (m.what == "crash (armed)") armed = true;
    if (m.what == "crash (deferred)") fired = true;
  }
  EXPECT_TRUE(armed);
  EXPECT_TRUE(fired);
  EXPECT_NE(runner.cluster().leader(), kNoServer);
  EXPECT_NE(runner.cluster().leader(), runner.runtime().last_crashed());
}

TEST(FaultPlanTest, TrafficBurstSubmitsAndCommits) {
  ScenarioRunner runner(paper_escape_cluster(5, 13));
  ASSERT_NE(runner.bootstrap(), kNoServer);

  FaultPlan plan;
  plan.at(0, sim::TrafficBurst{from_ms(5'000), from_ms(200)});
  runner.run_plan(plan, from_ms(2'000));

  const auto submitted = runner.runtime().traffic_submitted();
  EXPECT_GE(submitted, 20u);
  auto& cluster = runner.cluster();
  EXPECT_GE(cluster.node(cluster.leader()).commit_index(),
            static_cast<LogIndex>(submitted) - 5);
}

TEST(FaultPlanTest, ProposalBurstOpenLoopStormCommits) {
  ScenarioRunner runner(paper_escape_cluster(5, 16));
  ASSERT_NE(runner.bootstrap(), kNoServer);

  FaultPlan plan;
  plan.at(0, sim::ProposalBurst{from_ms(2'000), from_ms(20), 8});
  EXPECT_EQ(plan.span(), from_ms(2'000));  // like TrafficBurst, span covers the storm
  runner.run_plan(plan, from_ms(3'000));

  // 8 proposals every 20 ms for 2 s — an open-loop storm, two orders of
  // magnitude past the TrafficBurst trickle. The pipelined leader has to
  // absorb it as multi-entry batches.
  const auto submitted = runner.runtime().traffic_submitted();
  EXPECT_GE(submitted, 400u);
  auto& cluster = runner.cluster();
  EXPECT_GE(cluster.node(cluster.leader()).commit_index(),
            static_cast<LogIndex>(submitted) - 50);
}

TEST(FaultPlanTest, ProposalBurstRejectsDegenerateParameters) {
  ScenarioRunner runner(paper_escape_cluster(3, 17));
  ASSERT_NE(runner.bootstrap(), kNoServer);

  FaultPlan plan;
  plan.at(0, sim::ProposalBurst{from_ms(100), from_ms(20), /*per_tick=*/0});
  runner.run_plan(plan, from_ms(500));

  bool recorded_failure = false;
  for (const auto& m : runner.runtime().markers()) {
    if (m.what == "proposal-burst" && !m.ok) recorded_failure = true;
  }
  EXPECT_TRUE(recorded_failure);
  EXPECT_EQ(runner.runtime().traffic_submitted(), 0u);
}

TEST(FaultPlanTest, CutLinkDropsTrafficAndAccountsStats) {
  ScenarioRunner runner(paper_escape_cluster(3, 14));
  const ServerId leader = runner.bootstrap();
  ASSERT_NE(leader, kNoServer);
  const ServerId follower = leader == 1 ? 2 : 1;

  FaultPlan plan;
  plan.at(0, sim::CutLink{NodeRef::id(leader), NodeRef::id(follower)});
  runner.run_plan(plan, from_ms(5'000));

  // Heartbeats across the cut pair are dropped and accounted as partition
  // losses. (The cut follower may depose the leader through the third node —
  // leadership is allowed to move; the accounting is what's under test.)
  EXPECT_GT(runner.cluster().network().stats().dropped_partition, 0u);

  FaultPlan heal;
  heal.at(0, HealLink{NodeRef::id(leader), NodeRef::id(follower)});
  runner.run_plan(heal, from_ms(5'000));
  EXPECT_NE(runner.cluster().leader(), kNoServer);

  // With every link healed, partition drops stop accumulating.
  const auto dropped_after_heal = runner.cluster().network().stats().dropped_partition;
  runner.loop().run_until(runner.loop().now() + from_ms(3'000));
  EXPECT_EQ(runner.cluster().network().stats().dropped_partition, dropped_after_heal);
}

TEST(FaultPlanTest, AsymmetricIsolationCutsOneDirectionOnly) {
  ScenarioRunner runner(paper_escape_cluster(5, 15));
  const ServerId leader = runner.bootstrap();
  ASSERT_NE(leader, kNoServer);
  ServerId follower = kNoServer;
  for (ServerId id : runner.cluster().members()) {
    if (id != leader) {
      follower = id;
      break;
    }
  }

  // Outbound-mute the follower: it still hears heartbeats (so it never
  // campaigns) but its replies vanish as partition drops.
  FaultPlan plan;
  plan.at(0, sim::PartialIsolate{NodeRef::id(follower), LinkDirection::kOutbound});
  runner.run_plan(plan, from_ms(5'000));

  auto& cluster = runner.cluster();
  EXPECT_EQ(cluster.leader(), leader);
  EXPECT_EQ(cluster.node(follower).role(), Role::kFollower);
  EXPECT_GT(cluster.network().stats().dropped_partition, 0u);

  FaultPlan heal;
  heal.at(0, sim::HealPartial{NodeRef::id(follower)});
  runner.run_plan(heal, from_ms(2'000));
  EXPECT_EQ(runner.cluster().leader(), leader);
}

TEST(FaultPlanTest, LossRateActionChangesOmissionAndAccountsDrops) {
  ScenarioRunner runner(paper_escape_cluster(5, 16));
  ASSERT_NE(runner.bootstrap(), kNoServer);
  ASSERT_EQ(runner.cluster().network().options().broadcast_omission, 0.0);

  FaultPlan plan;
  plan.at(0, sim::SetLossRate{1.0, 0.0});  // every broadcast fully omitted
  runner.run_plan(plan, from_ms(2'000));

  EXPECT_EQ(runner.cluster().network().options().broadcast_omission, 1.0);
  EXPECT_GT(runner.cluster().network().stats().dropped_omission, 0u);
}

TEST(FaultPlanTest, RuntimeDestructionRestoresOverrides) {
  SimCluster cluster(paper_escape_cluster(3, 17));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const ServerId leader = cluster.leader();
  const ServerId follower = leader == 1 ? 2 : 1;
  {
    PlanRuntime runtime(cluster);
    FaultPlan plan;
    plan.at(0, sim::SwapLatency{sim::constant_latency(from_ms(50))});
    plan.at(0, sim::SetLossRate{0.3, 0.1});
    plan.at(0, sim::ScriptTimeout{NodeRef::id(follower),
                                  []() -> std::optional<Duration> { return from_ms(77); }});
    runtime.install(plan);
    cluster.loop().run_until(cluster.loop().now() + from_ms(100));

    Rng probe(1);
    EXPECT_EQ(cluster.network().options().latency(1, 2, probe), from_ms(50));
    EXPECT_EQ(cluster.network().options().broadcast_omission, 0.3);
    Rng rng(2);
    EXPECT_EQ(cluster.node(follower).mutable_policy().next_election_timeout(rng),
              from_ms(77));
  }
  // The runtime went out of scope: latency, loss knobs, and the scripted
  // timeout are all back to baseline.
  Rng probe(1);
  for (int i = 0; i < 20; ++i) {
    const auto d = cluster.network().options().latency(1, 2, probe);
    EXPECT_GE(d, from_ms(100));
    EXPECT_LE(d, from_ms(200));
  }
  EXPECT_EQ(cluster.network().options().broadcast_omission, 0.0);
  EXPECT_EQ(cluster.network().options().uniform_loss, 0.0);
  Rng rng(2);
  EXPECT_NE(cluster.node(follower).mutable_policy().next_election_timeout(rng),
            from_ms(77));
}

TEST(FaultPlanTest, DegradeAndRestoreLatency) {
  ScenarioRunner runner(paper_escape_cluster(3, 18));
  ASSERT_NE(runner.bootstrap(), kNoServer);
  const ServerId leader = runner.cluster().leader();

  FaultPlan plan;
  plan.at(0, sim::DegradeNode{NodeRef::id(leader), from_ms(1'000)});
  runner.run_plan(plan);

  Rng probe(1);
  const ServerId other = leader == 1 ? 2 : 1;
  EXPECT_GE(runner.cluster().network().options().latency(leader, other, probe),
            from_ms(1'100));
  EXPECT_LE(runner.cluster().network().options().latency(other, leader, probe),
            from_ms(200));

  FaultPlan restore;
  restore.at(0, sim::RestoreLatency{});
  runner.run_plan(restore);
  EXPECT_LE(runner.cluster().network().options().latency(leader, other, probe),
            from_ms(200));
}

TEST(FaultPlanTest, LeaderTransferViaPlan) {
  ScenarioRunner runner(paper_escape_cluster(5, 19));
  const ServerId old_leader = runner.bootstrap();
  ASSERT_NE(old_leader, kNoServer);

  FaultPlan plan;
  plan.at(0, sim::MarkEpisode{"handover"});
  plan.at(0, sim::LeaderTransfer{NodeRef::top_follower()});
  const auto result = runner.run_failover_plan(plan, from_ms(30'000));

  ASSERT_TRUE(result.converged);
  EXPECT_NE(result.new_leader, old_leader);
  // A TimeoutNow handoff skips the detection wait entirely: the transfer
  // resolves well inside one election timeout.
  EXPECT_LT(result.total, from_ms(1'500));
}

TEST(FaultPlanTest, FailedActionsAreRecordedNotFatal) {
  ScenarioRunner runner(paper_escape_cluster(3, 20));
  ASSERT_NE(runner.bootstrap(), kNoServer);

  FaultPlan plan;
  plan.at(0, sim::RecoverNode{NodeRef::id(1)});          // already alive
  plan.at(0, CrashNode{NodeRef::last_crashed()});        // nothing crashed yet
  plan.at(0, sim::LeaderTransfer{NodeRef::leader()});    // target == leader
  runner.run_plan(plan, from_ms(100));

  ASSERT_EQ(runner.runtime().markers().size(), 3u);
  for (const auto& m : runner.runtime().markers()) EXPECT_FALSE(m.ok);
  EXPECT_NE(runner.cluster().leader(), kNoServer);
}

TEST(FaultPlanTest, RaftClusterCrashViaPlanConverges) {
  ScenarioRunner runner(paper_raft_cluster(5, 22));
  ASSERT_NE(runner.bootstrap(), kNoServer);
  const auto result = runner.measure_failover();
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.campaigns, 1u);
}

}  // namespace
}  // namespace escape
