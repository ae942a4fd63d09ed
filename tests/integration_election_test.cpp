// Cluster-level election tests for all three policies, including the
// paper's headline behaviours: ESCAPE's single-campaign convergence
// (Lemma 5), the f+1 liveness bound (Theorem 4), and recovery safety.
#include <gtest/gtest.h>

#include "test_cluster_util.h"

namespace escape {
namespace {

using sim::InvariantChecker;
using sim::SimCluster;
using testutil::paper_escape_cluster;
using testutil::paper_raft_cluster;

class ElectionSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElectionSeedTest, RaftElectsExactlyOneLeader) {
  SimCluster cluster(paper_raft_cluster(5, GetParam()));
  InvariantChecker inv(cluster);
  const ServerId leader = sim::bootstrap(cluster);
  ASSERT_NE(leader, kNoServer);
  // Exactly one leader among alive nodes.
  int leaders = 0;
  for (ServerId id : cluster.members()) {
    if (cluster.node(id).role() == Role::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST_P(ElectionSeedTest, EscapeElectsLeaderAndDistributesConfigs) {
  SimCluster cluster(paper_escape_cluster(5, GetParam()));
  InvariantChecker inv(cluster);
  const ServerId leader = sim::bootstrap(cluster);
  ASSERT_NE(leader, kNoServer);
  // After settling, every follower holds a fresh patrol-issued config with
  // distinct priorities drawn from the pool {2..n} (leader parks at 1).
  std::set<Priority> priorities;
  for (ServerId id : cluster.members()) {
    const auto cfg = cluster.node(id).policy().current_config();
    if (id == leader) continue;
    EXPECT_GT(cfg.conf_clock, 0) << server_name(id) << " never adopted a patrol config";
    priorities.insert(cfg.priority);
  }
  EXPECT_EQ(priorities.size(), cluster.size() - 1);
  EXPECT_EQ(priorities.count(1), 0u);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST_P(ElectionSeedTest, EscapeFailoverConvergesInOneCampaign) {
  SimCluster cluster(paper_escape_cluster(5, GetParam()));
  InvariantChecker inv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover();
  ASSERT_TRUE(result.converged);
  // Lemma 5: with nonfaulty candidates, exactly one campaign elects.
  EXPECT_EQ(result.campaigns, 1u);
  // Detection is the top candidate's baseTime timeout; election one RTT.
  EXPECT_LE(result.total, from_ms(2100));
  EXPECT_GE(result.total, from_ms(1500));
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST_P(ElectionSeedTest, RaftFailoverConverges) {
  SimCluster cluster(paper_raft_cluster(5, GetParam()));
  InvariantChecker inv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover();
  ASSERT_TRUE(result.converged);
  EXPECT_GE(result.campaigns, 1u);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST_P(ElectionSeedTest, ZRaftFailoverConverges) {
  SimCluster cluster(testutil::paper_cluster(5, testutil::zraft_factory(), GetParam()));
  InvariantChecker inv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover();
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST_P(ElectionSeedTest, EscapeConvergesUnderMessageLoss) {
  auto options = paper_escape_cluster(7, GetParam());
  options.network.broadcast_omission = 0.3;
  SimCluster cluster(options);
  InvariantChecker inv(cluster, /*check_configs=*/false);  // loss-tolerant run
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover(from_ms(120'000));
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST_P(ElectionSeedTest, RaftConvergesUnderMessageLoss) {
  auto options = paper_raft_cluster(7, GetParam());
  options.network.broadcast_omission = 0.3;
  SimCluster cluster(options);
  InvariantChecker inv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover(from_ms(120'000));
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElectionSeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The Figure 9 headline as a test: ESCAPE's single-campaign convergence is
// scale-invariant.
class EscapeScaleTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(EscapeScaleTest, SingleCampaignAtEveryScale) {
  const auto [scale, seed] = GetParam();
  SimCluster cluster(paper_escape_cluster(scale, seed));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.campaigns, 1u);
  EXPECT_LE(result.total, from_ms(2100));  // baseTime + one vote round trip
}

INSTANTIATE_TEST_SUITE_P(Scales, EscapeScaleTest,
                         ::testing::Combine(::testing::Values<std::size_t>(8, 16, 32, 64),
                                            ::testing::Values<std::uint64_t>(17, 71, 171)));

TEST(ElectionTest, CrashedLeaderRejoinsAsFollower) {
  SimCluster cluster(paper_escape_cluster(5, 7));
  InvariantChecker inv(cluster);
  const ServerId old_leader = sim::bootstrap(cluster);
  ASSERT_NE(old_leader, kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover();
  ASSERT_TRUE(result.converged);

  cluster.recover(old_leader);
  cluster.loop().run_until(cluster.loop().now() + from_ms(5'000));
  EXPECT_EQ(cluster.node(old_leader).role(), Role::kFollower);
  EXPECT_EQ(cluster.node(old_leader).leader_hint(), result.new_leader);
  // Its term caught up with the new regime.
  EXPECT_GE(cluster.node(old_leader).term(), result.new_term);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
  inv.deep_check();
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST(ElectionTest, EscapeToleratesCascadingCandidateFailures) {
  // Theorem 4: if the best candidate crashes as soon as it campaigns, the
  // next-priority candidate takes over; with f crash failures the system
  // still elects within f+1 campaigns.
  SimCluster cluster(paper_escape_cluster(5, 11));
  InvariantChecker inv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);

  // f = 2 for n = 5; the crashed leader consumes one failure, leaving one
  // candidate crash before the quorum itself would be lost.
  int crashes_budget = 1;
  std::size_t campaigns = 0;
  cluster.add_event_listener([&](const raft::NodeEvent& e) {
    if (e.kind != raft::NodeEvent::Kind::kCampaignStarted) return;
    ++campaigns;
    if (crashes_budget > 0) {
      --crashes_budget;
      // Deferred: crashing the node mid-event would destroy the object
      // whose member function is on the stack.
      cluster.loop().schedule_after(0, [&cluster, id = e.node] {
        if (cluster.alive(id)) cluster.crash(id);
      });
    }
  });

  const TimePoint crash_at = cluster.loop().now();
  cluster.crash(cluster.leader());
  const auto elected = cluster.run_until_event(
      [](const raft::NodeEvent& e) { return e.kind == raft::NodeEvent::Kind::kBecameLeader; },
      crash_at + from_ms(120'000));
  ASSERT_TRUE(elected.has_value());
  EXPECT_LE(campaigns, 3u);  // f + 1 = 3 campaigns suffice
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST(ElectionTest, ForcedCompetitionSplitsRaftButNotEscape) {
  // The Figure 10 mechanism, validated qualitatively: with two forced
  // competing-candidate phases Raft needs extra full timeout rounds, while
  // ESCAPE's term scattering resolves the same collision in one round.
  sim::CompetitionOptions comp;
  comp.phases = 2;

  SimCluster raft(paper_raft_cluster(5, 17));
  ASSERT_NE(sim::bootstrap(raft), kNoServer);
  const auto raft_result = sim::ScenarioRunner(raft).measure_competition(comp);
  ASSERT_TRUE(raft_result.converged);

  SimCluster esc(paper_escape_cluster(5, 17));
  ASSERT_NE(sim::bootstrap(esc), kNoServer);
  const auto esc_result = sim::ScenarioRunner(esc).measure_competition(comp);
  ASSERT_TRUE(esc_result.converged);

  // Raft pays ~2 extra timeout rounds (>= 2 x 1500 ms) over ESCAPE.
  EXPECT_GE(raft_result.total, esc_result.total + from_ms(2'000));
  EXPECT_LE(esc_result.total, from_ms(2'500));
  // Raft needed several campaigns; ESCAPE at most the two colliding ones.
  EXPECT_GE(raft_result.campaigns, 3u);
  EXPECT_LE(esc_result.campaigns, 2u);
}

TEST(ElectionTest, GeoGroupedLatencyStillConverges) {
  // Section II-B's split-vote-prone topology: two "data centers" with fast
  // intra-group and slow inter-group links.
  auto options = paper_escape_cluster(6, 23);
  options.network.latency = sim::grouped_latency(
      [](ServerId id) { return id <= 3 ? 0 : 1; }, from_ms(5), from_ms(15), from_ms(150),
      from_ms(250));
  SimCluster cluster(options);
  InvariantChecker inv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto result = sim::ScenarioRunner(cluster).measure_failover();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.campaigns, 1u);  // priority scattering still prevents splits
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST(ElectionTest, RepeatedFailoversStaySafe) {
  SimCluster cluster(paper_escape_cluster(5, 29));
  InvariantChecker inv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  ServerId crashed_first = kNoServer;
  for (int round = 0; round < 2; ++round) {  // only f=2 crashes allowed without recovery
    const ServerId leader = cluster.leader();
    if (round == 0) crashed_first = leader;
    const auto result = sim::ScenarioRunner(cluster).measure_failover();
    ASSERT_TRUE(result.converged) << "round " << round;
  }
  cluster.recover(crashed_first);
  cluster.loop().run_until(cluster.loop().now() + from_ms(5'000));
  ASSERT_NE(cluster.leader(), kNoServer);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
  inv.deep_check();
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST(ElectionTest, IsolatedLeaderDeposedOnHeal) {
  // Network partition (not crash): the leader keeps running but is cut off;
  // the majority elects a replacement; on heal the stale leader steps down.
  SimCluster cluster(paper_escape_cluster(5, 31));
  InvariantChecker inv(cluster);
  const ServerId old_leader = sim::bootstrap(cluster);
  ASSERT_NE(old_leader, kNoServer);

  cluster.network().isolate(old_leader);
  const auto elected = cluster.run_until_event(
      [&](const raft::NodeEvent& e) {
        return e.kind == raft::NodeEvent::Kind::kBecameLeader && e.node != old_leader;
      },
      cluster.loop().now() + from_ms(60'000));
  ASSERT_TRUE(elected.has_value());

  cluster.network().heal(old_leader);
  cluster.loop().run_until(cluster.loop().now() + from_ms(5'000));
  EXPECT_EQ(cluster.node(old_leader).role(), Role::kFollower);
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

}  // namespace
}  // namespace escape
