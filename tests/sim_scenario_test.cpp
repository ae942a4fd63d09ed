// Tests for the experiment drivers themselves: traffic generation, the
// repeated crash-recover series, and the forced-competition mechanism.
#include <gtest/gtest.h>

#include "test_cluster_util.h"

namespace escape {
namespace {

using sim::SimCluster;
using testutil::paper_escape_cluster;
using testutil::paper_raft_cluster;

TEST(ScenarioTest, DriveTrafficCommitsEntries) {
  SimCluster cluster(paper_escape_cluster(5, 5));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto submitted = sim::drive_traffic(cluster, from_ms(5'000), from_ms(200));
  EXPECT_GE(submitted, 20u);
  EXPECT_GE(cluster.node(cluster.leader()).commit_index(), static_cast<LogIndex>(submitted) - 5);
}

TEST(ScenarioTest, DriveTrafficWithNoLeaderSubmitsNothing) {
  SimCluster cluster(paper_escape_cluster(5, 5));
  cluster.start_all();
  // Before any election, no leader exists: traffic must no-op (though the
  // cluster elects during the window, earlier intervals submit nothing).
  const auto submitted = sim::drive_traffic(cluster, from_ms(500), from_ms(100));
  EXPECT_EQ(submitted, 0u);
}

TEST(ScenarioTest, SeriesProducesOneResultPerRun) {
  SimCluster cluster(paper_escape_cluster(5, 6));
  sim::SeriesOptions opts;
  opts.runs = 5;
  opts.traffic_window = from_ms(1'000);
  const auto results = sim::ScenarioRunner(cluster).run_series(opts);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.total, 0);
    EXPECT_EQ(r.campaigns, 1u);  // ESCAPE: single campaign every time
  }
  // Every crashed server was recovered: the full membership is alive.
  for (ServerId id : cluster.members()) EXPECT_TRUE(cluster.alive(id));
}

TEST(ScenarioTest, SeriesKeepsEventLogBounded) {
  SimCluster cluster(paper_escape_cluster(3, 6));
  sim::SeriesOptions opts;
  opts.runs = 4;
  opts.traffic_window = from_ms(500);
  (void)sim::ScenarioRunner(cluster).run_series(opts);
  // The per-run clear keeps the retained log to roughly one run's events.
  EXPECT_LT(cluster.event_log().size(), 200u);
}

TEST(ScenarioTest, ForcedCompetitionRaftPaysPerPhase) {
  // Each forced phase costs Raft roughly one scripted timeout (~1.5-1.7 s).
  double previous = 0;
  for (int phases = 0; phases <= 2; ++phases) {
    SimCluster cluster(paper_raft_cluster(5, 777));
    ASSERT_NE(sim::bootstrap(cluster), kNoServer);
    sim::CompetitionOptions comp;
    comp.phases = phases;
    const auto r = sim::ScenarioRunner(cluster).measure_competition(comp);
    ASSERT_TRUE(r.converged) << "phases=" << phases;
    if (phases > 0) {
      EXPECT_GE(to_ms_f(r.total) - previous, 1'000.0) << "phases=" << phases;
    }
    previous = to_ms_f(r.total);
  }
}

TEST(ScenarioTest, ForcedCompetitionBystandersOnlyVote) {
  SimCluster cluster(paper_raft_cluster(7, 888));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const ServerId leader = cluster.leader();
  sim::CompetitionOptions comp;
  comp.phases = 1;
  const auto crash_floor = cluster.loop().now();
  const auto r = sim::ScenarioRunner(cluster).measure_competition(comp);
  ASSERT_TRUE(r.converged);

  // Campaigns after the crash came only from the two scripted rivals.
  std::set<ServerId> campaigners;
  for (const auto& e : cluster.event_log()) {
    if (e.kind == raft::NodeEvent::Kind::kCampaignStarted && e.at >= crash_floor &&
        e.node != leader) {
      campaigners.insert(e.node);
    }
  }
  EXPECT_EQ(campaigners.size(), 2u);
}

TEST(ScenarioTest, ForcedCompetitionRestoresLatencyModel) {
  SimCluster cluster(paper_raft_cluster(5, 999));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  sim::CompetitionOptions comp;
  comp.phases = 0;
  (void)sim::ScenarioRunner(cluster).measure_competition(comp);
  // After the scenario, fresh messages use the base 100-200 ms model again:
  // sample the restored latency function directly.
  Rng probe(1);
  for (int i = 0; i < 50; ++i) {
    const auto d = cluster.network().options().latency(1, 2, probe);
    EXPECT_GE(d, from_ms(100));
    EXPECT_LE(d, from_ms(200));
  }
}

TEST(ScenarioTest, MeasureFailoverRequiresLeader) {
  SimCluster cluster(paper_escape_cluster(3, 4));
  cluster.start_all();  // no leader yet
  EXPECT_THROW(sim::ScenarioRunner(cluster).measure_failover(), std::logic_error);
}

TEST(ScenarioTest, BootstrapIsIdempotentOnStartedCluster) {
  SimCluster cluster(paper_escape_cluster(3, 4));
  const ServerId first = sim::bootstrap(cluster);
  ASSERT_NE(first, kNoServer);
  const ServerId again = sim::bootstrap(cluster, from_ms(10'000), from_ms(100));
  EXPECT_EQ(again, first);  // already led; returns the current leader
}

}  // namespace
}  // namespace escape
