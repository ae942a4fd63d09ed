// Tests for the multi-Raft deployment: shared-timeline composition of
// independent groups, host-level faults, leader placement, and the routed
// KV client.
#include <gtest/gtest.h>

#include "shard/shard_check.h"
#include "shard/sharded_cluster.h"
#include "shard/sharded_kv.h"
#include "sim/invariants.h"

namespace escape::shard {
namespace {

TEST(ShardedClusterTest, GroupsShareOneVirtualTimeline) {
  ShardedCluster cluster(make_sharded_options("escape", 3, 3, 101));
  ASSERT_EQ(cluster.shards(), 3u);
  for (ShardId shard = 0; shard < 3; ++shard) {
    // Every group's loop() is the deployment's loop: one timeline.
    EXPECT_EQ(&cluster.group(shard).loop(), &cluster.loop());
  }
}

TEST(ShardedClusterTest, SoloClusterStillOwnsItsLoop) {
  // The single-group path is unchanged: no external loop means a private one.
  sim::ClusterOptions options;
  options.size = 3;
  sim::SimCluster solo(options);
  solo.loop().run_until(from_ms(10));
  EXPECT_EQ(solo.loop().now(), from_ms(10));
}

TEST(ShardedClusterTest, BootstrapElectsEveryGroupIndependently) {
  ShardedCluster cluster(make_sharded_options("escape", 4, 5, 102));
  ASSERT_TRUE(cluster.bootstrap_all());
  for (ShardId shard = 0; shard < cluster.shards(); ++shard) {
    EXPECT_NE(cluster.leader(shard), kNoServer) << "shard " << shard;
  }
  // Independent groups: each elected in its own term history, with its own
  // patrol/confClock state — terms need not agree across groups.
}

TEST(ShardedClusterTest, SpreadLeadersLandsOnDefaultPlacement) {
  ShardedCluster cluster(make_sharded_options("escape", 4, 5, 103));
  ASSERT_TRUE(cluster.bootstrap_all());
  const std::size_t placed = cluster.spread_leaders();
  EXPECT_EQ(placed, 4u);
  for (ShardId shard = 0; shard < cluster.shards(); ++shard) {
    EXPECT_EQ(cluster.leader(shard), cluster.default_placement(shard)) << "shard " << shard;
  }
}

TEST(ShardedClusterTest, PackLeadersConcentratesOnOneHost) {
  ShardedCluster cluster(make_sharded_options("escape", 5, 5, 104));
  ASSERT_TRUE(cluster.bootstrap_all());
  const std::size_t placed = cluster.pack_leaders(2, 4);
  EXPECT_EQ(placed, 4u);
  EXPECT_GE(cluster.leaders_on(2), 4u);
}

TEST(ShardedClusterTest, HostCrashTakesDownEveryReplicaAndRecoverHeals) {
  ShardedCluster cluster(make_sharded_options("escape", 3, 5, 105));
  ASSERT_TRUE(cluster.bootstrap_all());
  ASSERT_TRUE(cluster.host_alive(3));
  cluster.crash_host(3);
  for (ShardId shard = 0; shard < cluster.shards(); ++shard) {
    EXPECT_FALSE(cluster.group(shard).alive(3)) << "shard " << shard;
  }
  EXPECT_FALSE(cluster.host_alive(3));
  // The other four hosts still form a quorum in every group.
  ASSERT_TRUE(cluster.run_until_all_leaders(cluster.loop().now() + from_ms(60'000)));
  cluster.recover_host(3);
  EXPECT_TRUE(cluster.host_alive(3));
}

TEST(ShardedKvTest, RoutesEveryKeyToItsOwnerAndReplicates) {
  ShardedCluster cluster(make_sharded_options("escape", 3, 3, 106));
  ShardedKv kv(cluster);
  ASSERT_TRUE(cluster.bootstrap_all());

  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) keys.push_back("user:" + std::to_string(i));
  for (const auto& key : keys) {
    ASSERT_TRUE(kv.put(key, "value-of-" + key, from_ms(30'000)).has_value()) << key;
  }
  // Every key lives exactly in its owning group, and reads route back to it.
  for (const auto& key : keys) {
    const ShardId owner = kv.owner(key);
    const ServerId leader = cluster.leader(owner);
    ASSERT_NE(leader, kNoServer);
    EXPECT_EQ(kv.group_kv(owner).store(leader).peek(key), "value-of-" + key);
    const auto got = kv.get(key, from_ms(30'000));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, "value-of-" + key);
    const auto read = kv.read(key, from_ms(30'000));
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->value, "value-of-" + key);
  }
  EXPECT_TRUE(kv.routing_violations().empty());

  // The 12 keys spread over the groups (3 shards, FNV spread): no group
  // should have seen zero traffic.
  std::size_t routed_total = 0;
  for (const std::size_t count : kv.ops_routed()) {
    routed_total += count;
  }
  EXPECT_GE(routed_total, 3u * 12u);
}

TEST(ShardedKvTest, GroupsFailIndependently) {
  // Crashing one shard's leader host must not stall keys owned by other
  // shards whose leaders live elsewhere — the scale-out isolation story.
  ShardedCluster cluster(make_sharded_options("escape", 4, 5, 107));
  ShardedKv kv(cluster);
  ASSERT_TRUE(cluster.bootstrap_all());
  ASSERT_EQ(cluster.spread_leaders(), 4u);

  const ServerId victim = cluster.default_placement(0);
  cluster.crash_host(victim);

  // A key owned by a group whose leader survived commits immediately.
  std::string other_key;
  for (int i = 0; i < 64 && other_key.empty(); ++i) {
    const std::string candidate = "other-" + std::to_string(i);
    const ShardId owner = cluster.shard_of(candidate);
    if (cluster.leader(owner) != kNoServer && cluster.leader(owner) != victim) {
      other_key = candidate;
    }
  }
  ASSERT_FALSE(other_key.empty());
  const auto quick = kv.put(other_key, "fast", from_ms(20'000));
  ASSERT_TRUE(quick.has_value());
  EXPECT_TRUE(quick->ok);

  // Shard 0 re-elects (its quorum survived) and then serves again too.
  std::string orphan_key;
  for (int i = 0; i < 64 && orphan_key.empty(); ++i) {
    const std::string candidate = "orphan-" + std::to_string(i);
    if (cluster.shard_of(candidate) == 0) orphan_key = candidate;
  }
  ASSERT_FALSE(orphan_key.empty());
  const auto healed = kv.put(orphan_key, "recovered", from_ms(60'000));
  ASSERT_TRUE(healed.has_value());
  EXPECT_TRUE(healed->ok);
  EXPECT_TRUE(kv.routing_violations().empty());
}

TEST(ShardedKvTest, HostJoinsAndLeavesEveryGroup) {
  // join_host/remove_host roll one membership change across all groups; the
  // routed KV client keeps committing after each step, and the joined
  // host's replicas apply (and hold only their own shard's keys).
  ShardedCluster cluster(make_sharded_options("escape", 3, 3, 108));
  ShardedKv kv(cluster);
  ASSERT_TRUE(cluster.bootstrap_all());
  int writes = 0;
  const auto put_some = [&] {
    for (int i = 0; i < 6; ++i, ++writes) {
      const std::string key = "member-" + std::to_string(writes);
      ASSERT_TRUE(kv.put(key, "v", from_ms(30'000)).has_value()) << key;
    }
  };
  put_some();

  ASSERT_TRUE(cluster.join_host(4));
  for (ShardId shard = 0; shard < cluster.shards(); ++shard) {
    const auto& m = cluster.group(shard).node(cluster.leader(shard)).membership();
    EXPECT_TRUE(m.is_voter(4)) << "shard " << shard;
    EXPECT_FALSE(m.joint()) << "shard " << shard;
  }
  put_some();

  ASSERT_TRUE(cluster.remove_host(4));
  put_some();
  ASSERT_TRUE(cluster.remove_host(1));
  put_some();
  // A group host 1 led re-elected among the survivors.
  ASSERT_TRUE(cluster.run_until_all_leaders(cluster.loop().now() + from_ms(60'000)));
  for (ShardId shard = 0; shard < cluster.shards(); ++shard) {
    const auto& m = cluster.group(shard).node(cluster.leader(shard)).membership();
    EXPECT_EQ(m.voters, (std::vector<ServerId>{2, 3})) << "shard " << shard;
  }
  EXPECT_TRUE(kv.routing_violations().empty());
}

}  // namespace
}  // namespace escape::shard
