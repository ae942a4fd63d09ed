// Membership-change coverage, bottom-up: the pure joint-consensus arithmetic
// (apply_conf_change / finish_joint), the codecs that carry memberships on
// the wire and in storage (conf-entry payload, ConfChange messages, v2
// snapshot files with v1 back-compat), and the live AddServer / RemoveServer
// workflows on a simulated ESCAPE cluster — learner catch-up including the
// snapshot-install path, promotion gating, leader removal with retirement,
// and durability of the adopted membership across crash and recovery. Every
// sim test finishes with an InvariantChecker deep check so reconfiguration
// never trades away log matching or Lemma 3 uniqueness.
#include <gtest/gtest.h>

#include <vector>

#include "common/serde.h"
#include "raft/membership.h"
#include "sim/invariants.h"
#include "sim/scenario.h"
#include "storage/snapshot_store.h"
#include "test_cluster_util.h"

namespace escape {
namespace {

using raft::ConfChange;
using raft::MembershipGoal;
using raft::MembershipStep;
using raft::apply_conf_change;
using raft::finish_joint;
using raft::joint_quorum_value;
using raft::membership_step;
using rpc::ConfChangeOp;
using rpc::ConfChangeStatus;
using rpc::Membership;
using sim::SimCluster;
using testutil::paper_escape_cluster;

Membership members(std::vector<ServerId> voters, std::vector<ServerId> old_voters = {},
                   std::vector<ServerId> learners = {}) {
  Membership m;
  m.voters = std::move(voters);
  m.old_voters = std::move(old_voters);
  m.learners = std::move(learners);
  return m;
}

// --- transition arithmetic ---------------------------------------------------

TEST(MembershipMathTest, AddLearnerIsASimpleEntry) {
  const auto next = apply_conf_change(members({1, 2, 3}), {ConfChangeOp::kAddLearner, 4});
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->joint());
  EXPECT_EQ(next->voters, (std::vector<ServerId>{1, 2, 3}));
  EXPECT_EQ(next->learners, (std::vector<ServerId>{4}));
  EXPECT_TRUE(next->is_learner(4));
  EXPECT_FALSE(next->is_voter(4));
}

TEST(MembershipMathTest, PromoteYieldsJointConfigAndFinishRetiresOldMajority) {
  const auto joint =
      apply_conf_change(members({1, 2, 3}, {}, {4}), {ConfChangeOp::kPromote, 4});
  ASSERT_TRUE(joint.has_value());
  EXPECT_TRUE(joint->joint());
  EXPECT_EQ(joint->voters, (std::vector<ServerId>{1, 2, 3, 4}));
  EXPECT_EQ(joint->old_voters, (std::vector<ServerId>{1, 2, 3}));
  EXPECT_TRUE(joint->learners.empty());
  // A joint config counts everyone in either majority as a voter.
  EXPECT_TRUE(joint->is_voter(4));

  const Membership final_config = finish_joint(*joint);
  EXPECT_FALSE(final_config.joint());
  EXPECT_EQ(final_config.voters, (std::vector<ServerId>{1, 2, 3, 4}));
}

TEST(MembershipMathTest, RemoveVoterYieldsJointConfig) {
  const auto joint = apply_conf_change(members({1, 2, 3}), {ConfChangeOp::kRemove, 2});
  ASSERT_TRUE(joint.has_value());
  EXPECT_TRUE(joint->joint());
  EXPECT_EQ(joint->voters, (std::vector<ServerId>{1, 3}));
  EXPECT_EQ(joint->old_voters, (std::vector<ServerId>{1, 2, 3}));
  // Still a voter while the handoff is in flight (old majority counts).
  EXPECT_TRUE(joint->is_voter(2));
  EXPECT_FALSE(finish_joint(*joint).contains(2));
}

TEST(MembershipMathTest, RemoveLearnerIsSimple) {
  const auto next =
      apply_conf_change(members({1, 2, 3}, {}, {4}), {ConfChangeOp::kRemove, 4});
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->joint());
  EXPECT_FALSE(next->contains(4));
}

TEST(MembershipMathTest, NonsensicalChangesAreRejected) {
  const Membership base = members({1, 2, 3}, {}, {4});
  // Duplicate add (either role).
  EXPECT_FALSE(apply_conf_change(base, {ConfChangeOp::kAddLearner, 2}).has_value());
  EXPECT_FALSE(apply_conf_change(base, {ConfChangeOp::kAddLearner, 4}).has_value());
  // Promoting a non-learner or an unknown server.
  EXPECT_FALSE(apply_conf_change(base, {ConfChangeOp::kPromote, 2}).has_value());
  EXPECT_FALSE(apply_conf_change(base, {ConfChangeOp::kPromote, 9}).has_value());
  // Removing an unknown server.
  EXPECT_FALSE(apply_conf_change(base, {ConfChangeOp::kRemove, 9}).has_value());
  // The last voter stays: a cluster cannot remove itself out of existence.
  EXPECT_FALSE(apply_conf_change(members({1}), {ConfChangeOp::kRemove, 1}).has_value());
  // One change at a time: nothing applies on top of a joint config.
  const Membership joint = members({1, 2, 3, 4}, {1, 2, 3});
  EXPECT_FALSE(apply_conf_change(joint, {ConfChangeOp::kAddLearner, 5}).has_value());
  EXPECT_FALSE(apply_conf_change(joint, {ConfChangeOp::kRemove, 4}).has_value());
  // kNoServer is never a valid subject.
  EXPECT_FALSE(apply_conf_change(base, {ConfChangeOp::kAddLearner, kNoServer}).has_value());
}

// --- the joint-majority rule ------------------------------------------------

TEST(MembershipMathTest, JointQuorumValueIsWhatAMajorityOfEveryVoterSetReached) {
  struct Case {
    const char* name;
    Membership m;
    std::vector<int> values;  ///< values[s - 1] for server s; absent servers report 0
    int ceiling;
    int expected;
  };
  const std::vector<Case> cases = {
      {"odd set: the 3rd highest of 5", members({1, 2, 3, 4, 5}), {9, 7, 5, 3, 1}, 100, 5},
      {"even set: 3 of 4 must reach it", members({1, 2, 3, 4}), {9, 7, 5, 3}, 100, 5},
      {"single voter", members({1}), {4}, 100, 4},
      {"votes as 0/1: 2 of 3 granted", members({1, 2, 3}), {1, 0, 1}, 1, 1},
      {"votes as 0/1: 1 of 3 granted", members({1, 2, 3}), {1}, 1, 0},
      {"joint, disjoint: new set lower", members({4, 5, 6}, {1, 2, 3}), {9, 8, 1, 2, 3, 4}, 100, 3},
      {"joint, disjoint: old set lower", members({4, 5, 6}, {1, 2, 3}), {1, 2, 9, 8, 8, 8}, 100, 2},
      {"joint, overlapping sets", members({1, 2, 3, 4}, {1, 2, 3}), {6, 5, 1, 4}, 100, 4},
      {"learners never count", members({1, 2, 3}, {}, {4, 5}), {9, 0, 0, 9, 9}, 100, 0},
      {"an empty set reaches the ceiling", members({}), {}, 7, 7},
      {"values above the ceiling are capped", members({1, 2, 3}), {50, 40, 1}, 10, 10},
  };
  for (const Case& c : cases) {
    const auto value_of = [&](ServerId s) { return s <= c.values.size() ? c.values[s - 1] : 0; };
    EXPECT_EQ(joint_quorum_value(c.m, c.ceiling, value_of), c.expected) << c.name;
  }
}

// --- the join/leave stepping rule -------------------------------------------

TEST(MembershipMathTest, MembershipStepCoversEveryState) {
  using Kind = MembershipStep::Kind;
  using Op = ConfChangeOp;
  constexpr auto kJoin = MembershipGoal::kJoin;
  constexpr auto kLeave = MembershipGoal::kLeave;
  struct Case {
    const char* name;
    Membership m;
    MembershipGoal goal;
    Kind kind;
    ConfChange change;  ///< checked when kind == kPropose
  };
  // Server 4 in every membership state, for each goal.
  const std::vector<Case> cases = {
      {"join: absent", members({1, 2, 3}), kJoin, Kind::kPropose, {Op::kAddLearner, 4}},
      {"join: learner", members({1, 2, 3}, {}, {4}), kJoin, Kind::kPropose, {Op::kPromote, 4}},
      {"join: voter in a joint config", members({1, 2, 3, 4}, {1, 2, 3}), kJoin, Kind::kWait, {}},
      {"join: settled voter", members({1, 2, 3, 4}), kJoin, Kind::kDone, {}},
      {"leave: settled voter", members({1, 2, 3, 4}), kLeave, Kind::kPropose, {Op::kRemove, 4}},
      {"leave: learner", members({1, 2, 3}, {}, {4}), kLeave, Kind::kPropose, {Op::kRemove, 4}},
      {"leave: removal in flight", members({1, 2, 3}, {1, 2, 3, 4}), kLeave, Kind::kWait, {}},
      {"leave: joint, another change", members({1, 2, 3, 5}, {1, 2, 3}), kLeave, Kind::kWait, {}},
      {"leave: gone", members({1, 2, 3}), kLeave, Kind::kDone, {}},
  };
  for (const Case& c : cases) {
    const MembershipStep step = membership_step(c.m, 4, c.goal);
    EXPECT_EQ(step.kind, c.kind) << c.name;
    if (c.kind == Kind::kPropose) EXPECT_EQ(step.change, c.change) << c.name;
  }
}

// --- codecs ------------------------------------------------------------------

TEST(MembershipCodecTest, ConfEntryPayloadRoundtrips) {
  const Membership m = members({1, 3, 5}, {1, 2, 3}, {7});
  EXPECT_EQ(raft::decode_conf_entry(raft::encode_conf_entry(m)), m);
  const Membership empty;
  EXPECT_EQ(raft::decode_conf_entry(raft::encode_conf_entry(empty)), empty);
}

TEST(MembershipCodecTest, ConfChangeMessagesRoundtrip) {
  rpc::ConfChangeRequest req;
  req.id = 77;
  req.op = ConfChangeOp::kPromote;
  req.server = 4;
  EXPECT_EQ(rpc::decode_message(rpc::encode_message(req)), rpc::Message{req});

  rpc::ConfChangeReply reply;
  reply.id = 77;
  reply.status = ConfChangeStatus::kNotCaughtUp;
  reply.leader_hint = 2;
  reply.index = 41;
  EXPECT_EQ(rpc::decode_message(rpc::encode_message(reply)), rpc::Message{reply});
}

TEST(MembershipCodecTest, ConfEntryKindSurvivesAppendEntriesWire) {
  rpc::AppendEntries ae;
  ae.term = 3;
  ae.leader_id = 1;
  rpc::LogEntry conf;
  conf.term = 3;
  conf.index = 9;
  conf.kind = rpc::EntryKind::kConfChange;
  conf.command = raft::encode_conf_entry(members({1, 2, 3}, {}, {4}));
  ae.entries.push_back(conf);
  const auto decoded = rpc::decode_message(rpc::encode_message(ae));
  ASSERT_TRUE(std::holds_alternative<rpc::AppendEntries>(decoded));
  const auto& got = std::get<rpc::AppendEntries>(decoded);
  ASSERT_EQ(got.entries.size(), 1u);
  EXPECT_EQ(got.entries[0].kind, rpc::EntryKind::kConfChange);
  EXPECT_TRUE(raft::decode_conf_entry(got.entries[0].command).is_learner(4));
}

TEST(MembershipCodecTest, InstallSnapshotCarriesMembership) {
  rpc::InstallSnapshot snap;
  snap.term = 5;
  snap.leader_id = 2;
  snap.last_included_index = 30;
  snap.last_included_term = 4;
  snap.membership = members({1, 2, 3}, {}, {4});
  snap.state = {0xAB};
  const auto decoded = rpc::decode_message(rpc::encode_message(snap));
  ASSERT_TRUE(std::holds_alternative<rpc::InstallSnapshot>(decoded));
  EXPECT_EQ(std::get<rpc::InstallSnapshot>(decoded), snap);
}

TEST(MembershipSnapshotStoreTest, V2RoundtripCarriesMembership) {
  raft::Snapshot s;
  s.last_included_index = 12;
  s.last_included_term = 3;
  s.config.conf_clock = 9;
  s.membership = members({1, 2, 3, 4}, {1, 2, 3}, {5});
  s.state = {1, 2, 3};
  const auto decoded = storage::decode_snapshot(storage::encode_snapshot(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, s);
}

TEST(MembershipSnapshotStoreTest, V1SnapshotsStillDecodeWithEmptyMembership) {
  // Hand-assemble a pre-membership (version 1) snapshot file body: the exact
  // layout encode_snapshot wrote before the membership block existed.
  Encoder body;
  body.u8(1);  // kSnapshotVersionV1
  body.i64(12);
  body.i64(3);
  body.i64(from_ms(1500));  // config.timer_period
  body.i32(2);              // config.priority
  body.i64(9);              // config.conf_clock
  body.bytes({1, 2, 3});    // state
  auto encoded_body = body.take();
  Encoder framed;
  framed.u32(crc32(encoded_body));
  framed.bytes(encoded_body);

  const auto decoded = storage::decode_snapshot(framed.take());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->last_included_index, 12);
  EXPECT_EQ(decoded->config.conf_clock, 9);
  EXPECT_TRUE(decoded->membership.empty())
      << "v1 files predate membership; the node falls back to its bootstrap list";
  EXPECT_EQ(decoded->state, (std::vector<std::uint8_t>{1, 2, 3}));
}

// --- live workflows on the sim ----------------------------------------------

/// Admin-client retry loop: re-derives the next step toward `goal` from the
/// leader's current membership each slice, exactly like the sim's
/// JoinServer/LeaveServer fault actions. A leave is not done while the
/// removed server itself still leads: it adopted Cnew on append but only
/// retires once Cnew commits.
bool run_membership(SimCluster& cluster, ServerId id, MembershipGoal goal, Duration max_wait) {
  auto& loop = cluster.loop();
  const TimePoint deadline = loop.now() + max_wait;
  while (loop.now() < deadline) {
    const ServerId l = cluster.leader();
    if (l != kNoServer) {
      const MembershipStep step = membership_step(cluster.node(l).membership(), id, goal);
      const bool retiring = goal == MembershipGoal::kLeave && l == id;
      if (step.kind == MembershipStep::Kind::kDone && !retiring) return true;
      if (step.kind == MembershipStep::Kind::kPropose) cluster.propose_conf_change(step.change);
    }
    loop.run_until(loop.now() + from_ms(200));
  }
  return false;
}

bool run_join(SimCluster& cluster, ServerId id, Duration max_wait) {
  return run_membership(cluster, id, MembershipGoal::kJoin, max_wait);
}

bool run_remove(SimCluster& cluster, ServerId id, Duration max_wait) {
  return run_membership(cluster, id, MembershipGoal::kLeave, max_wait);
}

TEST(MembershipSimTest, AddServerWorkflowGrowsTheCluster) {
  SimCluster cluster(paper_escape_cluster(3, 101));
  sim::InvariantChecker checker(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  sim::drive_traffic(cluster, from_ms(1'000), from_ms(200));

  cluster.add_host(4);
  ASSERT_TRUE(run_join(cluster, 4, from_ms(60'000)));
  cluster.loop().run_until(cluster.loop().now() + from_ms(3'000));  // propagate Cnew

  for (const ServerId id : cluster.members()) {
    ASSERT_TRUE(cluster.alive(id));
    const auto& m = cluster.node(id).membership();
    EXPECT_EQ(m.voters, (std::vector<ServerId>{1, 2, 3, 4})) << "server " << id;
    EXPECT_FALSE(m.joint()) << "server " << id;
  }
  EXPECT_EQ(cluster.node(4).cluster_size(), 4u);

  // The grown cluster still commits: a write lands on the new quorum.
  const auto index = cluster.submit_via_leader({0x42});
  ASSERT_TRUE(index.has_value());
  EXPECT_TRUE(cluster.run_until_applied(*index, cluster.loop().now() + from_ms(30'000)));

  checker.deep_check();
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST(MembershipSimTest, ProposalStatusesAreReported) {
  SimCluster cluster(paper_escape_cluster(3, 102));
  const ServerId leader = sim::bootstrap(cluster);
  ASSERT_NE(leader, kNoServer);

  // Non-leaders refuse the admin verb outright.
  ServerId follower = kNoServer;
  for (const ServerId id : cluster.members()) {
    if (id != leader) follower = id;
  }
  const auto refused =
      cluster.node(follower).propose_conf_change({ConfChangeOp::kAddLearner, 4},
                                                 cluster.loop().now());
  EXPECT_EQ(refused.status, ConfChangeStatus::kNotLeader);

  // A legal add is accepted and lands at a real log slot...
  cluster.add_host(4);
  const auto accepted = cluster.propose_conf_change({ConfChangeOp::kAddLearner, 4});
  ASSERT_EQ(accepted.status, ConfChangeStatus::kOk);
  EXPECT_GT(accepted.index, 0u);

  // ...and while it is in flight every further change is refused (one at a
  // time — the §4.3 serialization rule).
  EXPECT_EQ(cluster.propose_conf_change({ConfChangeOp::kRemove, 2}).status,
            ConfChangeStatus::kBusy);

  // Once the add commits, nonsense is rejected as invalid.
  ASSERT_TRUE(cluster.run_until_applied(accepted.index, cluster.loop().now() + from_ms(30'000)));
  EXPECT_EQ(cluster.propose_conf_change({ConfChangeOp::kPromote, 2}).status,
            ConfChangeStatus::kInvalid);
  EXPECT_EQ(cluster.propose_conf_change({ConfChangeOp::kAddLearner, 4}).status,
            ConfChangeStatus::kInvalid);

  // Promotion is gated on catch-up: crash the learner, advance commit past
  // its match point, and the promote is refused rather than handing a vote
  // to a replica that would drag the quorum backwards.
  cluster.crash(4);
  const auto moved = cluster.submit_via_leader({0x01});
  ASSERT_TRUE(moved.has_value());
  ASSERT_TRUE(cluster.run_until_applied(*moved, cluster.loop().now() + from_ms(30'000)));
  EXPECT_EQ(cluster.propose_conf_change({ConfChangeOp::kPromote, 4}).status,
            ConfChangeStatus::kNotCaughtUp);

  // Recovered and caught up, the same workflow completes.
  cluster.recover(4);
  EXPECT_TRUE(run_join(cluster, 4, from_ms(60'000)));
}

TEST(MembershipSimTest, LearnerCatchesUpThroughSnapshotInstall) {
  SimCluster cluster(paper_escape_cluster(3, 103));
  sim::InvariantChecker checker(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  sim::drive_traffic(cluster, from_ms(2'000), from_ms(100));

  // Compact the leader's log so a fresh learner's backfill cannot come from
  // log entries alone — InstallSnapshot is the only catch-up path.
  const ServerId leader = cluster.leader();
  ASSERT_NE(leader, kNoServer);
  const auto compacted_to = cluster.trigger_snapshot(leader);
  ASSERT_TRUE(compacted_to.has_value());
  ASSERT_GT(*compacted_to, 0u);

  cluster.add_host(4);
  ASSERT_TRUE(run_join(cluster, 4, from_ms(60'000)));

  // The learner rebased onto the shipped snapshot before replaying the tail.
  EXPECT_GE(cluster.node(4).log().base(), *compacted_to);
  const auto installed = cluster.snapshot_store(4).load();
  ASSERT_TRUE(installed.has_value());
  // The snapshot predates the expansion, so its membership is the seed trio;
  // the conf entries in the replayed tail are what made server 4 a voter.
  EXPECT_EQ(installed->membership.voters, (std::vector<ServerId>{1, 2, 3}));
  EXPECT_TRUE(cluster.node(4).membership().is_voter(4));

  checker.deep_check();
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST(MembershipSimTest, RemovedLeaderRetiresAndSuccessorServes) {
  SimCluster cluster(paper_escape_cluster(3, 104));
  sim::InvariantChecker checker(cluster);
  const ServerId old_leader = sim::bootstrap(cluster);
  ASSERT_NE(old_leader, kNoServer);
  sim::drive_traffic(cluster, from_ms(1'000), from_ms(200));

  // RemoveServer targeting the sitting leader: it drives its own joint
  // handoff, commits Cnew, retires, and the remaining pair re-elects.
  ASSERT_TRUE(run_remove(cluster, old_leader, from_ms(120'000)));

  const ServerId successor = cluster.leader();
  ASSERT_NE(successor, kNoServer);
  EXPECT_NE(successor, old_leader);
  const auto& m = cluster.node(successor).membership();
  EXPECT_EQ(m.voters.size(), 2u);
  EXPECT_FALSE(m.contains(old_leader));

  // The shrunk cluster still serves writes. (run_until_applied would wait on
  // the removed-but-racked server too, which no longer receives appends, so
  // commit is asserted on the successor directly.)
  const auto index = cluster.submit_via_leader({0x07});
  ASSERT_TRUE(index.has_value());
  const TimePoint deadline = cluster.loop().now() + from_ms(30'000);
  while (cluster.loop().now() < deadline && cluster.node(successor).commit_index() < *index) {
    cluster.loop().run_until(cluster.loop().now() + from_ms(200));
  }
  EXPECT_GE(cluster.node(successor).commit_index(), *index);

  // The removed server stays racked but can no longer vote or campaign under
  // the membership it adopted.
  EXPECT_TRUE(cluster.alive(old_leader));
  EXPECT_FALSE(cluster.node(old_leader).membership().is_voter(old_leader));

  checker.deep_check();
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST(MembershipSimTest, InheritedJointConfigCompletesWithoutClientTraffic) {
  // Liveness regression: a successor that inherits an uncommitted Cold,new
  // must finish the handoff on an otherwise idle cluster. The commit rule
  // needs a current-term entry, and no client traffic will supply one — the
  // new leader has to append its own barrier no-op (and, when the joint
  // entry is already committed, Cnew itself) at election time.
  SimCluster cluster(paper_escape_cluster(3, 106));
  sim::InvariantChecker checker(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);

  cluster.add_host(4);
  const auto added = cluster.propose_conf_change({ConfChangeOp::kAddLearner, 4});
  ASSERT_EQ(added.status, ConfChangeStatus::kOk);
  ASSERT_TRUE(cluster.run_until_applied(added.index, cluster.loop().now() + from_ms(30'000)));
  cluster.loop().run_until(cluster.loop().now() + from_ms(2'000));  // learner catch-up

  // Push into the joint phase, then kill the leader before it can commit.
  rpc::ConfChangeStatus promoted = ConfChangeStatus::kNotLeader;
  const TimePoint promote_deadline = cluster.loop().now() + from_ms(30'000);
  while (promoted != ConfChangeStatus::kOk && cluster.loop().now() < promote_deadline) {
    promoted = cluster.propose_conf_change({ConfChangeOp::kPromote, 4}).status;
    if (promoted != ConfChangeStatus::kOk) {
      cluster.loop().run_until(cluster.loop().now() + from_ms(500));
    }
  }
  ASSERT_EQ(promoted, ConfChangeStatus::kOk);
  const ServerId doomed = cluster.leader();
  cluster.crash(doomed);

  // No traffic, no proposals: the successor alone must drive Cold,new to
  // commit and append Cnew.
  const TimePoint deadline = cluster.loop().now() + from_ms(60'000);
  auto settled = [&] {
    const ServerId l = cluster.leader();
    if (l == kNoServer) return false;
    const auto& m = cluster.node(l).membership();
    return m.is_voter(4) && !m.joint();
  };
  while (!settled() && cluster.loop().now() < deadline) {
    cluster.loop().run_until(cluster.loop().now() + from_ms(500));
  }
  ASSERT_TRUE(settled());

  cluster.recover(doomed);
  cluster.loop().run_until(cluster.loop().now() + from_ms(3'000));
  checker.deep_check();
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST(MembershipSimTest, AdoptedMembershipSurvivesCrashRecovery) {
  SimCluster cluster(paper_escape_cluster(3, 105));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  cluster.add_host(4);
  ASSERT_TRUE(run_join(cluster, 4, from_ms(60'000)));
  sim::drive_traffic(cluster, from_ms(1'000), from_ms(200));

  // The new voter's membership is reconstructed from snapshot + WAL alone.
  cluster.crash(4);
  cluster.loop().run_until(cluster.loop().now() + from_ms(1'000));
  cluster.recover(4);
  cluster.loop().run_until(cluster.loop().now() + from_ms(3'000));

  const auto& m = cluster.node(4).membership();
  EXPECT_EQ(m.voters, (std::vector<ServerId>{1, 2, 3, 4}));
  EXPECT_FALSE(m.joint());
  EXPECT_TRUE(cluster.node(4).membership().is_voter(4));

  // And a seed member that crashes mid-life re-derives the same view.
  cluster.crash(2);
  cluster.loop().run_until(cluster.loop().now() + from_ms(1'000));
  cluster.recover(2);
  cluster.loop().run_until(cluster.loop().now() + from_ms(3'000));
  EXPECT_EQ(cluster.node(2).membership().voters, (std::vector<ServerId>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace escape
