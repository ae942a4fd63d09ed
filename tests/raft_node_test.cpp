// Direct unit tests of the consensus core: a single RaftNode driven by
// hand-crafted messages and ticks, no simulator.
#include "raft/raft_node.h"

#include "test_node_harness.h"

#include <gtest/gtest.h>

#include "core/escape_policy.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::raft {
namespace {

constexpr Duration kMin = from_ms(100);
constexpr Duration kMax = from_ms(100);  // deterministic timeout for unit tests

struct NodeFixture {
  explicit NodeFixture(ServerId id = 1, std::size_t n = 3,
                       std::vector<rpc::LogEntry> recovered = {}, NodeOptions opts = {}) {
    std::vector<ServerId> members;
    for (ServerId s = 1; s <= n; ++s) members.push_back(s);
    // A recovered log always originates from the WAL; keep them consistent.
    for (const auto& e : recovered) wal.append(e);
    node = std::make_unique<DrivenNode>(
        id, members, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), store, wal, Rng(7),
        opts, std::move(recovered));
  }

  /// Advances virtual time past the election timeout and ticks.
  void expire_election_timer() {
    now += kMax + 1;
    node->on_tick(now);
  }

  void deliver(ServerId from, rpc::Message m) {
    node->on_message({from, node->id(), std::move(m)}, now);
  }

  rpc::AppendEntries make_heartbeat(Term term, ServerId leader = 2) {
    rpc::AppendEntries ae;
    ae.term = term;
    ae.leader_id = leader;
    ae.prev_log_index = 0;
    ae.prev_log_term = 0;
    ae.leader_commit = 0;
    return ae;
  }

  storage::MemoryStateStore store;
  storage::MemoryWal wal;
  std::unique_ptr<DrivenNode> node;
  TimePoint now = 0;
};

TEST(RaftNodeTest, StartsAsFollower) {
  NodeFixture f;
  f.node->start(0);
  EXPECT_EQ(f.node->role(), Role::kFollower);
  EXPECT_EQ(f.node->term(), 0);
  EXPECT_EQ(f.node->leader_hint(), kNoServer);
  EXPECT_LE(f.node->next_deadline(), kMax);
}

TEST(RaftNodeTest, RejectsDoubleStart) {
  NodeFixture f;
  f.node->start(0);
  EXPECT_THROW(f.node->start(0), std::logic_error);
}

TEST(RaftNodeTest, RejectsInvalidConstruction) {
  storage::MemoryStateStore store;
  storage::MemoryWal wal;
  // Member list missing self.
  EXPECT_THROW(DrivenNode(1, {2, 3}, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), store,
                        wal, Rng(1)),
               std::invalid_argument);
  // Reserved id 0.
  EXPECT_THROW(DrivenNode(0, {0, 1}, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), store,
                        wal, Rng(1)),
               std::invalid_argument);
  // Null policy.
  EXPECT_THROW(DrivenNode(1, {1, 2}, nullptr, store, wal, Rng(1)), std::invalid_argument);
}

TEST(RaftNodeTest, TimeoutStartsCampaign) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  EXPECT_EQ(f.node->role(), Role::kCandidate);
  EXPECT_EQ(f.node->term(), 1);  // Raft: term + 1
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 2u);  // RequestVote to both peers
  for (const auto& env : out) {
    ASSERT_TRUE(std::holds_alternative<rpc::RequestVote>(env.message));
    const auto& rv = std::get<rpc::RequestVote>(env.message);
    EXPECT_EQ(rv.term, 1);
    EXPECT_EQ(rv.candidate_id, 1u);
  }
}

TEST(RaftNodeTest, PersistsTermAndVoteOnCampaign) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  const auto persisted = f.store.load();
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(persisted->current_term, 1);
  EXPECT_EQ(persisted->voted_for, 1u);  // voted for self
}

TEST(RaftNodeTest, WinsElectionWithQuorum) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  rpc::RequestVoteReply reply;
  reply.term = 1;
  reply.vote_granted = true;
  reply.voter_id = 2;
  f.deliver(2, reply);
  EXPECT_EQ(f.node->role(), Role::kLeader);  // self + S2 = 2 of 3
  EXPECT_EQ(f.node->leader_hint(), 1u);
  // Winning triggers an immediate heartbeat round.
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 2u);
  for (const auto& env : out) {
    EXPECT_TRUE(rpc::is_heartbeat(env.message));
  }
}

TEST(RaftNodeTest, DuplicateVotesDoNotDoubleCount) {
  NodeFixture f(1, 5);
  f.node->start(0);
  f.expire_election_timer();
  rpc::RequestVoteReply reply;
  reply.term = 1;
  reply.vote_granted = true;
  reply.voter_id = 2;
  f.deliver(2, reply);
  f.deliver(2, reply);  // duplicate from same voter
  EXPECT_EQ(f.node->role(), Role::kCandidate);  // 2 votes of 5 -> quorum is 3
  reply.voter_id = 3;
  f.deliver(3, reply);
  EXPECT_EQ(f.node->role(), Role::kLeader);
}

TEST(RaftNodeTest, DeniedVotesIgnored) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  rpc::RequestVoteReply reply;
  reply.term = 1;
  reply.vote_granted = false;
  reply.voter_id = 2;
  f.deliver(2, reply);
  EXPECT_EQ(f.node->role(), Role::kCandidate);
}

TEST(RaftNodeTest, CandidateRetriesOnNextTimeout) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  EXPECT_EQ(f.node->term(), 1);
  f.expire_election_timer();
  EXPECT_EQ(f.node->role(), Role::kCandidate);
  EXPECT_EQ(f.node->term(), 2);
  EXPECT_EQ(f.node->counters().campaigns_started, 2u);
}

TEST(RaftNodeTest, GrantsVoteOncePerTerm) {
  NodeFixture f;
  f.node->start(0);
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);

  rv.candidate_id = 3;  // second candidate, same term
  f.deliver(3, rv);
  out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);
}

TEST(RaftNodeTest, RegrantsSameCandidateIdempotently) {
  NodeFixture f;
  f.node->start(0);
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  f.node->take_outbox();
  f.deliver(2, rv);  // retransmission
  auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);
}

TEST(RaftNodeTest, RejectsStaleTermCandidate) {
  NodeFixture f;
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(5));  // adopt term 5
  f.node->take_outbox();
  rpc::RequestVote rv;
  rv.term = 3;
  rv.candidate_id = 3;
  f.deliver(3, rv);
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& reply = std::get<rpc::RequestVoteReply>(out[0].message);
  EXPECT_FALSE(reply.vote_granted);
  EXPECT_EQ(reply.term, 5);  // candidate learns the newer term
}

TEST(RaftNodeTest, RejectsCandidateWithStaleLog) {
  rpc::LogEntry e1{.term = 2, .index = 1, .command = {}};
  NodeFixture f(1, 3, {e1});
  f.node->start(0);
  // A node restarting with prior state refuses votes for one guard window
  // (it may have acked a lease round before dying); step past it — this
  // test is about the log up-to-date rule.
  f.now += kMax;
  rpc::RequestVote rv;
  rv.term = 3;
  rv.candidate_id = 2;
  rv.last_log_index = 5;
  rv.last_log_term = 1;  // lower last term than ours (2)
  f.deliver(2, rv);
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::RequestVoteReply>(out[0].message);
  EXPECT_FALSE(reply.vote_granted);
  EXPECT_EQ(f.node->term(), 3);  // term still adopted (Eq. 3 max-merge)
}

TEST(RaftNodeTest, HigherTermMessageForcesStepDown) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();  // candidate in term 1
  f.node->take_outbox();
  f.deliver(2, f.make_heartbeat(4));
  EXPECT_EQ(f.node->role(), Role::kFollower);
  EXPECT_EQ(f.node->term(), 4);
  EXPECT_EQ(f.node->leader_hint(), 2u);
}

TEST(RaftNodeTest, CandidateStepsDownOnEqualTermLeader) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();  // candidate, term 1
  f.node->take_outbox();
  f.deliver(2, f.make_heartbeat(1));
  EXPECT_EQ(f.node->role(), Role::kFollower);
  EXPECT_EQ(f.node->term(), 1);
}

TEST(RaftNodeTest, StaleHeartbeatRejected) {
  NodeFixture f;
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(3));
  f.node->take_outbox();
  f.deliver(3, f.make_heartbeat(1, 3));  // stale leader
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.term, 3);
}

TEST(RaftNodeTest, AppendEntriesConsistencyCheck) {
  NodeFixture f;
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(1);
  ae.prev_log_index = 5;  // we have nothing at index 5
  ae.prev_log_term = 1;
  f.deliver(2, ae);
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.conflict_index, 1);  // log is empty: back up to index 1
  EXPECT_EQ(reply.conflict_term, 0);
}

TEST(RaftNodeTest, AppendsEntriesAndAdvancesCommit) {
  NodeFixture f;
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(1);
  ae.entries.push_back({.term = 1, .index = 1, .command = {42}});
  ae.entries.push_back({.term = 1, .index = 2, .command = {43}});
  ae.leader_commit = 1;
  f.deliver(2, ae);
  EXPECT_EQ(f.node->log().last_index(), 2);
  EXPECT_EQ(f.node->commit_index(), 1);
  const auto committed = f.node->take_committed();
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].command, std::vector<std::uint8_t>{42});
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_TRUE(reply.success);
  EXPECT_EQ(reply.match_index, 2);
  EXPECT_EQ(reply.status.log_index, 2);
}

TEST(RaftNodeTest, ConflictingSuffixTruncated) {
  std::vector<rpc::LogEntry> recovered{
      {.term = 1, .index = 1, .command = {1}},
      {.term = 2, .index = 2, .command = {2}},
      {.term = 2, .index = 3, .command = {3}},
  };
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(3);
  ae.prev_log_index = 1;
  ae.prev_log_term = 1;
  ae.entries.push_back({.term = 3, .index = 2, .command = {9}});
  f.deliver(2, ae);
  EXPECT_EQ(f.node->log().last_index(), 2);  // index 3 truncated away
  EXPECT_EQ(f.node->log().term_at(2), Term{3});
  // WAL saw the truncation too.
  ASSERT_EQ(f.wal.entries().size(), 2u);
  EXPECT_EQ(f.wal.entries()[1].term, 3);
}

TEST(RaftNodeTest, DuplicateAppendIsIdempotent) {
  NodeFixture f;
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(1);
  ae.entries.push_back({.term = 1, .index = 1, .command = {42}});
  f.deliver(2, ae);
  f.deliver(2, ae);  // network duplicate
  EXPECT_EQ(f.node->log().last_index(), 1);
  EXPECT_EQ(f.wal.entries().size(), 1u);
}

TEST(RaftNodeTest, ConflictTermHintPointsAtFirstIndexOfTerm) {
  std::vector<rpc::LogEntry> recovered{
      {.term = 1, .index = 1, .command = {}},
      {.term = 2, .index = 2, .command = {}},
      {.term = 2, .index = 3, .command = {}},
  };
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(3);
  ae.prev_log_index = 3;
  ae.prev_log_term = 3;  // we have term 2 there
  f.deliver(2, ae);
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.conflict_term, 2);
  EXPECT_EQ(reply.conflict_index, 2);  // first index of term 2
}

TEST(RaftNodeTest, LeaderReplicatesAndCommits) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  rpc::RequestVoteReply vote{.term = 1, .vote_granted = true, .voter_id = 2};
  f.deliver(2, vote);
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();

  const auto idx = f.node->submit({7, 7}, f.now);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 1);
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 2u);  // eager replication to both peers
  for (const auto& env : out) {
    const auto& ae = std::get<rpc::AppendEntries>(env.message);
    ASSERT_EQ(ae.entries.size(), 1u);
    EXPECT_EQ(ae.entries[0].index, 1);
  }

  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  EXPECT_EQ(f.node->commit_index(), 1);  // self + S2 = quorum
  EXPECT_EQ(f.node->take_committed().size(), 1u);
}

TEST(RaftNodeTest, LeaderDoesNotCommitPriorTermByCounting) {
  // Raft §5.4.2 scenario: an entry from an older term must not commit by
  // replica counting alone.
  std::vector<rpc::LogEntry> recovered{{.term = 1, .index = 1, .command = {1}}};
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(1));  // sync term 1
  f.node->take_outbox();
  f.expire_election_timer();  // campaign in term 2
  f.node->take_outbox();
  rpc::RequestVoteReply vote{.term = 2, .vote_granted = true, .voter_id = 2};
  f.deliver(2, vote);
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();

  // S2 acks the old entry; it must NOT commit (term 1 < current term 2).
  rpc::AppendEntriesReply ok{.term = 2, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  EXPECT_EQ(f.node->commit_index(), 0);

  // A current-term entry replicated to quorum commits everything below it.
  const auto idx = f.node->submit({2}, f.now);
  ASSERT_TRUE(idx.has_value());
  f.node->take_outbox();
  rpc::AppendEntriesReply ok2{.term = 2, .success = true, .from = 2, .match_index = 2};
  ok2.status.log_index = 2;
  f.deliver(2, ok2);
  EXPECT_EQ(f.node->commit_index(), 2);
  EXPECT_EQ(f.node->take_committed().size(), 2u);
}

TEST(RaftNodeTest, LeaderBacksUpNextIndexOnConflict) {
  // Leader restarts with a 3-entry log, wins term 2; a follower holding only
  // one entry NACKs the first probe with conflict_index = 2.
  std::vector<rpc::LogEntry> recovered{
      {.term = 1, .index = 1, .command = {1}},
      {.term = 1, .index = 2, .command = {2}},
      {.term = 1, .index = 3, .command = {3}},
  };
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(1));  // learn term 1 first
  f.node->take_outbox();
  f.expire_election_timer();  // campaign in term 2
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 2, .vote_granted = true, .voter_id = 2});
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();  // initial heartbeat probes with prev=3

  rpc::AppendEntriesReply nack{.term = 2, .success = false, .from = 2};
  nack.conflict_index = 2;  // follower's log has exactly one entry
  nack.conflict_term = 0;
  f.deliver(2, nack);
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& retry = std::get<rpc::AppendEntries>(out[0].message);
  EXPECT_EQ(retry.prev_log_index, 1);  // next_index backed up to 2
  EXPECT_EQ(retry.entries.size(), 2u);
}

TEST(RaftNodeTest, SubmitOnFollowerRejected) {
  NodeFixture f;
  f.node->start(0);
  EXPECT_FALSE(f.node->submit({1}, f.now).has_value());
}

TEST(RaftNodeTest, SingleNodeClusterLeadsImmediately) {
  NodeFixture f(1, 1);
  f.node->start(0);
  f.expire_election_timer();
  EXPECT_EQ(f.node->role(), Role::kLeader);
  const auto idx = f.node->submit({1}, f.now);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(f.node->commit_index(), 1);  // quorum of 1
}

TEST(RaftNodeTest, RestartRestoresPersistentState) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();  // term 1, voted for self
  f.node->take_outbox();

  // "Restart": new node instance over the same store/WAL.
  std::vector<ServerId> members{1, 2, 3};
  DrivenNode restarted(1, members, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), f.store,
                     f.wal, Rng(8), {}, f.wal.entries());
  restarted.start(0);
  EXPECT_EQ(restarted.term(), 1);
  EXPECT_EQ(restarted.role(), Role::kFollower);
  // It must refuse to vote for another candidate in term 1.
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 3;
  restarted.on_message({3, 1, rv}, 0);
  const auto out = restarted.take_outbox();
  EXPECT_FALSE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);
}

TEST(RaftNodeTest, LeaderHeartbeatsOnInterval) {
  NodeOptions opts;
  opts.heartbeat_interval = from_ms(50);
  NodeFixture f(1, 3, {}, opts);
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  f.node->take_outbox();  // initial heartbeat round

  f.now += from_ms(50);
  f.node->on_tick(f.now);
  const auto out = f.node->take_outbox();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(f.node->counters().heartbeat_rounds, 2u);
}

TEST(RaftNodeTest, NoopCommittedOnElectionWhenEnabled) {
  NodeOptions opts;
  opts.commit_noop_on_elect = true;
  NodeFixture f(1, 3, {}, opts);
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  EXPECT_EQ(f.node->log().last_index(), 1);  // the no-op barrier entry
  EXPECT_EQ(f.node->log().term_at(1), Term{1});
}

TEST(RaftNodeTest, EventHookSeesTransitions) {
  NodeFixture f;
  std::vector<NodeEvent::Kind> kinds;
  f.node->set_event_hook([&](const NodeEvent& e) { kinds.push_back(e.kind); });
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], NodeEvent::Kind::kCampaignStarted);
  EXPECT_EQ(kinds[1], NodeEvent::Kind::kBecameLeader);
}

TEST(RaftNodeTest, GrantingVoteResetsElectionTimer) {
  NodeFixture f;
  f.node->start(0);
  const auto deadline_before = f.node->next_deadline();
  f.now = deadline_before - 1;
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  EXPECT_GT(f.node->next_deadline(), deadline_before);
}

TEST(RaftNodeTest, DeniedVoteDoesNotResetElectionTimer) {
  NodeFixture f;
  f.node->start(0);
  // Vote for S2 first.
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  const auto deadline = f.node->next_deadline();
  // S3 begs for a vote in the same term; denial must not defer our timer.
  rv.candidate_id = 3;
  f.deliver(3, rv);
  EXPECT_EQ(f.node->next_deadline(), deadline);
}

// --- batched + pipelined replication ----------------------------------------

/// Elects fixture node 1 leader of a 3-node cluster (vote from S2).
void elect_leader(NodeFixture& f) {
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();
}

/// AppendEntries messages to `to`, in send order.
std::vector<rpc::AppendEntries> appends_to(std::vector<rpc::Envelope> out, ServerId to) {
  std::vector<rpc::AppendEntries> result;
  for (const auto& env : out) {
    if (env.to != to) continue;
    if (const auto* ae = std::get_if<rpc::AppendEntries>(&env.message)) result.push_back(*ae);
  }
  return result;
}

TEST(RaftPipelineTest, WindowCapsInflightBatchesPerFollower) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  opts.max_inflight_msgs = 3;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);

  // Five submissions, window of three: the optimistic next advances per
  // send, so each peer sees exactly entries 1..3 and the rest queue.
  for (int i = 0; i < 5; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  for (ServerId peer : {ServerId{2}, ServerId{3}}) {
    const auto* pr = f.node->core().progress(peer);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->next, 4u);
    EXPECT_EQ(pr->inflight, 3u);
  }
  auto out = f.node->take_outbox();
  for (ServerId peer : {ServerId{2}, ServerId{3}}) {
    const auto batches = appends_to(out, peer);
    ASSERT_EQ(batches.size(), 3u);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      ASSERT_EQ(batches[i].entries.size(), 1u);
      EXPECT_EQ(batches[i].entries[0].index, i + 1);
    }
  }
  EXPECT_EQ(f.node->counters().inflight_depth.max, 3u);

  // One ack frees one slot; the backlog refills it immediately.
  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  const auto refill = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(refill.size(), 1u);
  ASSERT_EQ(refill[0].entries.size(), 1u);
  EXPECT_EQ(refill[0].entries[0].index, 4u);
}

TEST(RaftPipelineTest, ByteBudgetTrimsBatch) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 128;
  // Framing estimate is 24 B/entry; 8 B payloads make 32 B each, so a 64 B
  // budget carries exactly two entries per message.
  opts.max_bytes_per_msg = 64;
  opts.max_inflight_msgs = 1;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);

  f.node->submit(std::vector<std::uint8_t>(8, 1), f.now);  // ships alone, fills the window
  for (int i = 2; i <= 5; ++i) {
    f.node->submit(std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(i)), f.now);
  }
  f.node->take_outbox();

  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  const auto refill = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(refill.size(), 1u);
  ASSERT_EQ(refill[0].entries.size(), 2u);  // budget, not the entry cap, trims
  EXPECT_EQ(refill[0].entries[0].index, 2u);
  EXPECT_EQ(refill[0].entries[1].index, 3u);
}

TEST(RaftPipelineTest, OversizedEntryStillShipsAlone) {
  NodeOptions opts;
  opts.max_bytes_per_msg = 8;  // smaller than any framed entry
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  f.node->submit(std::vector<std::uint8_t>(64, 9), f.now);
  const auto out = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].entries.size(), 1u);  // a batch always carries >= 1 entry
}

TEST(RaftPipelineTest, RejectionEntersProbeModeUntilAck) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  opts.max_inflight_msgs = 4;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  for (int i = 0; i < 3; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  f.node->take_outbox();

  // S2 lost the pipelined batches and rejects from scratch: the leader
  // collapses the window and walks back to the conflict hint.
  rpc::AppendEntriesReply nack{.term = 1, .success = false, .from = 2};
  nack.conflict_index = 1;
  nack.conflict_term = 0;
  f.deliver(2, nack);
  const auto* pr = f.node->core().progress(2);
  ASSERT_NE(pr, nullptr);
  EXPECT_TRUE(pr->probing);
  const auto probes = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(probes.size(), 1u);  // single probe outstanding, not a new pipeline
  EXPECT_EQ(probes[0].prev_log_index, 0u);

  // While probing, fresh submissions must not reopen the pipeline to S2.
  f.node->submit({42}, f.now);
  EXPECT_TRUE(appends_to(f.node->take_outbox(), 2).empty());

  // The probe's ack clears probe mode and resumes pipelined catch-up.
  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  EXPECT_FALSE(f.node->core().progress(2)->probing);
  EXPECT_FALSE(appends_to(f.node->take_outbox(), 2).empty());
}

TEST(RaftPipelineTest, StaleRejectionBehindMatchIgnored) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  for (int i = 0; i < 2; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  f.node->take_outbox();

  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 2};
  ok.status.log_index = 2;
  f.deliver(2, ok);
  f.node->take_outbox();
  const auto next_before = f.node->core().progress(2)->next;

  // A reordered rejection of an already-acked prefix must not drag the
  // cursor back below match (it would re-ship acknowledged entries forever).
  rpc::AppendEntriesReply stale{.term = 1, .success = false, .from = 2};
  stale.conflict_index = 1;
  stale.conflict_term = 0;
  f.deliver(2, stale);
  EXPECT_EQ(f.node->core().progress(2)->next, next_before);
  EXPECT_FALSE(f.node->core().progress(2)->probing);
  EXPECT_TRUE(appends_to(f.node->take_outbox(), 2).empty());
}

TEST(RaftPipelineTest, HeartbeatRoundReopensStalledWindow) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  opts.max_inflight_msgs = 1;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  f.node->submit({1}, f.now);  // fills the single-slot window
  f.node->submit({2}, f.now);  // queued behind it
  f.node->take_outbox();

  // Both in-flight sends were lost. The heartbeat round is the liveness
  // valve: it resets the per-peer window, so the round itself re-ships from
  // the current cursor instead of deadlocking on acks that never come.
  f.now += opts.heartbeat_interval + 1;
  f.node->on_tick(f.now);
  const auto resent = appends_to(f.node->take_outbox(), 2);
  ASSERT_FALSE(resent.empty());
}

TEST(RaftPipelineTest, GroupCommitCountersTrackSyncs) {
  NodeFixture f;
  elect_leader(f);
  const auto before = f.node->counters().wal_group_syncs;
  for (int i = 0; i < 3; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  const auto& c = f.node->counters();
  EXPECT_GE(c.wal_group_syncs, before + 3);  // one sync per batch that carried log ops
  EXPECT_EQ(c.wal_records_per_sync.count, c.wal_group_syncs);
  EXPECT_GE(c.wal_records_per_sync.sum, 3u);
  EXPECT_GT(c.append_batch_entries.count, 0u);
}

TEST(RaftPipelineTest, PowHistogramBucketsByBitWidth) {
  PowHistogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 1024ull}) h.record(v);
  EXPECT_EQ(h.count, 8u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 1u);  // 0
  EXPECT_EQ(h.buckets[1], 1u);  // 1
  EXPECT_EQ(h.buckets[2], 2u);  // 2-3
  EXPECT_EQ(h.buckets[3], 2u);  // 4-7
  EXPECT_EQ(h.buckets[4], 1u);  // 8-15
  EXPECT_DOUBLE_EQ(h.mean(), (0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024) / 8.0);
}

// --- leader-loss signal (peer_down) ---------------------------------------------

constexpr Duration kBase = from_ms(1000);
constexpr Duration kGap = from_ms(500);

/// Member `id` of a five-server ESCAPE cluster (initial priority P = id, so
/// its period is kBase + kGap * (5 - id)), following S1 in term 1 since a
/// heartbeat at 100 ms.
struct EscapeFollower {
  explicit EscapeFollower(ServerId id) {
    core::EscapeOptions opts;
    opts.base_time = kBase;
    opts.gap = kGap;
    node = std::make_unique<DrivenNode>(id, std::vector<ServerId>{1, 2, 3, 4, 5},
                                        std::make_unique<core::EscapePolicy>(id, 5, opts), store,
                                        wal, Rng(7));
    node->start(0);
    rpc::AppendEntries ae;
    ae.term = 1;
    ae.leader_id = 1;
    node->on_message({1, id, ae}, from_ms(100));
    node->take_outbox();
  }

  storage::MemoryStateStore store;
  storage::MemoryWal wal;
  std::unique_ptr<DrivenNode> node;
};

TEST(RaftNodeTest, PeerDownFromLeaderPullsTimerToItsLadderOffset) {
  const TimePoint down_at = from_ms(200);

  // P = 5 (period baseTime): campaigns at the next tick, not at 1100 ms.
  EscapeFollower top(5);
  ASSERT_EQ(top.node->next_deadline(), from_ms(100) + kBase);
  top.node->peer_down(1, down_at);
  EXPECT_EQ(top.node->leader_hint(), kNoServer);
  EXPECT_EQ(top.node->counters().leaders_lost, 1u);
  EXPECT_EQ(top.node->next_deadline(), down_at);
  top.node->on_tick(down_at);
  EXPECT_EQ(top.node->role(), Role::kCandidate);
  EXPECT_EQ(top.node->term(), 1 + 5);  // Eq. 2

  // P = 4 keeps its one-gap offset behind P = 5.
  EscapeFollower next(4);
  next.node->peer_down(1, down_at);
  EXPECT_EQ(next.node->next_deadline(), down_at + kGap);
  next.node->on_tick(down_at + kGap - 1);
  EXPECT_EQ(next.node->role(), Role::kFollower);
  next.node->on_tick(down_at + kGap);
  EXPECT_EQ(next.node->role(), Role::kCandidate);
  EXPECT_EQ(next.node->term(), 1 + 4);
}

TEST(RaftNodeTest, PeerDownIgnoredUnlessItNamesTheLeader) {
  // A follower hears that another follower is down.
  EscapeFollower f(5);
  const TimePoint deadline = f.node->next_deadline();
  f.node->core().peer_down(2, from_ms(200));
  EXPECT_FALSE(f.node->core().has_ready());
  EXPECT_EQ(f.node->leader_hint(), 1u);
  EXPECT_EQ(f.node->next_deadline(), deadline);
  EXPECT_EQ(f.node->counters().leaders_lost, 0u);

  // A candidate has no leader to lose.
  f.node->on_tick(deadline);
  ASSERT_EQ(f.node->role(), Role::kCandidate);
  const TimePoint retry = f.node->next_deadline();
  f.node->core().peer_down(1, deadline + 1);
  EXPECT_FALSE(f.node->core().has_ready());
  EXPECT_EQ(f.node->next_deadline(), retry);

  // A leader hears that a follower, or itself, is down.
  NodeFixture l;
  elect_leader(l);
  const TimePoint heartbeat = l.node->next_deadline();
  for (ServerId peer : {ServerId{2}, ServerId{1}}) {
    l.node->core().peer_down(peer, l.now);
    EXPECT_FALSE(l.node->core().has_ready());
    EXPECT_EQ(l.node->role(), Role::kLeader);
    EXPECT_EQ(l.node->next_deadline(), heartbeat);
  }
  EXPECT_EQ(f.node->counters().leaders_lost + l.node->counters().leaders_lost, 0u);
}

TEST(RaftNodeTest, PeerDownNeverDelaysTheTimer) {
  // P = 1 sits four gaps above baseTime: heartbeat at 100 ms, deadline 3100.
  // A report at 2500 would put it at 4500; the armed deadline stays.
  EscapeFollower f(1);
  const TimePoint deadline = f.node->next_deadline();
  ASSERT_EQ(deadline, from_ms(100) + kBase + 4 * kGap);
  f.node->peer_down(1, from_ms(2500));
  EXPECT_EQ(f.node->next_deadline(), deadline);
  EXPECT_EQ(f.node->leader_hint(), kNoServer);
  EXPECT_EQ(f.node->counters().leaders_lost, 1u);
}

TEST(RaftNodeTest, PeerDownLeavesTheRestartGuard) {
  // A restarted follower (it holds a log) refuses votes for one guard window
  // (0.85 x 100 ms) after start; a heartbeat at 10 ms would extend that to
  // 95 ms, and forgetting the dead leader takes back only that extension.
  NodeFixture f(1, 3, {rpc::LogEntry{1, 1, rpc::EntryKind::kNormal, {7}}});
  f.node->start(0);
  f.now = from_ms(10);
  f.deliver(2, f.make_heartbeat(1));
  f.now = from_ms(20);
  f.node->peer_down(2, f.now);
  ASSERT_EQ(f.node->leader_hint(), kNoServer);
  f.node->take_outbox();

  rpc::RequestVote rv;
  rv.term = 2;
  rv.candidate_id = 3;
  rv.last_log_index = 1;
  rv.last_log_term = 1;
  f.now = from_ms(30);
  f.deliver(3, rv);
  EXPECT_EQ(f.node->counters().votes_refused_recent_leader, 1u);
  EXPECT_EQ(f.node->counters().votes_granted, 0u);
  EXPECT_EQ(f.node->term(), 1);  // a refused candidate's term is not adopted

  f.now = from_ms(86);
  f.deliver(3, rv);
  EXPECT_EQ(f.node->counters().votes_granted, 1u);
  EXPECT_EQ(f.node->term(), 2);
}

}  // namespace
}  // namespace escape::raft
