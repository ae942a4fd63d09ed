// Membership-change arithmetic (Raft dissertation §4, joint consensus).
//
// A configuration entry in the log carries the *resulting* rpc::Membership,
// fully materialized — followers adopt what they read instead of replaying a
// transition, so a node that crashed mid-reconfig reconstructs its exact
// membership from snapshot + log alone. This header holds the pure helpers:
// the transition function (current membership × ConfChange → target), the
// joint-config completion, the one joint-majority rule every quorum decision
// goes through, the join/leave stepping rule, the conf-entry payload codec,
// and set utilities the core uses to derive its peer sets. Everything is
// deterministic and allocation-light; RaftNode owns all policy (when a
// change is legal to *propose*).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/serde.h"
#include "common/types.h"
#include "rpc/messages.h"

namespace escape::raft {

/// One requested membership change (the admin plane's verb).
struct ConfChange {
  rpc::ConfChangeOp op = rpc::ConfChangeOp::kAddLearner;
  ServerId server = kNoServer;

  bool operator==(const ConfChange&) const = default;
};

namespace membership_detail {

inline std::vector<ServerId> sorted_with(std::vector<ServerId> ids, ServerId add) {
  ids.push_back(add);
  std::sort(ids.begin(), ids.end());
  return ids;
}

inline std::vector<ServerId> without(std::vector<ServerId> ids, ServerId drop) {
  ids.erase(std::remove(ids.begin(), ids.end(), drop), ids.end());
  return ids;
}

}  // namespace membership_detail

/// The membership a legal `change` produces from `current`. nullopt when the
/// change is nonsensical: adding a server already present, promoting a
/// non-learner, removing an unknown server, or removing the last voter.
/// Promoting a learner or removing a voter yields a *joint* configuration
/// Cold,new (old_voters = the previous voter set); adding or removing a
/// learner is a simple one-step entry (learners are outside every quorum, so
/// no handoff is needed).
inline std::optional<rpc::Membership> apply_conf_change(const rpc::Membership& current,
                                                        const ConfChange& change) {
  using membership_detail::sorted_with;
  using membership_detail::without;
  if (change.server == kNoServer || current.joint()) return std::nullopt;
  rpc::Membership next = current;
  switch (change.op) {
    case rpc::ConfChangeOp::kAddLearner:
      if (current.contains(change.server)) return std::nullopt;
      next.learners = sorted_with(std::move(next.learners), change.server);
      return next;
    case rpc::ConfChangeOp::kPromote:
      if (!current.is_learner(change.server)) return std::nullopt;
      next.old_voters = next.voters;
      next.voters = sorted_with(std::move(next.voters), change.server);
      next.learners = without(std::move(next.learners), change.server);
      return next;
    case rpc::ConfChangeOp::kRemove:
      if (current.is_learner(change.server)) {
        next.learners = without(std::move(next.learners), change.server);
        return next;
      }
      if (!current.is_voter(change.server)) return std::nullopt;
      if (current.voters.size() <= 1) return std::nullopt;  // last voter stays
      next.old_voters = next.voters;
      next.voters = without(std::move(next.voters), change.server);
      return next;
  }
  return std::nullopt;
}

/// Cnew: the joint configuration with the old majority retired. The leader
/// auto-appends this the moment the joint entry commits under both
/// majorities.
inline rpc::Membership finish_joint(const rpc::Membership& joint) {
  rpc::Membership final_config = joint;
  final_config.old_voters.clear();
  return final_config;
}

/// The value a majority of every active voter set has reached, capped at
/// `ceiling`. Per set, that is the largest v such that a majority of its
/// members have value_of(member) >= v; the result is the smaller of the
/// `voters` figure and, while Cold,new is in force, the `old_voters` figure
/// (dissertation §4.3: a joint configuration decides only with both
/// majorities). An empty set has no majority to wait for and counts as
/// having reached `ceiling`. Learners sit outside both sets and never count.
/// RaftNode decides elections (votes as 0/1), commits (match indexes) and
/// read confirmations (echoed heartbeat rounds) with this one rule.
template <typename T, typename ValueOf>
T joint_quorum_value(const rpc::Membership& m, T ceiling, ValueOf value_of) {
  const auto majority_value = [&](const std::vector<ServerId>& set) {
    if (set.empty()) return ceiling;
    std::vector<T> values;
    values.reserve(set.size());
    for (const ServerId s : set) values.push_back(value_of(s));
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(set.size() / 2);
    std::nth_element(values.begin(), nth, values.end(), std::greater<>());
    return std::min(*nth, ceiling);
  };
  const T reached = majority_value(m.voters);
  return m.joint() ? std::min(reached, majority_value(m.old_voters)) : reached;
}

/// The goal of a rolling membership workflow for one server.
enum class MembershipGoal : std::uint8_t {
  kJoin,   ///< become a voter of a settled configuration
  kLeave,  ///< be gone from a settled configuration
};

/// What a membership workflow does next, judged from the leader's
/// membership: the goal holds, a change is in flight, or `change` is the
/// next one to propose.
struct MembershipStep {
  enum class Kind : std::uint8_t { kDone, kWait, kPropose };
  Kind kind = Kind::kWait;
  ConfChange change{};  ///< valid when kind == kPropose
};

/// The join/leave stepping rule. Drivers re-derive the step from the current
/// leader's membership on every retry, so leader changes, rollbacks and lost
/// replies all land on a retry instead of a stuck phase. Joining: absent ->
/// AddLearner, learner -> Promote (the core answers kNotCaughtUp until
/// catch-up finishes), voter in a joint config -> wait for the leader's
/// automatic Cnew, voter of a settled config -> done. Leaving: gone from a
/// settled config -> done, any joint config -> wait (it is the removal in
/// flight, or kBusy would be the answer anyway), otherwise -> Remove.
inline MembershipStep membership_step(const rpc::Membership& m, ServerId server,
                                      MembershipGoal goal) {
  using Kind = MembershipStep::Kind;
  using Op = rpc::ConfChangeOp;
  if (goal == MembershipGoal::kJoin) {
    if (m.is_voter(server)) return {m.joint() ? Kind::kWait : Kind::kDone};
    return {Kind::kPropose, {m.is_learner(server) ? Op::kPromote : Op::kAddLearner, server}};
  }
  if (m.joint()) return {Kind::kWait};
  if (!m.contains(server)) return {Kind::kDone};
  return {Kind::kPropose, {Op::kRemove, server}};
}

/// Everyone the leader replicates to: voters ∪ old_voters ∪ learners,
/// sorted, deduplicated.
inline std::vector<ServerId> all_members(const rpc::Membership& m) {
  std::vector<ServerId> ids = m.voters;
  ids.insert(ids.end(), m.old_voters.begin(), m.old_voters.end());
  ids.insert(ids.end(), m.learners.begin(), m.learners.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Everyone whose vote can count: voters ∪ old_voters, sorted, deduplicated.
inline std::vector<ServerId> voter_union(const rpc::Membership& m) {
  std::vector<ServerId> ids = m.voters;
  ids.insert(ids.end(), m.old_voters.begin(), m.old_voters.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Conf-entry payload: the resulting membership, serialized with the shared
/// rpc codec (the WAL and wire reuse LogEntry::command verbatim).
inline std::vector<std::uint8_t> encode_conf_entry(const rpc::Membership& m) {
  Encoder e;
  rpc::encode_membership(e, m);
  return e.take();
}

/// Parses a conf-entry payload. Throws DecodeError on malformed input — a
/// conf entry was written by this code, so corruption is a bug, not a
/// recoverable condition.
inline rpc::Membership decode_conf_entry(const std::vector<std::uint8_t>& payload) {
  Decoder d(payload.data(), payload.size());
  rpc::Membership m = rpc::decode_membership(d);
  d.expect_end();
  return m;
}

}  // namespace escape::raft
