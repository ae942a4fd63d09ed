#include "sim/fault_plan.h"

#include <algorithm>
#include <utility>

namespace escape::sim {

namespace {

/// Offset at which an action's effect ends (bursts outlast their start).
Duration action_end(const PlannedAction& planned) {
  if (const auto* burst = std::get_if<TrafficBurst>(&planned.action)) {
    return planned.at + burst->duration;
  }
  if (const auto* storm = std::get_if<ProposalBurst>(&planned.action)) {
    return planned.at + storm->duration;
  }
  if (const auto* reads = std::get_if<ClientRead>(&planned.action)) {
    return planned.at + reads->duration;
  }
  return planned.at;
}

}  // namespace

const char* action_name(const FaultAction& action) {
  struct Visitor {
    const char* operator()(const CrashNode&) const { return "crash"; }
    const char* operator()(const RecoverNode&) const { return "recover"; }
    const char* operator()(const RecoverAll&) const { return "recover-all"; }
    const char* operator()(const IsolateNode&) const { return "isolate"; }
    const char* operator()(const HealNode&) const { return "heal"; }
    const char* operator()(const CutLink&) const { return "cut-link"; }
    const char* operator()(const HealLink&) const { return "heal-link"; }
    const char* operator()(const PartialIsolate&) const { return "partial-isolate"; }
    const char* operator()(const HealPartial&) const { return "heal-partial"; }
    const char* operator()(const SwapLatency&) const { return "swap-latency"; }
    const char* operator()(const DegradeNode&) const { return "degrade"; }
    const char* operator()(const RestoreLatency&) const { return "restore-latency"; }
    const char* operator()(const SetLossRate&) const { return "set-loss"; }
    const char* operator()(const LeaderTransfer&) const { return "leader-transfer"; }
    const char* operator()(const TrafficBurst&) const { return "traffic"; }
    const char* operator()(const ProposalBurst&) const { return "proposal-burst"; }
    const char* operator()(const ClientRead&) const { return "client-read"; }
    const char* operator()(const ScriptTimeout&) const { return "script-timeout"; }
    const char* operator()(const MarkEpisode&) const { return "mark-episode"; }
    const char* operator()(const TriggerSnapshot&) const { return "snapshot"; }
    const char* operator()(const SnapshotAndCrash&) const { return "snapshot-crash"; }
    const char* operator()(const JoinServer&) const { return "join-server"; }
    const char* operator()(const LeaveServer&) const { return "leave-server"; }
    const char* operator()(const CrashNotify&) const { return "crash-notify"; }
  };
  return std::visit(Visitor{}, action);
}

FaultPlan& FaultPlan::at(Duration offset, FaultAction action) {
  cursor_ = offset;
  actions_.push_back({offset, std::move(action)});
  return *this;
}

FaultPlan& FaultPlan::then(Duration delay, FaultAction action) {
  return at(cursor_ + delay, std::move(action));
}

Duration FaultPlan::span() const {
  Duration span = 0;
  for (const auto& planned : actions_) span = std::max(span, action_end(planned));
  return span;
}

// --- PlanRuntime -------------------------------------------------------------

PlanRuntime::PlanRuntime(SimCluster& cluster)
    : cluster_(cluster),
      base_options_(cluster.network().options()),
      live_(std::make_shared<LiveFlag>()) {
  // Deferred crash-of-leader: when the plan asked to crash "the leader" while
  // the cluster was leaderless, the next election win triggers the crash. The
  // crash itself is pushed through the event loop — never executed from
  // inside the node's own event dispatch, where destroying the node would be
  // a use-after-free.
  listener_handle_ = cluster_.add_event_listener(
      [this, live = live_](const raft::NodeEvent& event) {
        if (!live->active || live->crashes_pending <= 0) return;
        if (event.kind != raft::NodeEvent::Kind::kBecameLeader) return;
        --live->crashes_pending;
        cluster_.loop().schedule_at(event.at, [this, live] {
          if (!live->active) return;
          const ServerId id = cluster_.leader();
          if (id != kNoServer) {
            crash_now(id, /*deferred=*/true);
          } else {
            // The winner already stepped down within this tick; keep the
            // contract ("fires as soon as a leader emerges") and re-arm.
            ++live->crashes_pending;
          }
        });
      });
}

PlanRuntime::~PlanRuntime() {
  live_->active = false;  // defuse every closure still sitting in the loop
  cluster_.remove_event_listener(listener_handle_);
  restore_overrides();
}

TimePoint PlanRuntime::install(const FaultPlan& plan) {
  const TimePoint start = cluster_.loop().now();
  TimePoint end = start;
  for (const auto& planned : plan.actions()) {
    end = std::max(end, start + action_end(planned));
    cluster_.loop().schedule_at(start + planned.at,
                                [this, live = live_, action = planned.action] {
                                  if (live->active) execute(action);
                                });
  }
  return end;
}

TimePoint PlanRuntime::last_episode_at() const {
  for (auto it = markers_.rbegin(); it != markers_.rend(); ++it) {
    if (it->episode) return it->at;
  }
  return kNever;
}

void PlanRuntime::disarm_deferred_crash() { live_->crashes_pending = 0; }

void PlanRuntime::clear_markers() {
  markers_.clear();
  traffic_submitted_ = 0;
  reads_issued_ = 0;
  last_crashed_ = kNoServer;
  live_->crashes_pending = 0;
}

void PlanRuntime::restore_overrides() {
  cluster_.network().set_latency(base_options_.latency);
  cluster_.network().set_broadcast_omission(base_options_.broadcast_omission);
  cluster_.network().set_uniform_loss(base_options_.uniform_loss);
  swapped_latency_ = nullptr;
  degraded_.clear();
  for (const ServerId id : scripted_) {
    if (cluster_.alive(id)) cluster_.node(id).mutable_policy().set_timeout_override(nullptr);
  }
  scripted_.clear();
  for (const ServerId id : isolated_) cluster_.network().heal(id);
  isolated_.clear();
  for (const auto& [a, b] : cut_links_) cluster_.network().heal_link(a, b);
  cut_links_.clear();
  for (const auto& [from, to] : one_way_cuts_) cluster_.network().heal_link_one_way(from, to);
  one_way_cuts_.clear();
}

ServerId PlanRuntime::resolve(const NodeRef& ref) const {
  switch (ref.kind) {
    case NodeRef::Kind::kId:
      return ref.server;
    case NodeRef::Kind::kLeader:
      return cluster_.leader();
    case NodeRef::Kind::kLastCrashed:
      return last_crashed_;
    case NodeRef::Kind::kTopFollower: {
      const ServerId leader = cluster_.leader();
      ServerId best = kNoServer;
      Priority best_priority = 0;
      for (const ServerId id : cluster_.members()) {
        if (id == leader || !cluster_.alive(id)) continue;
        const Priority p = cluster_.node(id).policy().current_config().priority;
        if (best == kNoServer || p > best_priority) {
          best = id;
          best_priority = p;
        }
      }
      return best;
    }
  }
  return kNoServer;
}

void PlanRuntime::crash_now(ServerId id, bool deferred) {
  PlanMarker marker;
  marker.at = cluster_.loop().now();
  marker.what = deferred ? "crash (deferred)" : "crash";
  marker.node = id;
  marker.log_index = cluster_.event_log().size();
  if (id == kNoServer || !cluster_.alive(id)) {
    marker.ok = false;
    markers_.push_back(std::move(marker));
    return;
  }
  // Crashing the acting leader starts a measurement episode: the Section VI
  // protocol times detection/election from this instant.
  marker.episode = (cluster_.leader() == id);
  cluster_.crash(id);
  last_crashed_ = id;
  markers_.push_back(std::move(marker));
}

void PlanRuntime::notify_down(ServerId victim) {
  for (const ServerId member : cluster_.members()) {
    if (member == victim) continue;
    const TimePoint at = cluster_.loop().now() + cluster_.network().sample_latency(victim, member);
    cluster_.loop().schedule_at(at, [this, live = live_, victim, member] {
      if (!live->active || cluster_.alive(victim) || !cluster_.alive(member)) return;
      if (!cluster_.network().link_up(victim, member) ||
          !cluster_.network().link_up(member, victim)) {
        return;
      }
      cluster_.peer_down(member, victim);
    });
  }
}

void PlanRuntime::apply_latency() {
  LatencyFn base = swapped_latency_ ? swapped_latency_ : base_options_.latency;
  if (degraded_.empty()) {
    cluster_.network().set_latency(std::move(base));
    return;
  }
  cluster_.network().set_latency(
      [base, degraded = degraded_](ServerId from, ServerId to, Rng& rng) {
        Duration d = base(from, to, rng);
        const auto it = degraded.find(from);
        if (it != degraded.end()) d += it->second;
        return d;
      });
}

void PlanRuntime::traffic_tick(TimePoint end, Duration interval, std::size_t payload_bytes) {
  if (cluster_.loop().now() >= end) return;
  std::vector<std::uint8_t> payload(payload_bytes,
                                    static_cast<std::uint8_t>(traffic_submitted_ & 0xFF));
  if (cluster_.submit_via_leader(std::move(payload))) ++traffic_submitted_;
  const TimePoint next = cluster_.loop().now() + interval;
  if (next < end) {
    cluster_.loop().schedule_at(next, [this, live = live_, end, interval, payload_bytes] {
      if (live->active) traffic_tick(end, interval, payload_bytes);
    });
  }
}

void PlanRuntime::proposal_tick(TimePoint end, Duration interval, std::size_t per_tick,
                                std::size_t payload_bytes) {
  if (cluster_.loop().now() >= end) return;
  // Open loop: every tick offers the full `per_tick` regardless of how far
  // behind replication is; leaderless instants skip a beat, like traffic.
  for (std::size_t i = 0; i < per_tick; ++i) {
    std::vector<std::uint8_t> payload(payload_bytes,
                                      static_cast<std::uint8_t>(traffic_submitted_ & 0xFF));
    if (!cluster_.submit_via_leader(std::move(payload))) break;
    ++traffic_submitted_;
  }
  const TimePoint next = cluster_.loop().now() + interval;
  if (next < end) {
    cluster_.loop().schedule_at(next, [this, live = live_, end, interval, per_tick,
                                       payload_bytes] {
      if (live->active) proposal_tick(end, interval, per_tick, payload_bytes);
    });
  }
}

void PlanRuntime::read_tick(TimePoint end, Duration interval) {
  if (cluster_.loop().now() >= end) return;
  // Fire-and-audit: the probe ledger + InvariantChecker judge the grant;
  // the runtime only keeps the issue count. Leaderless instants skip a beat
  // (exactly like traffic), which is what read-heavy failover scenarios are
  // probing in the first place.
  const ServerId leader = cluster_.leader();
  if (leader != kNoServer && cluster_.submit_read(leader)) ++reads_issued_;
  const TimePoint next = cluster_.loop().now() + interval;
  if (next < end) {
    cluster_.loop().schedule_at(next, [this, live = live_, end, interval] {
      if (live->active) read_tick(end, interval);
    });
  }
}

void PlanRuntime::membership_tick(ServerId id, raft::MembershipGoal goal, Duration interval) {
  // The stepping rule is re-derived from the leader's membership every tick
  // (see raft::membership_step); a leaderless tick just retries.
  const ServerId leader = cluster_.leader();
  if (leader != kNoServer) {
    const raft::MembershipStep step =
        raft::membership_step(cluster_.node(leader).membership(), id, goal);
    if (step.kind == raft::MembershipStep::Kind::kDone) {
      PlanMarker marker;
      marker.at = cluster_.loop().now();
      marker.what = goal == raft::MembershipGoal::kJoin ? "join-complete" : "leave-complete";
      marker.node = id;
      marker.log_index = cluster_.event_log().size();
      markers_.push_back(std::move(marker));
      return;
    }
    if (step.kind == raft::MembershipStep::Kind::kPropose) {
      cluster_.propose_conf_change(step.change);
    }
  }
  cluster_.loop().schedule_at(cluster_.loop().now() + interval,
                              [this, live = live_, id, goal, interval] {
                                if (live->active) membership_tick(id, goal, interval);
                              });
}

void PlanRuntime::execute(const FaultAction& action) {
  PlanMarker marker;
  marker.at = cluster_.loop().now();
  marker.what = action_name(action);
  marker.log_index = cluster_.event_log().size();

  struct Visitor {
    PlanRuntime& rt;
    PlanMarker& marker;

    void operator()(const CrashNode& a) {
      const ServerId id = rt.resolve(a.node);
      if (id == kNoServer && a.node.kind == NodeRef::Kind::kLeader) {
        // Leaderless right now: defer to the next election win.
        ++rt.live_->crashes_pending;
        marker.what = "crash (armed)";
        return;
      }
      rt.crash_now(id, /*deferred=*/false);
      marker.what.clear();  // crash_now recorded its own marker
    }
    void operator()(const RecoverNode& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer || rt.cluster_.alive(id)) {
        marker.ok = false;
        return;
      }
      rt.cluster_.recover(id);
    }
    void operator()(const RecoverAll&) {
      for (const ServerId id : rt.cluster_.members()) {
        if (!rt.cluster_.alive(id)) rt.cluster_.recover(id);
      }
    }
    void operator()(const IsolateNode& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer) {
        marker.ok = false;
        return;
      }
      rt.cluster_.network().isolate(id);
      rt.isolated_.insert(id);
    }
    void operator()(const HealNode& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer) {
        marker.ok = false;
        return;
      }
      rt.cluster_.network().heal(id);
      rt.isolated_.erase(id);
    }
    void operator()(const CutLink& a) {
      const ServerId x = rt.resolve(a.a);
      const ServerId y = rt.resolve(a.b);
      marker.node = x;
      if (x == kNoServer || y == kNoServer || x == y) {
        marker.ok = false;
        return;
      }
      if (a.bidirectional) {
        rt.cluster_.network().cut_link(x, y);
        rt.cut_links_.insert(std::minmax(x, y));
      } else {
        rt.cluster_.network().cut_link_one_way(x, y);
        rt.one_way_cuts_.insert({x, y});
      }
    }
    void operator()(const HealLink& a) {
      const ServerId x = rt.resolve(a.a);
      const ServerId y = rt.resolve(a.b);
      marker.node = x;
      if (x == kNoServer || y == kNoServer) {
        marker.ok = false;
        return;
      }
      rt.cluster_.network().heal_link(x, y);
      rt.cluster_.network().heal_link_one_way(x, y);
      rt.cluster_.network().heal_link_one_way(y, x);
      rt.cut_links_.erase(std::minmax(x, y));
      rt.one_way_cuts_.erase({x, y});
      rt.one_way_cuts_.erase({y, x});
    }
    void operator()(const PartialIsolate& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer) {
        marker.ok = false;
        return;
      }
      for (const ServerId other : rt.cluster_.members()) {
        if (other == id) continue;
        if (a.direction == LinkDirection::kOutbound) {
          rt.cluster_.network().cut_link_one_way(id, other);
          rt.one_way_cuts_.insert({id, other});
        } else {
          rt.cluster_.network().cut_link_one_way(other, id);
          rt.one_way_cuts_.insert({other, id});
        }
      }
    }
    void operator()(const HealPartial& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer) {
        marker.ok = false;
        return;
      }
      for (const ServerId other : rt.cluster_.members()) {
        if (other == id) continue;
        rt.cluster_.network().heal_link_one_way(id, other);
        rt.cluster_.network().heal_link_one_way(other, id);
        rt.one_way_cuts_.erase({id, other});
        rt.one_way_cuts_.erase({other, id});
      }
    }
    void operator()(const SwapLatency& a) {
      rt.swapped_latency_ = a.latency;
      rt.apply_latency();
    }
    void operator()(const DegradeNode& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer) {
        marker.ok = false;
        return;
      }
      rt.degraded_[id] = a.extra;
      rt.apply_latency();
    }
    void operator()(const RestoreLatency&) {
      rt.swapped_latency_ = nullptr;
      rt.degraded_.clear();
      rt.apply_latency();
    }
    void operator()(const SetLossRate& a) {
      rt.cluster_.network().set_broadcast_omission(a.broadcast_omission);
      rt.cluster_.network().set_uniform_loss(a.uniform_loss);
    }
    void operator()(const LeaderTransfer& a) {
      const ServerId leader = rt.cluster_.leader();
      const ServerId target = rt.resolve(a.target);
      marker.node = target;
      if (leader == kNoServer || target == kNoServer || target == leader) {
        marker.ok = false;
        return;
      }
      marker.ok = rt.cluster_.node(leader).transfer_leadership(target,
                                                               rt.cluster_.loop().now());
      if (marker.ok) rt.cluster_.pump(leader);
    }
    void operator()(const TrafficBurst& a) {
      if (a.interval <= 0) {
        // A non-positive interval would reschedule at the same virtual
        // instant forever, livelocking the loop.
        marker.ok = false;
        return;
      }
      rt.traffic_tick(rt.cluster_.loop().now() + a.duration, a.interval, a.payload_bytes);
    }
    void operator()(const ProposalBurst& a) {
      if (a.interval <= 0 || a.per_tick == 0) {  // same livelock guard as TrafficBurst
        marker.ok = false;
        return;
      }
      rt.proposal_tick(rt.cluster_.loop().now() + a.duration, a.interval, a.per_tick,
                       a.payload_bytes);
    }
    void operator()(const ClientRead& a) {
      if (a.interval <= 0) {  // same livelock guard as TrafficBurst
        marker.ok = false;
        return;
      }
      rt.read_tick(rt.cluster_.loop().now() + a.duration, a.interval);
    }
    void operator()(const ScriptTimeout& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer || !rt.cluster_.alive(id)) {
        marker.ok = false;
        return;
      }
      rt.cluster_.node(id).mutable_policy().set_timeout_override(a.script);
      if (a.script) {
        rt.scripted_.insert(id);
      } else {
        rt.scripted_.erase(id);
      }
    }
    void operator()(const MarkEpisode& a) {
      marker.episode = true;
      marker.label = a.label;
    }
    void operator()(const TriggerSnapshot& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer || !rt.cluster_.alive(id)) {
        marker.ok = false;
        return;
      }
      marker.ok = rt.cluster_.trigger_snapshot(id).has_value();
    }
    void operator()(const JoinServer& a) {
      marker.node = a.id;
      if (a.id == kNoServer || a.retry_interval <= 0) {
        marker.ok = false;
        return;
      }
      // A replacement scenario may have pre-staged the machine; otherwise
      // provision it now. An id that is already a cluster member is a plan
      // bug only if it was never removed — the tick loop sorts that out.
      bool present = false;
      for (const ServerId m : rt.cluster_.members()) present = present || (m == a.id);
      if (!present) rt.cluster_.add_host(a.id);
      rt.membership_tick(a.id, raft::MembershipGoal::kJoin, a.retry_interval);
    }
    void operator()(const LeaveServer& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer || a.retry_interval <= 0) {
        marker.ok = false;
        return;
      }
      rt.membership_tick(id, raft::MembershipGoal::kLeave, a.retry_interval);
    }
    void operator()(const SnapshotAndCrash& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer || !rt.cluster_.alive(id)) {
        marker.ok = false;
        return;
      }
      rt.cluster_.trigger_snapshot(id);  // best-effort: crash follows anyway
      rt.crash_now(id, /*deferred=*/false);
      // crash_now recorded the marker (incl. the episode flag); rename it so
      // traces attribute the crash to this compound action.
      if (!rt.markers_.empty()) rt.markers_.back().what = "snapshot-crash";
      marker.what.clear();
    }
    void operator()(const CrashNotify& a) {
      const ServerId id = rt.resolve(a.node);
      marker.node = id;
      if (id == kNoServer || !rt.cluster_.alive(id)) {
        marker.ok = false;
        return;
      }
      rt.crash_now(id, /*deferred=*/false);
      if (!rt.markers_.empty()) rt.markers_.back().what = "crash-notify";
      marker.what.clear();
      rt.notify_down(id);
    }
  };

  std::visit(Visitor{*this, marker}, action);
  if (!marker.what.empty()) markers_.push_back(std::move(marker));
}

}  // namespace escape::sim
