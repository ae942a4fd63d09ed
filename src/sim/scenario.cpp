#include "sim/scenario.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/logging.h"

namespace escape::sim {

std::string trace_line(const raft::NodeEvent& event) {
  using Kind = raft::NodeEvent::Kind;
  std::string line = std::to_string(event.at) + " " + server_name(event.node);
  switch (event.kind) {
    case Kind::kCampaignStarted:
      line += " campaign term=" + std::to_string(event.term);
      break;
    case Kind::kBecameLeader:
      line += " leader term=" + std::to_string(event.term);
      break;
    case Kind::kSteppedDown:
      line += " step-down term=" + std::to_string(event.term);
      break;
    case Kind::kConfigAdopted:
      line += " config P=" + std::to_string(event.config.priority) +
              " clock=" + std::to_string(event.config.conf_clock);
      break;
    case Kind::kCommitAdvanced:
      line += " commit index=" + std::to_string(event.index);
      break;
    case Kind::kVoteGranted:
      line += " vote->" + server_name(event.peer) + " term=" + std::to_string(event.term);
      break;
    case Kind::kSnapshotTaken:
      line += " snapshot index=" + std::to_string(event.index);
      break;
    case Kind::kSnapshotInstalled:
      line += " install-snapshot index=" + std::to_string(event.index);
      break;
    case Kind::kReadGranted:
      line += " read-grant index=" + std::to_string(event.index) +
              (event.via_lease ? " lease" : " read-index");
      break;
    case Kind::kReadRejected:
      line += " read-reject index=" + std::to_string(event.index);
      break;
    case Kind::kMembershipChanged:
      line += " membership index=" + std::to_string(event.index);
      break;
  }
  return line;
}

FailoverResult analyze_window(const std::vector<raft::NodeEvent>& log, TimePoint start,
                              TimePoint end, std::size_t begin_index,
                              std::size_t end_index) {
  FailoverResult result;
  const std::size_t stop = std::min(end_index, log.size());
  const raft::NodeEvent* elected = nullptr;
  // Boundary instants belong to the window ([start, end], matching the
  // legacy e.at >= crash_at scan and the runner's stop predicate): a win
  // dispatched in the same virtual-time tick as the fault still converges
  // the episode.
  for (std::size_t i = begin_index; i < stop; ++i) {
    const auto& e = log[i];
    if (e.at < start || e.at > end) continue;
    if (e.kind == raft::NodeEvent::Kind::kBecameLeader) {
      elected = &e;
      break;
    }
  }
  const TimePoint window_end = elected ? elected->at : end;
  TimePoint first_campaign = kNever;
  for (std::size_t i = begin_index; i < stop; ++i) {
    const auto& e = log[i];
    if (e.at < start || e.at > window_end) continue;
    if (e.kind == raft::NodeEvent::Kind::kCampaignStarted) {
      ++result.campaigns;
      if (first_campaign == kNever) first_campaign = e.at;
    }
  }
  if (elected) {
    result.converged = true;
    result.new_leader = elected->node;
    result.new_term = elected->term;
    result.total = elected->at - start;
    if (first_campaign != kNever && first_campaign <= elected->at) {
      result.detection = first_campaign - start;
      result.election = elected->at - first_campaign;
    } else {
      // The winning campaign predated the episode start (possible under
      // heavy message loss); attribute everything to the election period.
      result.election = result.total;
    }
  }
  return result;
}

std::vector<FailoverResult> analyze_episodes(const std::vector<raft::NodeEvent>& log,
                                             const std::vector<PlanMarker>& markers) {
  std::vector<const PlanMarker*> starts;
  for (const auto& m : markers) {
    if (m.episode) starts.push_back(&m);
  }
  std::vector<FailoverResult> results;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const bool last = i + 1 == starts.size();
    const TimePoint end = last ? kNever : starts[i + 1]->at;
    const std::size_t end_index =
        last ? static_cast<std::size_t>(-1) : starts[i + 1]->log_index;
    results.push_back(analyze_window(log, starts[i]->at, end, starts[i]->log_index,
                                     end_index));
  }
  return results;
}

ServerId bootstrap(SimCluster& cluster, Duration max_wait, Duration settle) {
  if (!cluster.started()) cluster.start_all();
  const TimePoint deadline = cluster.loop().now() + max_wait;
  while (cluster.loop().now() < deadline) {
    if (cluster.run_until_leader(deadline) == kNoServer) return kNoServer;
    // Let heartbeats flow and (for ESCAPE) patrol rounds distribute fresh
    // configurations before any experiment begins.
    cluster.loop().run_until(cluster.loop().now() + settle);
    // Under message loss, leadership can be in flux at the settle boundary;
    // only return once a leader is in place at observation time.
    if (const ServerId leader = cluster.leader(); leader != kNoServer) return leader;
  }
  return cluster.leader();
}

// --- ScenarioRunner ----------------------------------------------------------

ScenarioRunner::ScenarioRunner(ClusterOptions options)
    : owned_(std::make_unique<SimCluster>(std::move(options))),
      cluster_(*owned_),
      runtime_(cluster_) {}

ScenarioRunner::ScenarioRunner(SimCluster& cluster) : cluster_(cluster), runtime_(cluster_) {}

ServerId ScenarioRunner::bootstrap(Duration max_wait, Duration settle) {
  return sim::bootstrap(cluster_, max_wait, settle);
}

void ScenarioRunner::run_plan(const FaultPlan& plan, Duration drain) {
  const TimePoint end = runtime_.install(plan);
  cluster_.loop().run_until(end + drain);
}

FailoverResult ScenarioRunner::run_failover_plan(const FaultPlan& plan, Duration max_wait) {
  return run_failover_plan_on(runtime_, plan, max_wait);
}

FailoverResult ScenarioRunner::run_failover_plan_on(PlanRuntime& runtime,
                                                    const FaultPlan& plan,
                                                    Duration max_wait) {
  const TimePoint start = cluster_.loop().now();
  const std::size_t marker_floor = runtime.markers().size();
  runtime.install(plan);

  auto episode_marker = [&]() -> const PlanMarker* {
    const auto& markers = runtime.markers();
    for (std::size_t i = marker_floor; i < markers.size(); ++i) {
      if (markers[i].episode) return &markers[i];
    }
    return nullptr;
  };

  const auto pred = [&](const raft::NodeEvent& e) {
    if (e.kind != raft::NodeEvent::Kind::kBecameLeader) return false;
    // The marker only exists once the fault has executed, so the win that
    // *triggered* a deferred crash can never satisfy this.
    const PlanMarker* m = episode_marker();
    return m != nullptr && e.at >= m->at;
  };

  // A fault firing on schedule gets exactly `max_wait` from the episode
  // start (every planned offset is <= span), matching the legacy drivers'
  // per-election timeout semantics.
  TimePoint deadline = start + plan.span() + max_wait;
  auto elected = cluster_.run_until_event(pred, deadline);
  const PlanMarker* m = episode_marker();
  if (!elected && m != nullptr && m->at + max_wait > deadline) {
    // The fault fired late (a deferred crash waited out an election): grant
    // the measured election the full budget from the episode start, as the
    // legacy series driver did after its run_until_leader phase.
    deadline = m->at + max_wait;
    elected = cluster_.run_until_event(pred, deadline);
    m = episode_marker();
  }

  if (m == nullptr) return {};  // the triggering fault never fired: unconverged
  // Enforce the per-election budget in the measurement even when the fault
  // fired well before the plan's span ran out: a win past episode start +
  // max_wait is a timeout by the paper's definition, not a conversion.
  const TimePoint budget_end = m->at + max_wait;
  if (elected && elected->at <= budget_end) {
    return analyze_window(cluster_.event_log(), m->at, elected->at, m->log_index);
  }
  return analyze_window(cluster_.event_log(), m->at, std::min(deadline, budget_end),
                        m->log_index);
}

FailoverResult ScenarioRunner::measure_failover(Duration max_wait) {
  if (cluster_.leader() == kNoServer) {
    throw std::logic_error("measure_failover: no leader to crash");
  }
  FaultPlan plan;
  plan.at(0, CrashNode{NodeRef::leader()});
  return run_failover_plan(plan, max_wait);
}

FailoverResult ScenarioRunner::measure_competition(const CompetitionOptions& options,
                                                   Duration max_wait) {
  const ServerId leader = cluster_.leader();
  if (leader == kNoServer) {
    throw std::logic_error("measure_competition: no leader");
  }
  std::vector<ServerId> followers;
  for (ServerId id : cluster_.members()) {
    if (id != leader && cluster_.alive(id)) followers.push_back(id);
  }
  if (followers.size() < 2) {
    throw std::logic_error("competition scenario needs at least two followers");
  }
  // Rivals: the two followers whose configurations are most likely to expire
  // first (highest priority). Under vanilla Raft all priorities are 0 and the
  // id tiebreak picks a deterministic pair.
  std::sort(followers.begin(), followers.end(), [&](ServerId a, ServerId b) {
    const auto pa = cluster_.node(a).policy().current_config().priority;
    const auto pb = cluster_.node(b).policy().current_config().priority;
    if (pa != pb) return pa > pb;
    return a < b;
  });
  const ServerId rival_a = followers[0];
  const ServerId rival_b = followers[1];

  // One shared timeout per potentially contested expiry (index 0 doubles as
  // the pre-crash value), plus the decisive divergent one at index `phases`.
  Rng rng(cluster_.seed() ^ 0xF160F160ull);
  const int phases = options.phases;
  std::vector<Duration> shared;
  for (int i = 0; i <= phases; ++i) {
    shared.push_back(rng.uniform_int(options.phase_timeout_lo, options.phase_timeout_hi));
  }

  // The competition's scripts and biased topology run on their own scoped
  // runtime: its construction-time snapshot is the cluster's *current*
  // state, so restoring afterwards puts back exactly what the caller had
  // (loss knobs, link faults, a swapped latency model) instead of the
  // runner's construction-time baseline.
  PlanRuntime competition(cluster_);

  // The rival scripts learn the crash instant from the runtime's episode
  // marker (kNever until the planned crash executes).
  SimCluster* cl = &cluster_;
  PlanRuntime* rt = &competition;
  auto rival_script = [&](bool loser) -> raft::ElectionPolicy::TimeoutOverride {
    auto arms = std::make_shared<int>(0);
    return [cl, rt, arms, shared, phases, loser, divergence = options.divergence,
            grace = options.inflight_grace]() -> std::optional<Duration> {
      int i = 0;
      // Arms within the grace window stem from heartbeats already in
      // flight at the crash; they re-arm with the phase-1 value.
      const TimePoint crash_at = rt->last_episode_at();
      if (crash_at != kNever && cl->loop().now() >= crash_at + grace) {
        i = ++*arms;  // post-crash arms walk the script
      }
      const auto idx = static_cast<std::size_t>(std::min(i, phases));
      Duration v = shared[idx];
      if (i >= phases && loser) v += divergence;
      return v;
    };
  };

  FaultPlan plan;
  plan.at(0, ScriptTimeout{NodeRef::id(rival_a), rival_script(/*loser=*/false)});
  plan.at(0, ScriptTimeout{NodeRef::id(rival_b), rival_script(/*loser=*/true)});
  std::map<ServerId, ServerId> favorite;  // bystander -> preferred rival
  bool flip = false;
  for (ServerId id : followers) {
    if (id == rival_a || id == rival_b) continue;
    plan.at(0, ScriptTimeout{NodeRef::id(id),
                             [timeout = options.bystander_timeout]() -> std::optional<Duration> {
                               return timeout;
                             }});
    favorite[id] = flip ? rival_a : rival_b;
    flip = !flip;
  }

  // Deterministic vote splitting: each bystander hears its favorite rival
  // first in every contested phase, so neither rival reaches a majority
  // until the decisive divergent timeout.
  const LatencyFn base_latency = cluster_.network().options().latency;
  plan.at(0, SwapLatency{[favorite, rival_a, rival_b, base_latency,
                          favored = options.favored_latency,
                          unfavored = options.unfavored_latency](ServerId from, ServerId to,
                                                                 Rng& latency_rng) {
    if (from == rival_a || from == rival_b) {
      const auto it = favorite.find(to);
      if (it != favorite.end()) {
        return it->second == from ? favored : unfavored;
      }
    }
    return base_latency(from, to, latency_rng);
  }});

  // Let every follower re-arm with a scripted value, then fail the leader.
  plan.at(options.rearm_window, CrashNode{NodeRef::leader()});

  auto result = run_failover_plan_on(competition, plan, max_wait);

  // Scoped restore: the scripted topology and timeouts must not leak into
  // the next run of a series (the local runtime's destructor would also
  // restore, covering exceptional exits).
  competition.restore_overrides();
  return result;
}

std::vector<FailoverResult> ScenarioRunner::run_series(const SeriesOptions& options) {
  std::vector<FailoverResult> results;
  if (sim::bootstrap(cluster_) == kNoServer) return results;
  for (std::size_t run = 0; run < options.runs; ++run) {
    // Per-run reset keeps event-log scans and memory bounded across a
    // 1000-run series.
    cluster_.clear_event_log();
    runtime_.clear_markers();

    FaultPlan plan;
    if (options.traffic_window > 0) {
      plan.at(0, TrafficBurst{options.traffic_window, options.traffic_interval});
    }
    // Crash whoever leads when the traffic window closes; if leadership is
    // momentarily vacant the crash defers to the next election win.
    plan.at(options.traffic_window, CrashNode{NodeRef::leader()});
    results.push_back(run_failover_plan(plan, options.max_wait));

    // A run that timed out leaderless leaves its crash trigger armed; defuse
    // it so the settle window's election is not killed with no one left to
    // recover the victim.
    runtime_.disarm_deferred_crash();
    const ServerId victim = runtime_.last_crashed();
    if (victim != kNoServer && !cluster_.alive(victim)) cluster_.recover(victim);
    cluster_.loop().run_until(cluster_.loop().now() + options.settle);
  }
  return results;
}

std::vector<FailoverResult> ScenarioRunner::episodes() const {
  return analyze_episodes(cluster_.event_log(), runtime_.markers());
}

std::vector<std::string> ScenarioRunner::trace() const {
  std::vector<std::string> lines;
  lines.reserve(cluster_.event_log().size());
  for (const auto& e : cluster_.event_log()) lines.push_back(trace_line(e));
  return lines;
}

// --- free-function driver -----------------------------------------------------

std::size_t drive_traffic(SimCluster& cluster, Duration duration, Duration interval,
                          std::size_t payload_bytes) {
  ScenarioRunner runner(cluster);
  FaultPlan plan;
  plan.at(0, TrafficBurst{duration, interval, payload_bytes});
  runner.run_plan(plan);
  return runner.runtime().traffic_submitted();
}

}  // namespace escape::sim
