// Quickstart: spin up a simulated 5-server ESCAPE cluster, replicate a few
// commands, crash the leader, and watch the precautionary election resolve
// in a single campaign.
//
//   $ ./examples/quickstart
//
// Everything runs in deterministic virtual time; re-running reproduces the
// identical timeline.
#include <cstdio>

#include "sim/presets.h"
#include "sim/scenario.h"

using namespace escape;

int main() {
  // 1. A 5-server cluster with the paper's parameters: 100-200 ms latency,
  //    500 ms heartbeats, ESCAPE configurations from baseTime=1500 ms,
  //    k=500 ms.
  sim::SimCluster cluster(sim::presets::paper_cluster(5, sim::presets::escape_policy(), 42));

  // Print the interesting protocol events as they happen.
  cluster.add_event_listener([&](const raft::NodeEvent& e) {
    switch (e.kind) {
      case raft::NodeEvent::Kind::kCampaignStarted:
        std::printf("[%7.1f ms] %s campaigns in term %lld\n", to_ms_f(e.at),
                    server_name(e.node).c_str(), static_cast<long long>(e.term));
        break;
      case raft::NodeEvent::Kind::kBecameLeader:
        std::printf("[%7.1f ms] %s elected leader of term %lld\n", to_ms_f(e.at),
                    server_name(e.node).c_str(), static_cast<long long>(e.term));
        break;
      case raft::NodeEvent::Kind::kConfigAdopted:
        std::printf("[%7.1f ms] %s adopts pi(P=%d, k=%lld) timeout=%lld ms\n", to_ms_f(e.at),
                    server_name(e.node).c_str(), e.config.priority,
                    static_cast<long long>(e.config.conf_clock),
                    static_cast<long long>(to_ms(e.config.timer_period)));
        break;
      default:
        break;
    }
  });

  // 2. Cold start: the highest-id server has the shortest SCA timeout and
  //    wins the first election without competition.
  std::printf("--- bootstrap ---\n");
  const ServerId leader = sim::bootstrap(cluster);
  if (leader == kNoServer) {
    std::printf("bootstrap failed\n");
    return 1;
  }
  std::printf("leader: %s; patrol has distributed the configuration pool:\n",
              server_name(leader).c_str());
  for (ServerId id : cluster.members()) {
    const auto cfg = cluster.node(id).policy().current_config();
    std::printf("  %s  priority=%d  confClock=%lld  election timeout=%lld ms%s\n",
                server_name(id).c_str(), cfg.priority, static_cast<long long>(cfg.conf_clock),
                static_cast<long long>(to_ms(cfg.timer_period)),
                id == leader ? "  (leader: timer disarmed)" : "");
  }

  // 3. Replicate some commands through the leader.
  std::printf("--- replicating 5 commands ---\n");
  for (int i = 0; i < 5; ++i) {
    cluster.submit_via_leader({static_cast<std::uint8_t>('a' + i)});
  }
  cluster.run_until_applied(5, cluster.loop().now() + from_ms(10'000));
  std::printf("commit index on every server: ");
  for (ServerId id : cluster.members()) {
    std::printf("%s=%lld ", server_name(id).c_str(),
                static_cast<long long>(cluster.node(id).commit_index()));
  }
  std::printf("\n");

  // 4. Kill the leader. ESCAPE's groomed "future leader" (the follower
  //    holding the top-priority configuration) detects the failure after
  //    baseTime (1500 ms) and wins in exactly one campaign.
  std::printf("--- crashing the leader ---\n");
  const auto result = sim::ScenarioRunner(cluster).measure_failover();
  std::printf("new leader %s in term %lld after %.0f ms "
              "(detection %.0f ms + election %.0f ms), campaigns: %zu\n",
              server_name(result.new_leader).c_str(),
              static_cast<long long>(result.new_term), to_ms_f(result.total),
              to_ms_f(result.detection), to_ms_f(result.election), result.campaigns);

  // 5. The log — including everything committed before the crash — survives.
  std::printf("--- state after failover ---\n");
  std::printf("entries at the new leader: %lld (all %d pre-crash commands retained)\n",
              static_cast<long long>(cluster.node(result.new_leader).log().last_index()), 5);
  return 0;
}
