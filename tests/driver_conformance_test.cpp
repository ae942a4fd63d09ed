// Driver conformance: the simulator's immediate-dispatch NodeDriver and the
// TCP runtime's buffered RealDriver must drive one core identically. A
// scripted three-node scenario — election, replication, leader failover,
// snapshot catch-up of a lagging restart, and a linearizable read — runs
// once through each consumption style over in-memory storage, single
// threaded on a virtual clock, and the per-node Ready streams (observed at
// the shared NodeDriver underneath) must be byte-identical.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/real_driver.h"
#include "raft/driver.h"
#include "raft/raft_node.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"
#include "test_ready_fingerprint.h"

namespace escape::raft {
namespace {

constexpr Duration kMin = from_ms(100);
constexpr Duration kMax = from_ms(200);
constexpr Duration kStep = from_ms(10);

enum class Style { kSim, kReal };

NodeOptions test_options() {
  NodeOptions opts;
  opts.heartbeat_interval = from_ms(30);
  return opts;
}

/// One server: durable stores that outlive crashes, plus a per-incarnation
/// driver+core pair in the chosen consumption style.
struct Server {
  storage::MemoryStateStore store;
  storage::MemoryWal wal;
  storage::MemorySnapshotStore snaps;
  std::unique_ptr<NodeDriver> sim;
  std::unique_ptr<net::RealDriver> real;
  std::unique_ptr<RaftNode> node;
  bool alive = false;
  std::string stream;  ///< concatenated Ready fingerprints, all incarnations
};

class MiniCluster {
 public:
  MiniCluster(Style style, std::uint64_t seed) : style_(style), seed_(seed) {
    for (ServerId id : members_) boot(id);
  }

  void start_all(TimePoint now) {
    for (ServerId id : members_) {
      servers_.at(id).node->start(now);
      drain(id);
    }
  }

  void boot(ServerId id) {
    Server& s = servers_[id];
    s.sim.reset();
    s.real.reset();
    auto make_node = [&](Bootstrap boot) {
      return std::make_unique<RaftNode>(id, members_,
                                        std::make_unique<RaftRandomizedPolicy>(kMin, kMax),
                                        Rng(seed_ ^ (0xAB00 + id)), test_options(),
                                        std::move(boot));
    };
    if (style_ == Style::kSim) {
      s.sim = std::make_unique<NodeDriver>(s.store, s.wal, &s.snaps);
      s.node = make_node(s.sim->recover());
      s.sim->attach(*s.node);
      s.sim->hooks().send = [this](const std::vector<rpc::Envelope>& batch) {
        for (const auto& env : batch) wire_.push_back(env);
      };
      s.sim->hooks().observe = [&s](const Ready& rd) { s.stream += fingerprint(rd); };
    } else {
      s.real = std::make_unique<net::RealDriver>(s.store, s.wal, &s.snaps);
      s.node = make_node(s.real->recover());
      s.real->attach(*s.node);
      s.real->base().hooks().observe = [&s](const Ready& rd) { s.stream += fingerprint(rd); };
    }
    s.alive = true;
  }

  void crash(ServerId id) {
    Server& s = servers_.at(id);
    s.alive = false;
    s.node.reset();
    s.sim.reset();
    s.real.reset();
  }

  void recover(ServerId id, TimePoint now) {
    boot(id);
    servers_.at(id).node->start(now);
    drain(id);
  }

  /// Drains every pending batch in the style under test. For kReal the
  /// environment effects are flushed after each pump_one, as RealNode's
  /// driver thread does outside its lock.
  void drain(ServerId id) {
    Server& s = servers_.at(id);
    if (!s.alive) return;
    if (style_ == Style::kSim) {
      s.sim->pump();
      return;
    }
    net::RealDriver::Effects fx;
    while (s.real->pump_one(fx)) {
      for (const auto& env : fx.messages) wire_.push_back(env);
      for (const auto& grant : fx.read_grants) grants_.push_back(grant);
      fx.clear();
    }
  }

  /// Delivers every queued envelope (in order), draining after each step;
  /// deliveries may enqueue more until the wire goes quiet.
  void deliver_all(TimePoint now) {
    while (!wire_.empty()) {
      const rpc::Envelope env = wire_.front();
      wire_.pop_front();
      Server& dst = servers_.at(env.to);
      if (!dst.alive) continue;
      dst.node->step(env, now);
      drain(env.to);
    }
  }

  void tick_all(TimePoint now) {
    for (ServerId id : members_) {
      Server& s = servers_.at(id);
      if (!s.alive) continue;
      s.node->tick(now);
      drain(id);
    }
  }

  ServerId leader() const {
    ServerId best = kNoServer;
    Term best_term = -1;
    for (ServerId id : members_) {
      const Server& s = servers_.at(id);
      if (s.alive && s.node->role() == Role::kLeader && s.node->term() > best_term) {
        best = id;
        best_term = s.node->term();
      }
    }
    return best;
  }

  Server& server(ServerId id) { return servers_.at(id); }
  const std::vector<ReadGrant>& grants() const { return grants_; }

 private:
  Style style_;
  std::uint64_t seed_;
  std::vector<ServerId> members_{1, 2, 3};
  std::map<ServerId, Server> servers_;
  std::deque<rpc::Envelope> wire_;
  std::vector<ReadGrant> grants_;
};

struct ScenarioResult {
  std::map<ServerId, std::string> streams;
  ServerId first_leader = kNoServer;
  ServerId second_leader = kNoServer;
  bool read_granted = false;
};

/// The recorded scenario: elect, replicate, fail over, compact, catch the
/// restarted server up by snapshot, serve a lease read. All decision points
/// (who leads, when) emerge deterministically from the seeded cores.
ScenarioResult run_scenario(Style style, std::uint64_t seed) {
  MiniCluster cluster(style, seed);
  ScenarioResult result;
  cluster.start_all(0);

  std::uint8_t payload = 0;
  ServerId crashed = kNoServer;
  for (TimePoint now = kStep; now <= from_ms(4000); now += kStep) {
    cluster.tick_all(now);
    cluster.deliver_all(now);
    const ServerId leader = cluster.leader();

    if (now == from_ms(1000) && leader != kNoServer) {
      result.first_leader = leader;
      for (int i = 0; i < 5; ++i) {
        cluster.server(leader).node->submit({++payload}, now);
        cluster.drain(leader);
      }
      cluster.deliver_all(now);
    }
    if (now == from_ms(1500) && result.first_leader != kNoServer && crashed == kNoServer) {
      crashed = result.first_leader;
      cluster.crash(crashed);
    }
    if (now == from_ms(2500) && leader != kNoServer && leader != crashed) {
      result.second_leader = leader;
      for (int i = 0; i < 3; ++i) {
        cluster.server(leader).node->submit({++payload}, now);
        cluster.drain(leader);
      }
      cluster.deliver_all(now);
      // Compact the survivors so the crashed server returns behind the log
      // base and must catch up by snapshot.
      for (ServerId id : {ServerId{1}, ServerId{2}, ServerId{3}}) {
        if (id == crashed) continue;
        auto& s = cluster.server(id);
        s.node->compact(s.node->last_applied(), {0xEE}, now);
        cluster.drain(id);
      }
    }
    if (now == from_ms(2800) && crashed != kNoServer) {
      cluster.recover(crashed, now);
      crashed = kNoServer;
    }
    if (now == from_ms(3500) && leader != kNoServer) {
      cluster.server(leader).node->submit_read(now);
      cluster.drain(leader);
      cluster.deliver_all(now);
    }
  }

  for (ServerId id : {ServerId{1}, ServerId{2}, ServerId{3}}) {
    result.streams[id] = std::move(cluster.server(id).stream);
  }
  if (style == Style::kSim) {
    // Grants were dispatched through the sim hooks; recover them from the
    // streams instead so both styles report uniformly.
    for (const auto& [id, stream] : result.streams) {
      if (stream.find(" ok=1") != std::string::npos) result.read_granted = true;
    }
  } else {
    for (const auto& grant : cluster.grants()) {
      if (grant.ok) result.read_granted = true;
    }
  }
  return result;
}

class DriverConformanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriverConformanceTest, SimAndRealDriversProduceIdenticalReadyStreams) {
  const ScenarioResult sim = run_scenario(Style::kSim, GetParam());
  const ScenarioResult real = run_scenario(Style::kReal, GetParam());

  // The scenario must actually have exercised its beats.
  ASSERT_NE(sim.first_leader, kNoServer) << "no leader elected by t=1s";
  ASSERT_NE(sim.second_leader, kNoServer) << "no failover leader by t=2.5s";
  EXPECT_NE(sim.first_leader, sim.second_leader);
  EXPECT_TRUE(sim.read_granted);
  EXPECT_TRUE(real.read_granted);

  // Identical dynamics...
  EXPECT_EQ(sim.first_leader, real.first_leader);
  EXPECT_EQ(sim.second_leader, real.second_leader);

  // ...and byte-identical per-node Ready streams.
  for (ServerId id : {ServerId{1}, ServerId{2}, ServerId{3}}) {
    ASSERT_FALSE(sim.streams.at(id).empty());
    EXPECT_EQ(sim.streams.at(id), real.streams.at(id)) << "node " << id << " diverged";
  }
}

TEST_P(DriverConformanceTest, ScenarioCoversSnapshotCatchUp) {
  const ScenarioResult sim = run_scenario(Style::kSim, GetParam());
  // The restarted server must have been caught up by InstallSnapshot: its
  // stream contains a restore (or it booted from a stored snapshot after a
  // later crash — either way a restore fingerprint appears somewhere).
  bool restored = false;
  for (const auto& [id, stream] : sim.streams) {
    if (stream.find("restore ") != std::string::npos) restored = true;
  }
  EXPECT_TRUE(restored) << "scenario never exercised snapshot catch-up";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverConformanceTest, ::testing::Values(7, 21, 42));

}  // namespace
}  // namespace escape::raft
