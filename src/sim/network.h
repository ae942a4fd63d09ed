// Simulated network.
//
// Models the paper's testbed: per-pair latency (NetEm-style uniform 100–200
// ms by default), geo "groups" with distinct intra/inter latencies (the
// split-vote-prone topology of Section II-B), per-broadcast receiver omission
// (the Δ message-loss model of Section VI-D: a broadcast reaches exactly
// ⌈(1−Δ)·n⌉ receivers), Bernoulli per-message loss, and link isolation for
// partitions.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "rpc/messages.h"
#include "sim/event_loop.h"

namespace escape::sim {

/// Latency model: virtual delay for a (from, to) message.
using LatencyFn = std::function<Duration(ServerId from, ServerId to, Rng& rng)>;

/// Uniform latency in [lo, hi] for every pair (the paper's NetEm setup).
LatencyFn uniform_latency(Duration lo, Duration hi);

/// Fixed latency for every pair.
LatencyFn constant_latency(Duration d);

/// Geo-distributed topology: servers in the same group communicate with
/// intra-group latency, across groups with (higher) inter-group latency
/// (Section II-B). `group_of` maps a server id to its group index.
LatencyFn grouped_latency(std::function<int(ServerId)> group_of, Duration intra_lo,
                          Duration intra_hi, Duration inter_lo, Duration inter_hi);

/// Network behaviour knobs.
struct NetworkOptions {
  LatencyFn latency;  ///< defaults to uniform 100–200 ms when unset

  /// Section VI-D's Δ: in each broadcast, this fraction of the receivers is
  /// randomly omitted ("a broadcast only reaches 1−Δ servers").
  double broadcast_omission = 0.0;

  /// Independent per-message drop probability (applies to everything,
  /// including replies); used for generic fault-injection tests.
  double uniform_loss = 0.0;
};

/// Delivery statistics for assertions and bench reporting.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_omission = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
};

/// Routes envelopes between simulated servers with latency and loss.
class SimNetwork {
 public:
  /// `deliver` is invoked (via the event loop, after sampled latency) for
  /// every message that survives loss and partitions.
  SimNetwork(EventLoop& loop, NetworkOptions options, Rng rng,
             std::function<void(const rpc::Envelope&)> deliver);

  /// Sends a batch of envelopes drained from one server interaction.
  /// Consecutive envelopes from the same sender carrying the same message
  /// alternative (e.g. the n−1 RequestVotes of one campaign) form a
  /// *broadcast group* and are subject to exact-fraction omission.
  void send_batch(const std::vector<rpc::Envelope>& batch);

  /// Sends one envelope (no broadcast-omission semantics, only uniform loss
  /// and partitions).
  void send(const rpc::Envelope& envelope);

  /// Cuts / restores all links touching `id` (crash & network partition are
  /// both modelled as link removal; a crashed node additionally stops
  /// processing — see SimCluster).
  void isolate(ServerId id) { isolated_.insert(id); }
  void heal(ServerId id) { isolated_.erase(id); }
  bool isolated(ServerId id) const { return isolated_.count(id) > 0; }

  /// Severs the link in both directions between two servers.
  void cut_link(ServerId a, ServerId b) { cut_.insert(ordered(a, b)); }
  void heal_link(ServerId a, ServerId b) { cut_.erase(ordered(a, b)); }

  /// Severs only the `from` -> `to` direction (asymmetric faults: a node
  /// that can hear the cluster but can no longer reach it, or vice versa).
  void cut_link_one_way(ServerId from, ServerId to) { cut_one_way_.insert({from, to}); }
  void heal_link_one_way(ServerId from, ServerId to) { cut_one_way_.erase({from, to}); }

  /// True when no isolation or cut blocks `from` -> `to`.
  bool link_up(ServerId from, ServerId to) const;

  /// One draw of the current latency model for `from` -> `to` (advances the
  /// network's RNG, as a send does).
  Duration sample_latency(ServerId from, ServerId to) { return options_.latency(from, to, rng_); }

  const NetworkStats& stats() const { return stats_; }

  /// Read-only view of the behaviour knobs. Mutation goes through the
  /// explicit setters below so every mid-run change is an auditable event;
  /// an uncontrolled mutable reference would let callers silently break run
  /// reproducibility.
  const NetworkOptions& options() const { return options_; }

  /// Swaps the latency model; an empty function restores the model the
  /// network was constructed with.
  void set_latency(LatencyFn latency);

  /// Sets the Section VI-D broadcast receiver-omission fraction Δ in [0, 1].
  void set_broadcast_omission(double delta);

  /// Sets the independent per-message drop probability in [0, 1].
  void set_uniform_loss(double probability);

 private:
  static std::pair<ServerId, ServerId> ordered(ServerId a, ServerId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  void transmit(const rpc::Envelope& envelope);

  EventLoop& loop_;
  NetworkOptions options_;
  LatencyFn default_latency_;  ///< constructor-normalized model, for set_latency({})
  Rng rng_;
  std::function<void(const rpc::Envelope&)> deliver_;
  std::set<ServerId> isolated_;
  std::set<std::pair<ServerId, ServerId>> cut_;
  std::set<std::pair<ServerId, ServerId>> cut_one_way_;  // (from, to), directed
  NetworkStats stats_;
};

}  // namespace escape::sim
