// Golden traces: the simulator's observable behaviour, pinned.
//
// Every registered scenario under every policy, and the first fuzz trials of
// SimCheck's default vocabulary, produce a canonical NodeEvent trace. This
// suite pins the event count and an FNV-1a-64 digest of each trace against
// committed values, so a refactor that claims to change nothing can prove it:
// the determinism suites only compare a run with its own replay, and a
// behaviour change that is still deterministic sails through them.
//
// On a mismatch the test prints the freshly computed rows. A change that
// alters behaviour on purpose pastes them over the table below and says why
// in CHANGES.md; a refactor that trips this test changed behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "shard/router.h"
#include "sim/scenario_registry.h"
#include "sim/sim_check.h"

namespace escape {
namespace {

struct GoldenRow {
  std::string scenario;
  std::string policy;
  std::size_t events = 0;
  std::uint64_t digest = 0;

  bool operator==(const GoldenRow&) const = default;
};

// Scenario x policy at seed 7 with servers = max(5, min_servers).
const std::vector<GoldenRow> kScenarioRows = {
    {"asymmetric_partition", "raft", 412, 0x3f6133ae46e721a4ull},
    {"asymmetric_partition", "zraft", 399, 0x5d79cd31332d3ce4ull},
    {"asymmetric_partition", "escape", 431, 0x0dcc6bba2292f0f9ull},
    {"dead_node_replacement", "raft", 994, 0x67a882e8efd0cb32ull},
    {"dead_node_replacement", "zraft", 974, 0x2ffde17ee5578acbull},
    {"dead_node_replacement", "escape", 1011, 0x9145bd8a3a06308cull},
    {"failover", "raft", 87, 0x836b0e7cf1c11417ull},
    {"failover", "zraft", 90, 0x40cd6c45c0a5536cull},
    {"failover", "escape", 101, 0x65f39a8b4992e69dull},
    {"gray_leader", "raft", 318, 0xb8ce85146c0fc5fbull},
    {"gray_leader", "zraft", 319, 0x405cbfdf93c8c5e5ull},
    {"gray_leader", "escape", 359, 0x74598a59c61afebcull},
    {"handover", "raft", 56, 0xb06288134644eb83ull},
    {"handover", "zraft", 54, 0x809b126cc3061a4aull},
    {"handover", "escape", 62, 0xe74c122bbf1adb0dull},
    {"leader_churn", "raft", 535, 0x56ba1d46203a477full},
    {"leader_churn", "zraft", 524, 0x0c45daec97e70d58ull},
    {"leader_churn", "escape", 595, 0xfafc8a9778c05162ull},
    {"lease_expiry_storm", "raft", 493, 0x275d7da798c21c21ull},
    {"lease_expiry_storm", "zraft", 486, 0x0782b0b9cea23092ull},
    {"lease_expiry_storm", "escape", 514, 0x5f1e8788827580d6ull},
    {"loss_spike", "raft", 242, 0xde97a26d5f07d97cull},
    {"loss_spike", "zraft", 228, 0x379977a4cc57738dull},
    {"loss_spike", "escape", 263, 0x2d868052828e7383ull},
    {"membership_flap", "raft", 958, 0x58dbe8ae91e54631ull},
    {"membership_flap", "zraft", 1137, 0x2ce39d4ffba9c964ull},
    {"membership_flap", "escape", 1095, 0xaa25bf54b7c05cfeull},
    {"read_heavy_failover", "raft", 582, 0xced6d59b0114c5bdull},
    {"read_heavy_failover", "zraft", 551, 0x3531c035a755ee82ull},
    {"read_heavy_failover", "escape", 592, 0x42a672b202759ed5ull},
    {"rolling_expansion", "raft", 1860, 0x04fd331bcd8eafd3ull},
    {"rolling_expansion", "zraft", 1950, 0xa51aaaca14045f75ull},
    {"rolling_expansion", "escape", 1952, 0xb4d46adda1e8133aull},
    {"rolling_restart", "raft", 454, 0x0ef10cd904c0c1e4ull},
    {"rolling_restart", "zraft", 491, 0xa89d45bd6e0d2cb7ull},
    {"rolling_restart", "escape", 529, 0x5c1d8d48a51605f3ull},
    {"snapshot_catchup", "raft", 662, 0xd65fc09b918aa95aull},
    {"snapshot_catchup", "zraft", 619, 0xe7f80194c2bc1543ull},
    {"snapshot_catchup", "escape", 623, 0x590a796d8264f8ccull},
    {"snapshot_churn", "raft", 817, 0xc72069bb95e94fc9ull},
    {"snapshot_churn", "zraft", 817, 0xb56969192b922c3bull},
    {"snapshot_churn", "escape", 906, 0x258c1087a72f2392ull},
};

// The first kFuzzTrials trials of stream_seed(42, i), replay off; one row.
constexpr std::size_t kFuzzTrials = 30;
const GoldenRow kFuzzRow = {"sim_check", "root-seed-42", 9528, 0xe184adc7684a8792ull};

/// Appends the trace lines to `out`, each terminated by '\n'; a digest is
/// FNV-1a-64 over the result.
void append_trace(const std::vector<std::string>& trace, std::string& out) {
  for (const auto& line : trace) {
    out += line;
    out += '\n';
  }
}

std::string render(const GoldenRow& row) {
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016llxull", static_cast<unsigned long long>(row.digest));
  return "    {\"" + row.scenario + "\", \"" + row.policy + "\", " + std::to_string(row.events) +
         ", " + digest + "},";
}

TEST(SimGoldenTraceTest, RegistryScenarioTracesMatchPinnedDigests) {
  std::vector<GoldenRow> actual;
  for (const auto* spec : sim::all_scenarios()) {
    for (const char* policy : {"raft", "zraft", "escape"}) {
      sim::ScenarioParams p;
      p.servers = std::max<std::size_t>(5, spec->min_servers);
      p.policy = policy;
      p.seed = 7;
      const sim::ScenarioReport report = sim::run_scenario(*spec, p);
      std::string joined;
      append_trace(report.trace, joined);
      actual.push_back({spec->name, policy, report.trace.size(), shard::fnv1a64(joined)});
    }
  }
  if (actual != kScenarioRows) {
    std::string table;
    for (const auto& row : actual) table += render(row) + "\n";
    ADD_FAILURE() << "scenario traces diverged from the pinned table; the current rows are:\n"
                  << table;
  }
}

TEST(SimGoldenTraceTest, FuzzTrialTracesMatchPinnedDigest) {
  sim::SimCheckOptions options;
  options.check_determinism = false;
  options.announce_failures = false;
  std::string joined;
  std::size_t events = 0;
  for (std::size_t i = 0; i < kFuzzTrials; ++i) {
    const sim::ScenarioReport report = sim::run_fuzz_trial(stream_seed(42, i), options);
    events += report.trace.size();
    append_trace(report.trace, joined);
    joined += "--\n";  // trial boundary
  }
  const GoldenRow actual{kFuzzRow.scenario, kFuzzRow.policy, events, shard::fnv1a64(joined)};
  if (actual != kFuzzRow) {
    ADD_FAILURE() << "fuzz traces diverged from the pinned row; the current row is:\n"
                  << render(actual);
  }
}

}  // namespace
}  // namespace escape
