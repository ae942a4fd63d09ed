#include "workloads.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include <time.h>
#include <unistd.h>

#include "cluster.h"
#include "load.h"
#include "sim/presets.h"
#include "sim/scenario.h"
#include "trace.h"

namespace escape::bench {
namespace {

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kMs = 1'000'000;

/// A traffic mix on real server processes.
struct RealWorkload {
  const char* name;
  std::size_t nodes;
  Mix mix;
  double rate;  ///< offered ops/s, open loop
};

// Why these three (see README.md): write_steady sends every op through
// serve, raft, storage and replication; read_lease_zipf serves nearly every
// op from the leader lease, so storage and replication barely move; and
// five_node_writes widens the fan-out and gives ESCAPE's priorities four
// followers to order. Every run also kills the leader repeatedly: the
// paper's question, asked under each mix.
const RealWorkload kRealWorkloads[] = {
    {"write_steady", 3, Mix{0.0, false, 10000, 64}, 4000},
    {"read_lease_zipf", 3, Mix{0.95, true, 10000, 64}, 8000},
    {"five_node_writes", 5, Mix{0.0, false, 10000, 64}, 2000},
};

/// The traced run's per-layer metrics, in report order, with units.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"client.p50_ms", "ms"},               {"client.p99_ms", "ms"},
    {"serve.cpu_us_per_op", "us"},         {"serve.wakeups_per_op", "count"},
    {"serve.leader_cpu_util", "%"},        {"serve.follower_cpu_util", "%"},
    {"serve.client_cpu_us_per_op", "us"},  {"serve.decode_us", "us"},
    {"serve.respond_us", "us"},            {"serve.pending_ms", "ms"},
    {"serve.retries_per_op", "count"},     {"serve.max_gap_ms", "ms"},
    {"net.ctx_switches_per_op", "count"},  {"net.mailbox_wait_us", "us"},
    {"net.lock_wait_us", "us"},            {"net.send_us", "us"},
    {"net.transit_us", "us"},              {"raft.msgs_per_commit", "count"},
    {"raft.entries_per_append", "count"},  {"raft.inflight_depth", "count"},
    {"raft.heartbeats_per_s", "1/s"},      {"raft.lease_read_share", "%"},
    {"raft.reads_rejected", "count"},      {"raft.detect_ms", "ms"},
    {"raft.elect_ms", "ms"},               {"raft.step_us", "us"},
    {"raft.tick_us", "us"},                {"raft.submit_us", "us"},
    {"raft.pump_us", "us"},                {"raft.commit_ms", "ms"},
    {"raft.repl_rtt_ms", "ms"},            {"raft.n1_p50_ms", "ms"},
    {"storage.syncs_per_commit", "count"}, {"storage.records_per_sync", "count"},
    {"storage.recovery_ms", "ms"},         {"storage.wal_write_us", "us"},
    {"storage.wal_sync_us", "us"},         {"storage.state_save_us", "us"},
    {"kv.apply_us", "us"},                 {"kv.peek_us", "us"},
    {"core.campaigns_per_election", "count"}, {"core.config_adoptions_per_s", "1/s"},
    {"core.policy_us", "us"},              {"core.patrol_us", "us"},
    {"bench.lateness_p99_ms", "ms"},       {"trace.overhead_pct", "%"},
    {"trace.coverage", "%"},
};

/// One cluster's life: set-up (repeated `setups` times), warm-up, a steady
/// window, then a failover window in which the leader is killed repeatedly.
struct PassSpec {
  std::size_t nodes = 3;
  ServerMode mode = ServerMode::kReal;
  std::size_t setups = 1;
  double warmup_s = 1;
  double steady_s = 0;
  double failover_s = 0;
};

struct PassResult {
  std::string error;
  std::vector<double> setup_s;
  std::vector<Op> ops;
  std::int64_t steady_start = 0;
  std::int64_t failover_start = 0;  ///< also the end of the steady window
  std::int64_t end = 0;
  std::int64_t started = 0;  ///< spawn of the measured cluster
  std::int64_t stopped = 0;
  Cluster::Usage usage;      ///< over the steady window
  double client_cpu_ns = 0;  ///< over the steady window
  std::map<std::string, double> counters;
  std::vector<double> recovery_ms;
  std::vector<double> detect_ms;
  std::vector<double> elect_ms;
  std::vector<double> failover_ms;  ///< kill -> new leader
  std::vector<std::int64_t> kill_times;
  std::size_t elections = 0;  ///< leader terms seen, the first one included
  std::map<std::int32_t, std::string> process_names;
};

serve::KvClient::Options client_options() {
  serve::KvClient::Options o;
  o.lanes = 64;
  o.timeout = from_ms(10'000);  // outlasts any failover: no op should fail
  return o;
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Submits one Put until it is acknowledged or `deadline` passes.
bool first_write(serve::KvClient& client, std::int64_t deadline) {
  while (mono_ns() < deadline) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    serve::Status status = serve::Status::kRetry;
    kv::Command command;
    command.op = kv::Op::kPut;
    command.key = "setup";
    command.value = "setup";
    client.submit(command, [&](serve::Status s, const kv::CommandResult&) {
      std::lock_guard lock(mu);
      status = s;
      done = true;
      cv.notify_one();
    });
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done; });
    if (status == serve::Status::kOk) return true;
  }
  return false;
}

/// CPU of this process's threads other than the main and generator
/// threads: the KvClient's loop and janitor.
std::map<pid_t, double> client_threads_cpu(pid_t generator) {
  auto threads = thread_cpu_ns(::getpid());
  threads.erase(::getpid());
  threads.erase(generator);
  return threads;
}

double thread_cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Detection and election of the election that followed each reference
/// point (the measured cluster's spawn, then each kill at a leader term):
/// detection ends at the first report of a higher term, election at the
/// first leader in one.
void analyze_elections(const std::vector<RoleEvent>& events,
                       const std::vector<std::pair<std::int64_t, Term>>& refs, PassResult& r) {
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const auto [ref, old_term] = refs[i];
    std::int64_t campaign = 0;
    std::int64_t elected = 0;
    for (const RoleEvent& e : events) {
      if (e.at < ref || e.term <= old_term) continue;
      if (campaign == 0 || e.at < campaign) campaign = e.at;
      if (e.role == Role::kLeader && (elected == 0 || e.at < elected)) elected = e.at;
    }
    if (campaign == 0 || elected == 0) continue;
    r.detect_ms.push_back(static_cast<double>(campaign - ref) / kMs);
    r.elect_ms.push_back(static_cast<double>(elected - campaign) / kMs);
    if (i > 0) r.failover_ms.push_back(static_cast<double>(elected - ref) / kMs);
  }
  std::set<Term> leader_terms;
  for (const RoleEvent& e : events) {
    if (e.role == Role::kLeader) leader_terms.insert(e.term);
  }
  r.elections = leader_terms.size();
}

PassResult run_pass(const RealWorkload& w, const PassSpec& spec, const Env& env,
                    std::uint64_t seed, const std::string& trace_dir) {
  PassResult r;
  const std::string data_dir = env.data_dir + "/" + w.name;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<serve::KvClient> client;
  // Set-up, repeated: spawn every server process, then wait for the first
  // acknowledged write. The last cluster carries the load.
  for (std::size_t s = 0; s < spec.setups; ++s) {
    if (client) client->stop();
    client.reset();
    cluster.reset();
    reset_dir(data_dir);
    Cluster::Options options;
    options.size = spec.nodes;
    options.mode = spec.mode;
    options.exe = env.exe;
    options.data_dir = data_dir;
    options.trace_dir = trace_dir;
    options.seed = seed + 100 * s;
    r.started = mono_ns();
    cluster = std::make_unique<Cluster>(options);
    cluster->start();
    client = std::make_unique<serve::KvClient>(cluster->client_ports(), 1'000'000,
                                               client_options());
    client->start();
    if (!first_write(*client, r.started + 30 * kSecond)) {
      r.error = "no write acknowledged within 30 s of spawning the cluster";
      return r;
    }
    r.setup_s.push_back(static_cast<double>(mono_ns() - r.started) / kSecond);
  }
  std::vector<std::pair<std::int64_t, Term>> election_refs = {{r.started, 0}};

  const std::int64_t start = mono_ns() + 20 * kMs;
  r.steady_start = start + static_cast<std::int64_t>(spec.warmup_s * kSecond);
  r.failover_start = r.steady_start + static_cast<std::int64_t>(spec.steady_s * kSecond);
  r.end = r.failover_start + static_cast<std::int64_t>(spec.failover_s * kSecond);
  r.ops = make_schedule(w.mix, w.rate, start, r.end, seed);
  for (Op& op : r.ops) {
    op.phase = op.due < r.steady_start     ? Phase::kWarmup
               : op.due < r.failover_start ? Phase::kSteady
                                           : Phase::kFailover;
  }
  const std::size_t scheduled = r.ops.size();
  r.ops.reserve(scheduled + w.mix.keys);  // room for the verification reads
  LoadDriver driver(*client, r.ops, w.mix.value_bytes);
  std::thread generator([&] { driver.run_open(0, scheduled); });
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{generator};

  // Kill schedule: the first kill 0.5-1 s into the failover window, then one
  // every 2.25-2.75 s; the victim restarts 0.5 s after a new leader appears.
  std::mt19937_64 rng(seed ^ 0x6b696c6c);
  const auto jitter = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(hi - lo));
  };
  enum class KillPhase { kIdle, kAwaitLeader, kAwaitRestart } phase = KillPhase::kIdle;
  std::int64_t next_kill = r.failover_start + jitter(500 * kMs, 1000 * kMs);
  std::int64_t restart_at = 0;
  std::int64_t killed_at = 0;
  ServerId victim = kNoServer;
  Term victim_term = 0;

  // CPU accounting covers the steady window.
  std::map<pid_t, double> client_base;
  bool marked = false;
  bool measured = false;
  const auto measure = [&] {
    r.usage = cluster->usage();
    for (const auto& [tid, ns] : client_threads_cpu(driver.generator_tid())) {
      const auto base = client_base.find(tid);
      r.client_cpu_ns += ns - (base == client_base.end() ? 0 : base->second);
    }
    measured = true;
  };
  while (mono_ns() < r.end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cluster->poll();
    const std::int64_t now = mono_ns();
    if (!marked && now >= r.steady_start) {
      cluster->mark();
      client_base = client_threads_cpu(driver.generator_tid());
      marked = true;
    }
    if (now < r.failover_start) continue;
    if (!measured) measure();
    if (phase == KillPhase::kIdle && now >= next_kill) {
      bool all_up = true;
      for (ServerId id = 1; id <= spec.nodes; ++id) all_up = all_up && cluster->alive(id);
      victim = cluster->leader();
      if (all_up && victim != kNoServer) {
        victim_term = cluster->leader_term();
        killed_at = mono_ns();
        cluster->kill(victim);
        election_refs.emplace_back(killed_at, victim_term);
        r.kill_times.push_back(killed_at);
        phase = KillPhase::kAwaitLeader;
      }
    } else if (phase == KillPhase::kAwaitLeader) {
      if (cluster->leader_term() > victim_term || now - killed_at > 10 * kSecond) {
        restart_at = now + 500 * kMs;
        phase = KillPhase::kAwaitRestart;
      }
    } else if (phase == KillPhase::kAwaitRestart && now >= restart_at) {
      cluster->restart(victim);
      next_kill = std::max(next_kill + jitter(2250 * kMs, 2750 * kMs), now + kSecond);
      phase = KillPhase::kIdle;
    }
  }
  if (!measured) measure();
  generator.join();  // the schedule ends with the failover window
  if (phase != KillPhase::kIdle) cluster->restart(victim);

  if (!driver.drain(mono_ns() + 30 * kSecond)) {
    r.error = "requests still outstanding 30 s after the load ended";
  } else {
    // Read back every written key once all writes have finished.
    std::set<std::uint32_t> written;
    for (std::size_t i = 0; i < scheduled; ++i) {
      if (!r.ops[i].read) written.insert(r.ops[i].key);
    }
    for (const std::uint32_t key : written) {
      Op op;
      op.id = r.ops.size() + 1;
      op.key = key;
      op.read = true;
      op.phase = Phase::kVerify;
      r.ops.push_back(op);
    }
    driver.run_closed(scheduled, r.ops.size(), 256);
    if (!driver.drain(mono_ns() + 30 * kSecond)) {
      r.error = "verification reads still outstanding after 30 s";
    } else {
      r.error = check_history(r.ops);
    }
  }

  cluster->poll();
  if (r.error.empty()) r.error = cluster->failure();
  cluster->stop();
  r.stopped = mono_ns();
  client->stop();
  r.counters = cluster->counters();
  r.recovery_ms = cluster->recovery_ms();
  r.process_names = cluster->process_names();
  analyze_elections(cluster->role_events(), election_refs, r);
  return r;
}

/// The steady window's request statistics.
struct SteadyStats {
  std::size_t ops = 0;
  std::size_t ok = 0;
  std::size_t ok_writes = 0;  ///< acknowledged Puts over the whole pass
  /// Latency from due time, as the median over 1 s slices of each slice's
  /// percentile: one host stall (an fsync on a shared disk, a descheduled
  /// process) moves one slice, not the result.
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t slices = 0;
  std::vector<double> lateness_ms;
  double max_gap_ms = 0;  ///< longest stretch without a success
};

SteadyStats steady_stats(const PassResult& p) {
  SteadyStats s;
  std::vector<std::vector<double>> slices(
      static_cast<std::size_t>((p.failover_start - p.steady_start) / kSecond));
  std::vector<std::int64_t> successes;
  for (const Op& op : p.ops) {
    if (!op.read && op.status == serve::Status::kOk) ++s.ok_writes;
    if (op.phase != Phase::kSteady) continue;
    ++s.ops;
    s.lateness_ms.push_back(static_cast<double>(op.submit - op.due) / kMs);
    if (op.status == serve::Status::kOk) {
      ++s.ok;
      successes.push_back(op.done);
    }
    const auto slice = static_cast<std::size_t>((op.due - p.steady_start) / kSecond);
    if (slice < slices.size()) {
      slices[slice].push_back(static_cast<double>(op.done - op.due) / kMs);
    }
  }
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (auto& slice : slices) {
    if (slice.size() < 1000) continue;  // too few for a p99 with ten samples beyond it
    p50s.push_back(percentile(slice, 50));
    p99s.push_back(percentile(slice, 99));
  }
  s.slices = p50s.size();
  s.p50_ms = median(p50s);
  s.p99_ms = median(p99s);
  std::sort(successes.begin(), successes.end());
  for (std::size_t i = 1; i < successes.size(); ++i) {
    s.max_gap_ms = std::max(s.max_gap_ms, static_cast<double>(successes[i] - successes[i - 1]) / kMs);
  }
  return s;
}

/// Client-visible unavailability per kill: the longest stretch without a
/// successful response from the kill until the next kill (or the end).
std::vector<double> unavailability_ms(const PassResult& p) {
  std::vector<std::int64_t> successes;
  for (const Op& op : p.ops) {
    if (op.phase != Phase::kVerify && op.status == serve::Status::kOk) successes.push_back(op.done);
  }
  std::sort(successes.begin(), successes.end());
  std::vector<double> out;
  for (std::size_t k = 0; k < p.kill_times.size(); ++k) {
    const std::int64_t from = p.kill_times[k];
    const std::int64_t to = k + 1 < p.kill_times.size() ? p.kill_times[k + 1] : p.end;
    std::int64_t longest = 0;
    for (auto it = std::upper_bound(successes.begin(), successes.end(), from);
         it != successes.end() && *it <= to && it != successes.begin(); ++it) {
      longest = std::max(longest, *it - *(it - 1));
    }
    out.push_back(static_cast<double>(longest) / kMs);
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void account(const PassResult& p, const char* label, RunResult& out) {
  out.attempted += p.ops.size() + p.setup_s.size();
  for (const Op& op : p.ops) {
    if (op.status != serve::Status::kOk) ++out.failed;
  }
  if (!p.error.empty() && out.correct) {
    out.correct = false;
    out.error = std::string(label) + ": " + p.error;
  }
  SteadyStats s = steady_stats(p);
  char line[256];
  if (s.ops > 0) {
    const double lateness_p99 = percentile(s.lateness_ms, 99);
    std::snprintf(line, sizeof(line),
                  "# %s: steady window %zu ops (%zu ok), generator lateness p99 %.3f ms max "
                  "%.3f ms, longest gap without a success %.1f ms",
                  label, s.ops, s.ok, lateness_p99, s.lateness_ms.back(), s.max_gap_ms);
    out.notes.push_back(line);
    if (lateness_p99 > 1.0) {
      out.notes.push_back(std::string("# ") + label +
                          ": generator-bound (lateness p99 above 1 ms): latencies include "
                          "the generator's own delay");
    }
  }
  if (!p.kill_times.empty()) {
    std::snprintf(line, sizeof(line),
                  "# %s: %zu kills, %zu elections; kill -> new leader p50 %.1f ms, "
                  "unavailability p50 %.1f ms",
                  label, p.kill_times.size(), p.elections, median(p.failover_ms),
                  median(unavailability_ms(p)));
    out.notes.push_back(line);
  }
}

RunResult run_real(const RealWorkload& w, const Env& env, bool trace) {
  RunResult out;
  const double S = env.seconds;
  if (!trace) {
    PassSpec spec;
    spec.nodes = w.nodes;
    spec.setups = env.quick ? 1 : 3;
    spec.warmup_s = env.quick ? 0.5 : 2;
    spec.failover_s = S;
    const PassResult p = run_pass(w, spec, env, env.seed, "");
    account(p, "run", out);
    const std::vector<double> unavail = unavailability_ms(p);
    out.metrics = {
        {"setup_s", median(p.setup_s), "s", p.setup_s.size()},
        {"unavail_ms", median(unavail), "ms", unavail.size()},
        {"failover_ms", median(p.failover_ms), "ms", p.failover_ms.size()},
    };
    return out;
  }

  // Traced run: A = the real servers (counters, /proc, then kills), B = the
  // traced twins (spans), C = one node (the no-replication baseline).
  PassSpec a;
  a.nodes = w.nodes;
  a.warmup_s = env.quick ? 0.5 : 1;
  a.steady_s = S / 3;
  a.failover_s = S / 4;
  PassSpec b = a;
  b.mode = ServerMode::kTraced;
  b.failover_s = 0;
  PassSpec c = b;
  c.mode = ServerMode::kReal;
  c.nodes = 1;
  c.warmup_s = 0.5;
  c.steady_s = S / 6;

  const std::string trace_dir = env.out_dir + "/spans_" + w.name;
  reset_dir(trace_dir);
  const PassResult pa = run_pass(w, a, env, env.seed, "");
  const PassResult pb = run_pass(w, b, env, env.seed, trace_dir);
  const PassResult pc = run_pass(w, c, env, env.seed, "");
  account(pa, "pass A (servers)", out);
  account(pb, "pass B (traced servers)", out);
  account(pc, "pass C (one node)", out);

  std::map<std::string, Metric> m;
  const auto put = [&](const std::string& name, double value, std::size_t n) {
    m[name] = Metric{name, value, "", n};
  };
  SteadyStats sa = steady_stats(pa);
  const SteadyStats sb = steady_stats(pb);
  const SteadyStats sc = steady_stats(pc);
  const auto c_of = [&](const char* key) {
    const auto it = pa.counters.find(key);
    return it == pa.counters.end() ? 0.0 : it->second;
  };
  const double ops_a = static_cast<double>(pa.ops.size());
  const double ok_a = static_cast<double>(sa.ok);
  const double writes_a = static_cast<double>(sa.ok_writes);
  const double steady_ns = static_cast<double>(pa.failover_start - pa.steady_start);
  const double life_s = static_cast<double>(pa.stopped - pa.started) / kSecond;

  put("client.p50_ms", sa.p50_ms, sa.slices);
  put("client.p99_ms", sa.p99_ms, sa.slices);
  double server_cpu_ns = 0;
  std::vector<double> util;
  for (const auto& [id, ns] : pa.usage.cpu_ns) {
    server_cpu_ns += ns;
    util.push_back(100.0 * ns / steady_ns);
  }
  put("serve.cpu_us_per_op", ratio(server_cpu_ns / 1e3, ok_a), sa.ok);
  put("serve.wakeups_per_op", ratio(c_of("wakeups"), ops_a), pa.ops.size());
  std::sort(util.begin(), util.end());
  put("serve.leader_cpu_util", util.empty() ? 0 : util.back(), 1);
  double follower_util = 0;
  for (std::size_t i = 0; i + 1 < util.size(); ++i) follower_util += util[i];
  put("serve.follower_cpu_util", ratio(follower_util, static_cast<double>(util.size()) - 1),
      util.size() > 0 ? util.size() - 1 : 0);
  put("serve.client_cpu_us_per_op", ratio(pa.client_cpu_ns / 1e3, ok_a), sa.ok);
  put("serve.max_gap_ms", sa.max_gap_ms, sa.ok);
  put("net.ctx_switches_per_op", ratio(pa.usage.ctx_switches, ok_a), sa.ok);
  put("raft.msgs_per_commit", ratio(c_of("msgs_rx"), writes_a), sa.ok_writes);
  put("raft.entries_per_append", ratio(c_of("aeb_sum"), c_of("aeb_n")),
      static_cast<std::size_t>(c_of("aeb_n")));
  put("raft.inflight_depth", ratio(c_of("infl_sum"), c_of("infl_n")),
      static_cast<std::size_t>(c_of("infl_n")));
  put("raft.heartbeats_per_s", ratio(c_of("heartbeats"), life_s),
      static_cast<std::size_t>(c_of("heartbeats")));
  put("raft.lease_read_share",
      100.0 * ratio(c_of("lease_reads"), c_of("lease_reads") + c_of("index_reads")),
      static_cast<std::size_t>(c_of("lease_reads") + c_of("index_reads")));
  put("raft.reads_rejected", c_of("reads_rejected"), 1);
  put("raft.detect_ms", median(pa.detect_ms), pa.detect_ms.size());
  put("raft.elect_ms", median(pa.elect_ms), pa.elect_ms.size());
  put("raft.n1_p50_ms", sc.p50_ms, sc.slices);
  put("storage.syncs_per_commit", ratio(c_of("syncs"), writes_a), sa.ok_writes);
  put("storage.records_per_sync", ratio(c_of("rps_sum"), c_of("rps_n")),
      static_cast<std::size_t>(c_of("rps_n")));
  put("storage.recovery_ms", median(pa.recovery_ms), pa.recovery_ms.size());
  put("core.campaigns_per_election", ratio(c_of("campaigns"), c_of("elections")),
      static_cast<std::size_t>(c_of("elections")));
  put("core.config_adoptions_per_s", ratio(c_of("adoptions"), life_s),
      static_cast<std::size_t>(c_of("adoptions")));
  put("bench.lateness_p99_ms", percentile(sa.lateness_ms, 99), sa.lateness_ms.size());
  put("trace.overhead_pct", 100.0 * ratio(sb.p50_ms - sa.p50_ms, sa.p50_ms), sb.slices);

  // Spans: the servers' files plus this process's client spans.
  std::vector<Span> spans = load_spans(trace_dir);
  const auto pid = static_cast<std::int32_t>(::getpid());
  for (const Op& op : pb.ops) {
    if (op.done == 0) continue;
    spans.push_back(Span{op.submit, op.done, op.id, 0, pid, 0, SpanKind::kClientRequest});
    spans.push_back(Span{op.submit, op.sent, op.id, 0, pid, 0, SpanKind::kClientSubmit});
  }
  auto names = pb.process_names;
  names[pid] = "client";
  const std::int64_t mid = pb.steady_start + (pb.failover_start - pb.steady_start) / 2;
  for (const Metric& metric : analyze_trace(spans, pb.ops.size(), names, mid, mid + 200 * kMs,
                                            env.out_dir + "/TRACE_" + w.name + ".json")) {
    m[metric.name] = metric;
  }
  std::filesystem::remove_all(trace_dir);

  for (const auto& [name, unit] : kLayerMetrics) {
    Metric metric = m.count(name) ? m[name] : Metric{name, 0, "", 0};
    metric.unit = unit;
    out.metrics.push_back(metric);
  }
  out.notes.push_back("# trace: " + env.out_dir + "/TRACE_" + w.name +
                      ".json (200 ms from the middle of pass B; open in Perfetto or "
                      "chrome://tracing)");
  return out;
}

/// The paper's Figure 9/11 regime in the simulator: n = 128, 100-200 ms
/// links, 20% broadcast omission, the Section VI series protocol.
RunResult run_sim(const Env& env) {
  RunResult out;
  std::vector<double> setup_s;
  std::unique_ptr<sim::ScenarioRunner> runner;
  const std::size_t setups = env.quick ? 1 : 3;
  for (std::size_t s = 0; s < setups; ++s) {
    const std::int64_t t0 = mono_ns();
    runner = std::make_unique<sim::ScenarioRunner>(sim::presets::paper_cluster(
        128, sim::presets::escape_policy(), env.seed * 1000 + s, 0.2));
    if (runner->bootstrap() == kNoServer) {
      out.correct = false;
      out.error = "the simulated cluster elected no leader";
      return out;
    }
    setup_s.push_back(static_cast<double>(mono_ns() - t0) / kSecond);
  }

  std::vector<sim::FailoverResult> results;
  sim::SeriesOptions series;
  series.runs = 10;
  const double cpu0 = thread_cpu_now();
  const std::int64_t t0 = mono_ns();
  while (static_cast<double>(mono_ns() - t0) < env.seconds * kSecond) {
    const auto batch = runner->run_series(series);
    if (batch.empty()) break;
    results.insert(results.end(), batch.begin(), batch.end());
  }
  const double cpu_ns = thread_cpu_now() - cpu0;
  const double wall_s = static_cast<double>(mono_ns() - t0) / kSecond;

  std::vector<double> total_ms;
  std::vector<double> detect_ms;
  double campaigns = 0;
  for (const auto& r : results) {
    if (!r.converged) continue;
    total_ms.push_back(to_ms_f(r.total));
    detect_ms.push_back(to_ms_f(r.detection));
    campaigns += static_cast<double>(r.campaigns);
  }
  out.attempted = results.size();
  out.failed = results.size() - total_ms.size();
  if (results.empty() || out.failed > 0) {
    out.correct = false;
    out.error = std::to_string(out.failed) + " of " + std::to_string(results.size()) +
                " simulated failovers did not converge";
  }
  const std::size_t n = total_ms.size();
  out.metrics = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"failover_ms", percentile(total_ms, 50), "ms", n},
      {"failover_p99_ms", percentile(total_ms, 99), "ms", n},
      {"cpu_us_per_failover", ratio(cpu_ns / 1e3, static_cast<double>(results.size())), "us",
       results.size()},
  };
  char line[200];
  std::snprintf(line, sizeof(line),
                "# %zu failovers in %.1f s (%.1f/s), %.2f campaigns per failover, detection "
                "p50 %.0f ms (virtual time)",
                results.size(), wall_s, ratio(static_cast<double>(results.size()), wall_s),
                ratio(campaigns, static_cast<double>(n)), median(detect_ms));
  out.notes.push_back(line);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"write_steady", "read_lease_zipf",
                                                 "five_node_writes", "paper_scale_sim"};
  return names;
}

RunResult run_workload(const std::string& name, const Env& env, bool trace) {
  for (const RealWorkload& w : kRealWorkloads) {
    if (name == w.name) return run_real(w, env, trace);
  }
  if (name == "paper_scale_sim") {
    if (trace) throw std::invalid_argument("paper_scale_sim has no traced run");
    return run_sim(env);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace escape::bench
