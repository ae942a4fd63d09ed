// Seeded open-loop load, its history, and the checks run on that history.
//
// The schedule (arrival times, ops, keys) is drawn from the run's seed before
// anything is sent; the program under test receives only the generated
// commands. One generator thread submits each op at its due time whatever
// the completions do, and every latency is measured from the due time, so a
// stall also counts against the requests it delayed. How late the generator
// itself ran is recorded per op.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "serve/kv_client.h"

namespace escape::bench {

/// Traffic mix of a workload.
struct Mix {
  double read_fraction = 0;  ///< share of Gets; the rest are Puts
  bool zipfian = false;      ///< zipfian (theta 0.99) instead of uniform keys
  std::uint64_t keys = 10000;
  std::size_t value_bytes = 64;
};

/// Where an op falls in a run: warm-up, the steady window, the failover
/// window (leader kills), or the read-back after the load.
enum class Phase : std::uint8_t { kWarmup, kSteady, kFailover, kVerify };

/// One request and its outcome. Times are mono_ns().
struct Op {
  std::int64_t due = 0;
  std::int64_t submit = 0;  ///< KvClient::submit called
  std::int64_t sent = 0;    ///< KvClient::submit returned
  std::int64_t done = 0;    ///< completion callback
  std::uint64_t id = 0;       ///< 1-based index in the history; a Put writes value_for(id)
  std::uint64_t read_id = 0;  ///< Get: id of the Put it returned (0: key absent)
  std::uint32_t key = 0;
  bool read = false;
  Phase phase = Phase::kWarmup;
  serve::Status status = serve::Status::kRetry;
};

/// Poisson arrivals at `rate` per second over [start, end); every op's
/// phase is left at kWarmup for the caller to assign.
std::vector<Op> make_schedule(const Mix& mix, double rate, std::int64_t start, std::int64_t end,
                              std::uint64_t seed);

std::string key_name(std::uint32_t key);

/// Submits ops through one KvClient and records their outcomes in place.
/// The ops vector must not reallocate while requests are outstanding.
class LoadDriver {
 public:
  LoadDriver(serve::KvClient& client, std::vector<Op>& ops, std::size_t value_bytes);

  /// Open loop over ops[begin, end): each at its due time (call on the
  /// generator thread).
  void run_open(std::size_t begin, std::size_t end);
  /// Closed loop over ops[begin, end) with at most `window` outstanding.
  void run_closed(std::size_t begin, std::size_t end, std::size_t window);
  /// Waits until every submitted op completed; false at the deadline.
  bool drain(std::int64_t deadline);

  /// Thread id of the generator thread once run_open started (0 before).
  pid_t generator_tid() const { return generator_tid_.load(); }

 private:
  void submit(std::size_t i);

  serve::KvClient& client_;
  std::vector<Op>& ops_;
  const std::size_t value_bytes_;
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<pid_t> generator_tid_{0};
};

/// Checks the history. Each read must return a value some Put of that key
/// wrote (or nothing), no Put submitted after the read completed, and no
/// value superseded before the read began — that is, not the value of a
/// Put that completed before another acknowledged Put of the key started,
/// where that other Put completed before the read was submitted. Reading
/// every key after all writes finished makes the same rule prove that no
/// acknowledged write was lost. Returns the first violation, empty if none.
std::string check_history(const std::vector<Op>& ops);

}  // namespace escape::bench
