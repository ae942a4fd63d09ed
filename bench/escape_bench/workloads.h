// The benchmark's workloads and the metrics each run reports.
//
// Three traffic mixes drive real server processes over loopback sockets; a
// fourth workload runs the paper-scale simulator. A run without tracing
// reports the end-to-end metrics (setup_s, unavail_ms, failover_ms); a
// traced run reports the per-layer metrics instead (see README.md for both
// lists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace escape::bench {

struct Env {
  std::string exe;       ///< this binary (servers re-execute it)
  std::string out_dir;   ///< trace files and the JSON report
  std::string data_dir;  ///< server data dirs live below it
  std::uint64_t seed = 1;
  double seconds = 30;   ///< length of the measured window
  bool quick = false;    ///< one set-up per pass, short warm-up
};

struct RunResult {
  bool correct = true;
  std::string error;  ///< first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> notes;  ///< diagnostics printed as "# ..." lines
};

/// Every workload, in run order.
const std::vector<std::string>& workload_names();

/// Runs one workload; `trace` selects the traced per-layer run. Throws
/// std::invalid_argument for an unknown workload or a workload without a
/// traced run.
RunResult run_workload(const std::string& name, const Env& env, bool trace);

}  // namespace escape::bench
