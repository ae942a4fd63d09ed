// Shared helpers for the escape_bench harness: the one clock every process
// of a run stamps with, order statistics, and metric records.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace escape::bench {

/// CLOCK_MONOTONIC in nanoseconds (libstdc++'s steady_clock). Every process
/// of a run stamps spans and role events with it, so they merge directly.
inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Percentile `p` in [0, 100], interpolating linearly between order
/// statistics. Sorts `values`; 0 for an empty sample.
inline double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> values) { return percentile(values, 50); }

/// Every generated command carries its op id in the value: a Put writes
/// "v" + 16 hex digits of its id, padded to `bytes`, so values are unique per
/// operation and a read names the write it observed; a Get carries the tag
/// alone (servers ignore a Get's value), which lets the traced server tie
/// its spans to the request.
inline std::string value_for(std::uint64_t id, std::size_t bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string value(std::max<std::size_t>(bytes, 17), 'x');
  value[0] = 'v';
  for (int i = 0; i < 16; ++i) value[16 - i] = kHex[(id >> (4 * i)) & 0xF];
  return value;
}

/// Op id carried by `value` (see value_for); 0 when it carries none.
inline std::uint64_t id_of(const std::string& value) {
  if (value.size() < 17 || value[0] != 'v') return 0;
  std::uint64_t id = 0;
  for (int i = 1; i <= 16; ++i) {
    const char c = value[static_cast<std::size_t>(i)];
    const int digit = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (digit < 0) return 0;
    id = id << 4 | static_cast<std::uint64_t>(digit);
  }
  return id;
}

/// One reported number: printed as `workload name value unit (n=samples)`
/// and emitted in the result JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

using Metrics = std::vector<Metric>;

}  // namespace escape::bench
