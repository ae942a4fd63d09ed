#include "load.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <random>
#include <thread>
#include <unordered_map>

#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "common.h"

namespace escape::bench {
namespace {

/// Uniform double in [0, 1) from the top 53 bits (portable, unlike
/// std::uniform_real_distribution).
double unit(std::mt19937_64& rng) { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }

/// YCSB zipfian over [0, n), item 0 hottest (Gray et al.'s closed form).
class Zipfian {
 public:
  Zipfian(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    for (std::uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }

  std::uint64_t next(std::mt19937_64& rng) const {
    const double u = unit(rng);
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto v = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                              std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(v, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

}  // namespace

std::vector<Op> make_schedule(const Mix& mix, double rate, std::int64_t start, std::int64_t end,
                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Zipfian zipf(mix.keys, 0.99);
  const double mean_gap_ns = 1e9 / rate;
  std::vector<Op> ops;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - unit(rng)) * mean_gap_ns;
    if (t >= static_cast<double>(end - start)) break;
    Op op;
    op.due = start + static_cast<std::int64_t>(t);
    op.read = unit(rng) < mix.read_fraction;
    op.key = static_cast<std::uint32_t>(mix.zipfian ? zipf.next(rng) : rng() % mix.keys);
    op.id = ops.size() + 1;
    ops.push_back(op);
  }
  return ops;
}

std::string key_name(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08u", key);
  return buf;
}

LoadDriver::LoadDriver(serve::KvClient& client, std::vector<Op>& ops, std::size_t value_bytes)
    : client_(client), ops_(ops), value_bytes_(value_bytes) {}

void LoadDriver::submit(std::size_t i) {
  Op& op = ops_[i];
  kv::Command command;
  command.op = op.read ? kv::Op::kGet : kv::Op::kPut;
  command.key = key_name(op.key);
  command.value = value_for(op.id, op.read ? 0 : value_bytes_);
  submitted_.fetch_add(1);
  op.submit = mono_ns();
  client_.submit(std::move(command), [this, i](serve::Status status,
                                               const kv::CommandResult& result) {
    Op& o = ops_[i];
    o.done = mono_ns();
    o.status = status;
    if (o.read && status == serve::Status::kOk && result.ok) {
      const std::uint64_t id = id_of(result.value);
      o.read_id = id != 0 ? id : std::numeric_limits<std::uint64_t>::max();
    }
    completed_.fetch_add(1, std::memory_order_release);
  });
  op.sent = mono_ns();
}

void LoadDriver::run_open(std::size_t begin, std::size_t end) {
  generator_tid_.store(static_cast<pid_t>(::syscall(SYS_gettid)));
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not up to 50 us after
  for (std::size_t i = begin; i < end; ++i) {
    const std::int64_t due = ops_[i].due;
    const timespec at{static_cast<time_t>(due / 1'000'000'000), static_cast<long>(due % 1'000'000'000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) == EINTR) {
    }
    submit(i);
  }
}

void LoadDriver::run_closed(std::size_t begin, std::size_t end, std::size_t window) {
  for (std::size_t i = begin; i < end; ++i) {
    while (submitted_.load() - completed_.load(std::memory_order_acquire) >= window) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ops_[i].due = mono_ns();
    submit(i);
  }
}

bool LoadDriver::drain(std::int64_t deadline) {
  while (completed_.load(std::memory_order_acquire) < submitted_.load()) {
    if (mono_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::string check_history(const std::vector<Op>& ops) {
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  // Acknowledged Puts per key in completion order, with the latest start
  // among each prefix.
  struct Acked {
    std::vector<std::int64_t> done;
    std::vector<std::int64_t> latest_start;
  };
  std::unordered_map<std::uint32_t, std::vector<const Op*>> puts;
  for (const Op& op : ops) {
    if (!op.read && op.status == serve::Status::kOk) puts[op.key].push_back(&op);
  }
  std::unordered_map<std::uint32_t, Acked> acked;
  for (auto& [key, list] : puts) {
    std::sort(list.begin(), list.end(), [](const Op* a, const Op* b) { return a->done < b->done; });
    Acked& a = acked[key];
    std::int64_t latest = std::numeric_limits<std::int64_t>::min();
    for (const Op* op : list) {
      latest = std::max(latest, op->submit);
      a.done.push_back(op->done);
      a.latest_start.push_back(latest);
    }
  }

  for (const Op& r : ops) {
    const std::string who = "read op " + std::to_string(r.id) + " of " + key_name(r.key);
    if (r.phase == Phase::kVerify && r.status != serve::Status::kOk) {
      return "verification " + who + " did not complete";
    }
    if (!r.read || r.status != serve::Status::kOk) continue;
    bool settled = false;  // an acknowledged Put finished before the read began
    std::int64_t floor = std::numeric_limits<std::int64_t>::min();
    if (const auto it = acked.find(r.key); it != acked.end()) {
      const auto& done = it->second.done;
      const auto pos = std::lower_bound(done.begin(), done.end(), r.submit) - done.begin();
      if (pos > 0) {
        settled = true;
        floor = it->second.latest_start[static_cast<std::size_t>(pos - 1)];
      }
    }
    if (r.read_id == 0) {
      if (settled) return who + " found no value after an acknowledged Put completed";
      continue;
    }
    if (r.read_id > ops.size()) return who + " returned a value no Put wrote";
    const Op& w = ops[r.read_id - 1];
    if (w.read || w.key != r.key) return who + " returned a value no Put of that key wrote";
    if (w.submit > r.done) return who + " returned Put " + std::to_string(w.id) + " from its future";
    const std::int64_t w_done = w.status == serve::Status::kOk ? w.done : kNever;
    if (settled && floor > w_done) {
      return who + " returned Put " + std::to_string(w.id) +
             ", superseded before the read began (lost or stale)";
    }
  }
  return {};
}

}  // namespace escape::bench
