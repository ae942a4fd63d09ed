#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <sys/syscall.h>
#include <unistd.h>

namespace escape::bench {
namespace {

struct SpanInfo {
  const char* name;
  const char* layer;
  bool wait;
};

constexpr SpanInfo kInfo[] = {
    {"client.request", "client", true},   {"client.submit", "client", false},
    {"net.transit", "net", true},         {"serve.decode", "serve", false},
    {"serve.respond", "serve", false},    {"serve.pending", "serve", true},
    {"serve.read_wait", "serve", true},   {"net.lock_wait", "net", true},
    {"net.mailbox_wait", "net", true},    {"net.send", "net", false},
    {"raft.step", "raft", false},         {"raft.tick", "raft", false},
    {"raft.submit", "raft", false},       {"raft.pump", "raft", false},
    {"raft.commit", "raft", true},        {"raft.repl_rtt", "raft", true},
    {"storage.wal_write", "storage", false}, {"storage.wal_sync", "storage", false},
    {"storage.state_save", "storage", false}, {"kv.apply", "kv", false},
    {"kv.peek", "kv", false},             {"core.policy", "core", false},
    {"core.patrol", "core", false},
};
static_assert(std::size(kInfo) == static_cast<std::size_t>(SpanKind::kCount));

const SpanInfo& info(SpanKind kind) { return kInfo[static_cast<std::size_t>(kind)]; }
const char* span_name(SpanKind kind) { return info(kind).name; }
const char* span_layer(SpanKind kind) { return info(kind).layer; }
bool span_is_wait(SpanKind kind) { return info(kind).wait; }

// --- in-process recording (server side) ---------------------------------------

struct Buffer {
  std::mutex mu;  // uncontended except while dump_spans() drains it
  std::vector<Span> spans;
};

std::mutex registry_mu;
// Never destroyed: a thread may still record while the process exits.
std::vector<std::unique_ptr<Buffer>>& registry() {
  static auto* buffers = new std::vector<std::unique_ptr<Buffer>>();
  return *buffers;
}

Buffer& local_buffer() {
  thread_local Buffer* buffer = [] {
    auto owned = std::make_unique<Buffer>();
    Buffer* raw = owned.get();
    std::lock_guard lock(registry_mu);
    registry().push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

std::int32_t this_tid() {
  thread_local const auto tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
  return tid;
}

// --- analysis helpers ---------------------------------------------------------

double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      cursor = b;
    }
  }
  return total;
}

void write_chrome(const std::vector<Span>& spans, const std::vector<std::int64_t>& parent,
                  const std::map<std::int32_t, std::string>& process_names,
                  std::int64_t slice_start, std::int64_t slice_end, const std::string& path) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"args\":{\"name\":\"" << name << "\"}}";
  }
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start < slice_start || s.start >= slice_end) continue;
    sep();
    std::snprintf(buf, sizeof(buf), "%.3f", to_us(s.start - slice_start));
    out << "{\"name\":\"" << span_name(s.kind) << "\",\"cat\":\"" << span_layer(s.kind)
        << "\",\"pid\":" << s.pid << ",\"tid\":" << s.tid << ",\"ts\":" << buf;
    if (s.kind == SpanKind::kRaftCommit) {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    } else {
      std::snprintf(buf, sizeof(buf), "%.3f", to_us(s.end - s.start));
      out << ",\"ph\":\"X\",\"dur\":" << buf;
    }
    out << ",\"args\":{\"rid\":" << s.rid << ",\"idx\":" << s.idx;
    if (parent[i] >= 0) out << ",\"parent\":\"" << span_name(spans[parent[i]].kind) << "\"";
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace

void record_span(SpanKind kind, std::int64_t start, std::int64_t end, std::uint64_t rid,
                 std::int64_t idx) {
  static const auto pid = static_cast<std::int32_t>(::getpid());
  Buffer& buffer = local_buffer();
  std::lock_guard lock(buffer.mu);
  buffer.spans.push_back(Span{start, end, rid, idx, pid, this_tid(), kind});
}

void dump_spans(const std::string& path) {
  std::vector<Span> all;
  {
    std::lock_guard lock(registry_mu);
    for (const auto& buffer : registry()) {
      std::lock_guard buffer_lock(buffer->mu);
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
      buffer->spans.clear();
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) return;
  std::fwrite(all.data(), sizeof(Span), all.size(), f);
  std::fclose(f);
}

std::vector<Span> load_spans(const std::string& dir) {
  std::vector<Span> spans;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("spans_", 0) != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    Span s;
    while (in.read(reinterpret_cast<char*>(&s), sizeof(s))) spans.push_back(s);
  }
  return spans;
}

Metrics analyze_trace(std::vector<Span>& spans, std::size_t requests,
                      const std::map<std::int32_t, std::string>& process_names,
                      std::int64_t slice_start, std::int64_t slice_end,
                      const std::string& chrome_path) {
  // Requests answered in one attempt: one decode and one response, both on
  // the leader that served them. Their client -> server and server -> client
  // legs become derived net.transit spans.
  struct Chain {
    int decodes = 0;
    int responds = 0;
    const Span* root = nullptr;
    const Span* submit = nullptr;
    const Span* decode = nullptr;
    const Span* respond = nullptr;
  };
  std::unordered_map<std::uint64_t, Chain> chains;
  std::size_t retries = 0;
  for (const Span& s : spans) {
    if (s.rid == 0) continue;
    Chain& c = chains[s.rid];
    switch (s.kind) {
      case SpanKind::kClientRequest: c.root = &s; break;
      case SpanKind::kClientSubmit: c.submit = &s; break;
      case SpanKind::kServeDecode: ++c.decodes; c.decode = &s; break;
      case SpanKind::kServeRespond:
        ++c.responds;
        c.respond = &s;
        if (s.idx != 0) ++retries;
        break;
      default: break;
    }
  }
  std::vector<Span> transits;
  std::unordered_set<std::uint64_t> single_attempt;
  for (const auto& [rid, c] : chains) {
    if (!c.root || !c.submit || c.decodes != 1 || c.responds != 1) continue;
    single_attempt.insert(rid);
    if (c.decode->start > c.submit->end) {
      transits.push_back(Span{c.submit->end, c.decode->start, rid, 0, c.decode->pid,
                              c.decode->tid, SpanKind::kNetTransit});
    }
    if (c.root->end > c.respond->end) {
      transits.push_back(Span{c.respond->end, c.root->end, rid, 0, c.root->pid, c.root->tid,
                              SpanKind::kNetTransit});
    }
  }
  chains.clear();  // holds pointers into `spans`, which grows next
  spans.insert(spans.end(), transits.begin(), transits.end());

  // Self time: work spans nest by time on their thread.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.pid != y.pid) return x.pid < y.pid;
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start != y.start) return x.start < y.start;
    return x.end > y.end;
  });
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::int64_t> parent(spans.size(), -1);
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const Span& s = spans[i];
    self[i] = s.end - s.start;
    if (span_is_wait(s.kind)) continue;
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.pid == s.pid && top.tid == s.tid && top.end >= s.end) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      parent[i] = static_cast<std::int64_t>(stack.back());
      self[stack.back()] -= s.end - s.start;
    }
    stack.push_back(i);
  }

  // Request spans hang under their client request.
  std::unordered_map<std::uint64_t, std::size_t> root_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == SpanKind::kClientRequest) root_of[spans[i].rid] = i;
  }
  std::unordered_map<std::size_t, std::vector<std::pair<std::int64_t, std::int64_t>>> parts;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.rid == 0 || s.kind == SpanKind::kClientRequest) continue;
    const auto root = root_of.find(s.rid);
    if (root == root_of.end()) continue;
    if (parent[i] < 0) parent[i] = static_cast<std::int64_t>(root->second);
    parts[root->second].emplace_back(s.start, s.end);
  }

  std::vector<double> by_kind[static_cast<std::size_t>(SpanKind::kCount)];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_kind[static_cast<std::size_t>(spans[i].kind)].push_back(static_cast<double>(self[i]));
  }

  // Coverage: the share of a single-attempt request's client-observed time
  // that its spans (client, derived transit, server) account for.
  std::vector<double> coverage;
  for (const auto& [rid, i] : root_of) {
    const Span& root = spans[i];
    if (root.end <= root.start || !single_attempt.count(rid)) continue;
    coverage.push_back(100.0 * static_cast<double>(covered(parts[i], root.start, root.end)) /
                       static_cast<double>(root.end - root.start));
  }

  // Commit latency: a write's pending span starts when submit returned its
  // index; the first commit advance at or past that index commits it.
  std::map<std::int32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> commits;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kRaftCommit) commits[s.pid].emplace_back(s.idx, s.start);
  }
  for (auto& [pid, list] : commits) std::sort(list.begin(), list.end());
  std::vector<double> commit_ns;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kServePending) continue;
    const auto it = commits.find(s.pid);
    if (it == commits.end()) continue;
    const auto at = std::lower_bound(it->second.begin(), it->second.end(),
                                     std::make_pair(s.idx, std::int64_t{0}));
    if (at != it->second.end() && at->second >= s.start) {
      commit_ns.push_back(static_cast<double>(at->second - s.start));
    }
  }

  Metrics metrics;
  const auto add = [&](const char* name, std::vector<double>& values, double scale,
                       const char* unit) {
    metrics.push_back(Metric{name, percentile(values, 50) / scale, unit, values.size()});
  };
  const auto kind = [&](SpanKind k) -> std::vector<double>& {
    return by_kind[static_cast<std::size_t>(k)];
  };
  add("serve.decode_us", kind(SpanKind::kServeDecode), 1e3, "us");
  add("serve.respond_us", kind(SpanKind::kServeRespond), 1e3, "us");
  add("serve.pending_ms", kind(SpanKind::kServePending), 1e6, "ms");
  metrics.push_back(Metric{"serve.retries_per_op",
                           requests ? static_cast<double>(retries) / static_cast<double>(requests)
                                    : 0,
                           "count", requests});
  add("net.mailbox_wait_us", kind(SpanKind::kNetMailboxWait), 1e3, "us");
  add("net.lock_wait_us", kind(SpanKind::kNetLockWait), 1e3, "us");
  add("net.send_us", kind(SpanKind::kNetSend), 1e3, "us");
  add("net.transit_us", kind(SpanKind::kNetTransit), 1e3, "us");
  add("raft.step_us", kind(SpanKind::kRaftStep), 1e3, "us");
  add("raft.tick_us", kind(SpanKind::kRaftTick), 1e3, "us");
  add("raft.submit_us", kind(SpanKind::kRaftSubmit), 1e3, "us");
  add("raft.pump_us", kind(SpanKind::kRaftPump), 1e3, "us");
  add("raft.commit_ms", commit_ns, 1e6, "ms");
  add("raft.repl_rtt_ms", kind(SpanKind::kRaftReplRtt), 1e6, "ms");
  add("storage.wal_write_us", kind(SpanKind::kStorageWalWrite), 1e3, "us");
  add("storage.wal_sync_us", kind(SpanKind::kStorageWalSync), 1e3, "us");
  add("storage.state_save_us", kind(SpanKind::kStorageStateSave), 1e3, "us");
  add("kv.apply_us", kind(SpanKind::kKvApply), 1e3, "us");
  add("kv.peek_us", kind(SpanKind::kKvPeek), 1e3, "us");
  add("core.policy_us", kind(SpanKind::kCorePolicy), 1e3, "us");
  add("core.patrol_us", kind(SpanKind::kCorePatrol), 1e3, "us");
  add("trace.coverage", coverage, 1, "%");

  write_chrome(spans, parent, process_names, slice_start, slice_end, chrome_path);
  return metrics;
}

}  // namespace escape::bench
