// The --serve-node child: one KV replica (serve::KvServer, or its traced
// twin) plus the control loop of the protocol in cluster.h.
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "cluster.h"
#include "common.h"
#include "core/escape_policy.h"
#include "serve/kv_server.h"
#include "trace.h"
#include "traced_server.h"

namespace escape::bench {
namespace {

constexpr int kRaftListenFd = 3;
constexpr int kClientListenFd = 4;

/// The fig16 ESCAPE setup: baseTime 300 ms, gap 150 ms, 60 ms heartbeats.
net::PolicyFactory escape_policy() {
  core::EscapeOptions opts;
  opts.base_time = from_ms(300);
  opts.gap = from_ms(150);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<core::EscapePolicy>(id, n, opts);
  };
}

raft::NodeOptions node_options() {
  raft::NodeOptions o = net::RealNode::Options{}.node;
  o.heartbeat_interval = from_ms(60);
  return o;
}

std::string stats_line(const raft::NodeCounters& c, std::uint64_t wakeups) {
  std::ostringstream out;
  out << "STATS campaigns=" << c.campaigns_started << " elections=" << c.elections_won
      << " heartbeats=" << c.heartbeat_rounds << " msgs_rx=" << c.messages_received
      << " adoptions=" << c.config_adoptions << " lease_reads=" << c.lease_reads
      << " index_reads=" << c.read_index_reads << " reads_rejected=" << c.reads_rejected
      << " syncs=" << c.wal_group_syncs << " rps_sum=" << c.wal_records_per_sync.sum
      << " rps_n=" << c.wal_records_per_sync.count << " aeb_sum=" << c.append_batch_entries.sum
      << " aeb_n=" << c.append_batch_entries.count << " infl_sum=" << c.inflight_depth.sum
      << " infl_n=" << c.inflight_depth.count << " wakeups=" << wakeups;
  return out.str();
}

void emit(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

struct Probe {
  std::function<Role()> role;
  std::function<Term()> term;
  std::function<std::string()> stats;
  std::function<void()> dump;
};

/// Reports role/term changes (1 ms poll) and answers requests until the
/// parent closes the pipe or kills this process.
void control_loop(const Probe& probe) {
  int last_role = -1;
  Term last_term = -1;
  std::string buffer;
  for (;;) {
    pollfd pfd{0, POLLIN, 0};
    if (::poll(&pfd, 1, 1) > 0) {
      char chunk[256];
      const ssize_t n = ::read(0, chunk, sizeof(chunk));
      if (n <= 0) return;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string command = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (command == "STATS") {
          emit(probe.stats());
        } else if (command == "DUMP" && probe.dump) {
          probe.dump();
          emit("DUMPED");
        }
      }
    }
    const int role = static_cast<int>(probe.role());
    const Term term = probe.term();
    if (role != last_role || term != last_term) {
      emit("ROLE " + std::to_string(mono_ns()) + " " + std::to_string(term) + " " +
           std::to_string(role));
      last_role = role;
      last_term = term;
    }
  }
}

}  // namespace

int serve_node_main(int argc, char** argv) {
  // Descriptors beyond the protocol's (sockets of the parent's client, other
  // children's pipes) are not ours to hold open.
  ::syscall(SYS_close_range, 5u, ~0u, 0u);
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) return 1;

  ServerId id = kNoServer;
  std::map<ServerId, std::uint16_t> endpoints;
  std::string data_dir;
  std::string trace_dir;
  std::uint64_t seed = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--id") {
      id = static_cast<ServerId>(std::stoul(value));
    } else if (flag == "--peers") {
      std::istringstream in(value);
      std::string peer;
      while (std::getline(in, peer, ',')) {
        const auto colon = peer.find(':');
        endpoints[static_cast<ServerId>(std::stoul(peer.substr(0, colon)))] =
            static_cast<std::uint16_t>(std::stoul(peer.substr(colon + 1)));
      }
    } else if (flag == "--data-dir") {
      data_dir = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    }
  }
  if (id == kNoServer || !endpoints.count(id)) return 2;

  const auto started = mono_ns();
  if (trace_dir.empty()) {
    serve::KvServer::Options options;
    options.node.node = node_options();
    options.node.data_dir = data_dir;
    options.node.seed = seed;
    options.node.listen_fd = kRaftListenFd;
    options.client_listen_fd = kClientListenFd;
    serve::KvServer server(id, endpoints, escape_policy(), options);
    server.start();
    emit("READY " + std::to_string((mono_ns() - started) / 1000));
    control_loop(Probe{[&] { return server.node().role(); }, [&] { return server.node().term(); },
                       [&] {
                         return stats_line(server.node().counters(),
                                           server.loop_stats().wakeups.load());
                       },
                       nullptr});
    server.stop();
    return 0;
  }

  TracedServer::Options options;
  options.node = node_options();
  options.data_dir = data_dir;
  options.seed = seed;
  options.raft_listen_fd = kRaftListenFd;
  options.client_listen_fd = kClientListenFd;
  TracedServer server(id, endpoints, escape_policy(), options);
  server.start();
  emit("READY " + std::to_string((mono_ns() - started) / 1000));
  const std::string span_file =
      trace_dir + "/spans_" + std::to_string(id) + "_" + std::to_string(::getpid()) + ".bin";
  control_loop(Probe{[&] { return server.role(); }, [&] { return server.term(); },
                     [&] { return stats_line(server.counters(), server.client_wakeups()); },
                     [&] { dump_spans(span_file); }});
  server.stop();
  dump_spans(span_file);
  return 0;
}

}  // namespace escape::bench
