// Server processes of one benchmark pass.
//
// Each replica runs in a process of its own: the benchmark re-executes
// itself with --serve-node, and the child adopts the raft and client
// listeners the parent bound for it (port 0 on first start, the same ports
// again on a restart), so every endpoint is known before any server starts.
// A process per server gives exact CPU per server from /proc, keeps the
// load generator's CPU apart, and makes a failover a real SIGKILL followed
// by a restart from the data dir.
//
// Protocol (the child's stdin and stdout are pipes to the parent):
//   child -> parent  READY <recovery_us>          server constructed + started
//                    ROLE <mono_ns> <term> <role>  a 1 ms poll saw a change
//                    STATS <key>=<value> ...       reply to STATS
//                    DUMPED                        reply to DUMP (traced mode)
//   parent -> child  STATS | DUMP
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/types.h"

namespace escape::bench {

enum class ServerMode { kReal, kTraced };

/// Entry point of a --serve-node child.
int serve_node_main(int argc, char** argv);

struct RoleEvent {
  ServerId id = kNoServer;
  std::int64_t at = 0;  ///< mono_ns() in the child
  Term term = 0;
  Role role = Role::kFollower;
};

/// CPU time (ns) of every thread of `pid`, by thread id.
std::map<pid_t, double> thread_cpu_ns(pid_t pid);

class Cluster {
 public:
  struct Options {
    std::size_t size = 3;
    ServerMode mode = ServerMode::kReal;
    std::string exe;        ///< this binary, re-executed with --serve-node
    std::string data_dir;   ///< every node's files (named by id) live here
    std::string trace_dir;  ///< traced mode: span files land here
    std::uint64_t seed = 1;
  };

  explicit Cluster(Options options);
  /// SIGKILLs and reaps every live child.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Binds every listener, then spawns every node.
  void start();

  const std::map<ServerId, std::uint16_t>& client_ports() const { return client_ports_; }

  /// Reads whatever the children have reported so far and notices a server
  /// that exited without being killed.
  void poll();
  /// Why a server exited on its own; empty while none has.
  const std::string& failure() const { return failure_; }

  /// The live node reporting leadership in the highest term (kNoServer
  /// when none), and that term.
  ServerId leader() const;
  Term leader_term() const;
  bool alive(ServerId id) const;
  const std::vector<RoleEvent>& role_events() const { return role_events_; }

  /// Collects the node's counters (and, traced, its spans), then SIGKILLs it.
  void kill(ServerId id);
  /// Respawns a killed node on its ports and data dir.
  void restart(ServerId id);
  /// kill() for every live node.
  void stop();

  /// Starts CPU and context-switch accounting; usage() reports what the
  /// server threads of every process (each incarnation, killed ones up to
  /// their kill) used since. A child's main thread runs only the control
  /// loop and is left out.
  void mark();
  struct Usage {
    std::map<ServerId, double> cpu_ns;
    double ctx_switches = 0;
  };
  Usage usage();

  /// Counters summed over every incarnation collected by kill() / stop().
  const std::map<std::string, double>& counters() const { return counters_; }
  /// Construct + start time of every incarnation, in ms.
  const std::vector<double>& recovery_ms() const { return recovery_ms_; }
  /// "S<id>" per pid, for trace viewers.
  std::map<std::int32_t, std::string> process_names() const;

 private:
  struct Incarnation {
    ServerId id = kNoServer;
    pid_t pid = -1;
    int in_fd = -1;   ///< child's stdin
    int out_fd = -1;  ///< child's stdout
    std::string buffer;
    std::string reply;
    bool alive = false;
    bool measured = false;  ///< alive at or started after mark()
    Role role = Role::kFollower;
    Term term = 0;
    double cpu_base = 0, cpu_final = 0;
    double ctx_base = 0, ctx_final = 0;
  };

  void spawn(ServerId id, int raft_fd, int client_fd);
  Incarnation* live(ServerId id);
  void drain(Incarnation& inc);
  void handle_line(Incarnation& inc, const std::string& line);
  /// Sends `command` and waits (bounded) for a reply line starting with
  /// `prefix`; empty when none came.
  std::string request(Incarnation& inc, const std::string& command, const std::string& prefix);
  void close_fds(Incarnation& inc);

  const Options options_;
  std::map<ServerId, std::uint16_t> raft_ports_;
  std::map<ServerId, std::uint16_t> client_ports_;
  std::vector<Incarnation> incarnations_;
  std::vector<RoleEvent> role_events_;
  std::map<std::string, double> counters_;
  std::vector<double> recovery_ms_;
  std::string failure_;
  bool marked_ = false;
};

}  // namespace escape::bench
