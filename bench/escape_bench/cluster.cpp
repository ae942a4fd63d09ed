#include "cluster.h"

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "net/event_loop.h"

extern char** environ;

namespace escape::bench {
namespace {

/// `read(/proc/<pid>/task/<tid>/<file>)` for every thread of `pid`.
template <typename Read>
std::map<pid_t, double> per_thread(pid_t pid, const char* file, Read read) {
  std::map<pid_t, double> out;
  std::error_code ec;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(task.path() / file);
    if (in) out[static_cast<pid_t>(std::stol(task.path().filename().string()))] = read(in);
  }
  return out;
}

/// Sum over the server threads of child `pid`: every thread but the main
/// one, which runs only the benchmark's control loop.
double server_threads(std::map<pid_t, double> threads, pid_t pid) {
  threads.erase(pid);
  double total = 0;
  for (const auto& [tid, value] : threads) total += value;
  return total;
}

double cpu_ns(pid_t pid) { return server_threads(thread_cpu_ns(pid), pid); }

double ctx_switches(pid_t pid) {
  return server_threads(per_thread(pid, "status",
                                   [](std::ifstream& in) {
                                     double total = 0;
                                     std::string line;
                                     while (std::getline(in, line)) {
                                       if (line.find("ctxt_switches:") != std::string::npos) {
                                         total += std::stod(line.substr(line.find(':') + 1));
                                       }
                                     }
                                     return total;
                                   }),
                        pid);
}

/// Moves `fd` above the descriptors a child is given and marks it
/// close-on-exec, so no other child inherits it.
int park_fd(int fd) {
  const int parked = ::fcntl(fd, F_DUPFD_CLOEXEC, 16);
  ::close(fd);
  if (parked < 0) throw std::runtime_error("fcntl(F_DUPFD_CLOEXEC) failed");
  return parked;
}

}  // namespace

std::map<pid_t, double> thread_cpu_ns(pid_t pid) {
  return per_thread(pid, "schedstat", [](std::ifstream& in) {
    double ns = 0;
    in >> ns;  // first field: time spent on the CPU
    return ns;
  });
}

Cluster::Cluster(Options options) : options_(std::move(options)) {}

Cluster::~Cluster() {
  for (auto& inc : incarnations_) {
    if (!inc.alive) continue;
    ::kill(inc.pid, SIGKILL);
    ::waitpid(inc.pid, nullptr, 0);
    close_fds(inc);
  }
}

void Cluster::start() {
  std::map<ServerId, std::pair<int, int>> fds;
  for (ServerId id = 1; id <= options_.size; ++id) {
    const auto raft = net::bind_loopback_listener(0);
    const auto client = net::bind_loopback_listener(0);
    raft_ports_[id] = raft.port;
    client_ports_[id] = client.port;
    fds[id] = {park_fd(raft.fd), park_fd(client.fd)};
  }
  for (const auto& [id, pair] : fds) spawn(id, pair.first, pair.second);
}

void Cluster::restart(ServerId id) {
  const auto raft = net::bind_loopback_listener(raft_ports_.at(id));
  const auto client = net::bind_loopback_listener(client_ports_.at(id));
  spawn(id, park_fd(raft.fd), park_fd(client.fd));
}

void Cluster::spawn(ServerId id, int raft_fd, int client_fd) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  std::string peers;
  for (const auto& [peer, port] : raft_ports_) {
    if (!peers.empty()) peers += ",";
    peers += std::to_string(peer) + ":" + std::to_string(port);
  }
  std::vector<std::string> args = {options_.exe,
                                   "--serve-node",
                                   "--id",
                                   std::to_string(id),
                                   "--peers",
                                   peers,
                                   "--data-dir",
                                   options_.data_dir,
                                   "--seed",
                                   std::to_string(options_.seed + id)};
  if (options_.mode == ServerMode::kTraced) {
    args.push_back("--trace-dir");
    args.push_back(options_.trace_dir);
  }
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // The child sees its stdin/stdout pipes as 0/1 and its listeners as 3/4;
  // the sources are close-on-exec, so nothing else leaks into it.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_adddup2(&actions, raft_fd, 3);
  posix_spawn_file_actions_adddup2(&actions, client_fd, 4);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, options_.exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  ::close(raft_fd);
  ::close(client_fd);
  if (rc != 0) {
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    throw std::runtime_error(std::string("posix_spawn failed: ") + std::strerror(rc));
  }
  ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);

  Incarnation inc;
  inc.id = id;
  inc.pid = pid;
  inc.in_fd = in_pipe[1];
  inc.out_fd = out_pipe[0];
  inc.alive = true;
  inc.measured = marked_;
  incarnations_.push_back(std::move(inc));
}

Cluster::Incarnation* Cluster::live(ServerId id) {
  for (auto& inc : incarnations_) {
    if (inc.alive && inc.id == id) return &inc;
  }
  return nullptr;
}

bool Cluster::alive(ServerId id) const {
  for (const auto& inc : incarnations_) {
    if (inc.alive && inc.id == id) return true;
  }
  return false;
}

void Cluster::poll() {
  for (auto& inc : incarnations_) {
    if (!inc.alive) continue;
    drain(inc);
    int status = 0;
    if (::waitpid(inc.pid, &status, WNOHANG) == inc.pid) {
      inc.alive = false;
      close_fds(inc);
      if (failure_.empty()) {
        failure_ = server_name(inc.id) + " exited on its own (status " + std::to_string(status) + ")";
      }
    }
  }
}

void Cluster::drain(Incarnation& inc) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(inc.out_fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    inc.buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::size_t nl;
  while ((nl = inc.buffer.find('\n')) != std::string::npos) {
    const std::string line = inc.buffer.substr(0, nl);
    inc.buffer.erase(0, nl + 1);
    handle_line(inc, line);
  }
}

void Cluster::handle_line(Incarnation& inc, const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag == "READY") {
    double us = 0;
    in >> us;
    recovery_ms_.push_back(us / 1e3);
  } else if (tag == "ROLE") {
    RoleEvent event;
    int role = 0;
    event.id = inc.id;
    in >> event.at >> event.term >> role;
    event.role = static_cast<Role>(role);
    inc.role = event.role;
    inc.term = event.term;
    role_events_.push_back(event);
  } else {
    inc.reply = line;
  }
}

std::string Cluster::request(Incarnation& inc, const std::string& command,
                             const std::string& prefix) {
  inc.reply.clear();
  const std::string line = command + "\n";
  if (::write(inc.in_fd, line.data(), line.size()) != static_cast<ssize_t>(line.size())) {
    return {};
  }
  const std::int64_t deadline = mono_ns() + 5'000'000'000;
  while (inc.reply.rfind(prefix, 0) != 0 && mono_ns() < deadline) {
    pollfd pfd{inc.out_fd, POLLIN, 0};
    ::poll(&pfd, 1, 50);
    drain(inc);
  }
  return inc.reply.rfind(prefix, 0) == 0 ? inc.reply : std::string();
}

void Cluster::kill(ServerId id) {
  Incarnation* inc = live(id);
  if (!inc) return;
  std::istringstream stats(request(*inc, "STATS", "STATS"));
  std::string field;
  stats >> field;  // the tag
  while (stats >> field) {
    const auto eq = field.find('=');
    if (eq != std::string::npos) counters_[field.substr(0, eq)] += std::stod(field.substr(eq + 1));
  }
  if (options_.mode == ServerMode::kTraced) request(*inc, "DUMP", "DUMPED");
  inc->cpu_final = cpu_ns(inc->pid);
  inc->ctx_final = ctx_switches(inc->pid);
  ::kill(inc->pid, SIGKILL);
  ::waitpid(inc->pid, nullptr, 0);
  drain(*inc);
  inc->alive = false;
  close_fds(*inc);
}

void Cluster::stop() {
  for (ServerId id = 1; id <= options_.size; ++id) kill(id);
}

void Cluster::close_fds(Incarnation& inc) {
  ::close(inc.in_fd);
  ::close(inc.out_fd);
  inc.in_fd = inc.out_fd = -1;
}

ServerId Cluster::leader() const {
  ServerId best = kNoServer;
  Term best_term = -1;
  for (const auto& inc : incarnations_) {
    if (inc.alive && inc.role == Role::kLeader && inc.term > best_term) {
      best = inc.id;
      best_term = inc.term;
    }
  }
  return best;
}

Term Cluster::leader_term() const {
  Term best_term = 0;
  for (const auto& inc : incarnations_) {
    if (inc.alive && inc.role == Role::kLeader) best_term = std::max(best_term, inc.term);
  }
  return best_term;
}

void Cluster::mark() {
  marked_ = true;
  for (auto& inc : incarnations_) {
    if (!inc.alive) continue;
    inc.measured = true;
    inc.cpu_base = cpu_ns(inc.pid);
    inc.ctx_base = ctx_switches(inc.pid);
  }
}

Cluster::Usage Cluster::usage() {
  Usage u;
  for (auto& inc : incarnations_) {
    if (inc.alive) {
      inc.cpu_final = cpu_ns(inc.pid);
      inc.ctx_final = ctx_switches(inc.pid);
    }
    if (!inc.measured) continue;  // killed before mark()
    u.cpu_ns[inc.id] += inc.cpu_final - inc.cpu_base;
    u.ctx_switches += inc.ctx_final - inc.ctx_base;
  }
  return u;
}

std::map<std::int32_t, std::string> Cluster::process_names() const {
  std::map<std::int32_t, std::string> names;
  for (const auto& inc : incarnations_) {
    names[static_cast<std::int32_t>(inc.pid)] = server_name(inc.id);
  }
  return names;
}

}  // namespace escape::bench
