// escape_bench: one repeatable end-to-end benchmark of the ESCAPE stack.
//
//   escape_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                [--quick] [--out-dir DIR] [--data-dir DIR]
//
// Without --workload every workload runs in turn. Each metric prints as
// `workload metric value unit (n=samples)`, and the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the same
// report goes to <out-dir>/BENCH_escape_bench.json. --quick runs every
// workload briefly for its correctness checks alone. Exit status: 0 when
// every check passed, 1 when one failed, 2 on a usage error.
//
// Files (data dirs, span dumps, TRACE_<workload>.json, the report) go under
// --out-dir, by default `out/` next to the binary; --data-dir moves the
// server data dirs (for example onto a tmpfs).
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/statfs.h>
#include <sys/utsname.h>

#include "cluster.h"
#include "workloads.h"

namespace {

using namespace escape::bench;

std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "escape_bench: %s\nusage: escape_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1] [--quick] [--out-dir DIR] [--data-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--serve-node") return serve_node_main(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);  // a dead server's control pipe must not kill the run

  Env env;
  env.exe = std::filesystem::read_symlink("/proc/self/exe").string();
  std::vector<std::string> workloads = workload_names();
  bool trace = false;
  std::string out_dir = std::filesystem::path(env.exe).parent_path().string() + "/out";
  std::string data_dir;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--quick") {
        env.quick = true;
        env.seconds = 2;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workloads = {value};
      } else if (flag == "--seed") {
        env.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        env.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value == "1";
      } else if (flag == "--out-dir") {
        out_dir = value;
      } else if (flag == "--data-dir") {
        data_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (env.seconds <= 0) return usage("--seconds must be positive");
  std::filesystem::create_directories(out_dir);
  env.out_dir = std::filesystem::canonical(out_dir).string();
  env.data_dir = data_dir.empty() ? env.out_dir + "/data" : data_dir;
  std::filesystem::create_directories(env.data_dir);

  utsname host{};
  ::uname(&host);
  const std::string fs = filesystem_of(env.data_dir);
  std::printf("# escape_bench seed=%llu seconds=%g trace=%d nproc=%u kernel=%s data-dir=%s (%s)\n",
              static_cast<unsigned long long>(env.seed), env.seconds, trace ? 1 : 0,
              std::thread::hardware_concurrency(), host.release, env.data_dir.c_str(),
              fs.c_str());
  std::fflush(stdout);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics_json;
  std::ostringstream report;
  report << "{\"seed\":" << env.seed << ",\"seconds\":" << number(env.seconds)
         << ",\"trace\":" << (trace ? 1 : 0) << ",\"host\":{\"nproc\":"
         << std::thread::hardware_concurrency() << ",\"kernel\":" << json_string(host.release)
         << ",\"data_fs\":" << json_string(fs) << "},\"workloads\":{";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::string& name = workloads[w];
    RunResult result;
    try {
      result = run_workload(name, env, trace);
    } catch (const std::invalid_argument& e) {
      return usage(e.what());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "escape_bench: %s: %s\n", name.c_str(), e.what());
      return 1;
    }
    std::filesystem::remove_all(env.data_dir + "/" + name);
    for (const std::string& note : result.notes) std::printf("%s %s\n", name.c_str(), note.c_str());
    if (!result.correct) std::printf("%s # CHECK FAILED: %s\n", name.c_str(), result.error.c_str());
    correct = correct && result.correct;
    attempted += result.attempted;
    failed += result.failed;
    report << (w ? "," : "") << json_string(name) << ":{\"correct\":"
           << (result.correct ? "true" : "false") << ",\"error\":" << json_string(result.error)
           << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
           << ",\"metrics\":{";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const Metric& m = result.metrics[i];
      std::printf("%s %s %s %s (n=%zu)\n", name.c_str(), m.name.c_str(), number(m.value).c_str(),
                  m.unit.c_str(), m.samples);
      const std::string key = workloads.size() == 1 ? m.name : name + "/" + m.name;
      if (!metrics_json.empty()) metrics_json += ",";
      metrics_json += json_string(key) + ":{\"value\":" + number(m.value) +
                      ",\"unit\":" + json_string(m.unit) + "}";
      report << (i ? "," : "") << json_string(m.name) << ":{\"value\":" << number(m.value)
             << ",\"unit\":" << json_string(m.unit) << ",\"n\":" << m.samples << "}";
    }
    report << "}}";
    std::fflush(stdout);
  }
  report << "}}\n";
  std::FILE* f = std::fopen((env.out_dir + "/BENCH_escape_bench.json").c_str(), "w");
  if (f) {
    std::fputs(report.str().c_str(), f);
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
