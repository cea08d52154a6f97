// bench_e2e: the end-to-end, socket-to-sink benchmark. A forked
// generator process drives loopback TCP connections into TcpAcceptor →
// IngestSource → plan on a 2-worker PooledExecutor → a latency sink;
// every output is checked against an independent reference.
//
//   bench_e2e --seed N [--workload W] [--seconds S] [--trace [0|1]]
//             [--out results.json] [--smoke] [--selftest]
//
// Without --workload, each workload runs in a fresh process of its
// own. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones (see README.md). With one workload, the last line of
// stdout is a JSON object: {"correct", "attempted", "failed",
// "metrics"}. --benchmark_min_time=… (what CI passes every bench_*)
// means --smoke: tiny inputs, a 1 s latency phase, all checks, after
// the selftest.

#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine.h"
#include "selftest.h"
#include "workload.h"

namespace nstream::e2e {
namespace {

struct Args {
  uint64_t seed = 1;
  std::optional<WorkloadKind> workload;
  double seconds = 18.0;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string out;
  std::string workload_json;  // internal: one workload's result object
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--seed N] [--workload W] [--seconds S] "
               "[--trace [0|1]] [--out FILE] [--smoke] [--selftest]\n"
               "  workloads:");
  for (WorkloadKind w : kAllWorkloads) {
    std::fprintf(stderr, " %s", WorkloadName(w));
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--seed") {
      if (!value(&v)) return false;
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--workload") {
      if (!value(&v)) return false;
      a->workload = ParseWorkload(v);
      if (!a->workload.has_value()) {
        std::fprintf(stderr, "unknown workload '%s'\n", v.c_str());
        return false;
      }
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      a->seconds = std::atof(v.c_str());
      if (!(a->seconds > 0 && a->seconds <= 60)) return false;
    } else if (arg == "--trace") {
      a->trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        a->trace = argv[++i][0] == '1';
      }
    } else if (arg == "--out") {
      if (!value(&a->out)) return false;
    } else if (arg == "--workload-json") {
      if (!value(&a->workload_json)) return false;
    } else if (arg == "--smoke") {
      a->smoke = true;
    } else if (arg.rfind("--benchmark_min_time", 0) == 0) {
      a->smoke = true;
      if (arg.find('=') == std::string::npos && i + 1 < argc &&
          argv[i + 1][0] != '-') {
        ++i;
      }
    } else if (arg == "--selftest") {
      a->selftest = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::string ExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms, bool with_notes) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    s += (i > 0 ? ", " : "") + JsonString(ms[i].name) +
         ": {\"value\": " + JsonNumber(ms[i].value) +
         ", \"unit\": " + JsonString(ms[i].unit);
    if (with_notes) s += ", \"note\": " + JsonString(ms[i].note);
    s += "}";
  }
  return s + "}";
}

// The contract line: exactly these four keys.
std::string ResultLine(const WorkloadReport& r) {
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(r.metrics, false) + "}";
}

// Everything, for --out files and compare.py.
std::string FullJson(const WorkloadReport& r) {
  std::string problems = "[";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + JsonString(r.problems[i]);
  }
  problems += "]";
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(r.metrics, true) +
         ", \"extras\": " + MetricsJson(r.extras, true) +
         ", \"problems\": " + problems + "}";
}

std::string RunFileJson(const Args& a,
                        const std::vector<std::pair<std::string, std::string>>&
                            workloads) {
  std::string s = "{\"seed\": " + std::to_string(a.seed) +
                  ", \"trace\": " + (a.trace ? "true" : "false") +
                  ", \"smoke\": " + (a.smoke ? "true" : "false") +
                  ", \"seconds\": " + JsonNumber(a.seconds) +
                  ", \"online_cpus\": " +
                  std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                  ", \"workloads\": {";
  for (size_t i = 0; i < workloads.size(); ++i) {
    s += (i > 0 ? ", " : "") + JsonString(workloads[i].first) + ": " +
         workloads[i].second;
  }
  return s + "}}\n";
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  if (ms.empty()) return;
  std::printf("  %s\n", title);
  for (const Metric& m : ms) {
    std::printf("    %-32s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

int RunOne(const Args& a, const std::string& scratch) {
  RunOptions o;
  o.workload = *a.workload;
  o.seed = a.seed;
  o.sizes = a.smoke ? Sizes::Smoke() : Sizes::ForSeconds(a.seconds);
  o.trace = a.trace;
  o.scratch_dir = scratch;
  WorkloadReport r;
  const Status st = RunWorkload(o, &r);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", WorkloadName(o.workload),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("== %s  seed=%llu  %s%s ==\n", WorkloadName(o.workload),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced", a.smoke ? "  smoke" : "");
  PrintMetrics(o.trace ? "per-layer metrics" : "end-to-end metrics", r.metrics);
  PrintMetrics("also recorded (not in BENCHMARK.json)", r.extras);
  for (const std::string& p : r.problems) {
    std::printf("  PROBLEM: %s\n", p.c_str());
  }
  std::printf("  outputs %s: %lld failed of %lld frames attempted\n",
              r.correct ? "correct" : "INCORRECT",
              static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  const std::string full = FullJson(r);
  bool wrote = true;
  if (!a.workload_json.empty()) wrote = WriteFile(a.workload_json, full);
  if (!a.out.empty()) {
    const std::string run = RunFileJson(a, {{WorkloadName(o.workload), full}});
    wrote = WriteFile(a.out, run) && wrote;
  }
  std::printf("%s\n", ResultLine(r).c_str());
  std::fflush(stdout);
  return r.correct && wrote ? 0 : 1;
}

// Each workload in a fresh process: re-run this binary with --workload.
int RunAll(const Args& a, const std::string& scratch, char** argv) {
  std::vector<std::pair<std::string, std::string>> results;
  int status = 0;
  for (WorkloadKind w : kAllWorkloads) {
    const std::string json_path = scratch + "/result-" +
                                  std::to_string(::getpid()) + "-" +
                                  WorkloadName(w) + ".json";
    std::vector<std::string> args = {argv[0], "--workload", WorkloadName(w),
                                     "--seed", std::to_string(a.seed),
                                     "--workload-json", json_path};
    if (a.smoke) {
      args.push_back("--smoke");
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", a.seconds);
      args.push_back("--seconds");
      args.push_back(buf);
    }
    if (a.trace) args.push_back("--trace");
    std::vector<char*> cargs;
    for (std::string& s : args) cargs.push_back(s.data());
    cargs.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive this run
      ::execv("/proc/self/exe", cargs.data());
      ::_exit(127);
    }
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) status = 1;
    std::ifstream in(json_path);
    std::stringstream content;
    content << in.rdbuf();
    ::unlink(json_path.c_str());
    if (content.str().empty()) {
      status = 1;
      continue;
    }
    results.emplace_back(WorkloadName(w), content.str());
  }
  if (!a.out.empty() && !WriteFile(a.out, RunFileJson(a, results))) status = 1;
  std::printf("bench_e2e: %zu workloads, %s\n", results.size(),
              status == 0 ? "all correct" : "FAILED");
  return status;
}

}  // namespace
}  // namespace nstream::e2e

int main(int argc, char** argv) {
  using namespace nstream::e2e;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    Usage();
    return 2;
  }
  // A write to a pipe whose reader died (the generator's) must fail
  // with EPIPE and be reported, not kill this process.
  std::signal(SIGPIPE, SIG_IGN);
  // Checkpoints and per-workload results go beside the binary.
  const std::string scratch = ExeDir() + "/e2e-scratch";
  ::mkdir(scratch.c_str(), 0755);
  // Workload processes started by RunAll skip it: the parent ran it.
  if (a.selftest || (a.smoke && a.workload_json.empty())) {
    if (!RunSelftest()) return 1;
    if (!a.smoke) return 0;
  }
  return a.workload.has_value() ? RunOne(a, scratch)
                                 : RunAll(a, scratch, argv);
}
