#include "stats.h"

#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace nstream::e2e {

int64_t MonoNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 50);
}

Dist Distribution(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Dist d;
  d.n = v.size();
  d.p50 = PercentileSorted(v, 50);
  d.p99 = PercentileSorted(v, 99);
  d.p999 = PercentileSorted(v, 99.9);
  d.max = v.empty() ? 0 : v.back();
  return d;
}

std::vector<int> ThreadIds() {
  std::vector<int> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (struct dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    out.push_back(std::atoi(e->d_name));
  }
  closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> NewThreads(const std::vector<int>& before,
                            const std::vector<int>& after) {
  std::vector<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

int64_t ThreadCpuNs(int tid) {
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream in(base + "/schedstat");
    long long run_ns = 0;
    if (in >> run_ns) return run_ns;
  }
  std::ifstream in(base + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // The command name (field 2) may hold spaces; fields resume after
  // its closing parenthesis, with field 3 (state) first.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  long long utime = 0;
  long long stime = 0;
  for (int i = 3; i <= 15 && (fields >> f); ++i) {
    if (i == 14) utime = std::atoll(f.c_str());
    if (i == 15) stime = std::atoll(f.c_str());
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000LL / (ticks > 0 ? ticks : 100));
}

int64_t SumThreadCpuNs(const std::vector<int>& tids) {
  int64_t sum = 0;
  for (int tid : tids) {
    const int64_t ns = ThreadCpuNs(tid);
    if (ns > 0) sum += ns;
  }
  return sum;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

}  // namespace nstream::e2e
