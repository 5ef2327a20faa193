#include "util.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t t0_ns) { return (NowNs() - t0_ns) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

HostCpu ReadHostCpu() {
  HostCpu out;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted in user/nice, so they are not added again).
  for (int i = 0; i < 8 && in; ++i) {
    int64_t v = 0;
    in >> v;
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

double StealPct(const HostCpu& a, const HostCpu& b) {
  int64_t total = b.total - a.total;
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double ProcessCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // The command name may contain spaces; fields resume after its ')'.
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Field 3 (state) is the first after ')'; utime and stime are 14 and 15.
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14) utime = std::stod(field);
    if (f == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-3;
}

namespace {

// Value of a "Key:   123 kB"-style line of a /proc status file, or -1.
int64_t StatusField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stoll(line.substr(key.size() + 1));
    }
  }
  return -1;
}

}  // namespace

double PeakRssMb(pid_t pid) {
  int64_t kb = StatusField("/proc/" + std::to_string(pid) + "/status", "VmHWM");
  return kb < 0 ? 0 : static_cast<double>(kb) / 1024.0;
}

int64_t NonvoluntaryCtxSwitches(pid_t pid) {
  std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  int64_t sum = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    int64_t v = StatusField(dir + "/" + e->d_name + "/status",
                            "nonvoluntary_ctxt_switches");
    if (v > 0) sum += v;
  }
  closedir(d);
  return sum;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
