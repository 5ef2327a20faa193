// Small helpers shared by the benchmark binary: clocks, order statistics,
// /proc readers for host and process accounting, and the JSON result line.
#ifndef MISSL_PERFBENCH_UTIL_H_
#define MISSL_PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();
double SecondsSince(int64_t t0_ns);

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1]; 0 if empty.
double Percentile(std::vector<double> v, double p);

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct HostCpu {
  int64_t total = 0;
  int64_t steal = 0;
};
HostCpu ReadHostCpu();
/// Steal share of all jiffies between two samples, in percent.
double StealPct(const HostCpu& a, const HostCpu& b);

/// user+sys CPU of a process in milliseconds (/proc/<pid>/stat).
double ProcessCpuMs(pid_t pid);
/// user+sys CPU of this process in milliseconds (getrusage).
double SelfCpuMs();
/// VmHWM (peak resident set) of a process in MiB (/proc/<pid>/status).
double PeakRssMb(pid_t pid);
/// Involuntary context switches summed over every thread of a process.
int64_t NonvoluntaryCtxSwitches(pid_t pid);

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The benchmark's last stdout line: {"correct":..,"attempted":..,
/// "failed":..,"metrics":{name:{"value":v,"unit":u},...}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Metrics& metrics);

}  // namespace perfbench

#endif  // MISSL_PERFBENCH_UTIL_H_
