// missl_perfbench: the MISSL benchmark binary.
//
//   missl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--workdir DIR]
//
// Workloads: serve-interactive, serve-catalog, train-eval (see
// perfbench/README.md). With --trace 0 the run measures the end-to-end
// metrics with tracing off; with --trace 1 it replays the workload through
// each layer's public functions with spans on and reports per-layer
// metrics. Either way the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is non-zero when any operation failed.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workload.h"

extern char** environ;

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "missl_perfbench: %s\nusage: missl_perfbench --workload "
               "serve-interactive|serve-catalog|train-eval --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n",
               msg);
  return 2;
}

// The benchmark measures the deployed defaults, so MISSL_* overrides from
// the caller's environment (thread count, SIMD tier, allocator mode, ...)
// are dropped before the library or any child process reads them.
void ScrubLibraryEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MISSL_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

}  // namespace

namespace perfbench {

void WriteTrace(const Options& opt, const Tracer& tracer) {
  std::string path = opt.workdir + "/trace-" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".json";
  if (tracer.WriteChromeTrace(path)) {
    std::printf("# trace: %zu spans written to %s\n", tracer.size(),
                path.c_str());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  ScrubLibraryEnvironment();
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  mkdir(opt.workdir.c_str(), 0755);
  // The traced run mirrors the deployed server, which keeps its metrics
  // registry on; the training workload runs with the library default.
  if (opt.trace) missl::obs::SetMetricsEnabled(true);

  perfbench::Metrics metrics;
  perfbench::Counts counts;
  std::string error;
  bool ran = false;
  if (opt.workload == "train-eval") {
    ran = perfbench::RunTrainEval(opt, &metrics, &counts, &error);
  } else {
    ran = perfbench::RunServe(opt, &metrics, &counts, &error);
  }
  if (!ran) {
    std::fprintf(stderr, "missl_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("# operations: sent=%lld ok=%lld error=%lld mismatch=%lld\n",
              static_cast<long long>(counts.sent),
              static_cast<long long>(counts.sent - counts.failed()),
              static_cast<long long>(counts.errors),
              static_cast<long long>(counts.mismatches));
  const bool correct = counts.failed() == 0;
  std::printf("%s\n", perfbench::ResultJson(correct, counts.sent,
                                            counts.failed(), metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
