// Workload definitions and the entry points main() dispatches to.
#ifndef MISSL_PERFBENCH_WORKLOAD_H_
#define MISSL_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/missl.h"
#include "data/dataset.h"
#include "tracer.h"
#include "util.h"

namespace perfbench {

/// Model shape shared by every workload: d=64, max_len=50, 4 behaviors,
/// 3 interests. Only the catalog size differs.
inline constexpr int32_t kBehaviors = 4;
inline constexpr int64_t kDim = 64;
inline constexpr int64_t kInterests = 3;
inline constexpr int64_t kMaxLen = 50;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server = MISSL_SERVE_BINARY;  ///< the shipped server binary
  std::string workdir = ".bench_run";
};

/// Operation counts of one run. Failed operations are error answers plus
/// answers (or results) that differ from the oracle.
struct Counts {
  int64_t sent = 0;
  int64_t errors = 0;
  int64_t mismatches = 0;
  int64_t failed() const { return errors + mismatches; }
};

std::unique_ptr<missl::core::MisslModel> MakeModel(int32_t num_items,
                                                   uint64_t seed);

/// Traced per-layer replay of the training path: `steps` manual
/// Build → Loss → Backward → Step iterations, then one Evaluate on the test
/// cut. Adds data/train/tensor/optim/eval metrics and allocation counts per
/// step (when `count_allocs`) to *metrics; a non-finite loss counts as a
/// mismatch.
void TrainLayerReplay(const missl::data::Dataset& ds, int64_t batch_size,
                      int64_t steps, uint64_t seed, bool count_allocs,
                      Tracer* tracer, Metrics* metrics, Counts* counts);

/// Serve workloads: "serve-interactive" (1 connection, 5 000 items) and
/// "serve-catalog" (4 connections, 100 000 items). Return false on a setup
/// error (*error set); output mismatches go to *counts instead.
bool RunServe(const Options& opt, Metrics* metrics, Counts* counts,
              std::string* error);

/// The "train-eval" workload.
bool RunTrainEval(const Options& opt, Metrics* metrics, Counts* counts,
                  std::string* error);

/// Serve-layer trace for an arbitrary catalog size with `conns` concurrent
/// requests (the replay batch size); shared by the serve workloads and
/// train-eval's traced run. Adds the serve/core/infer/tcp/setup metrics and
/// allocation counts per request.
bool TraceServeLayers(const Options& opt, int32_t num_items, int conns,
                      Tracer* tracer, Metrics* metrics, Counts* counts,
                      std::string* error);

/// Writes the traced run's spans to <workdir>/trace-<workload>-<seed>.json.
void WriteTrace(const Options& opt, const Tracer& tracer);

}  // namespace perfbench

#endif  // MISSL_PERFBENCH_WORKLOAD_H_
