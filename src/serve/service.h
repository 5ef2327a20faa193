// Online serving: a thread-safe RecoService that loads a frozen SeqRecModel
// from an nn::SaveParameters checkpoint and answers concurrent top-K queries
// through a micro-batcher.
//
// Request flow (see docs/SERVING.md for the full architecture):
//
//   client threads ──TopK()──► pending queue ──► dispatcher thread
//                                                  │ coalesces up to
//                                                  │ max_batch queries,
//                                                  │ waiting at most
//                                                  │ max_wait_us (less once
//                                                  │ every declared caller
//                                                  │ has a query queued)
//                                                  ▼
//                                       one planned-executor RunTopK:
//                                       encoder forward, then one catalog
//                                       stream fused with per-row top-K
//                                                  │
//   client threads ◄──std::future◄─────────────────┘
//
// Determinism: every model op is row-independent, so a query's top-K list is
// bitwise identical no matter which requests it was coalesced with — and
// identical to the offline core::RecommendTopN path on the same history
// (tests/serve_test.cc holds both properties under concurrency).
#ifndef MISSL_SERVE_SERVICE_H_
#define MISSL_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "core/topk.h"
#include "data/batch.h"
#include "utils/status.h"

namespace missl::infer {
class PlannedExecutor;
}  // namespace missl::infer

namespace missl::serve {

/// One user query: the recent event history, oldest first.
struct Query {
  std::vector<int32_t> items;       ///< history item ids, oldest first
  std::vector<int32_t> behaviors;   ///< parallel behavior channel per event
  std::vector<int64_t> timestamps;  ///< optional; empty => no recency signal
  int64_t now = 0;       ///< reference time for recency buckets (vs timestamps)
  std::vector<int32_t> exclude;     ///< item ids to exclude (any order)
  int32_t k = 10;                   ///< list length to return
};

/// One answer: top-k items, best first, with their scores (ranked by the
/// total order of core/topk.h).
using TopKResult = core::TopKList;

/// Catalog-scoring precision.
///   kFp32 — full-precision scoring, bitwise equal to the offline
///           core::RecommendTopN path.
///   kInt8 — the quantized catalog tier (docs/INFERENCE.md): the planned
///           executor quantizes the catalog to symmetric per-item int8 at
///           Load and scores through int32 maddubs dots with an fp32 dequant
///           epilogue. Deterministic across tiers/threads, but NOT bitwise
///           equal to fp32 — accuracy is a ranking-level bound
///           (tests/quant_test.cc).
enum class Precision { kFp32, kInt8 };

/// Stable display name ("fp32"/"int8") used by /statusz and the
/// missl_serve flag parser.
const char* PrecisionName(Precision p);

/// Serving knobs. `max_len` must equal the history window the model was
/// constructed with (its position table size).
struct ServeConfig {
  int64_t max_len = 50;     ///< history window (== model max_len)
  int32_t max_batch = 32;   ///< coalesce at most this many queries per forward
  /// Longest the batcher holds a batch open to fill it. It closes early once
  /// every declared caller has a query queued (RecoService::SetCallers).
  int64_t max_wait_us = 2000;
  /// Forward-pass threads; 0 = the loading thread's runtime::NumThreads().
  int num_threads = 0;
  Precision precision = Precision::kFp32;  ///< see Precision
};

/// Thread-safe serving front-end around one frozen model. Construct via
/// Load(); destruction drains in-flight queries, then stops the dispatcher.
class RecoService {
 public:
  /// Loads `checkpoint_path` into `model` (nn::LoadParametersForInference:
  /// eval mode, requires_grad off), compiles the planned executor (the
  /// catalog is packed straight from the item table), prewarms the runtime
  /// pool, and starts the dispatcher. `model` must be a core::MisslModel.
  /// Returns nullptr with `*status` set on load failure; `*status` is OK on
  /// success.
  static std::unique_ptr<RecoService> Load(
      std::unique_ptr<core::SeqRecModel> model, int32_t num_items,
      int32_t num_behaviors, const std::string& checkpoint_path,
      const ServeConfig& config, Status* status);

  ~RecoService();
  RecoService(const RecoService&) = delete;
  RecoService& operator=(const RecoService&) = delete;

  /// Answers one query, blocking until the coalesced batch containing it has
  /// been scored. Safe to call from any number of threads. Returns
  /// InvalidArgument (without enqueuing) on malformed input: mismatched
  /// history arrays, out-of-range item/behavior ids, or k < 1.
  Status TopK(const Query& query, TopKResult* out);

  /// Declares how many callers can have a query outstanding at once (a
  /// closed-loop client sends again only once answered). The batch window
  /// then closes as soon as min(max_batch, callers) queries are queued:
  /// no further query can join, so waiting longer only adds latency. 0 (the
  /// default) declares nothing, and every batch waits out max_wait_us unless
  /// max_batch fills. Lowering the count releases a batch that already
  /// holds that many queries. Any thread may call it at any time.
  void SetCallers(int callers);

  const core::SeqRecModel& model() const { return *model_; }
  int32_t num_items() const { return num_items_; }
  int32_t num_behaviors() const { return num_behaviors_; }
  /// Embedding dimension of the catalog.
  int64_t catalog_dim() const;
  const ServeConfig& config() const { return config_; }
  /// The compiled op plan every batch runs through. Exposed for tests and
  /// introspection.
  const infer::PlannedExecutor* planned_executor() const {
    return planned_.get();
  }
  /// Model forwards run so far (each serves one coalesced batch).
  int64_t batches_run() const;
  /// Queries answered so far.
  int64_t requests_served() const;
  /// Queries waiting for the dispatcher to take them into a batch.
  int64_t queued() const;
  /// Non-finite (NaN/±Inf) scores in the lists answered so far: a healthy
  /// model never produces one.
  int64_t nonfinite_scores() const;

 private:
  struct Pending {
    const Query* query;  ///< caller blocks on the future, so a pointer is safe
    std::promise<TopKResult> promise;
    int64_t enqueue_ns;
  };

  RecoService(std::unique_ptr<core::SeqRecModel> model, int32_t num_items,
              int32_t num_behaviors, const ServeConfig& config);
  void DispatcherLoop();
  void ProcessBatch(std::vector<Pending>* work);

  std::unique_ptr<core::SeqRecModel> model_;
  int32_t num_items_;
  int32_t num_behaviors_;
  ServeConfig config_;
  /// Forward-pass thread count, resolved once at Load.
  int num_threads_ = 1;
  /// Static op plan, compiled at Load; scores and ranks every batch.
  std::unique_ptr<infer::PlannedExecutor> planned_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  int callers_ = 0;  ///< SetCallers; 0 = undeclared (full timed window)
  int64_t batches_run_ = 0;
  int64_t requests_served_ = 0;
  int64_t nonfinite_scores_ = 0;
  std::thread dispatcher_;
};

/// Collates queries into one inference batch: merged stream + per-behavior
/// streams front-padded to `max_len`, recency bucketed against each query's
/// `now`. Row order follows `queries`; `targets` is all -1 (inference
/// batches have no label). Shared with the offline parity tests.
data::Batch BuildQueryBatch(const std::vector<const Query*>& queries,
                            int64_t max_len, int32_t num_behaviors);
data::Batch BuildQueryBatch(const std::vector<Query>& queries, int64_t max_len,
                            int32_t num_behaviors);

}  // namespace missl::serve

#endif  // MISSL_SERVE_SERVICE_H_
