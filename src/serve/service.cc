#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/missl.h"
#include "infer/plan.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"
#include "tensor/alloc.h"
#include "utils/check.h"

namespace missl::serve {

namespace {

struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& nonfinite_scores;
  obs::Histogram& batch_size;
  obs::Histogram& queue_wait_ns;
  obs::Histogram& request_ns;
  // Per-request stage breakdown (docs/OBSERVABILITY.md): batch = wait for
  // the coalescing window to close, score = batch build + model forward +
  // the fused catalog score/top-K pass, rank = 0 (folded into score; kept
  // so the stage set stays stable). The parse/queue/write stages live in the TCP
  // front-end (serve/tcp_server.cc).
  obs::Histogram& stage_batch_ns;
  obs::Histogram& stage_score_ns;
  obs::Histogram& stage_rank_ns;

  static ServeMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ServeMetrics m{reg.GetCounter("serve.requests"),
                          reg.GetCounter("serve.batches"),
                          reg.GetCounter("serve.nonfinite_scores"),
                          reg.GetHistogram("serve.batch_size"),
                          reg.GetHistogram("serve.queue_wait_ns"),
                          reg.GetHistogram("serve.request_ns"),
                          reg.GetHistogram("serve.stage.batch_ns"),
                          reg.GetHistogram("serve.stage.score_ns"),
                          reg.GetHistogram("serve.stage.rank_ns")};
    return m;
  }
};

}  // namespace

const char* PrecisionName(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

data::Batch BuildQueryBatch(const std::vector<const Query*>& queries,
                            int64_t max_len, int32_t num_behaviors) {
  MISSL_CHECK(!queries.empty() && max_len > 0 && num_behaviors > 0);
  data::Batch b;
  b.batch_size = static_cast<int64_t>(queries.size());
  b.max_len = max_len;
  b.num_behaviors = num_behaviors;
  int64_t bt = b.batch_size * max_len;
  b.beh_items.assign(static_cast<size_t>(num_behaviors),
                     std::vector<int32_t>(static_cast<size_t>(bt), -1));
  b.merged_items.assign(static_cast<size_t>(bt), -1);
  b.merged_behaviors.assign(static_cast<size_t>(bt), -1);
  b.merged_recency.assign(static_cast<size_t>(bt), -1);
  b.users.resize(static_cast<size_t>(b.batch_size));
  // Inference batches carry no label; -1 fails loudly if a training path
  // ever embeds it as a target.
  b.targets.assign(static_cast<size_t>(b.batch_size), -1);
  b.target_behavior.assign(static_cast<size_t>(b.batch_size),
                           num_behaviors - 1);

  for (int64_t row = 0; row < b.batch_size; ++row) {
    const Query& q = *queries[static_cast<size_t>(row)];
    int64_t total = static_cast<int64_t>(q.items.size());
    MISSL_CHECK(static_cast<int64_t>(q.behaviors.size()) == total)
        << "items/behaviors length mismatch";
    MISSL_CHECK(q.timestamps.empty() ||
                static_cast<int64_t>(q.timestamps.size()) == total)
        << "timestamps length mismatch";
    b.users[static_cast<size_t>(row)] = static_cast<int32_t>(row);

    // Merged stream: last max_len events, front-padded.
    int64_t start = std::max<int64_t>(0, total - max_len);
    int64_t n = total - start;
    for (int64_t i = 0; i < n; ++i) {
      size_t src = static_cast<size_t>(start + i);
      int64_t pos = row * max_len + (max_len - n + i);
      b.merged_items[static_cast<size_t>(pos)] = q.items[src];
      b.merged_behaviors[static_cast<size_t>(pos)] = q.behaviors[src];
      int64_t gap = q.timestamps.empty() ? 0 : q.now - q.timestamps[src];
      b.merged_recency[static_cast<size_t>(pos)] = data::RecencyBucket(gap);
    }

    // Per-behavior streams: last max_len events of each channel, taken from
    // the full history (matching data::BatchBuilder).
    for (int32_t beh = 0; beh < num_behaviors; ++beh) {
      std::vector<int32_t> items;
      for (int64_t i = 0; i < total; ++i) {
        if (q.behaviors[static_cast<size_t>(i)] == beh) {
          items.push_back(q.items[static_cast<size_t>(i)]);
        }
      }
      int64_t cnt = static_cast<int64_t>(items.size());
      int64_t keep = std::min(cnt, max_len);
      for (int64_t i = 0; i < keep; ++i) {
        int64_t pos = row * max_len + (max_len - keep + i);
        b.beh_items[static_cast<size_t>(beh)][static_cast<size_t>(pos)] =
            items[static_cast<size_t>(cnt - keep + i)];
      }
    }
  }
  return b;
}

data::Batch BuildQueryBatch(const std::vector<Query>& queries, int64_t max_len,
                            int32_t num_behaviors) {
  std::vector<const Query*> ptrs;
  ptrs.reserve(queries.size());
  for (const Query& q : queries) ptrs.push_back(&q);
  return BuildQueryBatch(ptrs, max_len, num_behaviors);
}

RecoService::RecoService(std::unique_ptr<core::SeqRecModel> model,
                         int32_t num_items, int32_t num_behaviors,
                         const ServeConfig& config)
    : model_(std::move(model)),
      num_items_(num_items),
      num_behaviors_(num_behaviors),
      config_(config) {}

std::unique_ptr<RecoService> RecoService::Load(
    std::unique_ptr<core::SeqRecModel> model, int32_t num_items,
    int32_t num_behaviors, const std::string& checkpoint_path,
    const ServeConfig& config, Status* status) {
  MISSL_CHECK(model != nullptr && status != nullptr);
  // Config validation: a serving front-end is wired to live traffic, so a
  // bad knob must come back as a Status the caller can surface, not as
  // undefined behavior (or a CHECK abort) on the first query.
  if (num_items <= 0 || num_behaviors <= 0) {
    *status = Status::InvalidArgument(
        "num_items and num_behaviors must be >= 1, got " +
        std::to_string(num_items) + " / " + std::to_string(num_behaviors));
    return nullptr;
  }
  if (config.max_len <= 0) {
    *status = Status::InvalidArgument("ServeConfig.max_len must be >= 1, got " +
                                      std::to_string(config.max_len));
    return nullptr;
  }
  if (config.max_batch <= 0) {
    *status = Status::InvalidArgument(
        "ServeConfig.max_batch must be >= 1, got " +
        std::to_string(config.max_batch));
    return nullptr;
  }
  if (config.max_wait_us < 0) {
    *status = Status::InvalidArgument(
        "ServeConfig.max_wait_us must be >= 0, got " +
        std::to_string(config.max_wait_us));
    return nullptr;
  }
  if (config.num_threads < 0) {
    *status = Status::InvalidArgument(
        "ServeConfig.num_threads must be >= 0, got " +
        std::to_string(config.num_threads));
    return nullptr;
  }
  *status = nn::LoadParametersForInference(model.get(), checkpoint_path);
  if (!status->ok()) return nullptr;
  // The batcher front-pads every query to config.max_len positions; if the
  // checkpoint's position table is shorter, the first long history would
  // index past it. Checkpoints pin parameter shapes, so the loaded table is
  // exactly what the file carried.
  for (const auto& [name, t] : model->NamedParameters()) {
    const std::string suffix = "pos_emb.weight";
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    int64_t table_rows = t.shape().empty() ? 0 : t.shape()[0];
    if (table_rows != config.max_len) {
      *status = Status::InvalidArgument(
          "ServeConfig.max_len (" + std::to_string(config.max_len) +
          ") does not match the checkpoint's position table (" +
          std::to_string(table_rows) + " rows in '" + name + "')");
      return nullptr;
    }
  }
  std::unique_ptr<RecoService> svc(new RecoService(
      std::move(model), num_items, num_behaviors, config));
  // The plan compiler walks the concrete MISSL forward. Weights are frozen
  // from here on; the catalog is packed straight from the item table, so
  // no transposed copy ever coexists with the panels.
  auto* missl = dynamic_cast<const core::MisslModel*>(svc->model_.get());
  if (missl == nullptr) {
    *status = Status::InvalidArgument(
        "serving requires a MISSL model (the planned executor compiles its "
        "forward), got '" + svc->model_->Name() + "'");
    return nullptr;
  }
  infer::InferConfig icfg;
  icfg.quantize_catalog = config.precision == Precision::kInt8;
  svc->planned_ = infer::PlannedExecutor::Compile(
      *missl, Tensor(), config.max_batch, icfg, status);
  if (svc->planned_ == nullptr) return nullptr;
  // Resolved here, on the loading thread: the dispatcher pins its own
  // (thread-local) count to this for every batch.
  svc->num_threads_ = config.num_threads > 0 ? config.num_threads
                                             : runtime::NumThreads();
  runtime::ThreadPool::Global().Prewarm(svc->num_threads_);
  // Load-time work (parameter deserialization, catalog packing) churns
  // through large one-off buffers; return them to the system so the
  // steady-state footprint reflects only what serving re-uses.
  alloc::Trim();
  svc->dispatcher_ = std::thread([s = svc.get()] { s->DispatcherLoop(); });
  return svc;
}

RecoService::~RecoService() {
  {
    std::lock_guard<std::mutex> l(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

Status RecoService::TopK(const Query& query, TopKResult* out) {
  MISSL_CHECK(out != nullptr);
  if (query.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (query.items.size() != query.behaviors.size()) {
    return Status::InvalidArgument("items/behaviors length mismatch");
  }
  if (!query.timestamps.empty() &&
      query.timestamps.size() != query.items.size()) {
    return Status::InvalidArgument("timestamps length mismatch");
  }
  for (size_t i = 0; i < query.items.size(); ++i) {
    if (query.items[i] < 0 || query.items[i] >= num_items_) {
      return Status::InvalidArgument(
          "history item id out of range: " + std::to_string(query.items[i]));
    }
    if (query.behaviors[i] < 0 || query.behaviors[i] >= num_behaviors_) {
      return Status::InvalidArgument(
          "behavior id out of range: " + std::to_string(query.behaviors[i]));
    }
  }

  std::future<TopKResult> future;
  int64_t enqueue_ns = obs::NowNanos();
  {
    std::lock_guard<std::mutex> l(mu_);
    if (stop_) return Status::Internal("service is shutting down");
    queue_.push_back(Pending{&query, std::promise<TopKResult>(), enqueue_ns});
    future = queue_.back().promise.get_future();
  }
  cv_.notify_all();
  *out = future.get();
  ServeMetrics::Get().request_ns.Observe(obs::NowNanos() - enqueue_ns);
  return Status::OK();
}

void RecoService::SetCallers(int callers) {
  {
    std::lock_guard<std::mutex> l(mu_);
    callers_ = std::max(0, callers);
  }
  cv_.notify_all();
}

void RecoService::DispatcherLoop() {
  // The whole serving path is inference-only; the guard (inherited by pool
  // workers, see runtime/parallel_for.h) makes that structural.
  NoGradGuard ng;
  ServeMetrics& metrics = ServeMetrics::Get();
  std::unique_lock<std::mutex> l(mu_);
  // The batch is complete once it is full, or once every declared caller
  // has a query queued: a closed-loop caller cannot send again before it
  // is answered, so no further query can join.
  auto complete = [&] {
    const int64_t queued = static_cast<int64_t>(queue_.size());
    return stop_ || queued >= config_.max_batch ||
           (callers_ > 0 && queued >= callers_);
  };
  for (;;) {
    cv_.wait(l, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;  // drained: only exit once no work remains
      continue;
    }
    if (config_.max_wait_us > 0 && !complete()) {
      // Hold the batch open briefly so concurrent callers coalesce into one
      // forward instead of paying a model pass each.
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(config_.max_wait_us);
      cv_.wait_until(l, deadline, complete);
    }
    size_t take = std::min<size_t>(queue_.size(),
                                   static_cast<size_t>(config_.max_batch));
    std::vector<Pending> work;
    work.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      work.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // Account for the batch before releasing the lock: ProcessBatch resolves
    // the client futures, and a client that returns from TopK must observe
    // counters that already include its own batch.
    batches_run_ += 1;
    requests_served_ += static_cast<int64_t>(work.size());
    metrics.batches.Add(1);
    metrics.requests.Add(static_cast<int64_t>(work.size()));
    metrics.batch_size.Observe(static_cast<int64_t>(work.size()));
    l.unlock();
    ProcessBatch(&work);
    l.lock();
  }
}

void RecoService::ProcessBatch(std::vector<Pending>* work) {
  ServeMetrics& metrics = ServeMetrics::Get();
  int64_t start_ns = obs::NowNanos();
  for (const Pending& p : *work) {
    metrics.queue_wait_ns.Observe(start_ns - p.enqueue_ns);
    metrics.stage_batch_ns.Observe(start_ns - p.enqueue_ns);
  }
  obs::TraceSpan span(
      "serve.batch", "serve",
      obs::TracingEnabled()
          ? "{\"size\":" + std::to_string(work->size()) + "}"
          : std::string());

  runtime::ScopedNumThreads threads_override(num_threads_);
  std::vector<const Query*> queries;
  queries.reserve(work->size());
  for (const Pending& p : *work) queries.push_back(p.query);
  data::Batch batch =
      BuildQueryBatch(queries, config_.max_len, num_behaviors_);
  // Exclusions are merge-walked against ascending item ids, so each list is
  // sorted once here.
  std::vector<std::vector<int32_t>> excl(work->size());
  std::vector<infer::RankRequest> requests(work->size());
  for (size_t row = 0; row < work->size(); ++row) {
    const Query& q = *(*work)[row].query;
    excl[row] = q.exclude;
    std::sort(excl[row].begin(), excl[row].end());
    requests[row].k = q.k;
    requests[row].exclude = excl[row].data();
    requests[row].num_exclude = static_cast<int64_t>(excl[row].size());
  }
  // Scoring and ranking are one pass: the catalog stream feeds per-row
  // bounded heaps directly (docs/INFERENCE.md), so the score stage covers
  // both and the rank stage records zero.
  std::vector<TopKResult> results(work->size());
  planned_->RunTopK(batch, requests.data(), results.data());
  const int64_t scored_ns = obs::NowNanos();
  // Model health: O(k) per row over the answered lists, where NaNs rank
  // last (core/topk.h).
  int64_t nonfinite = 0;
  for (const TopKResult& r : results) {
    for (float score : r.scores) nonfinite += std::isfinite(score) ? 0 : 1;
  }
  // Observe the stage samples and counters before resolving any future, so
  // a client that returns from TopK (and immediately scrapes /metrics or
  // /statusz) sees its own batch.
  for (size_t row = 0; row < work->size(); ++row) {
    metrics.stage_score_ns.Observe(scored_ns - start_ns);
    metrics.stage_rank_ns.Observe(0);
  }
  if (nonfinite > 0) {
    metrics.nonfinite_scores.Add(nonfinite);
    std::lock_guard<std::mutex> l(mu_);
    nonfinite_scores_ += nonfinite;
  }
  for (size_t row = 0; row < work->size(); ++row) {
    (*work)[row].promise.set_value(std::move(results[row]));
  }
}

int64_t RecoService::catalog_dim() const { return planned_->dim(); }

int64_t RecoService::batches_run() const {
  std::lock_guard<std::mutex> l(mu_);
  return batches_run_;
}

int64_t RecoService::requests_served() const {
  std::lock_guard<std::mutex> l(mu_);
  return requests_served_;
}

int64_t RecoService::queued() const {
  std::lock_guard<std::mutex> l(mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t RecoService::nonfinite_scores() const {
  std::lock_guard<std::mutex> l(mu_);
  return nonfinite_scores_;
}

}  // namespace missl::serve
