// train-eval: train::Fit for a fixed number of epochs on the TaobaoSim
// synthetic set, then Evaluator::Evaluate on the test cut, repeated for the
// run's duration; plus the traced per-layer replay of the training path.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "data/batch.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "optim/optimizer.h"
#include "tensor/alloc.h"
#include "train/trainer.h"
#include "workload.h"

namespace perfbench {

using namespace missl;

namespace {

// train-eval trains the fixed TaobaoSim preset from a fixed model seed, so
// NDCG@10 is one deterministic number that any change to what is learned
// moves; --seed does not change its inputs.
constexpr uint64_t kModelSeed = 17;
constexpr int64_t kEpochs = 2;            // fixed, no early stop
constexpr int64_t kBatchesPerEpoch = 2;
constexpr int64_t kTrainBatch = 128;
constexpr int kThreads = 1;               // fixed thread count, <= nproc
constexpr int kMinCycles = 3;             // medians need at least three cycles

// Sums "examples" and "train_seconds" over the epoch lines of a telemetry
// JSONL file written by train::Fit.
bool ReadTelemetry(const std::string& path, double* examples, double* seconds) {
  std::ifstream in(path);
  std::string line;
  *examples = *seconds = 0;
  int epochs = 0;
  while (std::getline(in, line)) {
    size_t e = line.find("\"examples\":");
    size_t s = line.find("\"train_seconds\":");
    if (e == std::string::npos || s == std::string::npos) continue;
    *examples += std::strtod(line.c_str() + e + 11, nullptr);
    *seconds += std::strtod(line.c_str() + s + 16, nullptr);
    ++epochs;
  }
  return epochs == kEpochs && *seconds > 0;
}

}  // namespace

void TrainLayerReplay(const data::Dataset& ds, int64_t batch_size,
                      int64_t steps, uint64_t seed, bool count_allocs,
                      Tracer* tr, Metrics* metrics, Counts* counts) {
  data::SplitView split(ds);
  data::BatchBuilder builder(ds, kMaxLen);
  data::MiniBatcher batcher(split.train_examples, batch_size, seed);
  auto model = MakeModel(ds.num_items(), seed);
  model->SetTraining(true);
  optim::Adam opt(model->Parameters(), 1e-3f);
  std::vector<data::SplitView::TrainExample> chunk;
  alloc::AllocStats a0;
  // Step 0 warms the allocator and is not traced.
  for (int64_t step = 0; step <= steps; ++step) {
    if (step == 1) {
      tr->set_enabled(true);
      a0 = alloc::GetAllocStats();
    }
    if (!batcher.Next(&chunk)) {
      batcher.Reset();
      batcher.Next(&chunk);
    }
    Scoped root(tr, "train.step", step);
    data::Batch batch;
    {
      Scoped s(tr, "data.batch_build", step);
      batch = builder.Build(chunk);
    }
    opt.ZeroGrad();
    Tensor loss;
    {
      Scoped s(tr, "train.loss_forward", step);
      loss = model->Loss(batch);
    }
    {
      Scoped s(tr, "tensor.backward", step);
      loss.Backward();
    }
    optim::ClipGradNorm(model->Parameters(), 5.0f);
    {
      Scoped s(tr, "optim.step", step);
      opt.Step();
    }
    ++counts->sent;
    if (!std::isfinite(loss.item())) {
      ++counts->mismatches;
      std::fprintf(stderr, "non-finite training loss at step %lld\n",
                   static_cast<long long>(step));
    }
  }
  const alloc::AllocStats a1 = alloc::GetAllocStats();
  eval::EvalConfig ecfg;
  ecfg.max_len = kMaxLen;
  eval::Evaluator evaluator(ds, split, ecfg);
  eval::EvalResult r;
  {
    Scoped s(tr, "eval.evaluate", 0);
    r = evaluator.Evaluate(model.get(), /*test=*/true);
  }
  tr->set_enabled(false);
  ++counts->sent;
  if (!std::isfinite(r.ndcg10)) ++counts->mismatches;

  auto self = tr->SelfTimesUs();
  auto med = [&](const char* name) { return Median(self[name]); };
  Metrics& m = *metrics;
  m["data.batch_build_ms"] = {med("data.batch_build") * 1e-3, "ms"};
  m["train.loss_forward_ms"] = {med("train.loss_forward") * 1e-3, "ms"};
  m["tensor.backward_ms"] = {med("tensor.backward") * 1e-3, "ms"};
  m["optim.step_ms"] = {med("optim.step") * 1e-3, "ms"};
  m["eval.evaluate_s"] = {med("eval.evaluate") * 1e-6, "s"};
  if (count_allocs) {
    m["alloc.system_allocs_per_op"] = {
        static_cast<double>(a1.system_allocs - a0.system_allocs) / steps,
        "count"};
    m["alloc.pool_misses_per_op"] = {
        static_cast<double>(a1.pool_misses - a0.pool_misses) / steps, "count"};
  }
}

bool RunTrainEval(const Options& opt, Metrics* metrics, Counts* counts,
                  std::string* error) {
  if (opt.trace) {
    Tracer tracer;
    data::Dataset ds = data::GenerateSynthetic(data::TaobaoSimConfig());
    if (!TraceServeLayers(opt, ds.num_items(), 1, &tracer, metrics, counts,
                          error)) {
      return false;
    }
    TrainLayerReplay(ds, kTrainBatch, 8, opt.seed, /*count_allocs=*/true,
                     &tracer, metrics, counts);
    WriteTrace(opt, tracer);
    return true;
  }

  const std::string telemetry = opt.workdir + "/train-telemetry.jsonl";
  std::vector<double> setup_s, fit_ms, examples_per_s, cpu_ms_per_example,
      users_per_s;
  double ndcg10 = 0;
  const HostCpu host0 = ReadHostCpu();
  const int64_t ctx0 = NonvoluntaryCtxSwitches(getpid());
  const int64_t t_start = NowNs();
  for (int cycle = 0; cycle < kMinCycles || SecondsSince(t_start) < opt.seconds;
       ++cycle) {
    int64_t t0 = NowNs();
    data::Dataset ds = data::GenerateSynthetic(data::TaobaoSimConfig());
    data::SplitView split(ds);
    auto model = MakeModel(ds.num_items(), kModelSeed);
    eval::EvalConfig ecfg;
    ecfg.max_len = kMaxLen;
    eval::Evaluator evaluator(ds, split, ecfg);
    setup_s.push_back(SecondsSince(t0));

    train::TrainConfig tcfg;
    tcfg.max_epochs = kEpochs;
    tcfg.patience = kEpochs + 1;
    tcfg.batch_size = kTrainBatch;
    tcfg.max_len = kMaxLen;
    tcfg.max_batches_per_epoch = kBatchesPerEpoch;
    tcfg.num_threads = kThreads;
    tcfg.telemetry_path = telemetry;
    const double cpu0 = SelfCpuMs();
    t0 = NowNs();
    // Fit ends with Evaluator::Evaluate on the test cut (fit.test).
    train::TrainResult fit =
        train::Fit(model.get(), ds, split, evaluator, tcfg);
    const double fit_s = SecondsSince(t0);
    const double cpu_ms = SelfCpuMs() - cpu0;

    double examples = 0, train_s = 0;
    const bool telemetry_ok = ReadTelemetry(telemetry, &examples, &train_s);
    const int64_t users = split.NumEvalUsers();
    const int64_t ops = static_cast<int64_t>(examples) + users;
    counts->sent += ops;
    const double ndcg = fit.test.ndcg10;
    bool good = telemetry_ok && std::isfinite(fit.final_train_loss) &&
                std::isfinite(ndcg) && (cycle == 0 || ndcg == ndcg10);
    if (!good) {
      std::fprintf(stderr,
                   "train-eval cycle %d failed: loss=%g ndcg10=%.17g "
                   "(first cycle %.17g)\n",
                   cycle, fit.final_train_loss, ndcg, ndcg10);
      counts->mismatches += ops;
    }
    if (cycle == 0) ndcg10 = ndcg;
    fit_ms.push_back(fit_s * 1e3);
    examples_per_s.push_back(examples / train_s);
    cpu_ms_per_example.push_back(cpu_ms / std::max(1.0, examples));
    // Outside its training batches Fit evaluates: one validation pass per
    // epoch and the final test pass, each over the same users.
    users_per_s.push_back(static_cast<double>((kEpochs + 1) * users) /
                          (fit_s - train_s));
  }
  std::remove(telemetry.c_str());

  Metrics& m = *metrics;
  m["latency_p50_ms"] = {Median(fit_ms), "ms"};
  m["throughput_per_s"] = {Median(examples_per_s), "1/s"};
  m["cpu_ms_per_op"] = {Median(cpu_ms_per_example), "ms"};
  m["peak_rss_mb"] = {PeakRssMb(getpid()), "MB"};
  m["setup_s"] = {Median(setup_s), "s"};
  m["eval_users_per_s"] = {Median(users_per_s), "1/s"};
  m["ndcg10"] = {ndcg10, "ratio"};
  std::printf("# train-eval: %zu cycles of %lld epochs, %d threads\n",
              fit_ms.size(), static_cast<long long>(kEpochs), kThreads);
  std::printf(
      "# host noise: host.steal_pct=%.3f process.nonvoluntary_ctxsw=%lld\n",
      StealPct(host0, ReadHostCpu()),
      static_cast<long long>(NonvoluntaryCtxSwitches(getpid()) - ctx0));
  return true;
}

}  // namespace perfbench
