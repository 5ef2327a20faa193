// serve-interactive and serve-catalog: the shipped missl_serve binary under a
// closed-loop load from this process, plus the in-process per-layer replay
// of the same seeded queries for the traced run.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "core/recommend.h"
#include "data/synthetic.h"
#include "infer/plan.h"
#include "nn/serialize.h"
#include "obs/exposition.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "server.h"
#include "tensor/alloc.h"
#include "workload.h"

namespace perfbench {

using namespace missl;

namespace {

constexpr int32_t kTopK = 10;
constexpr int kSetups = 5;              // server start-ups per run (setup_s)
constexpr int64_t kStallMs = 30000;     // a silent server fails the run
constexpr int kWindows = 10;            // timed sub-windows per run
constexpr size_t kOracleBatch = 8;

struct ServeSpec {
  int32_t items;
  int conns;
  size_t oracle_sample;   // answers replayed through RecommendTopN per window
  int64_t train_batch;    // batch of the traced training-path replay
};

bool LookupSpec(const std::string& name, ServeSpec* spec) {
  if (name == "serve-interactive") {
    *spec = {5000, 1, 200, 64};
    return true;
  }
  if (name == "serve-catalog") {
    *spec = {100000, 4, 50, 32};
    return true;
  }
  return false;
}

// Per-connection seeded query streams: connection c draws from Rng
// sub-stream c, so the mix depends only on (seed, c), never on timing.
class QuerySource {
 public:
  QuerySource(uint64_t seed, int conns, int32_t num_items) : conns_(conns) {
    mix_.num_items = num_items;
    mix_.num_behaviors = kBehaviors;
    mix_.max_history = static_cast<int>(kMaxLen);
    mix_.k = kTopK;
    for (int c = 0; c < conns; ++c) {
      rngs_.emplace_back(seed, static_cast<uint64_t>(c));
    }
    count_.assign(static_cast<size_t>(conns), 0);
  }
  std::string Next(int c, int64_t* id) {
    *id = count_[static_cast<size_t>(c)]++ * conns_ + c + 1;
    serve::ParsedQuery q =
        serve::MakeLoadQuery(&rngs_[static_cast<size_t>(c)], *id, mix_);
    return serve::QueryToLine(*id, q.query);
  }

 private:
  int conns_;
  serve::LoadGenConfig mix_;
  std::vector<Rng> rngs_;
  std::vector<int64_t> count_;
};

// Parses a TopKToJson line; false for an error line or a malformed one.
bool ParseAnswer(const std::string& s, int64_t* id, serve::TopKResult* out) {
  if (s.find("\"error\"") != std::string::npos) return false;
  size_t p = s.find("\"id\":");
  size_t pi = s.find("\"items\":[");
  size_t ps = s.find("\"scores\":[");
  if (p == std::string::npos || pi == std::string::npos ||
      ps == std::string::npos) {
    return false;
  }
  *id = std::strtoll(s.c_str() + p + 5, nullptr, 10);
  out->items.clear();
  out->scores.clear();
  const char* c = s.c_str() + pi + 9;
  while (*c != ']' && *c != '\0') {
    char* end = nullptr;
    out->items.push_back(static_cast<int32_t>(std::strtol(c, &end, 10)));
    c = *end == ',' ? end + 1 : end;
  }
  c = s.c_str() + ps + 10;
  while (*c != ']' && *c != '\0') {
    char* end = nullptr;
    out->scores.push_back(std::strtof(c, &end));
    c = *end == ',' ? end + 1 : end;
  }
  return out->items.size() == out->scores.size();
}

bool SameBits(const serve::TopKResult& a, const std::vector<int32_t>& items,
              const std::vector<float>& scores, size_t want) {
  if (a.items.size() != want || items.size() < want) return false;
  return std::equal(a.items.begin(), a.items.end(), items.begin()) &&
         std::memcmp(a.scores.data(), scores.data(), want * sizeof(float)) == 0;
}

// NDCG@10 of `served` with the oracle's top 10 as the relevant set.
double Ndcg10(const std::vector<int32_t>& served,
              const std::vector<int32_t>& oracle) {
  size_t n = std::min<size_t>(10, oracle.size());
  double dcg = 0, idcg = 0;
  for (size_t r = 0; r < n; ++r) idcg += 1.0 / std::log2(r + 2.0);
  for (size_t r = 0; r < std::min<size_t>(10, served.size()); ++r) {
    if (std::find(oracle.begin(), oracle.begin() + static_cast<long>(n),
                  served[r]) != oracle.begin() + static_cast<long>(n)) {
      dcg += 1.0 / std::log2(r + 2.0);
    }
  }
  return idcg > 0 ? dcg / idcg : 1.0;
}

// The offline reference: replays answered requests through
// core::RecommendTopN on a model loaded from the same checkpoint and
// compares item ids and scores bitwise.
class Oracle {
 public:
  Oracle(int32_t num_items, uint64_t seed)
      : items_(num_items), seed_(seed), rng_(seed, 0xfaceULL) {}

  bool Load(const std::string& ckpt, std::string* error) {
    model_ = MakeModel(items_, seed_);
    Status s = nn::LoadParametersForInference(model_.get(), ckpt);
    if (!s.ok()) *error = "oracle load failed: " + s.ToString();
    return s.ok();
  }

  // Every answer in [begin, end) must be a top-K line carrying its request
  // id; a seeded sample of `sample` of them is replayed and compared.
  void Check(const std::vector<Answer>& answers, size_t begin, size_t end,
             size_t sample, Counts* counts) {
    std::vector<size_t> order;
    for (size_t i = begin; i < end; ++i) {
      int64_t id = 0;
      serve::TopKResult r;
      if (!ParseAnswer(answers[i].response, &id, &r)) {
        ++counts->errors;
        std::fprintf(stderr, "error answer: %s\n", answers[i].response.c_str());
      } else if (id != answers[i].id) {
        ++counts->mismatches;
      } else {
        order.push_back(i);
      }
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.UniformInt(i)]);
    }
    order.resize(std::min(order.size(), sample));
    for (size_t b = 0; b < order.size(); b += kOracleBatch) {
      size_t n = std::min(kOracleBatch, order.size() - b);
      std::vector<serve::ParsedQuery> qs(n);
      std::vector<const serve::Query*> ptrs;
      std::vector<std::vector<int32_t>> seen;
      int32_t max_k = 1;
      for (size_t j = 0; j < n; ++j) {
        serve::ParseQueryLine(answers[order[b + j]].line, &qs[j]);
        ptrs.push_back(&qs[j].query);
        seen.push_back(qs[j].query.exclude);
        max_k = std::max(max_k, qs[j].query.k);
      }
      const int64_t t0 = NowNs();
      data::Batch batch = serve::BuildQueryBatch(ptrs, kMaxLen, kBehaviors);
      std::vector<core::Recommendation> recs =
          core::RecommendTopN(model_.get(), batch, seen, max_k, items_);
      rates_.push_back(static_cast<double>(n) / SecondsSince(t0));
      for (size_t j = 0; j < n; ++j) {
        int64_t id = 0;
        serve::TopKResult served;
        ParseAnswer(answers[order[b + j]].response, &id, &served);
        size_t want = std::min<size_t>(static_cast<size_t>(qs[j].query.k),
                                       recs[j].items.size());
        if (!SameBits(served, recs[j].items, recs[j].scores, want)) {
          ++counts->mismatches;
          std::fprintf(stderr, "oracle mismatch on query id %lld\n",
                       static_cast<long long>(id));
        }
        ndcg_sum_ += Ndcg10(served.items, recs[j].items);
        ++checked_;
      }
    }
  }

  int64_t checked() const { return checked_; }
  /// Mean NDCG@10 of the served lists against the oracle's.
  double ndcg10() const {
    return checked_ > 0 ? ndcg_sum_ / static_cast<double>(checked_) : 0;
  }
  /// Median over replayed batches of users scored per second.
  double users_per_s() const { return Median(rates_); }

 private:
  int32_t items_;
  uint64_t seed_;
  Rng rng_;
  std::unique_ptr<core::MisslModel> model_;
  double ndcg_sum_ = 0;
  int64_t checked_ = 0;
  std::vector<double> rates_;
};

std::vector<std::string> ServerArgs(const std::string& ckpt, int32_t items,
                                    uint64_t seed) {
  return {"--checkpoint", ckpt,
          "--items",      std::to_string(items),
          "--behaviors",  std::to_string(kBehaviors),
          "--dim",        std::to_string(kDim),
          "--interests",  std::to_string(kInterests),
          "--max-len",    std::to_string(kMaxLen),
          "--seed",       std::to_string(seed)};
}

bool WriteCheckpoint(const Options& opt, int32_t items, std::string* path,
                     std::string* error) {
  *path = opt.workdir + "/ckpt-" + std::to_string(items) + "-" +
          std::to_string(opt.seed) + ".bin";
  Status s = nn::SaveParameters(*MakeModel(items, opt.seed), *path);
  if (!s.ok()) *error = "checkpoint write failed: " + s.ToString();
  return s.ok();
}

// Starts the server and answers one query through it; the elapsed time is
// the deployment's set-up time (checkpoint load + catalog precompute).
bool StartAndProbe(const Options& opt, const std::vector<std::string>& args,
                   const std::string& probe, ServerChild* child,
                   double* setup_s, std::vector<Answer>* answers,
                   std::string* error) {
  const int64_t t0 = NowNs();
  if (!child->Start(opt.server, args, opt.workdir + "/server.port",
                    opt.workdir + "/server.log", 120.0, error)) {
    return false;
  }
  int fd = ConnectLoopback(child->port());
  Answer a;
  a.id = 0;
  a.line = probe;
  a.send_ns = NowNs();
  bool ok = fd >= 0 && RoundTrip(fd, probe, &a.response, kStallMs);
  a.done_ns = NowNs();
  *setup_s = SecondsSince(t0);
  if (fd >= 0) ::close(fd);
  if (!ok) {
    *error = "first query after start-up failed";
    return false;
  }
  answers->push_back(std::move(a));
  return true;
}

// The start-up probe: one query from a stream the load never uses, id 0.
std::string ProbeLine(uint64_t seed, int32_t items) {
  QuerySource probe(seed ^ 0x9e3779b97f4a7c15ULL, 1, items);
  int64_t id = 0;
  std::string line = probe.Next(0, &id);
  return "0" + line.substr(line.find('\t'));
}

double WarmupSeconds(double seconds) { return std::min(1.0, 0.2 * seconds); }

}  // namespace

std::unique_ptr<core::MisslModel> MakeModel(int32_t num_items, uint64_t seed) {
  core::MisslConfig cfg;
  cfg.dim = kDim;
  cfg.num_interests = kInterests;
  cfg.seed = seed;
  return std::make_unique<core::MisslModel>(num_items, kBehaviors, kMaxLen,
                                            cfg);
}

bool RunServe(const Options& opt, Metrics* metrics, Counts* counts,
              std::string* error) {
  ServeSpec spec;
  if (!LookupSpec(opt.workload, &spec)) {
    *error = "unknown workload " + opt.workload;
    return false;
  }
  if (opt.trace) {
    Tracer tracer;
    if (!TraceServeLayers(opt, spec.items, spec.conns, &tracer, metrics,
                          counts, error)) {
      return false;
    }
    // The training path at this workload's catalog size.
    data::SyntheticConfig dcfg = data::TaobaoSimConfig();
    dcfg.num_items = spec.items;
    dcfg.num_users = 200;
    dcfg.seed = opt.seed;
    data::Dataset ds = data::GenerateSynthetic(dcfg);
    TrainLayerReplay(ds, spec.train_batch, 8, opt.seed, /*count_allocs=*/false,
                     &tracer, metrics, counts);
    WriteTrace(opt, tracer);
    return true;
  }

  std::string ckpt;
  if (!WriteCheckpoint(opt, spec.items, &ckpt, error)) return false;
  const std::vector<std::string> args = ServerArgs(ckpt, spec.items, opt.seed);
  const std::string probe = ProbeLine(opt.seed, spec.items);
  Oracle oracle(spec.items, opt.seed);
  if (!oracle.Load(ckpt, error)) return false;

  std::vector<Answer> answers;
  std::vector<double> setups;
  ServerChild child;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0 && !child.Stop()) {
      *error = "server did not shut down cleanly";
      return false;
    }
    double s = 0;
    if (!StartAndProbe(opt, args, probe, &child, &s, &answers, error)) {
      return false;
    }
    setups.push_back(s);
  }

  QuerySource src(opt.seed, spec.conns, spec.items);
  auto next = [&](int c, int64_t* id) { return src.Next(c, id); };
  if (!RunClosedLoop(child.port(), spec.conns,
                     NowNs() + static_cast<int64_t>(
                                   WarmupSeconds(opt.seconds) * 1e9),
                     next, kStallMs, &answers, error)) {
    return false;
  }
  // The timed window is cut into kWindows equal sub-windows and each
  // metric is the median over them, so a burst of host noise that hits one
  // sub-window does not move the run's figure. The oracle checks each
  // sub-window's answers right after it, while the server is idle, so its
  // rate too is sampled across the whole run.
  const size_t timed_begin = answers.size();
  size_t checked_to = 0;
  const HostCpu host0 = ReadHostCpu();
  const int64_t ctx0 = NonvoluntaryCtxSwitches(child.pid());
  std::vector<double> p50_ms, per_s, cpu_per_op, all_lat_ms;
  for (int w = 0; w < kWindows; ++w) {
    const size_t begin = answers.size();
    const double cpu0 = ProcessCpuMs(child.pid());
    const int64_t t0 = NowNs();
    const int64_t stop =
        t0 + static_cast<int64_t>(opt.seconds / kWindows * 1e9);
    if (!RunClosedLoop(child.port(), spec.conns, stop, next, kStallMs,
                       &answers, error)) {
      return false;
    }
    const double cpu_ms = ProcessCpuMs(child.pid()) - cpu0;
    std::vector<double> lat_ms;
    int64_t last_done = t0;
    for (size_t i = begin; i < answers.size(); ++i) {
      lat_ms.push_back((answers[i].done_ns - answers[i].send_ns) * 1e-6);
      last_done = std::max(last_done, answers[i].done_ns);
    }
    const double n = static_cast<double>(lat_ms.size());
    p50_ms.push_back(Median(lat_ms));
    per_s.push_back(n / ((last_done - t0) * 1e-9));
    cpu_per_op.push_back(cpu_ms / n);
    all_lat_ms.insert(all_lat_ms.end(), lat_ms.begin(), lat_ms.end());
    oracle.Check(answers, checked_to, answers.size(), spec.oracle_sample,
                 counts);
    checked_to = answers.size();
  }
  const int64_t ctxsw = NonvoluntaryCtxSwitches(child.pid()) - ctx0;
  const double steal = StealPct(host0, ReadHostCpu());
  const double rss = PeakRssMb(child.pid());
  if (!child.Stop()) {
    *error = "server did not shut down cleanly";
    return false;
  }

  const int64_t timed = static_cast<int64_t>(answers.size() - timed_begin);
  counts->sent = static_cast<int64_t>(answers.size());
  std::remove(ckpt.c_str());

  (*metrics)["latency_p50_ms"] = {Median(p50_ms), "ms"};
  (*metrics)["throughput_per_s"] = {Median(per_s), "1/s"};
  (*metrics)["cpu_ms_per_op"] = {Median(cpu_per_op), "ms"};
  (*metrics)["peak_rss_mb"] = {rss, "MB"};
  (*metrics)["setup_s"] = {Median(setups), "s"};
  (*metrics)["eval_users_per_s"] = {oracle.users_per_s(), "1/s"};
  (*metrics)["ndcg10"] = {oracle.ndcg10(), "ratio"};
  std::printf("# %s: %lld timed answers, client.latency_p99_ms=%.4f, "
              "oracle checked %lld answers\n",
              opt.workload.c_str(), static_cast<long long>(timed),
              Percentile(all_lat_ms, 0.99),
              static_cast<long long>(oracle.checked()));
  std::printf(
      "# host noise: host.steal_pct=%.3f server.nonvoluntary_ctxsw=%lld\n",
      steal, static_cast<long long>(ctxsw));
  return true;
}

namespace {

// Mean per-observation value (us) of one serve.stage.* histogram between two
// /metrics scrapes, or -1 when the family is missing from either scrape.
double StageMeanUs(const std::map<std::string, serve::PromHistogram>& a,
                   const std::map<std::string, serve::PromHistogram>& b,
                   const std::string& stage) {
  std::string name = obs::PrometheusName("serve.stage." + stage + "_ns");
  auto ia = a.find(name);
  auto ib = b.find(name);
  if (ia == a.end() || ib == b.end()) return -1;
  int64_t n = ib->second.count - ia->second.count;
  return n > 0 ? static_cast<double>(ib->second.sum - ia->second.sum) / n * 1e-3
               : -1;
}

bool Scrape(int admin_port,
            std::map<std::string, serve::PromHistogram>* hists) {
  serve::HttpResponse r;
  Status s = serve::HttpGet("127.0.0.1", admin_port, "/metrics", &r);
  return s.ok() && r.code == 200 &&
         serve::ParsePrometheusText(r.body, nullptr, hists);
}

// Groups of `batch` query lines: row j of group g is connection j's g-th
// query, which is how the closed loop fills the server's batches.
std::vector<std::vector<std::string>> ReplayGroups(uint64_t seed, int batch,
                                                   int32_t items,
                                                   size_t groups) {
  QuerySource src(seed, batch, items);
  std::vector<std::vector<std::string>> out(groups);
  for (auto& g : out) {
    for (int j = 0; j < batch; ++j) {
      int64_t id = 0;
      g.push_back(src.Next(j, &id));
    }
  }
  return out;
}

// The model, catalog and compiled plans the in-process replay runs on.
struct ReplayModel {
  std::unique_ptr<core::MisslModel> model;
  Tensor catalog;
  std::unique_ptr<infer::PlannedExecutor> plan;
  std::unique_ptr<infer::PlannedExecutor> plan_int8;
  int32_t items = 0;
};

bool CompilePlans(ReplayModel* m, int batch, std::string* error) {
  Status s;
  m->plan = infer::PlannedExecutor::Compile(*m->model, m->catalog, batch, &s);
  infer::InferConfig int8;
  int8.quantize_catalog = true;
  if (m->plan != nullptr) {
    m->plan_int8 =
        infer::PlannedExecutor::Compile(*m->model, m->catalog, batch, int8, &s);
  }
  if (m->plan == nullptr || m->plan_int8 == nullptr) {
    *error = "plan compile failed: " + s.ToString();
    return false;
  }
  return true;
}

// Wall time per replayed group, split by whether spans were on.
struct PassTimes {
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
};

// One pass over `groups` through the layers' public functions, in the
// order a served request takes them. Fills *results (keyed by query id)
// and counts planned-executor rows that differ bitwise from ScoreAllItems.
// With `times`, spans are on for odd-numbered groups only, so traced and
// untraced groups alternate under the same host conditions.
void ReplayPass(ReplayModel* m,
                const std::vector<std::vector<std::string>>& groups,
                Tracer* tr, std::map<int64_t, serve::TopKResult>* results,
                Counts* counts, PassTimes* times = nullptr) {
  NoGradGuard ng;
  int64_t request = 0;
  for (const auto& group : groups) {
    if (times != nullptr) tr->set_enabled(request % 2 == 1);
    const int64_t t0 = NowNs();
    {
      Scoped root(tr, "replay.request", request);
      std::vector<serve::ParsedQuery> qs(group.size());
      for (size_t j = 0; j < group.size(); ++j) {
        Scoped s(tr, "serve.protocol.parse", request);
        serve::ParseQueryLine(group[j], &qs[j]);
      }
      std::vector<const serve::Query*> ptrs;
      for (const auto& q : qs) ptrs.push_back(&q.query);
      data::Batch batch;
      {
        Scoped s(tr, "data.build_query_batch", request);
        batch = serve::BuildQueryBatch(ptrs, kMaxLen, kBehaviors);
      }
      {
        Scoped s(tr, "core.user_interests", request);
        m->model->UserInterests(batch);
      }
      Tensor scores;
      {
        Scoped s(tr, "core.score_all_items", request);
        scores = m->model->ScoreAllItems(batch, m->items, m->catalog);
      }
      const size_t row_bytes = static_cast<size_t>(m->items) * sizeof(float);
      for (size_t j = 0; j < qs.size(); ++j) {
        std::vector<int32_t> excl = qs[j].query.exclude;
        std::sort(excl.begin(), excl.end());
        serve::TopKResult r;
        {
          Scoped s(tr, "core.topk_row", request);
          core::TopKRow(scores.data() + j * static_cast<size_t>(m->items),
                        m->items, &excl, qs[j].query.k, &r.items, &r.scores);
        }
        {
          Scoped s(tr, "serve.protocol.encode", request);
          serve::TopKToJson(qs[j].id, r);
        }
        (*results)[qs[j].id] = std::move(r);
      }
      const float* planned = nullptr;
      {
        Scoped s(tr, "infer.run", request);
        planned = m->plan->Run(batch);
      }
      if (std::memcmp(planned, scores.data(), row_bytes * qs.size()) != 0) {
        ++counts->mismatches;
        std::fprintf(stderr, "planned executor differs from ScoreAllItems\n");
      }
      {
        Scoped s(tr, "infer.run_int8", request);
        m->plan_int8->Run(batch);
      }
    }
    if (times != nullptr) {
      (tr->enabled() ? times->traced_ms : times->untraced_ms)
          .push_back(SecondsSince(t0) * 1e3);
    }
    counts->sent += static_cast<int64_t>(group.size());
    ++request;
  }
}

double MedianOf(const std::map<std::string, std::vector<double>>& self,
                const char* name) {
  auto it = self.find(name);
  return it == self.end() ? 0 : Median(it->second);
}

// Part 1 of the traced run: the deployed binary under load, bracketed by two
// /metrics scrapes. Returns the socket p50 in *p50_ms.
bool SocketPass(const Options& opt, const std::string& ckpt, int32_t items,
                int conns, Metrics* metrics, Counts* counts, double* p50_ms,
                std::string* error) {
  Metrics& m = *metrics;
  ServerChild child;
  std::vector<Answer> answers;
  double setup = 0;
  if (!StartAndProbe(opt, ServerArgs(ckpt, items, opt.seed),
                     ProbeLine(opt.seed, items), &child, &setup, &answers,
                     error)) {
    return false;
  }
  QuerySource src(opt.seed, conns, items);
  auto next = [&](int c, int64_t* id) { return src.Next(c, id); };
  if (!RunClosedLoop(child.port(), conns, NowNs() + 500000000LL, next,
                     kStallMs, &answers, error)) {
    return false;
  }
  std::map<std::string, serve::PromHistogram> h0, h1;
  bool scraped = Scrape(child.admin_port(), &h0);
  const size_t timed_begin = answers.size();
  const int64_t ctx0 = NonvoluntaryCtxSwitches(child.pid());
  const double socket_s = std::max(2.0, 0.3 * opt.seconds);
  if (!RunClosedLoop(child.port(), conns,
                     NowNs() + static_cast<int64_t>(socket_s * 1e9), next,
                     kStallMs, &answers, error)) {
    return false;
  }
  scraped = scraped && Scrape(child.admin_port(), &h1);
  m["host.server_nonvoluntary_ctxsw"] = {
      static_cast<double>(NonvoluntaryCtxSwitches(child.pid()) - ctx0),
      "count"};
  if (!child.Stop()) {
    *error = "server did not shut down cleanly";
    return false;
  }
  std::vector<double> lat_ms;
  for (size_t i = timed_begin; i < answers.size(); ++i) {
    lat_ms.push_back((answers[i].done_ns - answers[i].send_ns) * 1e-6);
  }
  *p50_ms = Median(lat_ms);
  m["client.latency_p99_ms"] = {Percentile(lat_ms, 0.99), "ms"};
  if (scraped) {
    for (const char* stage :
         {"parse", "queue", "batch", "score", "rank", "write"}) {
      double us = StageMeanUs(h0, h1, stage);
      if (us >= 0) {
        m[std::string("serve.stage.") + stage + "_mean_us"] = {us, "us"};
      }
    }
  }
  counts->sent += static_cast<int64_t>(answers.size());
  Oracle oracle(items, opt.seed);
  if (!oracle.Load(ckpt, error)) return false;
  oracle.Check(answers, 0, answers.size(), 64, counts);
  return true;
}

// Part 2: the set-up layers, each timed three times on a fresh object.
bool LoadReplayModel(const std::string& ckpt, int32_t items, uint64_t seed,
                     int batch, ReplayModel* rm, Metrics* metrics,
                     std::string* error) {
  rm->items = items;
  std::vector<double> load_ms, catalog_ms, compile_ms;
  for (int i = 0; i < 3; ++i) {
    rm->model = MakeModel(items, seed);
    int64_t t0 = NowNs();
    Status s = nn::LoadParametersForInference(rm->model.get(), ckpt);
    load_ms.push_back(SecondsSince(t0) * 1e3);
    if (!s.ok()) {
      *error = "checkpoint load failed: " + s.ToString();
      return false;
    }
    NoGradGuard ng;
    t0 = NowNs();
    rm->catalog = rm->model->PrecomputeCatalog();
    catalog_ms.push_back(SecondsSince(t0) * 1e3);
    t0 = NowNs();
    rm->plan =
        infer::PlannedExecutor::Compile(*rm->model, rm->catalog, batch, &s);
    compile_ms.push_back(SecondsSince(t0) * 1e3);
    if (rm->plan == nullptr) {
      *error = "plan compile failed: " + s.ToString();
      return false;
    }
  }
  Metrics& m = *metrics;
  m["setup.load_checkpoint_ms"] = {Median(load_ms), "ms"};
  m["setup.precompute_catalog_ms"] = {Median(catalog_ms), "ms"};
  m["setup.compile_plan_ms"] = {Median(compile_ms), "ms"};
  m["infer.scratch_mb"] = {rm->plan->scratch_bytes() / 1048576.0, "MB"};
  return CompilePlans(rm, batch, error);
}

// Part 4: RecoService::TopK in-process from `batch` concurrent callers, with
// the deployed defaults apart from the model shape. Every answer must equal
// the replay's result for the same query. Returns the p50 in ms.
bool InProcessTopK(const std::string& ckpt, int32_t items, uint64_t seed,
                   int batch,
                   const std::vector<std::vector<std::string>>& groups,
                   const std::map<int64_t, serve::TopKResult>& results,
                   Metrics* metrics, Counts* counts, double* p50_ms,
                   std::string* error) {
  serve::ServeConfig scfg;
  scfg.max_len = kMaxLen;
  Status s;
  auto service = serve::RecoService::Load(MakeModel(items, seed), items,
                                          kBehaviors, ckpt, scfg, &s);
  if (service == nullptr) {
    *error = "RecoService::Load failed: " + s.ToString();
    return false;
  }
  // Caller c sends row c of every group, as connection c does on the socket.
  std::vector<std::vector<double>> lat(static_cast<size_t>(batch));
  std::vector<std::vector<serve::TopKResult>> got(static_cast<size_t>(batch));
  std::vector<std::vector<serve::ParsedQuery>> qs(static_cast<size_t>(batch));
  for (const auto& g : groups) {
    for (size_t c = 0; c < g.size(); ++c) {
      qs[c].emplace_back();
      serve::ParseQueryLine(g[c], &qs[c].back());
    }
  }
  const alloc::AllocStats a0 = alloc::GetAllocStats();
  const int64_t served0 = service->requests_served();
  const int64_t batches0 = service->batches_run();
  std::vector<std::thread> callers;
  for (size_t c = 0; c < qs.size(); ++c) {
    callers.emplace_back([&, c] {
      for (const auto& q : qs[c]) {
        serve::TopKResult r;
        const int64_t t = NowNs();
        Status st = service->TopK(q.query, &r);
        lat[c].push_back(SecondsSince(t) * 1e3);
        got[c].push_back(st.ok() ? std::move(r) : serve::TopKResult());
      }
    });
  }
  for (auto& t : callers) t.join();
  const alloc::AllocStats a1 = alloc::GetAllocStats();
  const double served =
      static_cast<double>(service->requests_served() - served0);
  const double batches = static_cast<double>(service->batches_run() - batches0);
  std::vector<double> all_lat;
  for (size_t c = 0; c < qs.size(); ++c) {
    all_lat.insert(all_lat.end(), lat[c].begin(), lat[c].end());
    for (size_t k = 0; k < qs[c].size(); ++k) {
      const serve::TopKResult& want = results.at(qs[c][k].id);
      ++counts->sent;
      if (!SameBits(got[c][k], want.items, want.scores, want.items.size())) {
        ++counts->mismatches;
      }
    }
  }
  Metrics& m = *metrics;
  *p50_ms = Median(all_lat);
  m["serve.topk_ms"] = {*p50_ms, "ms"};
  m["serve.mean_batch"] = {batches > 0 ? served / batches : 0, "count"};
  m["alloc.system_allocs_per_op"] = {
      (a1.system_allocs - a0.system_allocs) / std::max(1.0, served), "count"};
  m["alloc.pool_misses_per_op"] = {
      (a1.pool_misses - a0.pool_misses) / std::max(1.0, served), "count"};
  return true;
}

}  // namespace

bool TraceServeLayers(const Options& opt, int32_t num_items, int conns,
                      Tracer* tracer, Metrics* metrics, Counts* counts,
                      std::string* error) {
  const int batch = conns;
  Metrics& m = *metrics;
  std::string ckpt;
  if (!WriteCheckpoint(opt, num_items, &ckpt, error)) return false;
  const HostCpu host0 = ReadHostCpu();

  double socket_p50_ms = 0;
  ReplayModel rm;
  if (!SocketPass(opt, ckpt, num_items, conns, metrics, counts,
                  &socket_p50_ms, error) ||
      !LoadReplayModel(ckpt, num_items, opt.seed, batch, &rm, metrics,
                       error)) {
    return false;
  }

  // Part 3: the layer replay at the workload's batch size; a short warm-up,
  // then traced and untraced groups alternating.
  const size_t groups = batch == 1 ? 600 : 80;
  auto replay = ReplayGroups(opt.seed, batch, num_items, groups);
  std::map<int64_t, serve::TopKResult> results;
  ReplayPass(&rm, std::vector<std::vector<std::string>>(
                      replay.begin(), replay.begin() + 5),
             tracer, &results, counts);
  PassTimes times;
  ReplayPass(&rm, replay, tracer, &results, counts, &times);
  tracer->set_enabled(false);
  const auto self = tracer->SelfTimesUs();

  // The same forward at the other batch size, for the per-row cost.
  const int other_batch = batch == 1 ? 4 : 1;
  Tracer other;
  other.set_enabled(true);
  {
    std::map<int64_t, serve::TopKResult> unused;
    if (!CompilePlans(&rm, other_batch, error)) return false;
    ReplayPass(&rm,
               ReplayGroups(opt.seed + 1, other_batch, num_items,
                            other_batch == 1 ? 120 : 30),
               &other, &unused, counts);
  }
  const double fwd_ms = MedianOf(self, "core.score_all_items") * 1e-3;
  const double per_row = fwd_ms * 1e3 / batch;
  const double other_per_row =
      MedianOf(other.SelfTimesUs(), "core.score_all_items") / other_batch;
  m["core.forward_us_per_row_b1"] = {batch == 1 ? per_row : other_per_row,
                                     "us"};
  m["core.forward_us_per_row_b4"] = {batch == 4 ? per_row : other_per_row,
                                     "us"};

  const double build_us = MedianOf(self, "data.build_query_batch");
  const double ui_ms = MedianOf(self, "core.user_interests") * 1e-3;
  const double topk_row_us = MedianOf(self, "core.topk_row");
  m["serve.protocol.parse_us"] = {MedianOf(self, "serve.protocol.parse"), "us"};
  m["serve.protocol.encode_us"] = {MedianOf(self, "serve.protocol.encode"),
                                   "us"};
  m["data.build_query_batch_us"] = {build_us, "us"};
  m["core.user_interests_ms"] = {ui_ms, "ms"};
  m["core.score_all_items_ms"] = {fwd_ms, "ms"};
  m["core.catalog_score_ms"] = {fwd_ms - ui_ms, "ms"};
  m["core.topk_row_us"] = {topk_row_us, "us"};
  m["infer.run_ms"] = {MedianOf(self, "infer.run") * 1e-3, "ms"};
  m["infer.run_int8_ms"] = {MedianOf(self, "infer.run_int8") * 1e-3, "ms"};
  m["tracing.overhead_pct"] = {
      (Median(times.traced_ms) / Median(times.untraced_ms) - 1.0) * 100.0,
      "%"};

  double topk_ms = 0;
  const bool ok = InProcessTopK(ckpt, num_items, opt.seed, batch, replay,
                                results, metrics, counts, &topk_ms, error);
  std::remove(ckpt.c_str());
  if (!ok) return false;
  m["serve.batch_wait_ms"] = {
      topk_ms - (build_us * 1e-3 + fwd_ms + batch * topk_row_us * 1e-3), "ms"};
  m["tcp.overhead_ms"] = {socket_p50_ms - topk_ms, "ms"};
  m["host.steal_pct"] = {StealPct(host0, ReadHostCpu()), "%"};
  return true;
}

}  // namespace perfbench
