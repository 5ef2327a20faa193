// Closed/open-loop load generator for the TCP serving front-end
// (serve/tcp_server.h). Drives N concurrent connections with a seeded,
// deterministic query mix over the synthetic catalog and reports
// client-observed latency percentiles plus achieved QPS; bench_m1_serve
// feeds the numbers into the BENCH_*.json pipeline next to the server-side
// serve.* histograms.
//
// Two pacing modes:
//   closed loop (target_qps == 0): every connection keeps exactly one
//     request outstanding — send, block for the answer, repeat. Offered
//     load adapts to the server; concurrency is bounded by `connections`
//     (tests/loadgen_test.cc locks that bound). With pipeline_depth > 1
//     each connection instead writes that many requests at once and awaits
//     all their answers before the next burst.
//   open loop (target_qps > 0): each connection sends on a fixed schedule
//     (target_qps / connections each) regardless of response progress, the
//     regime where queueing delay becomes visible in p99/p999.
//
// Determinism: the query sequence is a pure function of (seed, config) —
// connection c draws from Rng sub-stream c, so the mix is independent of
// scheduling and timing. Same seed, same queries, run to run.
#ifndef MISSL_SERVE_LOADGEN_H_
#define MISSL_SERVE_LOADGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace missl::serve {

/// Load shape + query-mix knobs. The mix must stay inside the served
/// model's (num_items, num_behaviors) ranges or answers come back as
/// protocol errors (counted in LoadGenResult::errors).
struct LoadGenConfig {
  std::string host = "127.0.0.1";
  int port = 0;               ///< required: the server's bound port
  int connections = 4;        ///< concurrent client connections
  double target_qps = 0;      ///< aggregate send rate; 0 = closed loop
  /// Closed loop only: requests each connection pipelines per burst.
  int pipeline_depth = 1;
  int64_t total_requests = 1000;  ///< across all connections
  uint64_t seed = 1;          ///< query-mix seed (deterministic per seed)

  int32_t num_items = 120;    ///< catalog size of the served model
  int32_t num_behaviors = 3;  ///< behavior channels of the served model
  int min_history = 4;        ///< events per query, inclusive bounds
  int max_history = 24;
  int32_t k = 10;             ///< list length requested
  double timestamp_prob = 0.5;  ///< fraction of queries carrying timestamps
  double exclude_prob = 0.25;   ///< fraction carrying an exclusion list

  int64_t recv_timeout_ms = 30000;  ///< per-read socket timeout (stall guard)
};

/// Aggregated result of one RunLoadGen call. Latencies are client-observed
/// (write first byte → full response line read), exact percentiles over all
/// samples, nearest-rank.
struct LoadGenResult {
  int64_t sent = 0;        ///< requests written
  int64_t ok = 0;          ///< well-formed top-K answers received
  int64_t errors = 0;      ///< error-JSON answers received
  double wall_seconds = 0;
  double achieved_qps = 0;  ///< ok+errors answered / wall_seconds
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t p999_us = 0;
  int64_t max_us = 0;
  int32_t max_in_flight = 0;  ///< peak outstanding requests, all connections
};

/// Draws the `index`-th query of connection sub-stream `rng` — pure function
/// of the Rng state and config, exposed so tests can pin determinism.
ParsedQuery MakeLoadQuery(Rng* rng, int64_t id, const LoadGenConfig& config);

/// Exact nearest-rank percentile: the smallest sample x such that at least
/// ceil(p * n) samples are <= x (p in (0, 1]; p <= 0 returns the minimum).
/// Returns 0 on an empty sample set. Takes samples by value and sorts.
int64_t PercentileNearestRank(std::vector<int64_t> samples, double p);

/// Runs the configured load against host:port and fills `*out`. Returns
/// non-OK on connection/socket failures or if the server stalls past
/// recv_timeout_ms; protocol-level error answers do NOT fail the run (they
/// are counted in out->errors).
Status RunLoadGen(const LoadGenConfig& config, LoadGenResult* out);

/// One response from HttpGet against the server's admin plane.
struct HttpResponse {
  int code = 0;       ///< status-line code (200, 404, ...)
  std::string body;   ///< everything after the header terminator
};

/// Minimal HTTP/1.0 GET client for the admin endpoint (serve/tcp_server.h):
/// connects, sends one request, reads to EOF, splits status code and body.
/// Returns non-OK on connect/socket failure, a stall past `timeout_ms`, or
/// an unparseable status line; 4xx/5xx responses come back OK with the code
/// set — the caller decides what a "bad" status means.
Status HttpGet(const std::string& host, int port, const std::string& path,
               HttpResponse* out, int64_t timeout_ms = 10000);

/// One Prometheus histogram family parsed back from exposition text:
/// cumulative (le, count) pairs in exposition order, +Inf last.
struct PromHistogram {
  std::vector<std::pair<double, int64_t>> buckets;
  int64_t count = 0;
  int64_t sum = 0;
};

/// Parses the subset of the Prometheus text format that obs::PrometheusText
/// emits and validates it while doing so: every sample must be preceded by
/// its "# TYPE" line, histogram buckets must be cumulative-monotone with a
/// final le="+Inf" equal to _count. Counters and gauges land in *scalars,
/// histograms in *histograms (either may be null to skip). Returns false on
/// the first malformed or inconsistent line — the scrape-smoke failure
/// signal for bench_m1_serve and CI.
bool ParsePrometheusText(const std::string& text,
                         std::map<std::string, double>* scalars,
                         std::map<std::string, PromHistogram>* histograms);

/// Nearest-rank percentile over a parsed histogram's cumulative buckets:
/// the `le` bound of the bucket containing the p-quantile (p in [0, 1]),
/// 0 when empty. When the quantile lands in the +Inf bucket the largest
/// finite bound is returned.
int64_t PromHistogramPercentile(const PromHistogram& h, double p);

/// Element-wise delta `cur - base` of two scrapes of the same histogram
/// family (bucket lists must have identical bounds; returns an empty
/// histogram on mismatch). Turns two /metrics scrapes into a per-window
/// distribution.
PromHistogram PromHistogramDelta(const PromHistogram& cur,
                                 const PromHistogram& base);

}  // namespace missl::serve

#endif  // MISSL_SERVE_LOADGEN_H_
