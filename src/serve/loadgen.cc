#include "serve/loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <unordered_map>

#include "obs/trace.h"
#include "utils/check.h"

namespace missl::serve {

namespace {

// Connects a blocking TCP socket to host:port (IPv4 dotted quad).
int ConnectTo(const std::string& host, int port, std::string* err) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *err = "bad host (want IPv4 dotted quad): " + host;
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *err = "connect " + host + ":" + std::to_string(port) + ": " +
           std::strerror(errno);
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Extracts the echoed "id" field and error-ness of one response line.
bool ParseResponseLine(const std::string& line, int64_t* id, bool* is_error) {
  size_t pos = line.find("\"id\":");
  if (pos == std::string::npos) return false;
  pos += 5;
  bool neg = pos < line.size() && line[pos] == '-';
  if (neg) ++pos;
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
  int64_t v = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    v = v * 10 + (line[pos] - '0');
    ++pos;
  }
  *id = neg ? -v : v;
  *is_error = line.find("\"error\"") != std::string::npos;
  return true;
}

// Tracks the peak of a concurrently-updated counter.
struct PeakCounter {
  std::atomic<int32_t> cur{0};
  std::atomic<int32_t> peak{0};

  void Up() {
    int32_t now = cur.fetch_add(1, std::memory_order_relaxed) + 1;
    int32_t prev = peak.load(std::memory_order_relaxed);
    while (prev < now &&
           !peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
  void Down() { cur.fetch_sub(1, std::memory_order_relaxed); }
};

// Per-connection worker state shared with the main thread.
struct ConnRun {
  int fd = -1;
  std::vector<std::string> lines;  ///< request lines, pre-generated
  std::vector<int64_t> ids;        ///< parallel to lines
  std::vector<int64_t> latencies_ns;
  int64_t ok = 0;
  int64_t errors = 0;
  Status status;
};

// Reads from fd until `buf` holds a full line; returns the line without the
// trailing '\n' via *line. Blocking socket with SO_RCVTIMEO as stall guard.
Status ReadLine(int fd, std::string* buf, std::string* line) {
  for (;;) {
    size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buf, 0, nl);
      buf->erase(0, nl + 1);
      return Status::OK();
    }
    char tmp[4096];
    ssize_t r = ::recv(fd, tmp, sizeof(tmp), 0);
    if (r > 0) {
      buf->append(tmp, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) return Status::IOError("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("recv timed out waiting for a response");
    }
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
}

Status SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    return Status::IOError(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

// Closed loop: each connection writes `depth` requests in one send (a
// single outstanding request when depth is 1), reads every answer, then
// writes the next burst. Pipelined answers may arrive in any order.
void RunClosedLoop(ConnRun* run, PeakCounter* in_flight, int depth) {
  std::string buf, line, burst;
  std::vector<bool> answered;
  for (size_t first = 0; first < run->lines.size();
       first += static_cast<size_t>(depth)) {
    const size_t end =
        std::min(run->lines.size(), first + static_cast<size_t>(depth));
    burst.clear();
    for (size_t i = first; i < end; ++i) {
      if (end - first > 1) burst += run->lines[i];
      in_flight->Up();
    }
    int64_t t0 = obs::NowNanos();
    run->status = SendAll(run->fd, end - first > 1 ? burst : run->lines[first]);
    answered.assign(end - first, false);
    for (size_t got = first; got < end; ++got) {
      if (run->status.ok()) run->status = ReadLine(run->fd, &buf, &line);
      in_flight->Down();
      if (!run->status.ok()) return;
      run->latencies_ns.push_back(obs::NowNanos() - t0);
      int64_t id = 0;
      bool is_error = false;
      if (!ParseResponseLine(line, &id, &is_error)) {
        run->status = Status::Corruption("unparseable response: " + line);
        return;
      }
      size_t slot = first;
      while (slot < end && run->ids[slot] != id) ++slot;
      if (slot == end || answered[slot - first]) {
        run->status = Status::Corruption(
            "response id " + std::to_string(id) +
            " does not match an unanswered request of the burst starting at "
            "id " + std::to_string(run->ids[first]));
        return;
      }
      answered[slot - first] = true;
      if (is_error) {
        ++run->errors;
      } else {
        ++run->ok;
      }
    }
  }
}

// Open loop: send on a fixed schedule regardless of responses.
void RunOpenLoop(ConnRun* run, PeakCounter* in_flight, double conn_qps,
                 int64_t stall_timeout_ms) {
  const int64_t interval_ns =
      static_cast<int64_t>(1e9 / (conn_qps > 0 ? conn_qps : 1.0));
  std::unordered_map<int64_t, int64_t> send_ns;
  send_ns.reserve(run->lines.size());
  std::string buf;
  size_t next = 0;
  int64_t answered = 0;
  const int64_t start = obs::NowNanos();
  int64_t last_progress = start;

  while (answered < static_cast<int64_t>(run->lines.size())) {
    int64_t now = obs::NowNanos();
    // Send every request whose scheduled time has arrived.
    while (next < run->lines.size() &&
           now >= start + static_cast<int64_t>(next) * interval_ns) {
      in_flight->Up();
      send_ns[run->ids[next]] = obs::NowNanos();
      run->status = SendAll(run->fd, run->lines[next]);
      if (!run->status.ok()) return;
      ++next;
      last_progress = now = obs::NowNanos();
    }
    // Wait for either the next scheduled send or response bytes.
    int timeout_ms = 50;
    if (next < run->lines.size()) {
      int64_t until =
          start + static_cast<int64_t>(next) * interval_ns - obs::NowNanos();
      timeout_ms = static_cast<int>(std::max<int64_t>(0, until / 1000000));
      timeout_ms = std::min(timeout_ms, 50);
    }
    pollfd pfd{run->fd, POLLIN, 0};
    int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
      char tmp[4096];
      ssize_t r = ::recv(run->fd, tmp, sizeof(tmp), 0);
      if (r > 0) {
        buf.append(tmp, static_cast<size_t>(r));
      } else if (r == 0) {
        run->status = Status::IOError("server closed the connection");
        return;
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        run->status = Status::IOError(std::string("recv: ") +
                                      std::strerror(errno));
        return;
      }
      for (;;) {
        size_t nl = buf.find('\n');
        if (nl == std::string::npos) break;
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        int64_t id = 0;
        bool is_error = false;
        if (!ParseResponseLine(line, &id, &is_error) ||
            send_ns.count(id) == 0) {
          run->status = Status::Corruption("unexpected response: " + line);
          return;
        }
        run->latencies_ns.push_back(obs::NowNanos() - send_ns[id]);
        send_ns.erase(id);
        in_flight->Down();
        ++answered;
        if (is_error) {
          ++run->errors;
        } else {
          ++run->ok;
        }
        last_progress = obs::NowNanos();
      }
    }
    if (obs::NowNanos() - last_progress > stall_timeout_ms * 1000000) {
      run->status = Status::IOError(
          "open-loop stall: no response for " +
          std::to_string(stall_timeout_ms) + "ms with " +
          std::to_string(send_ns.size()) + " requests outstanding");
      return;
    }
  }
}

}  // namespace

ParsedQuery MakeLoadQuery(Rng* rng, int64_t id, const LoadGenConfig& config) {
  MISSL_CHECK(rng != nullptr && config.num_items > 0 &&
              config.num_behaviors > 0 && config.min_history >= 1 &&
              config.max_history >= config.min_history);
  ParsedQuery parsed;
  parsed.id = id;
  Query& q = parsed.query;
  int len = config.min_history +
            static_cast<int>(rng->UniformInt(static_cast<uint64_t>(
                config.max_history - config.min_history + 1)));
  bool with_ts = rng->Bernoulli(static_cast<float>(config.timestamp_prob));
  int64_t ts = 1000;
  for (int i = 0; i < len; ++i) {
    q.items.push_back(static_cast<int32_t>(
        rng->UniformInt(static_cast<uint64_t>(config.num_items))));
    q.behaviors.push_back(static_cast<int32_t>(
        rng->UniformInt(static_cast<uint64_t>(config.num_behaviors))));
    if (with_ts) {
      ts += 1 + static_cast<int64_t>(rng->UniformInt(500));
      q.timestamps.push_back(ts);
    }
  }
  // The wire carries `now` implicitly as the newest timestamp, so only that
  // form round-trips through QueryToLine → ParseQueryLine.
  if (with_ts) q.now = q.timestamps.back();
  if (rng->Bernoulli(static_cast<float>(config.exclude_prob))) {
    int n_excl = 1 + static_cast<int>(rng->UniformInt(3));
    for (int i = 0; i < n_excl; ++i) {
      q.exclude.push_back(
          q.items[rng->UniformInt(static_cast<uint64_t>(q.items.size()))]);
    }
  }
  q.k = config.k;
  return parsed;
}

int64_t PercentileNearestRank(std::vector<int64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  if (p <= 0) return samples.front();
  if (p > 1) p = 1;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

Status RunLoadGen(const LoadGenConfig& config, LoadGenResult* out) {
  MISSL_CHECK(out != nullptr);
  if (config.port <= 0 || config.port > 65535) {
    return Status::InvalidArgument("LoadGenConfig.port must be set");
  }
  if (config.connections < 1) {
    return Status::InvalidArgument("LoadGenConfig.connections must be >= 1");
  }
  if (config.total_requests < 1) {
    return Status::InvalidArgument(
        "LoadGenConfig.total_requests must be >= 1");
  }
  if (config.target_qps < 0) {
    return Status::InvalidArgument("LoadGenConfig.target_qps must be >= 0");
  }
  if (config.pipeline_depth < 1 ||
      (config.pipeline_depth > 1 && config.target_qps > 0)) {
    return Status::InvalidArgument(
        "LoadGenConfig.pipeline_depth must be >= 1, and 1 in open loop");
  }

  const int conns = config.connections;
  std::vector<ConnRun> runs(static_cast<size_t>(conns));
  // Deterministic mix: connection c draws from sub-stream c and owns global
  // ids c, c + conns, c + 2*conns, ... — identical per seed no matter how
  // the runtime schedules the client threads.
  for (int c = 0; c < conns; ++c) {
    Rng rng(config.seed, static_cast<uint64_t>(c));
    ConnRun& run = runs[static_cast<size_t>(c)];
    for (int64_t id = c; id < config.total_requests; id += conns) {
      ParsedQuery pq = MakeLoadQuery(&rng, id, config);
      run.ids.push_back(pq.id);
      run.lines.push_back(QueryToLine(pq.id, pq.query) + "\n");
    }
  }

  // Connect everything up front so wall-clock measures serving, not dials.
  for (int c = 0; c < conns; ++c) {
    std::string err;
    int fd = ConnectTo(config.host, config.port, &err);
    if (fd < 0) {
      for (int j = 0; j < c; ++j) ::close(runs[static_cast<size_t>(j)].fd);
      return Status::IOError(err);
    }
    timeval tv{};
    tv.tv_sec = config.recv_timeout_ms / 1000;
    tv.tv_usec = (config.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    runs[static_cast<size_t>(c)].fd = fd;
  }

  PeakCounter in_flight;
  const double conn_qps = config.target_qps / conns;
  const int64_t t0 = obs::NowNanos();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    ConnRun* run = &runs[static_cast<size_t>(c)];
    if (run->lines.empty()) continue;  // more connections than requests
    threads.emplace_back([run, &in_flight, &config, conn_qps] {
      if (config.target_qps > 0) {
        RunOpenLoop(run, &in_flight, conn_qps, config.recv_timeout_ms);
      } else {
        RunClosedLoop(run, &in_flight, config.pipeline_depth);
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t t1 = obs::NowNanos();
  for (auto& run : runs) ::close(run.fd);

  *out = LoadGenResult();
  std::vector<int64_t> latencies;
  for (const auto& run : runs) {
    if (!run.status.ok()) return run.status;
    out->sent += static_cast<int64_t>(run.lines.size());
    out->ok += run.ok;
    out->errors += run.errors;
    latencies.insert(latencies.end(), run.latencies_ns.begin(),
                     run.latencies_ns.end());
  }
  out->wall_seconds = static_cast<double>(t1 - t0) / 1e9;
  int64_t answered = out->ok + out->errors;
  out->achieved_qps = out->wall_seconds > 0
                          ? static_cast<double>(answered) / out->wall_seconds
                          : 0;
  out->p50_us = PercentileNearestRank(latencies, 0.50) / 1000;
  out->p99_us = PercentileNearestRank(latencies, 0.99) / 1000;
  out->p999_us = PercentileNearestRank(latencies, 0.999) / 1000;
  out->max_us = latencies.empty()
                    ? 0
                    : *std::max_element(latencies.begin(), latencies.end()) /
                          1000;
  out->max_in_flight = in_flight.peak.load(std::memory_order_relaxed);
  return Status::OK();
}

Status HttpGet(const std::string& host, int port, const std::string& path,
               HttpResponse* out, int64_t timeout_ms) {
  MISSL_CHECK(out != nullptr);
  std::string err;
  int fd = ConnectTo(host, port, &err);
  if (fd < 0) return Status::IOError(err);
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  std::string req = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                    "\r\nConnection: close\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    ssize_t w = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    return Status::IOError(std::string("send: ") + std::strerror(errno));
  }
  std::string raw;
  char buf[65536];
  for (;;) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r > 0) {
      raw.append(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    ::close(fd);
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
  ::close(fd);
  // Status line: "HTTP/1.x <code> <reason>".
  if (raw.rfind("HTTP/1.", 0) != 0) {
    return Status::IOError("malformed HTTP status line");
  }
  size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) {
    return Status::IOError("malformed HTTP status line");
  }
  int code = 0;
  for (size_t i = sp + 1; i < sp + 4 && i < raw.size(); ++i) {
    if (raw[i] < '0' || raw[i] > '9') {
      return Status::IOError("malformed HTTP status code");
    }
    code = code * 10 + (raw[i] - '0');
  }
  size_t body_at = raw.find("\r\n\r\n");
  size_t skip = 4;
  if (body_at == std::string::npos) {
    body_at = raw.find("\n\n");
    skip = 2;
  }
  if (body_at == std::string::npos) {
    return Status::IOError("HTTP response missing header terminator");
  }
  out->code = code;
  out->body = raw.substr(body_at + skip);
  return Status::OK();
}

namespace {

// Strips a trailing "_bucket"/"_sum"/"_count" suffix; empty when absent.
std::string StripSuffix(const std::string& name, const char* suffix) {
  size_t n = std::strlen(suffix);
  if (name.size() <= n ||
      name.compare(name.size() - n, n, suffix) != 0) {
    return std::string();
  }
  return name.substr(0, name.size() - n);
}

}  // namespace

bool ParsePrometheusText(const std::string& text,
                         std::map<std::string, double>* scalars,
                         std::map<std::string, PromHistogram>* histograms) {
  std::map<std::string, std::string> types;  // family -> counter|gauge|histogram
  std::map<std::string, PromHistogram> hists;
  std::map<std::string, double> vals;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // The exporter only emits "# TYPE <name> <type>" comments.
      if (line.rfind("# TYPE ", 0) != 0) return false;
      std::string rest = line.substr(7);
      size_t sp = rest.find(' ');
      if (sp == std::string::npos) return false;
      std::string name = rest.substr(0, sp);
      std::string type = rest.substr(sp + 1);
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return false;
      }
      if (types.count(name) != 0) return false;  // duplicate family
      types[name] = type;
      continue;
    }
    // Sample line: name[{labels}] SP value
    size_t brace = line.find('{');
    size_t name_end = std::min(brace, line.find(' '));
    if (name_end == 0 || name_end == std::string::npos) return false;
    std::string name = line.substr(0, name_end);
    std::string le;
    size_t value_at;
    if (brace != std::string::npos && brace == name_end) {
      size_t close = line.find('}', brace);
      if (close == std::string::npos || close + 2 > line.size() ||
          line[close + 1] != ' ') {
        return false;
      }
      std::string labels = line.substr(brace + 1, close - brace - 1);
      if (labels.rfind("le=\"", 0) != 0 || labels.size() < 5 ||
          labels.back() != '"') {
        return false;  // the exporter only emits the le label
      }
      le = labels.substr(4, labels.size() - 5);
      value_at = close + 2;
    } else {
      value_at = name_end + 1;
    }
    if (value_at >= line.size()) return false;
    char* end = nullptr;
    std::string value_str = line.substr(value_at);
    double value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0') return false;

    std::string base;
    if (!le.empty()) {
      base = StripSuffix(name, "_bucket");
      if (base.empty() || types.count(base) == 0 ||
          types[base] != "histogram") {
        return false;
      }
      double bound;
      if (le == "+Inf") {
        bound = std::numeric_limits<double>::infinity();
      } else {
        char* lend = nullptr;
        bound = std::strtod(le.c_str(), &lend);
        if (lend == le.c_str() || *lend != '\0') return false;
      }
      PromHistogram& h = hists[base];
      // Cumulative-monotone in exposition order, strictly increasing bounds.
      if (!h.buckets.empty() &&
          (bound <= h.buckets.back().first ||
           static_cast<int64_t>(value) < h.buckets.back().second)) {
        return false;
      }
      h.buckets.emplace_back(bound, static_cast<int64_t>(value));
      continue;
    }
    if (std::string b = StripSuffix(name, "_sum");
        !b.empty() && types.count(b) != 0 && types[b] == "histogram") {
      hists[b].sum = static_cast<int64_t>(value);
      continue;
    }
    if (std::string b = StripSuffix(name, "_count");
        !b.empty() && types.count(b) != 0 && types[b] == "histogram") {
      hists[b].count = static_cast<int64_t>(value);
      continue;
    }
    if (types.count(name) == 0 || types[name] == "histogram") {
      return false;  // scalar sample without a matching TYPE line
    }
    if (vals.count(name) != 0) return false;  // duplicate sample
    vals[name] = value;
  }
  // Histogram consistency: a +Inf bucket exists and equals _count.
  for (const auto& [name, h] : hists) {
    if (h.buckets.empty() || !std::isinf(h.buckets.back().first) ||
        h.buckets.back().second != h.count) {
      return false;
    }
  }
  if (scalars != nullptr) *scalars = std::move(vals);
  if (histograms != nullptr) *histograms = std::move(hists);
  return true;
}

int64_t PromHistogramPercentile(const PromHistogram& h, double p) {
  if (h.count <= 0 || h.buckets.empty()) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  int64_t target =
      static_cast<int64_t>(p * static_cast<double>(h.count - 1)) + 1;
  double finite_max = 0;
  for (const auto& [le, cum] : h.buckets) {
    if (!std::isinf(le)) finite_max = le;
    if (cum >= target) {
      return static_cast<int64_t>(std::isinf(le) ? finite_max : le);
    }
  }
  return static_cast<int64_t>(finite_max);
}

PromHistogram PromHistogramDelta(const PromHistogram& cur,
                                 const PromHistogram& base) {
  PromHistogram d;
  if (cur.buckets.size() != base.buckets.size()) return d;
  for (size_t i = 0; i < cur.buckets.size(); ++i) {
    if (cur.buckets[i].first != base.buckets[i].first &&
        !(std::isinf(cur.buckets[i].first) &&
          std::isinf(base.buckets[i].first))) {
      return d;
    }
  }
  d.count = cur.count - base.count;
  d.sum = cur.sum - base.sum;
  d.buckets.reserve(cur.buckets.size());
  for (size_t i = 0; i < cur.buckets.size(); ++i) {
    d.buckets.emplace_back(cur.buckets[i].first,
                           cur.buckets[i].second - base.buckets[i].second);
  }
  return d;
}

}  // namespace missl::serve
