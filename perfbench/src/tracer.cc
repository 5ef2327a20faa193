#include "tracer.h"

#include <cstdio>
#include <fstream>

#include "util.h"

namespace perfbench {

int64_t Tracer::Begin(const char* name, int64_t request_id) {
  if (!enabled_) return -1;
  int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, request_id, parent, NowNs(), 0});
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::ChildNs() const {
  // Children of one parent run one after another on this thread, so the
  // part of the parent they cover is the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return child;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::vector<double> child = ChildNs();
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    out[s.name].push_back(
        (static_cast<double>(s.end_ns - s.start_ns) - child[i]) * 1e-3);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  std::vector<double> child = ChildNs();
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    double dur_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld,"
                  "\"span\":%zu,\"parent\":%lld,\"self_us\":%.3f}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - t0) * 1e-3, dur_us,
                  static_cast<long long>(s.request), i,
                  static_cast<long long>(s.parent), dur_us - child[i] * 1e-3);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
