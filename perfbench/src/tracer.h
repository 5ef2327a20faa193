// In-memory span recorder for the traced run. Spans are recorded around
// calls into the library's public functions from the benchmark's own code,
// kept in memory, and written as Chrome trace JSON at exit. Single-threaded:
// every span of a replayed request carries that request's id and the index
// of its parent span, and a span's self time is its duration minus the time
// its children cover.
#ifndef MISSL_PERFBENCH_TRACER_H_
#define MISSL_PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// Spans are recorded only while enabled; disabled spans cost one branch.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled). `name` must be a string literal.
  int64_t Begin(const char* name, int64_t request_id);
  void End(int64_t index);

  /// Self times in microseconds of every closed span, by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Writes every span as a Chrome trace "X" event (Perfetto-viewable).
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t request;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<double> ChildNs() const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, int64_t request_id)
      : t_(t), index_(t->Begin(name, request_id)) {}
  ~Scoped() { t_->End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // MISSL_PERFBENCH_TRACER_H_
