// Execution-runtime configuration: how many threads the ParallelFor layer
// (runtime/parallel_for.h) may use. The default is fully serial execution,
// matching the library's historical behavior; threading is opt-in via the
// MISSL_NUM_THREADS environment variable, SetNumThreads() (process-wide) or
// ScopedNumThreads (one thread). All parallel kernels are written so results
// are bitwise identical at any thread count (see docs/RUNTIME.md for the
// determinism rules).
#ifndef MISSL_RUNTIME_RUNTIME_H_
#define MISSL_RUNTIME_RUNTIME_H_

namespace missl::runtime {

/// Number of threads ParallelFor may use on the calling thread (always
/// >= 1): this thread's ScopedNumThreads override if one is active, else
/// the process-wide count. The process-wide count is initialized on first
/// use from the MISSL_NUM_THREADS environment variable: unset or "1" keeps
/// serial execution; "0" or "auto" selects
/// std::thread::hardware_concurrency(); any other integer is used directly
/// (clamped to >= 1).
int NumThreads();

/// Sets the process-wide thread count seen by every thread without an
/// override. n <= 0 re-resolves the automatic default (env var / hardware
/// concurrency).
void SetNumThreads(int n);

/// RAII thread-count override for the calling thread only (n <= 0 selects
/// the automatic default), restoring the previous override on scope exit.
/// Other threads keep their own count, so a serving dispatcher can pin its
/// forward's thread count while offline scoring runs elsewhere. Pool
/// workers running a ParallelFor chunk inherit the dispatching thread's
/// count for the duration of the chunk.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n);
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int prev_;
};

namespace internal {
/// Sets the calling thread's override (0 = none) and returns the previous
/// one. ParallelFor uses it to hand the caller's count to pool workers.
int ExchangeThreadOverride(int n);
}  // namespace internal

}  // namespace missl::runtime

#endif  // MISSL_RUNTIME_RUNTIME_H_
