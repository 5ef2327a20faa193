#include "runtime/runtime.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace missl::runtime {

namespace {

int ResolveDefault() {
  const char* v = std::getenv("MISSL_NUM_THREADS");
  if (v == nullptr || v[0] == '\0') return 1;
  if (std::strcmp(v, "auto") == 0 || std::strcmp(v, "0") == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  int n = std::atoi(v);
  return n < 1 ? 1 : n;
}

std::atomic<int>& GlobalThreads() {
  static std::atomic<int> threads{ResolveDefault()};
  return threads;
}

// This thread's ScopedNumThreads override; 0 = none, read the global.
thread_local int t_override = 0;

}  // namespace

int NumThreads() {
  return t_override > 0 ? t_override
                        : GlobalThreads().load(std::memory_order_relaxed);
}

void SetNumThreads(int n) {
  GlobalThreads().store(n < 1 ? ResolveDefault() : n,
                        std::memory_order_relaxed);
}

ScopedNumThreads::ScopedNumThreads(int n) : prev_(t_override) {
  t_override = n < 1 ? ResolveDefault() : n;
}

ScopedNumThreads::~ScopedNumThreads() { t_override = prev_; }

namespace internal {

int ExchangeThreadOverride(int n) {
  int prev = t_override;
  t_override = n;
  return prev;
}

}  // namespace internal

}  // namespace missl::runtime
