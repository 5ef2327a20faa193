#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "utils/check.h"
#include "utils/logging.h"

namespace missl::simd {

// AVX2 implementations live in simd_avx2.cc, which is the only translation
// unit compiled with -mavx2 (and with -ffp-contract=off so nothing is ever
// fused into an FMA). This file only declares and dispatches to them.
#ifdef MISSL_SIMD_AVX2
namespace avx2 {
void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t r0, int64_t r1);
void PanelGemm(const float* a, int64_t rows, const float* panel, int64_t k,
               float* tile);
void AxpyRow(float s, const float* x, float* y, int64_t n);
void AddRow(const float* a, const float* b, float* o, int64_t n);
void SubRow(const float* a, const float* b, float* o, int64_t n);
void MulRow(const float* a, const float* b, float* o, int64_t n);
void DivRow(const float* a, const float* b, float* o, int64_t n);
void ReluRow(const float* a, float* o, int64_t n);
void ScaleRow(const float* a, float s, float* o, int64_t n);
void AddScalarRow(const float* a, float s, float* o, int64_t n);
void AccumRow(const float* g, float* acc, int64_t n);
void NegAccumRow(const float* g, float* acc, int64_t n);
void MulAccumRow(const float* b, const float* g, float* acc, int64_t n);
void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n);
void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n);
void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n);
void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1);
}  // namespace avx2
#endif  // MISSL_SIMD_AVX2

namespace {

bool CpuHasAvx2() {
#if defined(MISSL_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuHasAvxVnni() {
#if defined(MISSL_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avxvnni");
#else
  return false;
#endif
}

void PublishTierGauge(Tier t) {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("simd.tier");
  gauge.Set(static_cast<int64_t>(t));
}

void PublishVnniGauge(bool on) {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("simd.vnni");
  gauge.Set(on ? 1 : 0);
}

// Resolves the startup tier from MISSL_SIMD + CPUID. Unknown values fall
// back to auto-detection with a warning rather than aborting: a bad env var
// must not take down a serving process.
Tier ResolveTier() {
  const char* env = std::getenv("MISSL_SIMD");
  bool want_avx2 = false;
  bool forced_off = false;
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0 ||
      std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0) {
    want_avx2 = true;
  } else if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
             std::strcmp(env, "scalar") == 0) {
    forced_off = true;
  } else if (std::strcmp(env, "avx2") == 0) {
    want_avx2 = true;
    if (!Avx2Available()) {
      MISSL_LOG_WARN << "MISSL_SIMD=avx2 but the AVX2 tier is unavailable "
                     << "(not compiled in or no CPU support); falling back "
                     << "to scalar";
    }
  } else {
    MISSL_LOG_WARN << "unknown MISSL_SIMD value '" << env
                   << "' (want off|scalar|avx2|auto); auto-detecting";
    want_avx2 = true;
  }
  if (!forced_off && want_avx2 && Avx2Available()) return Tier::kAvx2;
  return Tier::kScalar;
}

// -1 = unresolved; otherwise the Tier value. Relaxed loads are fine: the
// value is write-once (or explicitly overridden by SetTier) and any racing
// reader either sees the final tier or resolves the same value itself.
std::atomic<int> g_tier{-1};

// VNNI sub-dispatch state for the int8 kernels, same write-once discipline:
// -1 = unresolved, else 0/1. Resolved from availability + MISSL_SIMD_VNNI.
std::atomic<int> g_vnni{-1};

bool ResolveVnni() {
  if (!AvxVnniAvailable()) return false;
  const char* env = std::getenv("MISSL_SIMD_VNNI");
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0)) {
    return false;
  }
  return true;
}

}  // namespace

bool Avx2Available() {
#ifdef MISSL_SIMD_AVX2
  static const bool available = CpuHasAvx2();
  return available;
#else
  return false;
#endif
}

bool AvxVnniAvailable() {
#ifdef MISSL_SIMD_AVX2
  static const bool available = Avx2Available() && CpuHasAvxVnni();
  return available;
#else
  return false;
#endif
}

bool AvxVnniEnabled() {
  int v = g_vnni.load(std::memory_order_relaxed);
  if (v < 0) {
    bool resolved = ResolveVnni();
    int expected = -1;
    if (g_vnni.compare_exchange_strong(expected, resolved ? 1 : 0,
                                       std::memory_order_relaxed)) {
      PublishVnniGauge(resolved);
      v = resolved ? 1 : 0;
    } else {
      v = expected;  // another thread resolved (or SetAvxVnni ran) first
    }
  }
  return v != 0;
}

void SetAvxVnni(bool on) {
  MISSL_CHECK(!on || AvxVnniAvailable())
      << "AVX-VNNI is not available in this build or on this CPU";
  g_vnni.store(on ? 1 : 0, std::memory_order_relaxed);
  PublishVnniGauge(on);
}

ScopedAvxVnni::ScopedAvxVnni(bool on) : prev_(AvxVnniEnabled()) {
  SetAvxVnni(on);
}
ScopedAvxVnni::~ScopedAvxVnni() { SetAvxVnni(prev_); }

Tier ActiveTier() {
  int t = g_tier.load(std::memory_order_relaxed);
  if (t < 0) {
    Tier resolved = ResolveTier();
    int expected = -1;
    if (g_tier.compare_exchange_strong(expected, static_cast<int>(resolved),
                                       std::memory_order_relaxed)) {
      PublishTierGauge(resolved);
      t = static_cast<int>(resolved);
    } else {
      t = expected;  // another thread resolved (or SetTier ran) first
    }
  }
  return static_cast<Tier>(t);
}

void SetTier(Tier t) {
  MISSL_CHECK(t == Tier::kScalar || Avx2Available())
      << "SIMD tier '" << TierName(t) << "' is not available in this build "
      << "or on this CPU";
  g_tier.store(static_cast<int>(t), std::memory_order_relaxed);
  PublishTierGauge(t);
}

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
  }
  return "unknown";
}

ScopedTier::ScopedTier(Tier t) : prev_(ActiveTier()) { SetTier(t); }
ScopedTier::~ScopedTier() { SetTier(prev_); }

// ---- Portable (scalar-tier) kernels -----------------------------------------
// These loops ARE the reference semantics: one rounded multiply and one
// rounded add per accumulation step, reductions in ascending index order.
// The AVX2 paths replay exactly this per-element instruction sequence.

namespace scalar {

void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void PanelGemm(const float* a, int64_t rows, const float* panel, int64_t k,
               float* tile) {
  std::fill(tile, tile + rows * kPanelWidth, 0.0f);
  GemmRows(a, panel, tile, k, kPanelWidth, 0, rows);
}

void AxpyRow(float s, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += s * x[i];
}

void AddRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void SubRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void MulRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void DivRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}

void ReluRow(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void ScaleRow(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}

void AddScalarRow(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}

void AccumRow(const float* g, float* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += g[i];
}

void NegAccumRow(const float* g, float* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += -1.0f * g[i];
}

void MulAccumRow(const float* b, const float* g, float* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += b[i] * g[i];
}

void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    xh[i] = (x[i] - mu) * is;
    y[i] = gamma[i] * xh[i] + beta[i];
  }
}

void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float gg = gamma[i] * g[i];
    gx[i] += (gg - m1 - xh[i] * m2) * is;
  }
}

void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += y[i] * (g[i] - dot);
}

// Integer kernel: unlike the float loops above, this one is the contract
// only up to the mathematical sum — int32 adds are associative, so any
// re-blocking (the AVX2 path uses 32-lane maddubs partials) is bitwise
// identical automatically. The dequant epilogue is a fixed per-element
// rounding sequence (convert, two multiplies) that the AVX2 path replays
// lane-wise.
namespace {
void Int8DotDequantRows(const int8_t* a, float act_scale, const int8_t* b,
                        const float* scales, float* o, int64_t k, int64_t r0,
                        int64_t r1) {
  for (int64_t r = r0; r < r1; ++r) {
    const int8_t* brow = b + r * k;
    int32_t acc = 0;
    for (int64_t i = 0; i < k; ++i) {
      acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(brow[i]);
    }
    o[r] = (act_scale * scales[r]) * static_cast<float>(acc);
  }
}
}  // namespace

// Tile = na independent row-kernel calls; the AVX2 path only changes the
// catalog traversal order (pairing activation rows), never the arithmetic.
void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1) {
  for (int64_t i = 0; i < na; ++i) {
    Int8DotDequantRows(a + i * k, act_scales[i], b, scales, o + i * ldo, k,
                       r0, r1);
  }
}

}  // namespace scalar

// ---- Dispatch ---------------------------------------------------------------

#ifdef MISSL_SIMD_AVX2
#define MISSL_SIMD_DISPATCH(fn, ...)                                    \
  do {                                                                  \
    if (ActiveTier() == Tier::kAvx2) return avx2::fn(__VA_ARGS__);      \
    return scalar::fn(__VA_ARGS__);                                     \
  } while (0)
#else
#define MISSL_SIMD_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#endif

void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t r0, int64_t r1) {
  MISSL_SIMD_DISPATCH(GemmRows, a, b, c, k, n, r0, r1);
}

void PanelGemm(const float* a, int64_t rows, const float* panel, int64_t k,
               float* tile) {
  MISSL_SIMD_DISPATCH(PanelGemm, a, rows, panel, k, tile);
}

void AxpyRow(float s, const float* x, float* y, int64_t n) {
  MISSL_SIMD_DISPATCH(AxpyRow, s, x, y, n);
}

void AddRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(AddRow, a, b, o, n);
}

void SubRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(SubRow, a, b, o, n);
}

void MulRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(MulRow, a, b, o, n);
}

void DivRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(DivRow, a, b, o, n);
}

void ReluRow(const float* a, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(ReluRow, a, o, n);
}

void ScaleRow(const float* a, float s, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(ScaleRow, a, s, o, n);
}

void AddScalarRow(const float* a, float s, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(AddScalarRow, a, s, o, n);
}

void AccumRow(const float* g, float* acc, int64_t n) {
  MISSL_SIMD_DISPATCH(AccumRow, g, acc, n);
}

void NegAccumRow(const float* g, float* acc, int64_t n) {
  MISSL_SIMD_DISPATCH(NegAccumRow, g, acc, n);
}

void MulAccumRow(const float* b, const float* g, float* acc, int64_t n) {
  MISSL_SIMD_DISPATCH(MulAccumRow, b, g, acc, n);
}

void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n) {
  MISSL_SIMD_DISPATCH(LayerNormAffineRow, x, mu, is, gamma, beta, xh, y, n);
}

void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n) {
  MISSL_SIMD_DISPATCH(LayerNormGradRow, g, gamma, xh, m1, m2, is, gx, n);
}

void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n) {
  MISSL_SIMD_DISPATCH(SoftmaxGradRow, y, g, dot, ga, n);
}

void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1) {
  MISSL_SIMD_DISPATCH(Int8DotDequantTile, a, act_scales, na, b, scales, o,
                      ldo, k, r0, r1);
}

#undef MISSL_SIMD_DISPATCH

}  // namespace missl::simd
