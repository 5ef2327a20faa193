// SIMD kernel tier for the tensor hot paths (see docs/KERNELS.md).
//
// Every kernel here comes in (at least) two implementations — a portable
// scalar loop and an AVX2 vector path — selected once per process by
// runtime dispatch. The defining constraint, inherited from the parallel
// runtime (runtime/parallel_for.h): **tiers change wall clock, never
// numbers.** A vector path may only vectorize ACROSS independent output
// elements (matmul output columns, elementwise slots, softmax/layer-norm
// row entries); each output element's own chain of rounded operations —
// in particular the ascending-k accumulation order of a matmul cell —
// must be instruction-for-instruction the sequence the scalar loop
// performs. Concretely that means:
//   - multiply-then-add, never FMA: a fused multiply-add skips the
//     intermediate rounding of the product and would change low bits, so
//     the AVX2 translation unit is compiled without FMA codegen
//     (-ffp-contract=off and no -mfma) and uses mul/add intrinsics only;
//   - reductions keep the serial order: sums over k (matmul), over a row
//     (softmax's exp-sum, layer-norm's mean/variance) are NOT horizontally
//     vectorized — the vector tier accelerates the surrounding
//     elementwise work and leaves ordered reductions scalar;
//   - branch semantics are preserved exactly (e.g. the matmul zero-skip:
//     a == 0.0f contributes nothing on every tier).
// Under these rules scalar, AVX2, and threaded×AVX2 execution produce
// bitwise-identical tensors, which tests/kernel_property_test.cc enforces.
//
// Selection: the MISSL_SIMD environment variable ("off"/"0"/"scalar"
// forces the portable tier, "avx2" requests AVX2, unset/"auto"/"on"
// picks the best available), gated on the CMake option MISSL_SIMD (which
// compiles the AVX2 translation unit at all) and a CPUID check at
// startup. The resolved tier is published on the "simd.tier" obs gauge.
//
// Within the AVX2 tier, the integer int8 kernels additionally sub-dispatch
// to AVX-VNNI (vpdpbusd) when the CPU has it: one instruction replaces the
// sign-trick maddubs/madd pair and accumulates u8 x s8 quads into int32
// exactly — no int16 intermediate at all, so the result is the same exact
// integer sum and the sub-tier stays bitwise invisible. MISSL_SIMD_VNNI=off
// (or "0") disables it; the resolved state is on the "simd.vnni" gauge.
#ifndef MISSL_TENSOR_SIMD_H_
#define MISSL_TENSOR_SIMD_H_

#include <cstdint>

namespace missl::simd {

/// Kernel tiers, ordered by preference. Values are stable: they are what
/// the "simd.tier" gauge reports.
enum class Tier : int {
  kScalar = 0,  ///< portable loops; the reference semantics
  kAvx2 = 1,    ///< 8-wide AVX2, mul+add only (no FMA)
};

/// The tier kernels dispatch on. Resolved once from MISSL_SIMD + CPUID on
/// first use (thread-safe), then cached; SetTier overrides it.
Tier ActiveTier();

/// Overrides the active tier (tests/benches). CHECK-fails if `t` is not
/// available in this build/on this CPU. Re-publishes the "simd.tier" gauge.
void SetTier(Tier t);

/// True when the AVX2 tier was compiled in (CMake MISSL_SIMD=ON on x86-64)
/// and the running CPU supports it.
bool Avx2Available();

/// True when the AVX2 tier is available AND the CPU supports AVX-VNNI
/// (the 256-bit vpdpbusd extension; CPUID leaf 7.1 EAX bit 4).
bool AvxVnniAvailable();

/// True when the int8 kernels' AVX2 path will use vpdpbusd: available, not
/// disabled by MISSL_SIMD_VNNI=off, and not overridden by SetAvxVnni.
/// Resolved once on first use, then cached.
bool AvxVnniEnabled();

/// Overrides the VNNI sub-dispatch (tests/benches compare the maddubs and
/// vpdpbusd paths on the same machine). CHECK-fails if `on` but AVX-VNNI is
/// unavailable. Re-publishes the "simd.vnni" gauge.
void SetAvxVnni(bool on);

/// RAII VNNI override restoring the previous state on scope exit.
class ScopedAvxVnni {
 public:
  explicit ScopedAvxVnni(bool on);
  ~ScopedAvxVnni();
  ScopedAvxVnni(const ScopedAvxVnni&) = delete;
  ScopedAvxVnni& operator=(const ScopedAvxVnni&) = delete;

 private:
  bool prev_;
};

/// Human-readable tier name ("scalar", "avx2").
const char* TierName(Tier t);

/// RAII tier override restoring the previous tier on scope exit; used by
/// tests and benches to compare tiers on the same computation.
class ScopedTier {
 public:
  explicit ScopedTier(Tier t);
  ~ScopedTier();
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  Tier prev_;
};

// ---- Kernels ----------------------------------------------------------------
// All pointers are to dense row-major float buffers (callers MISSL_CHECK
// tensor contiguity before handing out raw pointers). Unless noted, `o` may
// alias `a` (pure elementwise, in-place safe) but distinct inputs must not
// overlap outputs.

/// C[i,:] += A[i,:] * B for output rows i in [r0, r1) of one [m,k] x [k,n]
/// product. Each C cell accumulates over k in ascending order with a
/// rounded multiply then a rounded add per step, skipping a == 0.0f terms —
/// on every tier, so the result is bitwise tier-independent.
void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t r0, int64_t r1);

/// Width of a catalog panel: PanelGemm's output tile has this many columns.
inline constexpr int64_t kPanelWidth = 32;

/// tile[r*32 + l] = sum over kk of a[r*k + kk] * panel[kk*32 + l] for rows
/// r in [0, rows) and the 32 lanes l of one [k][32] panel (a 32-column slab
/// of a [k, n] matrix, packed contiguously). Each cell replays GemmRows'
/// sequence exactly — zero start, ascending kk, a rounded multiply then a
/// rounded add per step, a == 0.0f terms skipped — so a tile equals the
/// matching 32 columns of a zero-filled GemmRows output bitwise, on every
/// tier. No alignment is assumed.
void PanelGemm(const float* a, int64_t rows, const float* panel, int64_t k,
               float* tile);

/// y[j] += s * x[j]. The matmul dB accumulation row.
void AxpyRow(float s, const float* x, float* y, int64_t n);

/// o[i] = a[i] + b[i] / a[i] - b[i] / a[i] * b[i] / a[i] / b[i].
void AddRow(const float* a, const float* b, float* o, int64_t n);
void SubRow(const float* a, const float* b, float* o, int64_t n);
void MulRow(const float* a, const float* b, float* o, int64_t n);
void DivRow(const float* a, const float* b, float* o, int64_t n);

/// o[i] = max(a[i], 0.0f), with scalar `x > 0 ? x : 0` semantics for
/// -0.0/NaN (both map to +0.0 on every tier).
void ReluRow(const float* a, float* o, int64_t n);

/// o[i] = a[i] * s  and  o[i] = a[i] + s.
void ScaleRow(const float* a, float s, float* o, int64_t n);
void AddScalarRow(const float* a, float s, float* o, int64_t n);

/// acc[i] += g[i]  and  acc[i] += (-1.0f) * g[i]  and  acc[i] += b[i] * g[i]
/// and  acc[i] += s * g[i]. The Add/Sub/Mul/scalar-op backward rows.
void AccumRow(const float* g, float* acc, int64_t n);
void NegAccumRow(const float* g, float* acc, int64_t n);
void MulAccumRow(const float* b, const float* g, float* acc, int64_t n);

/// xh[i] = (x[i] - mu) * is; y[i] = gamma[i] * xh[i] + beta[i].
/// The layer-norm normalize+affine pass (mean/variance stay scalar).
void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n);

/// gx[i] += (gamma[i] * g[i] - m1 - xh[i] * m2) * is. The layer-norm input
/// gradient row (the m1/m2 means stay scalar).
void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n);

/// ga[i] += y[i] * (g[i] - dot). The softmax input gradient row (the dot
/// reduction stays scalar).
void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n);

/// o[i*ldo + r] = (act_scales[i] * scales[r]) * float(dot(a[i,:], b[r,:]))
/// for activation rows i in [0, na) x catalog rows r in [r0, r1): int8
/// activation rows dotted against rows of a row-major int8 matrix (the
/// item-major quantized catalog), with the fp32 dequant epilogue fused per
/// output. The dot is a plain int32 sum of element products; integer
/// accumulation is order-free, so every tier is bitwise identical by
/// arithmetic — stronger than the fp32 kernels' fixed-order rule — and the
/// AVX2 maddubs/vpdpbusd paths may re-block freely. The epilogue is one
/// int32->fp32 convert then two rounded multiplies in that fixed sequence,
/// applied lane-wise on AVX2 (no FMA, no reassociation). The AVX2 path walks
/// the catalog once per PAIR of activation rows (each loaded catalog vector
/// feeds two dot chains), halving the kernel's dominant memory stream.
/// Inputs must be quantization codes in [-127, 127]; -128 would let a
/// maddubs pair sum saturate int16. tests/quant_test.cc holds the scalar
/// reference (dot, then dequant) every tier is checked against.
void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1);

}  // namespace missl::simd

#endif  // MISSL_TENSOR_SIMD_H_
