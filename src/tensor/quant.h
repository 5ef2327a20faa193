// Symmetric per-row int8 quantization for the serving catalog tier (see
// docs/KERNELS.md §int8 tier and docs/INFERENCE.md §quantized catalog tier).
//
// Scheme: each row r of a dense [rows, n] fp32 matrix gets one fp32 scale
//   scale[r] = maxabs(row) / 127
// and int8 codes
//   q[i] = clamp(round_half_away_from_zero(x[i] / scale[r]), -127, 127).
// Codes never reach -128, so |q| <= 127 everywhere — the invariant the AVX2
// maddubs kernel relies on (two |a|*|b| pair products fit int16 without
// saturating). All-zero rows store scale 0 and all-zero codes; dequantization
// multiplies by the scale, so a zero scale is never divided by.
//
// The arithmetic contract of the int8 tier's scoring kernel
// (simd::Int8DotDequantTile) is a plain int32 sum of int32 element products
// followed by a fixed fp32 dequant sequence. Integer addition is
// associative, so every implementation (scalar, AVX2, any blocking) that
// computes the same mathematical sum is bitwise identical — a strictly
// stronger guarantee than the fp32 tier's fixed-accumulation-order rule.
// The scalar reference it is tested against lives in tests/quant_test.cc.
#ifndef MISSL_TENSOR_QUANT_H_
#define MISSL_TENSOR_QUANT_H_

#include <cstdint>

namespace missl::quant {

/// Aggregate statistics of one QuantizeRowsSymmetric call.
struct RowQuantStats {
  float min_scale = 0.0f;  ///< smallest non-zero row scale (0 if none)
  float max_scale = 0.0f;  ///< largest row scale
  int64_t zero_rows = 0;   ///< rows that were all zero (scale stored as 0)
  int64_t saturated = 0;   ///< codes clamped to ±127 (rounding edge cases)
};

/// max(|x[i]|) over the row; 0 for n == 0. NaN-free inputs assumed.
float RowMaxAbs(const float* x, int64_t n);

/// Quantizes one row with a caller-provided scale. scale == 0 writes all-zero
/// codes (no division). Returns the number of codes clamped to ±127.
int64_t QuantizeRowWithScale(const float* x, int64_t n, float scale, int8_t* q);

/// Symmetric per-row quantization of a dense row-major [rows, n] matrix:
/// scales[r] = RowMaxAbs(row) / 127, codes via QuantizeRowWithScale. `stats`
/// may be null.
void QuantizeRowsSymmetric(const float* x, int64_t rows, int64_t n, int8_t* q,
                           float* scales, RowQuantStats* stats);

/// out[i] = scale * q[i] — the inverse map (up to rounding error; the
/// round-trip bound |x - out| <= scale / 2 is gated in tests/quant_test.cc).
void DequantizeRow(const int8_t* q, float scale, float* out, int64_t n);

}  // namespace missl::quant

#endif  // MISSL_TENSOR_QUANT_H_
