// Plan execution: the serving hot path. Each Exec* interpreter replicates
// the float-op sequence of the corresponding training-mode tensor op
// (tensor/ops_*.cc) exactly — same kernels (simd.h) where the training op
// uses them, same scalar formulas where it does not, same accumulation
// order everywhere — so Run is bitwise-identical to
// MisslModel::ScoreAllItems on every SIMD tier at every thread count (the
// contract is spelled out in docs/INFERENCE.md and enforced by
// tests/infer_test.cc). Positional ops visit only each row's real
// positions [s_b, t) (docs/INFERENCE.md "Padding-free positions" proves
// that changes no score bit). Nothing here allocates: all floats live in
// the plan's arena, the integer id streams and per-row starts in vectors
// presized at compile time.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "hypergraph/incidence.h"
#include "infer/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "utils/check.h"

namespace missl::infer {

namespace {

struct InferMetrics {
  obs::Counter& runs;
  obs::Histogram& run_ns;
  /// Positions the forward computed / skipped as leading padding, summed
  /// over batch rows (docs/INFERENCE.md "Padding-free positions").
  obs::Counter& positions_computed;
  obs::Counter& positions_padded;
  /// Activation-side int8 codes clamped to ±127 (rounding edge cases; the
  /// per-row symmetric scale makes genuine saturation impossible).
  obs::Counter& quant_act_saturated;
  static InferMetrics& Get() {
    static InferMetrics m{
        obs::MetricsRegistry::Global().GetCounter("infer.runs"),
        obs::MetricsRegistry::Global().GetHistogram("infer.run_ns"),
        obs::MetricsRegistry::Global().GetCounter("infer.positions_computed"),
        obs::MetricsRegistry::Global().GetCounter("infer.positions_padded"),
        obs::MetricsRegistry::Global().GetCounter(
            "infer.quant.act_saturated")};
    return m;
  }
};

// Scalar activation formulas, kept character-identical to the lambdas in
// tensor/ops_elementwise.cc (single-rounding elementwise math is
// tier-independent, so applying them here in the GEMM epilogue cannot
// change bits).
inline float GeluF(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  float u = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}

// In-place softmax over one row, replicating the exact loop structure of
// Softmax in tensor/ops_nn.cc (max from element 0, exp/sum in ascending
// order, ScaleRow by the reciprocal).
inline void SoftmaxRow(float* row, int64_t n) {
  float mx = row[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }
  float inv = 1.0f / sum;
  simd::ScaleRow(row, inv, row, n);
}

}  // namespace

CatalogInput PlannedExecutor::Forward(const data::Batch& batch) {
  const int64_t b = batch.batch_size, t = t_;
  MISSL_CHECK(b >= 1 && b <= max_batch_)
      << "planned executor: batch size " << b << " exceeds compiled max_batch "
      << max_batch_;
  MISSL_CHECK(batch.max_len == t)
      << "planned executor: batch max_len " << batch.max_len
      << " != compiled max_len " << t;
  const int64_t n = b * t;
  MISSL_CHECK(static_cast<int64_t>(batch.merged_items.size()) == n &&
              static_cast<int64_t>(batch.merged_behaviors.size()) == n)
      << "planned executor: merged stream size mismatch";

  // Masked id streams, exactly as MisslModel::Encode derives them:
  // effective items (aux-ablation hides non-target events), behaviors and
  // recency buckets nulled wherever the effective item is padding.
  const int32_t* mi = batch.merged_items.data();
  const int32_t* mb = batch.merged_behaviors.data();
  const int32_t target = num_behaviors_ - 1;
  for (int64_t i = 0; i < n; ++i) {
    int32_t id = mi[i];
    if (!cfg_.use_aux_behaviors && mb[i] != target) id = -1;
    items_[static_cast<size_t>(i)] = id;
    behs_[static_cast<size_t>(i)] = id < 0 ? -1 : mb[i];
  }
  if (cfg_.use_recency) {
    MISSL_CHECK(static_cast<int64_t>(batch.merged_recency.size()) == n)
        << "planned executor: merged_recency size mismatch";
    for (int64_t i = 0; i < n; ++i) {
      rec_[static_cast<size_t>(i)] =
          items_[static_cast<size_t>(i)] < 0 ? -1 : batch.merged_recency[i];
    }
  }
  orig_behs_ = mb;
  // Each row's first effective position s_b: positional ops compute only
  // [s_b, t). A row with no effective event keeps s_b = 0, the full row.
  for (int64_t bb = 0; bb < b; ++bb) {
    const int32_t* it = items_.data() + bb * t;
    int64_t s = 0;
    while (s < t && it[s] < 0) ++s;
    if (s == t) s = 0;
    start_[static_cast<size_t>(bb)] = s;
    real_off_[static_cast<size_t>(bb + 1)] =
        real_off_[static_cast<size_t>(bb)] + (t - s);
  }
  if (obs::MetricsEnabled()) {
    InferMetrics& m = InferMetrics::Get();
    m.positions_computed.Add(real_off_[static_cast<size_t>(b)]);
    m.positions_padded.Add(n - real_off_[static_cast<size_t>(b)]);
  }
  // The arena grows to the largest batch seen and is then reused as is, so
  // steady-state runs never allocate.
  if (arena_.size() < b * row_floats_) arena_.assign(b * row_floats_, 0.0f);
  run_b_ = b;

  // The catalog op is always last (compile.cc): everything before it is
  // the encoder forward.
  for (size_t i = 0; i + 1 < ops_.size(); ++i) Execute(ops_[i], b);
  return PrepareCatalogInput(ops_.back(), b);
}

const float* PlannedExecutor::Run(const data::Batch& batch) {
  obs::TraceSpan span("infer.run", "infer");
  const int64_t t0 = obs::NowNanos();
  const CatalogInput in = Forward(batch);
  if (scores_.empty()) scores_.assign(max_batch_ * num_items_, 0.0f);
  catalog_.Score(in, scores_.data());
  InferMetrics& m = InferMetrics::Get();
  m.runs.Add(1);
  m.run_ns.Observe(obs::NowNanos() - t0);
  return scores_.data();
}

void PlannedExecutor::RunTopK(const data::Batch& batch,
                              const RankRequest* requests,
                              core::TopKList* out) {
  obs::TraceSpan span("infer.run", "infer");
  const int64_t t0 = obs::NowNanos();
  catalog_.TopK(Forward(batch), requests, out);
  InferMetrics& m = InferMetrics::Get();
  m.runs.Add(1);
  m.run_ns.Observe(obs::NowNanos() - t0);
}

void PlannedExecutor::FillScratchForTesting(float value) {
  arena_.assign(max_batch_ * row_floats_, value);
}

template <typename Fn>
void PlannedExecutor::ForRows(const Op& op, bool positional, int64_t b,
                              int64_t cost, float* dst, int64_t width,
                              const Fn& fn) {
  if (!positional) {
    runtime::ParallelFor(0, b * op.rows_per_b, runtime::GrainForCost(cost),
                         fn);
    return;
  }
  // Chunks split the compact index of real rows, so threads share the real
  // work; real_off_ is strictly increasing (every row has >= 1 real row).
  const int64_t t = t_;
  const int64_t* off = real_off_.data();
  runtime::ParallelFor(
      0, off[b], runtime::GrainForCost(cost), [&](int64_t c0, int64_t c1) {
        int64_t bb = std::upper_bound(off, off + b + 1, c0) - off - 1;
        while (c0 < c1) {
          const int64_t s = start_[static_cast<size_t>(bb)];
          if (c0 == off[bb]) {
            std::fill(dst + bb * t * width, dst + (bb * t + s) * width, 0.0f);
          }
          const int64_t end = std::min(c1, off[bb + 1]);
          const int64_t shift = bb * t + s - off[bb];
          fn(c0 + shift, end + shift);
          c0 = end;
          ++bb;
        }
      });
}

void PlannedExecutor::Execute(const Op& op, int64_t b) {
  switch (op.kind) {
    case OpKind::kEmbedSum: return ExecEmbedSum(op, b);
    case OpKind::kBuildIncidence: return ExecBuildIncidence(op, b);
    case OpKind::kLinear: return ExecLinear(op, b);
    case OpKind::kMaskedNormalize: return ExecMaskedNormalize(op, b);
    case OpKind::kBatchedGemm: return ExecBatchedGemm(op, b);
    case OpKind::kAttention: return ExecAttention(op, b);
    case OpKind::kResidualLayerNorm: return ExecResidualLayerNorm(op, b);
    case OpKind::kInterestExtract: return ExecInterestExtract(op, b);
    case OpKind::kAuxMean: return ExecAuxMean(op, b);
    case OpKind::kGatedFuse: return ExecGatedFuse(op, b);
    case OpKind::kCommonPool: return ExecCommonPool(op, b);
    case OpKind::kBroadcastAddRow: return ExecBroadcastAddRow(op, b);
    case OpKind::kCatalogScore:
      break;  // the catalog stage is Run/RunTopK's, never Execute's
  }
  MISSL_CHECK(false) << "planned executor: op kind not executable here";
}

// (item + position) + behavior (+ recency) lookups summed per position.
// Invalid ids contribute a zero row, and the adds are performed literally
// even then — x + 0.0f normalizes -0.0f to +0.0f exactly like the chain of
// EmbeddingLookup + Add ops does in Encode.
void PlannedExecutor::ExecEmbedSum(const Op& op, int64_t b) {
  const int64_t t = op.t, d = op.in;
  float* dst = BufPtr(op.dst);
  const int32_t* items = items_.data();
  const int32_t* behs = behs_.data();
  const int32_t* rec = cfg_.use_recency ? rec_.data() : nullptr;
  ForRows(
      op, op.positional, b, 4 * d, dst, d, [&](int64_t r0, int64_t r1) {
        for (int64_t idx = r0; idx < r1; ++idx) {
          const int64_t i = idx % t;
          const int32_t id = items[idx];
          const int32_t bh = behs[idx];
          const float* it =
              id >= 0 ? op.w + static_cast<int64_t>(id) * d : nullptr;
          const float* ps = id >= 0 ? op.w2 + i * d : nullptr;
          const float* bw =
              bh >= 0 ? op.w3 + static_cast<int64_t>(bh) * d : nullptr;
          const float* rw = nullptr;
          if (op.bias != nullptr && rec[idx] >= 0) {
            rw = op.bias + static_cast<int64_t>(rec[idx]) * d;
          }
          float* o = dst + idx * d;
          for (int64_t j = 0; j < d; ++j) {
            float v = (it ? it[j] : 0.0f) + (ps ? ps[j] : 0.0f);
            v = v + (bw ? bw[j] : 0.0f);
            if (op.bias != nullptr) v = v + (rw ? rw[j] : 0.0f);
            o[j] = v;
          }
        }
      });
}

void PlannedExecutor::ExecBuildIncidence(const Op& op, int64_t b) {
  const int64_t t = op.t, e = op.e;
  float* dst = BufPtr(op.dst);
  runtime::ParallelFor(0, b, 1, [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      float* pr = dst + row * e * t;
      std::fill(pr, pr + e * t, 0.0f);
      hypergraph::FillIncidenceRow(items_.data() + row * t,
                                   behs_.data() + row * t, t, num_behaviors_,
                                   cfg_.hg, pr);
    }
  });
}

// GEMM with the bias add and activation fused into the epilogue of each
// row chunk. MatMul zero-initializes its output and accumulates with
// GemmRows; doing the fill + GemmRows + AddRow + scalar activation per
// chunk touches each output row once while leaving every rounded operation
// identical to the MatMul / Add / Tanh / Gelu op chain.
void PlannedExecutor::ExecLinear(const Op& op, int64_t b) {
  const float* src = BufPtr(op.src);
  float* dst = BufPtr(op.dst);
  const int64_t in = op.in, out = op.out;
  ForRows(
      op, op.positional, b, 2 * in * out, dst, out,
      [&](int64_t r0, int64_t r1) {
        std::fill(dst + r0 * out, dst + r1 * out, 0.0f);
        simd::GemmRows(src, op.w, dst, in, out, r0, r1);
        for (int64_t r = r0; r < r1; ++r) {
          float* y = dst + r * out;
          if (op.bias != nullptr) simd::AddRow(y, op.bias, y, out);
          switch (op.act) {
            case Activation::kNone:
              break;
            case Activation::kTanh:
              for (int64_t j = 0; j < out; ++j) y[j] = std::tanh(y[j]);
              break;
            case Activation::kGelu:
              for (int64_t j = 0; j < out; ++j) y[j] = GeluF(y[j]);
              break;
          }
        }
      });
}

// The HGAT masked normalizer: exp(clamp(scores)) * mask, row-normalized
// with the +1e-9 guard (hgat.cc MaskedNormalize). The per-column exp is
// computed once per (batch, column) into the scratch row and reused by
// every output row — the training path evaluates exp on the same value
// once per cell, with an identical result (the broadcast Add(scores, Zeros)
// it goes through only flips -0 to +0, which exp cannot distinguish).
void PlannedExecutor::ExecMaskedNormalize(const Op& op, int64_t b) {
  const int64_t rows = op.rows_per_b, cols = op.out, t = op.t;
  const float* scores = BufPtr(op.src);
  const float* mask = BufPtr(op.src2);
  const int64_t mask_per_b = bufs_[static_cast<size_t>(op.src2)].per_b;
  float* ex = BufPtr(op.scratch);
  float* dst = BufPtr(op.dst);
  // Node pass (flag): rows are positions. Edge pass: columns are.
  const bool pos_rows = op.positional && op.flag;
  const bool pos_cols = op.positional && !op.flag;
  const int64_t* start = start_.data();
  runtime::ParallelFor(0, b * cols, runtime::GrainForCost(8),
                       [&](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           if (pos_cols && i % cols < start[i / cols]) continue;
                           float x = scores[i];
                           x = x < -10.0f ? -10.0f : (x > 10.0f ? 10.0f : x);
                           ex[i] = std::exp(x);
                         }
                       });
  ForRows(
      op, pos_rows, b, 4 * cols, dst, cols, [&](int64_t r0, int64_t r1) {
        for (int64_t rr = r0; rr < r1; ++rr) {
          const int64_t bb = rr / rows, r = rr % rows;
          const float* exb = ex + bb * cols;
          const float* mk = mask + bb * mask_per_b;
          float* o = dst + rr * cols;
          // A padded column's weight is exp(.) * 0 = +0, and +0 / denom is
          // +0: writing it directly leaves every bit as it was.
          const int64_t c0 = pos_cols ? start[bb] : 0;
          std::fill(o, o + c0, 0.0f);
          float denom = 0.0f;
          for (int64_t c = c0; c < cols; ++c) {
            // Literal multiply by the 0/1 mask (not a branch): x * 0.0f
            // keeps the sign semantics of the training-mode Mul.
            const float m = op.flag ? mk[c * t + r] : mk[r * cols + c];
            const float w = exb[c] * m;
            o[c] = w;
            denom += w;
          }
          denom = denom + 1e-9f;
          for (int64_t c = c0; c < cols; ++c) o[c] = o[c] / denom;
        }
      });
}

// Rank-3 batched matmul, replicating MatMul's slab-split row partition.
void PlannedExecutor::ExecBatchedGemm(const Op& op, int64_t b) {
  const int64_t m = op.rows_per_b, k = op.in, nn = op.out;
  const float* a = BufPtr(op.src);
  const float* bb = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  ForRows(
      op, op.positional, b, 2 * k * nn, dst, nn, [&](int64_t r0, int64_t r1) {
        std::fill(dst + r0 * nn, dst + r1 * nn, 0.0f);
        int64_t r = r0;
        while (r < r1) {
          const int64_t s = r / m;
          const int64_t end = std::min((s + 1) * m, r1);
          simd::GemmRows(a + s * m * k, bb + s * k * nn, dst + s * m * nn, k,
                         nn, r - s * m, end - s * m);
          r = end;
        }
      });
}

// The fused attention core: per-(batch, head) slab packs the head slices,
// runs scores = (q k^T) * scale + pad-mask, softmax, probs x v, and
// scatters the head output into the concat layout — one op instead of the
// Slice / Transpose / MatMul / MulScalar / Add / Softmax / MatMul / Concat
// chain. The packs are pure data movement; the arithmetic per element is
// the training chain verbatim (mask adds are executed literally even when
// the addend is 0.0f). Only the L x L block of real positions is computed,
// L = t - s_b: a padded key's probability is exactly +0 and comes first in
// every ascending sum, so dropping it changes no bit of a real row.
void PlannedExecutor::ExecAttention(const Op& op, int64_t b) {
  const int64_t t = op.t, heads = op.heads, dh = op.dh, d = d_;
  const float* q = BufPtr(op.src);
  const float* k = BufPtr(op.src2);
  const float* v = BufPtr(op.src3);
  float* dst = BufPtr(op.dst);
  float* scratch = BufPtr(op.scratch);
  const int64_t slab = 4 * t * dh + t * t;
  runtime::ParallelFor(0, b * heads, 1, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      const int64_t bb = s / heads, h = s % heads;
      const int64_t p0 = Start(op, bb), n = t - p0;
      float* qp = scratch + s * slab;   // [n, dh]
      float* kt = qp + n * dh;          // [dh, n]
      float* vp = kt + dh * n;          // [n, dh]
      float* sc = vp + n * dh;          // [n, n]
      float* out = sc + n * n;          // [n, dh]
      const int64_t row0 = bb * t + p0;  // first real position's row
      for (int64_t i = 0; i < n; ++i) {
        const float* base = q + (row0 + i) * d + h * dh;
        std::memcpy(qp + i * dh, base, static_cast<size_t>(dh) * sizeof(float));
      }
      for (int64_t i = 0; i < n; ++i) {
        const float* kr = k + (row0 + i) * d + h * dh;
        for (int64_t c = 0; c < dh; ++c) kt[c * n + i] = kr[c];
      }
      for (int64_t i = 0; i < n; ++i) {
        const float* base = v + (row0 + i) * d + h * dh;
        std::memcpy(vp + i * dh, base, static_cast<size_t>(dh) * sizeof(float));
      }
      std::fill(sc, sc + n * n, 0.0f);
      simd::GemmRows(qp, kt, sc, dh, n, 0, n);
      const int32_t* it = items_.data() + row0;
      for (int64_t i = 0; i < n; ++i) {
        float* row = sc + i * n;
        simd::ScaleRow(row, op.scale, row, n);
        for (int64_t j = 0; j < n; ++j) {
          row[j] = row[j] + (it[j] < 0 ? -1e9f : 0.0f);
        }
        SoftmaxRow(row, n);
      }
      std::fill(out, out + n * dh, 0.0f);
      simd::GemmRows(sc, vp, out, n, dh, 0, n);
      for (int64_t i = 0; i < t; ++i) {
        float* o = dst + (bb * t + i) * d + h * dh;
        if (i < p0) {
          std::fill(o, o + dh, 0.0f);
        } else {
          std::memcpy(o, out + (i - p0) * dh,
                      static_cast<size_t>(dh) * sizeof(float));
        }
      }
    }
  });
}

// Residual add fused into the layer-norm pass: per row, sum = x + a
// (AddRow, the same kernel the Add op uses), then exactly the LayerNorm
// loop of tensor/ops_nn.cc.
void PlannedExecutor::ExecResidualLayerNorm(const Op& op, int64_t b) {
  const int64_t d = op.in;
  const float* x = BufPtr(op.src);
  const float* a = BufPtr(op.src2);
  float* sum = BufPtr(op.scratch);
  float* xh = BufPtr(op.scratch2);
  float* dst = BufPtr(op.dst);
  const float eps = op.scale;
  ForRows(
      op, op.positional, b, 6 * d, dst, d, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          float* s = sum + r * d;
          simd::AddRow(x + r * d, a + r * d, s, d);
          float mu = 0.0f;
          for (int64_t i = 0; i < d; ++i) mu += s[i];
          mu /= static_cast<float>(d);
          float var = 0.0f;
          for (int64_t i = 0; i < d; ++i) {
            const float c = s[i] - mu;
            var += c * c;
          }
          var /= static_cast<float>(d);
          const float is = 1.0f / std::sqrt(var + eps);
          simd::LayerNormAffineRow(s, mu, is, op.w, op.b2, xh + r * d,
                                   dst + r * d, d);
        }
      });
}

// Per-behavior interest pooling: scores = keys x q^T (plan-constant
// transposed query block), transposed, channel-masked, softmaxed, applied
// to the encoded states, and zeroed via the literal 0/1 indicator multiply
// when the row has no event of this channel. Scores, softmax and pooling
// run over the real positions [s_b, t) only. With a member event that is
// exact (the attention argument); without one the result is o * 0, whose
// sign of zero no score can observe (docs/INFERENCE.md).
void PlannedExecutor::ExecInterestExtract(const Op& op, int64_t b) {
  const int64_t t = op.t, K = op.k, d = op.in;
  const float* keys = BufPtr(op.src);
  const float* enc = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  float* scratch = BufPtr(op.scratch);
  const int64_t slab = 2 * t * K;
  const int32_t* all_items = items_.data();
  const int32_t* all_behs = orig_behs_;
  runtime::ParallelFor(0, b, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bb = b0; bb < b1; ++bb) {
      const int64_t p0 = Start(op, bb), n = t - p0;
      const int64_t row0 = bb * t + p0;  // first real position's row
      float* stk = scratch + bb * slab;  // [n, K]
      float* skt = stk + n * K;          // [K, n]
      std::fill(stk, stk + n * K, 0.0f);
      simd::GemmRows(keys + row0 * d, op.w, stk, d, K, 0, n);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t kk = 0; kk < K; ++kk) skt[kk * n + i] = stk[i * K + kk];
      }
      // Membership mask uses the ORIGINAL behavior tags with the effective
      // items, exactly as ExtractInterests builds it.
      const int32_t* it = all_items + row0;
      const int32_t* bh = all_behs + row0;
      bool any = false;
      for (int64_t j = 0; j < n; ++j) {
        any |= (it[j] >= 0 && bh[j] == op.behavior);
      }
      for (int64_t kk = 0; kk < K; ++kk) {
        float* row = skt + kk * n;
        for (int64_t j = 0; j < n; ++j) {
          const bool member = it[j] >= 0 && bh[j] == op.behavior;
          row[j] = row[j] + (member ? 0.0f : -1e9f);
        }
        SoftmaxRow(row, n);
      }
      float* o = dst + bb * K * d;
      std::fill(o, o + K * d, 0.0f);
      simd::GemmRows(skt, enc + row0 * d, o, n, d, 0, K);
      const float ind = any ? 1.0f : 0.0f;
      for (int64_t i = 0; i < K * d; ++i) o[i] = o[i] * ind;
    }
  });
}

// Mean of the auxiliary interest views: the same left-associative pairwise
// Add chain as UserInterests, then the 1/n scale.
void PlannedExecutor::ExecAuxMean(const Op& op, int64_t b) {
  float* dst = BufPtr(op.dst);
  const int64_t total = b * op.rows_per_b * op.in;
  const size_t ns = op.srcs.size();
  const float* first = BufPtr(op.srcs[0]);
  runtime::ParallelFor(
      0, total, runtime::GrainForCost(static_cast<int64_t>(ns)),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          float acc = first[i];
          for (size_t s = 1; s < ns; ++s) acc = acc + BufPtr(op.srcs[s])[i];
          dst[i] = acc * op.scale;
        }
      });
}

// fused = v_tgt + aux_proj * sigmoid(gate); the gate is a plan constant.
void PlannedExecutor::ExecGatedFuse(const Op& op, int64_t b) {
  const float* x = BufPtr(op.src);
  const float* a = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  const float g = op.scale;
  runtime::ParallelFor(0, b * op.rows_per_b * op.in, runtime::GrainForCost(2),
                       [&](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           dst[i] = x[i] + a[i] * g;
                         }
                       });
}

// Common interest: masked mean over every visible position plus the last
// position's state, replicating MaskedMeanPool (mask-multiply then
// ascending-t accumulation from 0.0f, count + 1e-9 guard) and LastPosition.
// Both sums start at s_b: each skipped term added +0 (or h * 0 = ±0) to a
// +0 accumulator, which leaves it +0. The last position is real whenever
// s_b > 0.
void PlannedExecutor::ExecCommonPool(const Op& op, int64_t b) {
  const int64_t t = op.t, d = op.in;
  const float* h = BufPtr(op.src);
  float* dst = BufPtr(op.dst);
  const int32_t* all_items = items_.data();
  runtime::ParallelFor(0, b, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bb = b0; bb < b1; ++bb) {
      const int64_t p0 = Start(op, bb);
      const int32_t* it = all_items + bb * t;
      float count = 0.0f;
      for (int64_t i = p0; i < t; ++i) count += (it[i] >= 0 ? 1.0f : 0.0f);
      count = count + 1e-9f;
      const float* hb = h + bb * t * d;
      const float* last = hb + (t - 1) * d;
      float* o = dst + bb * d;
      for (int64_t j = 0; j < d; ++j) {
        float acc = 0.0f;
        for (int64_t i = p0; i < t; ++i) {
          acc += hb[i * d + j] * (it[i] >= 0 ? 1.0f : 0.0f);
        }
        o[j] = acc / count + last[j];
      }
    }
  });
}

// Adds the [d] common-interest row to each of the K interest rows.
void PlannedExecutor::ExecBroadcastAddRow(const Op& op, int64_t b) {
  const int64_t K = op.k, d = op.in;
  const float* x = BufPtr(op.src);
  const float* add = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  runtime::ParallelFor(0, b * K, runtime::GrainForCost(d),
                       [&](int64_t r0, int64_t r1) {
                         for (int64_t r = r0; r < r1; ++r) {
                           simd::AddRow(x + r * d, add + (r / K) * d,
                                        dst + r * d, d);
                         }
                       });
}

// The catalog stage's input: the fused interests as they are (max
// routing), or their mean (ascending-K sum from 0.0f then the 1/K scale, as
// Mean) — quantized per row per run for the int8 catalog. The int8
// quantization and dequant epilogue are scalar single-rounded formulas and
// the integer dot is order-free, so int8 scores are bitwise identical on
// every SIMD tier at every thread count (tests/quant_test.cc enforces it).
CatalogInput PlannedExecutor::PrepareCatalogInput(const Op& op, int64_t b) {
  const int64_t K = op.k, d = op.in;
  const float* ints = BufPtr(op.src);
  CatalogInput in;
  in.batch = b;
  in.group = K;
  in.max_routing = !op.flag;
  in.rows = ints;
  if (op.flag) {  // mean routing
    float* mean = BufPtr(op.scratch);
    runtime::ParallelFor(0, b, 1, [&](int64_t b0, int64_t b1) {
      for (int64_t bb = b0; bb < b1; ++bb) {
        float* mrow = mean + bb * d;
        for (int64_t j = 0; j < d; ++j) {
          float acc = 0.0f;
          for (int64_t kk = 0; kk < K; ++kk) acc += ints[(bb * K + kk) * d + j];
          mrow[j] = acc * (1.0f / static_cast<float>(K));
        }
      }
    });
    in.group = 1;
    in.rows = mean;
  }
  if (catalog_.quantized()) {
    // Activation quantization stays serial: at most max_batch * K short
    // rows, and a single scan keeps the saturation count free of atomics.
    quant::RowQuantStats st;
    quant::QuantizeRowsSymmetric(in.rows, b * in.group, d, act_q_.data(),
                                 act_scale_.data(), &st);
    if (st.saturated > 0 && obs::MetricsEnabled()) {
      InferMetrics::Get().quant_act_saturated.Add(st.saturated);
    }
    in.rows = nullptr;
    in.codes = act_q_.data();
    in.code_scales = act_scale_.data();
  }
  return in;
}

}  // namespace missl::infer
