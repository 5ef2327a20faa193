// Inference-only planned executor (see docs/INFERENCE.md).
//
// The serving hot path never backpropagates, yet it used to run the
// training-mode forward: every intermediate materialized as an
// autograd-capable Tensor, with shape derivation, graph bookkeeping and a
// fresh round of allocator traffic on every coalesced batch.
// PlannedExecutor removes all of that. Compile() walks a frozen
// core::MisslModel ONCE and captures its serving forward
//
//   embed-sum -> hypergraph attention -> transformer encoder
//     -> per-behavior K-interest extraction -> gated fusion (+ common
//        interest) -> catalog scoring
//
// into a static sequence of Op records over a fixed buffer table. Every
// shape, arena offset, fused weight pointer and plan-time constant (the
// transposed interest-query blocks, the sigmoid of the fusion gate) is
// resolved at compile time for a fixed geometry (max_batch, model max_len);
// Run() / RunTopK() then execute the list with zero Tensor construction,
// zero autograd nodes and zero steady-state allocations — all intermediates
// live in one pool-backed scratch arena whose offsets Compile assigns by
// buffer liveness (committed only up to the largest batch run so far), and
// the catalog is streamed once per batch from 32-item panels by the fused
// catalog stage (infer/catalog.h). Ops marked `positional` compute only
// each row's real positions, from its first effective event on, and write
// the leading padded positions as zeros (padding-free; the skipped work is
// provably bit-neutral).
//
// The bitwise contract: Run() produces scores bitwise identical to
// MisslModel::ScoreAllItems on the same batch, on every SIMD tier at every
// thread count. Fusions (bias+activation in the GEMM epilogue,
// residual-add folded into layer-norm, the additive mask folded into the
// softmax pass, the exp/clamp of the hypergraph normalizer computed once
// per column instead of once per cell) only ever reorganize WHICH pass
// computes a value — each output element's chain of rounded float
// operations is kept instruction-for-instruction identical to the
// training-mode ops (tensor/ops_*.cc), which is what makes the training
// forward usable as the oracle in tests/infer_test.cc. See
// docs/INFERENCE.md for the full rule set.
#ifndef MISSL_INFER_PLAN_H_
#define MISSL_INFER_PLAN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/missl.h"
#include "core/topk.h"
#include "data/batch.h"
#include "infer/catalog.h"
#include "tensor/alloc.h"
#include "tensor/tensor.h"
#include "utils/status.h"

namespace missl::infer {

/// Op kinds of the static plan. Each op reads/writes whole buffers from the
/// plan's buffer table; the per-kind field conventions are documented on Op.
enum class OpKind : int {
  kEmbedSum = 0,        ///< fused item+position+behavior(+recency) gather-sum
  kBuildIncidence,      ///< dense 0/1 hypergraph incidence from the int ids
  kLinear,              ///< dst = act(src x w + bias), GEMM with fused epilogue
  kMaskedNormalize,     ///< hypergraph attention row-normalizer (exp/clamp/mask)
  kBatchedGemm,         ///< dst[s] = a[s] x b[s] per batch slab
  kAttention,           ///< fused per-(batch, head) scaled-dot attention core
  kResidualLayerNorm,   ///< dst = LN(src + src2) with fused residual add
  kInterestExtract,     ///< per-behavior K-interest attention pooling
  kAuxMean,             ///< dst = mean over srcs (left-to-right add chain)
  kGatedFuse,           ///< dst = src + src2 * scale (sigmoid gate folded in)
  kCommonPool,          ///< masked mean pool + last position (common interest)
  kBroadcastAddRow,     ///< dst[b,k,:] = src[b,k,:] + src2[b,:]
  kCatalogScore,        ///< always last: prepares the catalog stage's input
                        ///< (interest mean, int8 quantization), then the
                        ///< fused panel stream scores or ranks the catalog
};

/// Fused activation epilogues applied per element after the bias add of a
/// kLinear op, with exactly the scalar formulas of tensor/ops_elementwise.cc.
enum class Activation : int { kNone = 0, kTanh, kGelu };

/// One entry of the plan's buffer table. Buffers are float regions inside
/// the single scratch arena; a run of b rows places each at b * offset with
/// b * per_b floats. Two buffers share arena bytes only if no op sees both
/// live: `first_op` / `last_op` bound the ops that read or write the buffer.
struct BufferSpec {
  int64_t offset = 0;   ///< arena offset in floats per batch row: a run of
                        ///< b rows finds the buffer at b * offset
  int64_t per_b = 0;    ///< floats per batch row
  int32_t first_op = -1, last_op = -1;  ///< live range (op indices)
  std::string label;    ///< for ToString / debugging
};

/// One op of the static plan. Field conventions by kind:
///   kEmbedSum:         w/w2/w3 = item/position/behavior tables, bias =
///                      recency table (null unless use_recency); in = dim.
///   kBuildIncidence:   t/e = sequence length / edges; dst = incidence.
///   kLinear:           src [rows_per_b, in] x w [in, out] + bias, act.
///   kMaskedNormalize:  src = per-column scores, src2 = incidence mask,
///                      scratch = exp row cache; rows_per_b x out cells;
///                      flag = read the mask transposed (node gather pass).
///   kBatchedGemm:      src [rows_per_b, in] x src2 [in, out] per batch.
///   kAttention:        src/src2/src3 = q/k/v, dst = head-concat layout,
///                      scratch = per-(batch, head) packing slabs; scale =
///                      1/sqrt(dh).
///   kResidualLayerNorm: w/b2 = gamma/beta, scale = eps, scratch/scratch2 =
///                      residual-sum and xhat rows.
///   kInterestExtract:  src = keys, src2 = encoded, w = transposed query
///                      block [d, K] (plan constant), behavior = channel.
///   kAuxMean:          srcs = per-behavior interests, scale = 1/n.
///   kGatedFuse:        scale = sigmoid(fusion_gate) plan constant.
///   kCommonPool:       src = encoded, dst = [d] pooled common interest.
///   kBroadcastAddRow:  src2 = [d] row added to each of the K interest rows.
///   kCatalogScore:     src = fused interests [K, d]; flag = mean routing;
///                      scratch = interest mean ([d], mean routing only).
///                      The catalog itself (fp32 panels or int8 rows) and
///                      the int8 activation rows are executor members.
struct Op {
  OpKind kind = OpKind::kLinear;
  std::string label;
  int32_t src = -1, src2 = -1, src3 = -1;    ///< input buffer ids
  int32_t dst = -1;                          ///< output buffer id
  int32_t scratch = -1, scratch2 = -1;       ///< op-private scratch buffers
  std::vector<int32_t> srcs;                 ///< kAuxMean input list
  const float* w = nullptr;                  ///< primary weight / table
  const float* w2 = nullptr;                 ///< secondary table (positions)
  const float* w3 = nullptr;                 ///< tertiary table (behaviors)
  const float* bias = nullptr;               ///< bias / recency table
  const float* b2 = nullptr;                 ///< layer-norm beta
  Activation act = Activation::kNone;
  int64_t rows_per_b = 0;                    ///< output rows per batch row
  int64_t in = 0, out = 0;                   ///< GEMM inner/outer dims
  int64_t t = 0, e = 0;                      ///< sequence length / edge count
  int64_t heads = 0, dh = 0, k = 0;          ///< attention / interest dims
  float scale = 0.0f;                        ///< scale / eps / gate constant
  int32_t behavior = -1;                     ///< interest channel
  bool flag = false;                         ///< kind-specific switch
  /// Per-position op: it computes only each batch row's real positions
  /// [s_b, t) and writes the positions before s_b as zeros (rows of dst;
  /// for the edge pass of kMaskedNormalize, columns). docs/INFERENCE.md
  /// "Padding-free positions" proves the skipped work never changes a score.
  bool positional = false;
};

/// Compile-time options. The defaults reproduce the fp32 plan exactly.
struct InferConfig {
  /// Quantize the catalog to symmetric per-item int8 at compile time and
  /// score int32 row-dots with an fp32 dequant epilogue. The int8 path is
  /// bitwise deterministic across SIMD tiers and thread counts (integer
  /// accumulation), but its scores differ from fp32 by quantization error —
  /// accuracy is gated as a ranking-level NDCG@10/Recall@10 bound in
  /// tests/quant_test.cc, never as float equality.
  bool quantize_catalog = false;
};

/// Catalog-quantization statistics, resolved at compile time (plus the
/// running activation-side saturation count). Exposed on /statusz.
struct QuantInfo {
  bool enabled = false;
  float min_scale = 0.0f;     ///< smallest non-zero per-item scale
  float max_scale = 0.0f;     ///< largest per-item scale
  int64_t zero_rows = 0;      ///< all-zero catalog items (scale 0)
  int64_t saturated = 0;      ///< catalog codes clamped to ±127 at compile
  int64_t int8_bytes = 0;     ///< quantized catalog + scales footprint
  int64_t fp32_bytes = 0;     ///< fp32 catalog footprint, for the ratio
};

/// A frozen MisslModel forward compiled to a static op plan. Thread-safety:
/// Compile is safe anywhere; Run/RunTopK mutate the scratch arena, so at
/// most one may execute at a time (RecoService calls RunTopK from the
/// single dispatcher thread). The model parameters are kept alive by the
/// executor (shared storage) and the catalog is copied into its panels, so
/// the executor may outlive the model object and the catalog tensor.
class PlannedExecutor {
 public:
  /// Compiles the serving forward of `model` (weights must already be
  /// frozen/loaded) for batches of at most `max_batch` rows of exactly
  /// model.max_len() positions. `catalog` is the [d, V] PrecomputeCatalog
  /// matrix, or an undefined tensor to pack the catalog straight from the
  /// model's [V, d] item table (what serving does: no transposed copy is
  /// ever made). Returns nullptr with *status set on an unsupported
  /// model/catalog combination; never allocates Storage after it returns.
  static std::unique_ptr<PlannedExecutor> Compile(const core::MisslModel& model,
                                                  const Tensor& catalog,
                                                  int64_t max_batch,
                                                  Status* status);

  /// Same, with compile-time options (InferConfig::quantize_catalog selects
  /// the int8 catalog tier). The overload above is Compile(..., {} , ...).
  static std::unique_ptr<PlannedExecutor> Compile(const core::MisslModel& model,
                                                  const Tensor& catalog,
                                                  int64_t max_batch,
                                                  const InferConfig& options,
                                                  Status* status);

  /// Executes the plan on `batch` and returns the [batch_size, num_items]
  /// row-major score matrix (valid until the next Run), written from the
  /// same panel tiles RunTopK ranks. Requires batch.max_len == the compiled
  /// max_len and batch.batch_size <= max_batch. The score buffer is
  /// allocated on the first call only (serving never needs it); after that
  /// Run performs no tensor allocation — the allocator counters
  /// (tensor/alloc.h) are flat across calls, which tests/infer_test.cc
  /// enforces.
  const float* Run(const data::Batch& batch);

  /// The serving entry: executes the plan on `batch` and writes each row's
  /// top requests[i].k items (excluding requests[i].exclude) best first
  /// into out[i], for i < batch_size. Routing and ranking are fused into
  /// the catalog stream, so no [batch_size, num_items] score row is ever
  /// materialized; the lists equal core::TopKRow over Run()'s rows. Steady
  /// state allocates no Storage (bench_m1_alloc gates it).
  void RunTopK(const data::Batch& batch, const RankRequest* requests,
               core::TopKList* out);

  int64_t num_ops() const { return static_cast<int64_t>(ops_.size()); }
  int64_t num_buffers() const { return static_cast<int64_t>(bufs_.size()); }
  /// Bytes of the pooled scratch arena at max_batch rows (all intermediate
  /// buffers, packed by liveness). The arena is committed on demand: a
  /// service that only ever sees small batches holds proportionally less.
  int64_t scratch_bytes() const {
    return max_batch_ * row_floats_ * static_cast<int64_t>(sizeof(float));
  }
  int64_t max_batch() const { return max_batch_; }
  int64_t max_len() const { return t_; }
  int64_t num_items() const { return num_items_; }
  int64_t dim() const { return d_; }
  /// True when the plan scores through the int8 catalog tier.
  bool quantized() const { return qinfo_.enabled; }
  /// Catalog-quantization statistics (all zero when !quantized()).
  const QuantInfo& quant_info() const { return qinfo_; }

  /// One line per op ("[12] linear rows=20 in=32 out=64 act=gelu ..."), the
  /// human-readable plan dump used by tests and debugging.
  std::string ToString() const;

  /// Test hook: commits the arena at max_batch rows and fills every float
  /// of it with `value`. Filling NaN before a run shows that no op reads a
  /// float the run has not written (tests/infer_test.cc).
  void FillScratchForTesting(float value);

 private:
  PlannedExecutor() = default;

  // compile.cc helpers.
  int32_t NewBuffer(int64_t per_b, std::string label);
  const float* AddConstant(std::vector<float> values);
  /// Assigns arena offsets by liveness and checks the packing; returns a
  /// non-OK status if two simultaneously live buffers would overlap.
  Status PackArena();

  // execute.cc: op interpreters. Each replicates the exact float-op
  // sequence of the corresponding training-mode tensor ops.
  /// Runs every op but the catalog stage and returns that stage's input.
  CatalogInput Forward(const data::Batch& batch);
  void Execute(const Op& op, int64_t b);
  /// First computed position of batch row bb for `op`: the row's s_b when
  /// the op is positional, else 0.
  int64_t Start(const Op& op, int64_t bb) const {
    return op.positional ? start_[static_cast<size_t>(bb)] : 0;
  }
  /// ParallelFor over the rows an op computes in its [b * rows_per_b] row
  /// space: fn(r0, r1) gets absolute row ranges. With `positional` only the
  /// real rows [bb * t + s_b, (bb + 1) * t) are visited, each range inside
  /// one batch row, and the chunk holding a batch row's first real row
  /// zero-fills that row's prefix rows of `dst` (`width` floats each).
  template <typename Fn>
  void ForRows(const Op& op, bool positional, int64_t b, int64_t cost,
               float* dst, int64_t width, const Fn& fn);
  void ExecEmbedSum(const Op& op, int64_t b);
  void ExecBuildIncidence(const Op& op, int64_t b);
  void ExecLinear(const Op& op, int64_t b);
  void ExecMaskedNormalize(const Op& op, int64_t b);
  void ExecBatchedGemm(const Op& op, int64_t b);
  void ExecAttention(const Op& op, int64_t b);
  void ExecResidualLayerNorm(const Op& op, int64_t b);
  void ExecInterestExtract(const Op& op, int64_t b);
  void ExecAuxMean(const Op& op, int64_t b);
  void ExecGatedFuse(const Op& op, int64_t b);
  void ExecCommonPool(const Op& op, int64_t b);
  void ExecBroadcastAddRow(const Op& op, int64_t b);
  CatalogInput PrepareCatalogInput(const Op& op, int64_t b);

  float* BufPtr(int32_t id) {
    return arena_.data() + run_b_ * bufs_[static_cast<size_t>(id)].offset;
  }

  // Geometry, resolved at compile time.
  core::MisslConfig cfg_;
  int32_t num_behaviors_ = 0;
  int64_t num_items_ = 0;
  int64_t max_batch_ = 0;
  int64_t t_ = 0;      ///< sequence length (model max_len)
  int64_t d_ = 0;      ///< embedding dim
  int64_t k_ = 0;      ///< interests per behavior channel
  int64_t e_ = 0;      ///< hyperedges per row (0 when hypergraph off)
  int64_t heads_ = 0, dh_ = 0;

  std::vector<Op> ops_;
  std::vector<BufferSpec> bufs_;
  Storage arena_;  ///< one pooled allocation holding every buffer
  int64_t row_floats_ = 0;  ///< arena floats per batch row
  int64_t run_b_ = 0;       ///< batch rows of the current run
  Storage scores_;  ///< Run()'s [max_batch, V] output, allocated on first use

  PanelCatalog catalog_;  ///< fp32 panels or int8 rows, packed at compile
  std::deque<std::vector<float>> constants_;  ///< plan-time derived weights
  std::vector<Tensor> keepalive_;  ///< shares ownership of referenced params

  // Int8 catalog tier (InferConfig::quantize_catalog): the activation-side
  // buffers are presized at compile so runs stay allocation-free (same rule
  // as the integer id scratch below).
  QuantInfo qinfo_;
  std::vector<int8_t> act_q_;          ///< per-run quantized activation rows
  std::vector<float> act_scale_;       ///< per-run activation row scales

  // Per-run integer scratch (presized at compile; Run only overwrites).
  std::vector<int32_t> items_;  ///< effective merged items (ablation-masked)
  std::vector<int64_t> start_;  ///< per row s_b: first effective position,
                                ///< or 0 when the row has none
  std::vector<int64_t> real_off_;  ///< prefix sums of t - s_b (b + 1 used)
  std::vector<int32_t> behs_;   ///< behaviors, -1 where items_ < 0
  std::vector<int32_t> rec_;    ///< recency buckets, -1 where items_ < 0
  const int32_t* orig_behs_ = nullptr;  ///< batch.merged_behaviors during Run
};

}  // namespace missl::infer

#endif  // MISSL_INFER_PLAN_H_
