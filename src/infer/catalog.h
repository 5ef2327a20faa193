// The planned executor's catalog stage (see docs/INFERENCE.md): the item
// catalog, packed once at compile time for streaming, and the pass that
// scores a batch's interest rows against it.
//
// A multi-interest model scores item v for a user as the max (or, under mean
// routing, the dot with the mean) over the user's K interest vectors. Done as
// two passes — a [B*K, d] x [d, V] GEMM into a logits buffer, a max over K
// into a [B, V] buffer, then a top-K scan per row — the catalog and both
// buffers each cross memory once per batch, and the strided [d, V] layout
// makes every 32-column pack touch d rows that are 4V bytes apart.
//
// PanelCatalog instead packs the fp32 catalog into 32-item panels
// [d][32] (contiguous, so one panel is one short sequential read) and walks
// them once per batch. Each panel yields a [B*K, 32] tile that is routed
// (max over K, or identity for mean routing) while it is still in L1, and the
// routed 32 scores go straight to their sink: the [B, V] score matrix for
// Score(), or one bounded k-heap per batch row for TopK(). Neither the
// logits nor (for TopK) the score matrix is ever materialized.
//
// Numerics are unchanged from the unfused chain: simd::PanelGemm replays
// GemmRows' per-cell sequence, routing is the same strict-> scan from -Inf
// that Max performs, and ranking uses the total order of core/topk.h — so
// Score() is bitwise equal to ScoreAllItems and TopK() returns exactly
// core::TopKRow's list, on every SIMD tier at every thread count.
//
// The int8 tier (InferConfig::quantize_catalog) keeps the item-major
// [V, d] code rows (a 32-item panel is then 32 * d contiguous bytes) and
// computes each tile with simd::Int8DotDequantTile; routing and ranking are
// shared with fp32.
#ifndef MISSL_INFER_CATALOG_H_
#define MISSL_INFER_CATALOG_H_

#include <cstdint>
#include <vector>

#include "core/topk.h"
#include "tensor/quant.h"

namespace missl::infer {

/// One batch row's ranking request for the fused top-K path.
struct RankRequest {
  int32_t k = 10;                    ///< list length, >= 1
  const int32_t* exclude = nullptr;  ///< sorted ascending; duplicates allowed
  int64_t num_exclude = 0;
};

/// The interest activations of one batch, as the catalog stage reads them:
/// `group` activation rows of the catalog's dim per batch row.
struct CatalogInput {
  int64_t batch = 0;         ///< batch rows
  int64_t group = 1;         ///< activation rows per batch row
  bool max_routing = true;   ///< max over the group; false = identity
                             ///< (mean routing, group must be 1)
  const float* rows = nullptr;         ///< fp32 [batch*group, dim]
  const int8_t* codes = nullptr;       ///< int8 [batch*group, dim]
  const float* code_scales = nullptr;  ///< [batch*group] per-row scales
};

/// The packed catalog and its once-per-batch streaming pass (file comment).
class PanelCatalog {
 public:
  /// Packs an fp32 catalog. `src` is the [num_items, dim] item table, or the
  /// [dim, num_items] transposed table when `transposed`.
  void PackFp32(const float* src, int64_t num_items, int64_t dim,
                bool transposed);

  /// Quantizes the catalog to symmetric per-item int8 (tensor/quant.h), same
  /// source conventions as PackFp32. Returns the quantization statistics.
  quant::RowQuantStats PackInt8(const float* src, int64_t num_items,
                                int64_t dim, bool transposed);

  bool quantized() const { return !codes_.empty(); }

  /// Writes the routed [batch, num_items] score matrix. fp32 catalogs read
  /// in.rows; int8 catalogs read in.codes/in.code_scales.
  void Score(const CatalogInput& in, float* scores);

  /// The fused path: ranks each batch row's routed scores straight into a
  /// bounded k-heap and writes out[0 .. batch) best first, without ever
  /// materializing a score row. Equal to Score() followed by core::TopKRow.
  void TopK(const CatalogInput& in, const RankRequest* requests,
            core::TopKList* out);

 private:
  int64_t NumPanels() const;
  /// Panels per parallel chunk for `rows` activation rows.
  int64_t Grain(int64_t rows) const;
  /// Streams every panel once, calling sink(chunk, batch_row, first_item,
  /// n, routed) with the n <= 32 routed scores of items first_item.. .
  template <typename Sink>
  void Stream(const CatalogInput& in, int64_t grain, const Sink& sink);

  int64_t num_items_ = 0;
  int64_t dim_ = 0;
  std::vector<float> panels_;        ///< fp32: [panels][dim][32], zero-padded
  std::vector<int8_t> codes_;        ///< int8: [num_items, dim] item-major
  std::vector<float> scales_;        ///< int8: [num_items] per-item scales

  // Per-run scratch, grown on demand and then reused, so steady-state runs
  // do not allocate.
  std::vector<float> tiles_;                 ///< [chunks][rows][32]
  std::vector<core::ScoredItem> slots_;      ///< heap storage, all chunks
  std::vector<core::TopKHeap> heaps_;        ///< [chunks][batch]
};

}  // namespace missl::infer

#endif  // MISSL_INFER_CATALOG_H_
