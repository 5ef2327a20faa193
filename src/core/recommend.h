// Top-N recommendation API on top of any SeqRecModel: full-catalog scoring
// with seen-item exclusion, plus beyond-accuracy list metrics (coverage,
// intra-list diversity, popularity bias) used in recommendation audits.
#ifndef MISSL_CORE_RECOMMEND_H_
#define MISSL_CORE_RECOMMEND_H_

#include <vector>

#include "core/model.h"
#include "data/dataset.h"

namespace missl::core {

/// One recommendation list.
struct Recommendation {
  int32_t user = 0;
  std::vector<int32_t> items;   ///< top-N, best first
  std::vector<float> scores;    ///< parallel to items
};

/// Scores the full catalog [0, num_items) for every example in `batch` and
/// returns the top-N unseen items per row, ranked by the total order of
/// core/topk.h (score descending, then id ascending, NaN last). `seen`
/// gives, per row, the item set to exclude, in any order. Pass an empty
/// outer vector to disable exclusion.
std::vector<Recommendation> RecommendTopN(
    SeqRecModel* model, const data::Batch& batch,
    const std::vector<std::vector<int32_t>>& seen, int32_t n,
    int32_t num_items);

/// Selects the top-k items of one score row under the total order of
/// core/topk.h, skipping ids found in `seen` (any order, duplicates allowed;
/// nullptr disables exclusion). Writes best-first into
/// `out_items`/`out_scores` (cleared first) — min(k, eligible items)
/// entries. A bounded k-heap: O(k) memory, not O(num_items). This is the
/// offline reference the serving path (the planned executor's fused catalog
/// stage) must match bitwise.
void TopKRow(const float* scores, int32_t num_items,
             const std::vector<int32_t>* seen, int32_t k,
             std::vector<int32_t>* out_items, std::vector<float>* out_scores);

/// Beyond-accuracy statistics of a set of recommendation lists.
struct ListStats {
  double item_coverage = 0;    ///< distinct recommended items / catalog size
  double mean_intra_list_distance = 0;  ///< 1 - mean pairwise cosine (needs emb)
  double mean_popularity = 0;  ///< mean log-popularity of recommended items
};

/// Computes list statistics. `item_embedding` ([V, d]) may be undefined, in
/// which case intra-list distance is reported as 0. `popularity` is a per-
/// item count vector (raw counts; log1p applied internally); may be empty.
ListStats ComputeListStats(const std::vector<Recommendation>& recs,
                           int32_t num_items, const Tensor& item_embedding,
                           const std::vector<int64_t>& popularity);

}  // namespace missl::core

#endif  // MISSL_CORE_RECOMMEND_H_
