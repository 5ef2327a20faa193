// Top-K selection under a total order, shared by every ranking path:
// core::TopKRow / RecommendTopN (offline) and the planned executor's fused
// catalog stage (src/infer/catalog.h, online serving).
//
// The order: score descending, then item id ascending; NaN ranks below every
// number (including -Inf), and NaNs order among themselves by id. Item ids
// are unique, so this is a strict total order — any selection algorithm, any
// partition of the catalog across threads and any merge order of partial
// results yields the same list. That is what lets the serving path split the
// catalog stream across threads and still return exactly the offline list.
#ifndef MISSL_CORE_TOPK_H_
#define MISSL_CORE_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace missl::core {

/// One candidate: an item and its score.
struct ScoredItem {
  float score;
  int32_t id;
};

/// True when `a` ranks strictly above `b` in the total order.
inline bool RanksAbove(const ScoredItem& a, const ScoredItem& b) {
  if (a.score > b.score) return true;
  if (a.score < b.score) return false;
  // Equal scores, or at least one NaN: a number beats NaN, ids break ties.
  const bool a_nan = a.score != a.score;
  const bool b_nan = b.score != b.score;
  if (a_nan != b_nan) return b_nan;
  return a.id < b.id;
}

/// One ranked list, best first.
struct TopKList {
  std::vector<int32_t> items;
  std::vector<float> scores;
};

/// Bounded k-heap over caller-owned slots: keeps the `cap` best candidates
/// offered so far, with the worst kept one at the root so a candidate that
/// cannot enter costs one comparison. Memory is O(cap), never O(catalog).
class TopKHeap {
 public:
  /// Starts an empty heap over `slots` (at least `cap` entries). Ids in
  /// [exclude, exclude_end) — sorted ascending, duplicates allowed — are
  /// never admitted by Offer; the exclusion list is merge-walked forward,
  /// so successive Offer calls must present ascending ids.
  void Reset(ScoredItem* slots, int64_t cap, const int32_t* exclude,
             const int32_t* exclude_end) {
    slots_ = slots;
    cap_ = cap;
    size_ = 0;
    ex_ = exclude;
    ex_end_ = exclude_end;
  }

  /// Offers items first .. first+n-1 with scores[0 .. n).
  void Offer(const float* scores, int32_t first, int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      const ScoredItem c{scores[i], first + static_cast<int32_t>(i)};
      if (size_ == cap_ && !RanksAbove(c, slots_[0])) continue;
      // Only candidates that would enter advance the exclusion cursor.
      while (ex_ != ex_end_ && *ex_ < c.id) ++ex_;
      if (ex_ != ex_end_ && *ex_ == c.id) continue;
      Push(c);
    }
  }

  /// Pushes every candidate this heap holds into `dst` (no exclusion
  /// check: they were filtered when offered here).
  void MergeInto(TopKHeap* dst) const {
    for (int64_t i = 0; i < size_; ++i) dst->Push(slots_[i]);
  }

  /// Sorts the kept candidates best first and writes them out (cleared
  /// first). The heap is spent afterwards.
  void Finish(std::vector<int32_t>* items, std::vector<float>* scores) {
    std::sort_heap(slots_, slots_ + size_, RanksAbove);
    items->clear();
    scores->clear();
    for (int64_t i = 0; i < size_; ++i) {
      items->push_back(slots_[i].id);
      scores->push_back(slots_[i].score);
    }
  }

 private:
  /// Admits `c` if the heap has room or `c` ranks above the worst kept
  /// candidate.
  void Push(const ScoredItem& c) {
    if (size_ < cap_) {
      slots_[size_++] = c;
      std::push_heap(slots_, slots_ + size_, RanksAbove);
    } else if (RanksAbove(c, slots_[0])) {
      std::pop_heap(slots_, slots_ + size_, RanksAbove);
      slots_[size_ - 1] = c;
      std::push_heap(slots_, slots_ + size_, RanksAbove);
    }
  }

  ScoredItem* slots_ = nullptr;
  int64_t cap_ = 0;
  int64_t size_ = 0;
  const int32_t* ex_ = nullptr;
  const int32_t* ex_end_ = nullptr;
};

}  // namespace missl::core

#endif  // MISSL_CORE_TOPK_H_
