#include "infer/catalog.h"

#include <algorithm>
#include <limits>

#include "runtime/parallel_for.h"
#include "runtime/runtime.h"
#include "tensor/simd.h"
#include "utils/check.h"

namespace missl::infer {

namespace {

constexpr int64_t kW = simd::kPanelWidth;

// out[l] = the routed score of lane l: the strict-> scan from -Inf over the
// group's rows (Max in ops_reduce.cc — NaN rows never win, an all-NaN group
// yields -Inf), or the single row itself for identity routing.
inline void Route(const float* tile, int64_t bb, int64_t group,
                  bool max_routing, int64_t n, float* out) {
  const float* rows = tile + bb * group * kW;
  if (!max_routing) {
    std::copy(rows, rows + n, out);
    return;
  }
  for (int64_t l = 0; l < n; ++l) {
    float best = -std::numeric_limits<float>::infinity();
    for (int64_t g = 0; g < group; ++g) {
      const float v = rows[g * kW + l];
      if (v > best) best = v;
    }
    out[l] = best;
  }
}

// Reads element (item v, dim j) of either source layout.
inline float At(const float* src, int64_t num_items, int64_t dim, bool tr,
                int64_t v, int64_t j) {
  return tr ? src[j * num_items + v] : src[v * dim + j];
}

}  // namespace

void PanelCatalog::PackFp32(const float* src, int64_t num_items, int64_t dim,
                            bool transposed) {
  num_items_ = num_items;
  dim_ = dim;
  codes_.clear();
  scales_.clear();
  panels_.assign(static_cast<size_t>(NumPanels() * dim * kW), 0.0f);
  // Panel by panel, so both source layouts are read within a few KB.
  for (int64_t p = 0; p < NumPanels(); ++p) {
    float* panel = panels_.data() + p * dim * kW;
    const int64_t v0 = p * kW, n = std::min(kW, num_items - v0);
    for (int64_t j = 0; j < dim; ++j) {
      for (int64_t l = 0; l < n; ++l) {
        panel[j * kW + l] = At(src, num_items, dim, transposed, v0 + l, j);
      }
    }
  }
}

quant::RowQuantStats PanelCatalog::PackInt8(const float* src,
                                            int64_t num_items, int64_t dim,
                                            bool transposed) {
  num_items_ = num_items;
  dim_ = dim;
  panels_.clear();
  std::vector<float> item_major;
  if (transposed) {
    item_major.resize(static_cast<size_t>(num_items * dim));
    for (int64_t v = 0; v < num_items; ++v) {
      for (int64_t j = 0; j < dim; ++j) {
        item_major[static_cast<size_t>(v * dim + j)] =
            At(src, num_items, dim, true, v, j);
      }
    }
    src = item_major.data();
  }
  codes_.resize(static_cast<size_t>(num_items * dim));
  scales_.resize(static_cast<size_t>(num_items));
  quant::RowQuantStats st;
  quant::QuantizeRowsSymmetric(src, num_items, dim, codes_.data(),
                               scales_.data(), &st);
  return st;
}

int64_t PanelCatalog::NumPanels() const { return (num_items_ + kW - 1) / kW; }

int64_t PanelCatalog::Grain(int64_t rows) const {
  const int64_t panels = NumPanels();
  const int64_t threads = std::max(1, runtime::NumThreads());
  return std::max(runtime::GrainForCost(2 * rows * dim_ * kW),
                  (panels + threads - 1) / threads);
}

template <typename Sink>
void PanelCatalog::Stream(const CatalogInput& in, int64_t grain,
                          const Sink& sink) {
  MISSL_CHECK(in.batch >= 1 && in.group >= 1 &&
              (in.max_routing || in.group == 1));
  MISSL_CHECK(quantized() ? in.codes != nullptr && in.code_scales != nullptr
                          : in.rows != nullptr);
  const int64_t rows = in.batch * in.group, d = dim_, V = num_items_;
  const int64_t panels = NumPanels();
  const int64_t chunks = (panels + grain - 1) / grain;
  if (static_cast<int64_t>(tiles_.size()) < chunks * rows * kW) {
    tiles_.resize(static_cast<size_t>(chunks * rows * kW));
  }
  runtime::ParallelFor(0, panels, grain, [&](int64_t p0, int64_t p1) {
    const int64_t chunk = p0 / grain;
    float* tile = tiles_.data() + chunk * rows * kW;
    float routed[kW];
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t v0 = p * kW;
      const int64_t n = std::min(kW, V - v0);
      if (quantized()) {
        simd::Int8DotDequantTile(in.codes, in.code_scales, rows,
                                 codes_.data() + v0 * d, scales_.data() + v0,
                                 tile, kW, d, 0, n);
      } else {
        const float* panel = panels_.data() + p * d * kW;
        if (p + 1 < p1) {
          // Request the next panel while this one computes out of L1.
          for (int64_t i = 0; i < d * kW; i += 16) {
            __builtin_prefetch(panel + d * kW + i);
          }
        }
        simd::PanelGemm(in.rows, rows, panel, d, tile);
      }
      for (int64_t bb = 0; bb < in.batch; ++bb) {
        Route(tile, bb, in.group, in.max_routing, n, routed);
        sink(chunk, bb, v0, n, routed);
      }
    }
  });
}

void PanelCatalog::Score(const CatalogInput& in, float* scores) {
  const int64_t V = num_items_;
  Stream(in, Grain(in.batch * in.group),
         [&](int64_t, int64_t bb, int64_t v0, int64_t n, const float* r) {
           std::copy(r, r + n, scores + bb * V + v0);
         });
}

void PanelCatalog::TopK(const CatalogInput& in, const RankRequest* requests,
                        core::TopKList* out) {
  const int64_t b = in.batch, V = num_items_;
  const int64_t grain = Grain(b * in.group);
  const int64_t chunks = (NumPanels() + grain - 1) / grain;
  // Chunk c ranks items [c * grain * 32, ...): its heaps hold at most
  // min(k, items it sees); chunk 0's hold min(k, V), since every other
  // chunk's heap merges into it.
  int64_t total = 0;
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t seen = c == 0 ? V : grain * kW;
    for (int64_t bb = 0; bb < b; ++bb) {
      MISSL_CHECK(requests[bb].k >= 1);
      total += std::min<int64_t>(requests[bb].k, seen);
    }
  }
  if (static_cast<int64_t>(slots_.size()) < total) {
    slots_.resize(static_cast<size_t>(total));
  }
  if (static_cast<int64_t>(heaps_.size()) < chunks * b) {
    heaps_.resize(static_cast<size_t>(chunks * b));
  }
  int64_t off = 0;
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t seen = c == 0 ? V : grain * kW;
    for (int64_t bb = 0; bb < b; ++bb) {
      const RankRequest& rq = requests[bb];
      const int32_t* ex_end = rq.exclude + rq.num_exclude;
      MISSL_CHECK(rq.num_exclude == 0 || std::is_sorted(rq.exclude, ex_end))
          << "RankRequest.exclude must be sorted ascending";
      const int64_t cap = std::min<int64_t>(rq.k, seen);
      // Each chunk starts its exclusion walk at its own first item.
      const int32_t* ex = std::lower_bound(
          rq.exclude, ex_end, static_cast<int32_t>(c * grain * kW));
      heaps_[static_cast<size_t>(c * b + bb)].Reset(slots_.data() + off, cap,
                                                    ex, ex_end);
      off += cap;
    }
  }
  Stream(in, grain,
         [&](int64_t chunk, int64_t bb, int64_t v0, int64_t n,
             const float* r) {
           heaps_[static_cast<size_t>(chunk * b + bb)].Offer(
               r, static_cast<int32_t>(v0), n);
         });
  // The order is total, so the merge order cannot change the result.
  for (int64_t bb = 0; bb < b; ++bb) {
    core::TopKHeap& dst = heaps_[static_cast<size_t>(bb)];
    for (int64_t c = 1; c < chunks; ++c) {
      heaps_[static_cast<size_t>(c * b + bb)].MergeInto(&dst);
    }
    dst.Finish(&out[bb].items, &out[bb].scores);
  }
}

}  // namespace missl::infer
