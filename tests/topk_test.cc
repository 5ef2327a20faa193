// Ranking contract tests (core/topk.h). Every ranking path — core::TopKRow,
// core::RecommendTopN, serve::RecoService::TopK and the planned executor's
// fused RunTopK — must return exactly the list a brute-force sort produces
// under the total order: score descending, then item id ascending, NaN below
// every number. Covered: exact score ties across ids, k >= V and
// k >= V - |exclusions|, every item excluded, unsorted and duplicate
// exclusions, and rows holding NaN, +Inf, -Inf and -0.0.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "core/recommend.h"
#include "core/topk.h"
#include "infer/plan.h"
#include "nn/serialize.h"
#include "runtime/runtime.h"
#include "serve/service.h"
#include "tensor/simd.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace missl {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// The reference: filter, then sort every candidate by the lexicographic key
/// (is NaN, -score, id).
core::TopKList BruteForce(const float* scores, int32_t num_items,
                          const std::vector<int32_t>& exclude, int32_t k) {
  std::set<int32_t> banned(exclude.begin(), exclude.end());
  std::vector<std::tuple<int, float, int32_t>> keys;
  for (int32_t i = 0; i < num_items; ++i) {
    if (banned.count(i) != 0) continue;
    const bool nan = std::isnan(scores[i]);
    keys.emplace_back(nan ? 1 : 0, nan ? 0.0f : -scores[i], i);
  }
  std::sort(keys.begin(), keys.end());
  core::TopKList out;
  for (size_t i = 0; i < keys.size() && i < static_cast<size_t>(k); ++i) {
    const int32_t id = std::get<2>(keys[i]);
    out.items.push_back(id);
    out.scores.push_back(scores[id]);
  }
  return out;
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Items equal, scores equal bit for bit — except that any NaN matches any
/// NaN: x86 propagates the first operand's NaN, so a NaN's sign and payload
/// follow the operand order a kernel happens to use, which no tier
/// contract fixes.
void ExpectSameList(const core::TopKList& got, const core::TopKList& want,
                    const std::string& where) {
  ASSERT_EQ(got.items, want.items) << where;
  ASSERT_EQ(got.scores.size(), want.scores.size()) << where;
  for (size_t i = 0; i < want.scores.size(); ++i) {
    if (std::isnan(want.scores[i])) {
      EXPECT_TRUE(std::isnan(got.scores[i])) << where << " rank " << i;
    } else {
      EXPECT_EQ(Bits(got.scores[i]), Bits(want.scores[i]))
          << where << " rank " << i;
    }
  }
}

/// Score rows drawn from a tiny value set (so ties are everywhere), with
/// NaN, +Inf, -Inf and -0.0 mixed in.
std::vector<float> TieAndNonFiniteRow(int32_t num_items, uint64_t seed) {
  const float values[] = {-1.0f, 0.0f, -0.0f, 0.5f, 1.0f,
                          kNaN,  kInf, -kInf, 2.0f, 0.5f};
  Rng rng(seed);
  std::vector<float> row(static_cast<size_t>(num_items));
  for (float& v : row) v = values[rng.UniformInt(10)];
  return row;
}

struct Case {
  int32_t k;
  std::vector<int32_t> exclude;
  std::string name;
};

std::vector<Case> Cases(int32_t num_items) {
  std::vector<int32_t> all;
  for (int32_t i = num_items - 1; i >= 0; --i) all.push_back(i);
  std::vector<int32_t> unsorted_dups = {9, 3, 3, 17, 0, 9, num_items - 1, 4};
  return {
      {1, {}, "k=1"},
      {5, {}, "k=5"},
      {num_items, {}, "k=V"},
      {num_items + 7, {}, "k>V"},
      {5, unsorted_dups, "unsorted+duplicate exclusions"},
      {num_items - 6, unsorted_dups, "k=V-|excl|"},
      {num_items, unsorted_dups, "k>V-|excl|"},
      {3, all, "everything excluded"},
  };
}

TEST(TopKRowTest, MatchesBruteForceUnderTotalOrder) {
  constexpr int32_t kV = 41;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<float> row = TieAndNonFiniteRow(kV, seed);
    for (const Case& c : Cases(kV)) {
      core::TopKList got;
      core::TopKRow(row.data(), kV, &c.exclude, c.k, &got.items, &got.scores);
      ExpectSameList(got, BruteForce(row.data(), kV, c.exclude, c.k),
                     c.name + " seed " + std::to_string(seed));
    }
  }
}

TEST(TopKRowTest, AllNaNRowRanksByIdAndEverythingExcludedIsEmpty) {
  std::vector<float> row(12, kNaN);
  core::TopKList got;
  core::TopKRow(row.data(), 12, nullptr, 4, &got.items, &got.scores);
  EXPECT_EQ(got.items, (std::vector<int32_t>{0, 1, 2, 3}));
  std::vector<int32_t> all = {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5};
  core::TopKRow(row.data(), 12, &all, 4, &got.items, &got.scores);
  EXPECT_TRUE(got.items.empty());
  EXPECT_TRUE(got.scores.empty());
}

TEST(TopKRowTest, NumbersRankAboveNaNAndTiesBreakById) {
  const std::vector<float> row = {kNaN, -kInf, 1.0f, kNaN, 1.0f, -0.0f, 0.0f};
  core::TopKList got;
  core::TopKRow(row.data(), 7, nullptr, 7, &got.items, &got.scores);
  EXPECT_EQ(got.items, (std::vector<int32_t>{2, 4, 5, 6, 1, 0, 3}));
}

/// A model whose ScoreAllItems returns a fixed score matrix, so
/// RecommendTopN can be driven with any scores.
class FixedScoreModel : public core::SeqRecModel {
 public:
  explicit FixedScoreModel(std::vector<float> scores, int64_t num_items)
      : scores_(std::move(scores)), num_items_(num_items) {}
  std::string Name() const override { return "FixedScore"; }
  Tensor Loss(const data::Batch&) override { return Tensor::Zeros({1}); }
  Tensor ScoreCandidates(const data::Batch& batch,
                         const std::vector<int32_t>& cand_ids,
                         int64_t num_cands) override {
    Tensor out = Tensor::Zeros({batch.batch_size, num_cands});
    for (int64_t r = 0; r < batch.batch_size; ++r) {
      for (int64_t c = 0; c < num_cands; ++c) {
        const int32_t id = cand_ids[static_cast<size_t>(r * num_cands + c)];
        out.mutable_data()[r * num_cands + c] =
            scores_[static_cast<size_t>(r * num_items_ + id)];
      }
    }
    return out;
  }

 private:
  std::vector<float> scores_;
  int64_t num_items_;
};

TEST(RecommendTopNTest, MatchesBruteForceUnderTotalOrder) {
  constexpr int32_t kV = 37;
  const std::vector<Case> cases = Cases(kV);
  const int64_t rows = static_cast<int64_t>(cases.size());
  std::vector<float> scores;
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<float> row = TieAndNonFiniteRow(kV, 100 + r);
    scores.insert(scores.end(), row.begin(), row.end());
  }
  FixedScoreModel model(scores, kV);
  data::Batch batch;
  batch.batch_size = rows;
  batch.users.resize(static_cast<size_t>(rows));
  std::vector<std::vector<int32_t>> seen;
  for (const Case& c : cases) seen.push_back(c.exclude);
  // RecommendTopN takes one n for the whole batch; run it per case's k.
  for (const Case& c : cases) {
    auto recs = core::RecommendTopN(&model, batch, seen, c.k, kV);
    ASSERT_EQ(static_cast<int64_t>(recs.size()), rows);
    for (int64_t r = 0; r < rows; ++r) {
      core::TopKList got{recs[static_cast<size_t>(r)].items,
                         recs[static_cast<size_t>(r)].scores};
      ExpectSameList(got,
                     BruteForce(scores.data() + r * kV, kV,
                                seen[static_cast<size_t>(r)], c.k),
                     c.name + " row " + std::to_string(r));
    }
  }
}

// ---------------------------------------------------------------------------
// Serving paths on a MISSL model whose item table carries exact duplicate
// rows (score ties across ids), a NaN row and two rows with +Inf entries.
// Under mean routing those reach the final scores as NaN/±Inf; a history
// containing the NaN item makes its whole score row NaN. Under max routing
// NaN logits never win the max, so those rows tie at -Inf instead.
// ---------------------------------------------------------------------------

constexpr int32_t kItems = 45;  // not a multiple of the 32-item panel
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 10;
constexpr int32_t kNaNItem = 7;
constexpr int32_t kInfItem = 8;

core::MisslConfig ModelConfig(core::InterestRouting routing) {
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.num_interests = 3;
  cfg.seed = 33;
  cfg.routing = routing;
  return cfg;
}

std::unique_ptr<core::MisslModel> MakeModel(core::InterestRouting routing) {
  return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen,
                                            ModelConfig(routing));
}

/// Writes a checkpoint whose item table has ties and non-finite rows.
std::string WriteDoctoredCheckpoint(core::InterestRouting routing,
                                    const std::string& name) {
  auto model = MakeModel(routing);
  for (auto& [pname, t] : model->NamedParameters()) {
    if (pname != "item_emb.weight") continue;
    const int64_t d = t.size(1);
    float* w = t.mutable_data();
    // Items 20..29 copy item 3 and items 30..34 copy item 11: exact ties.
    for (int32_t v = 20; v < 35; ++v) {
      const int32_t src = v < 30 ? 3 : 11;
      std::copy(w + src * d, w + (src + 1) * d, w + v * d);
    }
    std::fill(w + kNaNItem * d, w + (kNaNItem + 1) * d, kNaN);
    // One infinite coordinate scores ±Inf; an all-Inf row mixes signs in
    // the dot and scores NaN.
    std::fill(w + kInfItem * d, w + (kInfItem + 1) * d, 0.0f);
    w[kInfItem * d] = kInf;
    std::fill(w + (kInfItem + 1) * d, w + (kInfItem + 2) * d, kInf);
  }
  std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(nn::SaveParameters(*model, path).ok());
  return path;
}

std::vector<serve::Query> MakeQueries() {
  Rng rng(71);
  std::vector<serve::Query> qs;
  for (int i = 0; i < 14; ++i) {
    serve::Query q;
    const int64_t len = 1 + static_cast<int64_t>(rng.UniformInt(kMaxLen));
    for (int64_t j = 0; j < len; ++j) {
      int32_t item = static_cast<int32_t>(rng.UniformInt(kItems));
      // Keep the NaN item out of most histories; query 5 holds it.
      if (item == kNaNItem) item = 0;
      q.items.push_back(item);
      q.behaviors.push_back(static_cast<int32_t>(rng.UniformInt(kBehaviors)));
    }
    if (i == 5) q.items.back() = kNaNItem;
    switch (i % 7) {
      case 0: q.k = 5; break;
      case 1: q.k = kItems; break;
      case 2: q.k = kItems + 4; break;
      case 3:  // unsorted with duplicates, k >= V - |excl|
        q.exclude = {30, 3, 3, kInfItem, 44, 0, 30};
        q.k = kItems - 5;
        break;
      case 4:  // everything excluded
        for (int32_t v = kItems - 1; v >= 0; --v) q.exclude.push_back(v);
        q.k = 3;
        break;
      case 5:
        q.exclude = q.items;
        q.k = 12;
        break;
      default: q.k = 1; break;
    }
    qs.push_back(std::move(q));
  }
  return qs;
}

void ExpectServingPathsMatchBruteForce(core::InterestRouting routing,
                                       const std::string& name) {
  const std::string path = WriteDoctoredCheckpoint(routing, name);
  const std::vector<serve::Query> queries = MakeQueries();
  data::Batch batch = serve::BuildQueryBatch(queries, kMaxLen, kBehaviors);
  const int64_t n = static_cast<int64_t>(queries.size());

  // Oracle scores: the training-mode forward.
  auto offline = MakeModel(routing);
  ASSERT_TRUE(nn::LoadParametersForInference(offline.get(), path).ok());
  Tensor scores;
  {
    NoGradGuard ng;
    scores = offline->ScoreAllItems(batch, kItems);
  }
  bool saw_nan = false, saw_inf = false;
  for (int64_t i = 0; i < scores.numel(); ++i) {
    saw_nan |= std::isnan(scores.data()[i]);
    saw_inf |= std::isinf(scores.data()[i]);
  }
  EXPECT_TRUE(saw_inf) << "fixture must produce infinite scores";
  if (routing == core::InterestRouting::kMean) {
    EXPECT_TRUE(saw_nan) << "fixture must produce NaN scores";
  }
  std::vector<core::TopKList> want;
  for (int64_t r = 0; r < n; ++r) {
    const serve::Query& q = queries[static_cast<size_t>(r)];
    want.push_back(
        BruteForce(scores.data() + r * kItems, kItems, q.exclude, q.k));
  }

  // RecommendTopN, per query (its n is batch-wide).
  for (int64_t r = 0; r < n; ++r) {
    const serve::Query& q = queries[static_cast<size_t>(r)];
    data::Batch one =
        serve::BuildQueryBatch(std::vector<serve::Query>{q}, kMaxLen,
                               kBehaviors);
    auto recs = core::RecommendTopN(offline.get(), one, {q.exclude}, q.k,
                                    kItems);
    ExpectSameList({recs[0].items, recs[0].scores},
                   want[static_cast<size_t>(r)],
                   name + " RecommendTopN query " + std::to_string(r));
  }

  // The fused executor path, on every tier x {1, 2, 4} threads.
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*offline, Tensor(), n, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<std::vector<int32_t>> excl;
  std::vector<infer::RankRequest> reqs(static_cast<size_t>(n));
  for (const serve::Query& q : queries) {
    excl.push_back(q.exclude);
    std::sort(excl.back().begin(), excl.back().end());
  }
  for (int64_t r = 0; r < n; ++r) {
    reqs[static_cast<size_t>(r)].k = queries[static_cast<size_t>(r)].k;
    reqs[static_cast<size_t>(r)].exclude = excl[static_cast<size_t>(r)].data();
    reqs[static_cast<size_t>(r)].num_exclude =
        static_cast<int64_t>(excl[static_cast<size_t>(r)].size());
  }
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  for (simd::Tier tier : tiers) {
    simd::ScopedTier tier_guard(tier);
    for (int threads : {1, 2, 4}) {
      runtime::ScopedNumThreads thread_guard(threads);
      std::vector<core::TopKList> got(static_cast<size_t>(n));
      plan->RunTopK(batch, reqs.data(), got.data());
      for (int64_t r = 0; r < n; ++r) {
        ExpectSameList(got[static_cast<size_t>(r)],
                       want[static_cast<size_t>(r)],
                       name + " RunTopK tier=" + simd::TierName(tier) +
                           " threads=" + std::to_string(threads) + " query " +
                           std::to_string(r));
      }
    }
  }

  // RecoService::TopK: coalesced batches through the same fused path.
  serve::ServeConfig sc;
  sc.max_len = kMaxLen;
  sc.max_batch = 4;
  sc.max_wait_us = 0;
  auto svc = serve::RecoService::Load(MakeModel(routing), kItems, kBehaviors,
                                      path, sc, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (int64_t r = 0; r < n; ++r) {
    serve::TopKResult got;
    ASSERT_TRUE(svc->TopK(queries[static_cast<size_t>(r)], &got).ok());
    ExpectSameList(got, want[static_cast<size_t>(r)],
                   name + " RecoService query " + std::to_string(r));
  }
  std::remove(path.c_str());
}

TEST(ServingRankTest, MaxRoutingMatchesBruteForce) {
  ExpectServingPathsMatchBruteForce(core::InterestRouting::kMax,
                                    "topk_max_ckpt.bin");
}

TEST(ServingRankTest, MeanRoutingWithNaNScoresMatchesBruteForce) {
  ExpectServingPathsMatchBruteForce(core::InterestRouting::kMean,
                                    "topk_mean_ckpt.bin");
}

}  // namespace
}  // namespace missl
