// Planned-executor contract tests (src/infer/, docs/INFERENCE.md).
//
// The central property: PlannedExecutor::Run is bitwise identical to the
// training-mode MisslModel::ScoreAllItems forward — the graph path is the
// oracle — across every SIMD tier x thread count, for every model
// configuration the compiler supports. On top of that: plans are reusable
// across batches of varying (smaller) sizes even though their arena reuses
// bytes by liveness, the fused RunTopK path equals TopKRow over Run's
// scores, steady-state runs perform zero allocator traffic, and the
// RecoService wiring serves the offline RecommendTopN lists bitwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "core/recommend.h"
#include "data/batch.h"
#include "infer/plan.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "serve/service.h"
#include "tensor/alloc.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace missl {
namespace {

constexpr int32_t kItems = 57;
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 14;

std::unique_ptr<core::MisslModel> MakeModel(const core::MisslConfig& cfg) {
  return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen, cfg);
}

core::MisslConfig BaseConfig() {
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.num_interests = 3;
  cfg.seed = 21;
  return cfg;
}

/// A deterministic inference batch with padding rows, single-behavior rows
/// and repeated items (exercising every hyperedge family and the
/// empty-channel indicator path).
data::Batch MakeBatch(int64_t batch_size, uint64_t seed) {
  Rng rng(seed);
  data::Batch b;
  b.batch_size = batch_size;
  b.max_len = kMaxLen;
  b.num_behaviors = kBehaviors;
  int64_t bt = batch_size * kMaxLen;
  b.merged_items.assign(static_cast<size_t>(bt), -1);
  b.merged_behaviors.assign(static_cast<size_t>(bt), -1);
  b.merged_recency.assign(static_cast<size_t>(bt), -1);
  b.targets.assign(static_cast<size_t>(batch_size), -1);
  b.target_behavior.assign(static_cast<size_t>(batch_size), kBehaviors - 1);
  b.users.resize(static_cast<size_t>(batch_size));
  for (int64_t row = 0; row < batch_size; ++row) {
    b.users[static_cast<size_t>(row)] = static_cast<int32_t>(row);
    // Row 0 stays fully padded-short (one event); later rows fill more.
    int64_t n = 1 + (row * 5) % kMaxLen;
    for (int64_t i = 0; i < n; ++i) {
      size_t pos = static_cast<size_t>(row * kMaxLen + (kMaxLen - n + i));
      // Bias toward repeats so repeat hyperedges materialize.
      int32_t item = static_cast<int32_t>(rng.UniformInt(kItems / 3));
      int32_t beh = static_cast<int32_t>(rng.UniformInt(kBehaviors));
      if (row % 3 == 1) beh = kBehaviors - 1;  // target-channel-only row
      if (row % 3 == 2) beh = 0;  // aux-only row (empty target channel)
      b.merged_items[pos] = item;
      b.merged_behaviors[pos] = beh;
      b.merged_recency[pos] = static_cast<int32_t>(rng.UniformInt(8));
    }
  }
  return b;
}

/// Compiles a plan for `cfg` and asserts Run == ScoreAllItems bitwise on
/// every tier x thread-count combination.
void ExpectBitwiseParity(const core::MisslConfig& cfg, int64_t batch_size,
                         int64_t max_batch) {
  auto model = MakeModel(cfg);
  model->SetTraining(false);
  data::Batch batch = MakeBatch(batch_size, /*seed=*/cfg.seed + 7);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto plan =
      infer::PlannedExecutor::Compile(*model, catalog, max_batch, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(plan, nullptr);

  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  // The scalar 1-thread result is the reference semantics; every other
  // (tier, threads) combination must reproduce it exactly, on both paths.
  std::vector<float> reference;
  for (simd::Tier tier : tiers) {
    simd::ScopedTier tier_guard(tier);
    for (int threads : {1, 2, 4}) {
      runtime::ScopedNumThreads thread_guard(threads);
      Tensor oracle;
      {
        NoGradGuard ng;
        oracle = model->ScoreAllItems(batch, kItems, catalog);
      }
      const float* got = plan->Run(batch);
      ASSERT_EQ(oracle.numel(), batch_size * kItems);
      size_t mismatch = 0;
      for (int64_t i = 0; i < oracle.numel(); ++i) {
        if (got[i] != oracle.data()[i]) ++mismatch;
      }
      EXPECT_EQ(mismatch, 0u)
          << mismatch << " of " << oracle.numel()
          << " scores differ from the graph oracle at tier="
          << simd::TierName(tier) << " threads=" << threads;
      if (reference.empty()) {
        reference.assign(oracle.data(), oracle.data() + oracle.numel());
      } else {
        for (int64_t i = 0; i < oracle.numel(); ++i) {
          ASSERT_EQ(oracle.data()[i], reference[static_cast<size_t>(i)])
              << "graph forward itself diverged across tiers/threads at " << i;
        }
      }
    }
  }
}

TEST(PlannedExecutorTest, BitwiseParityDefaultConfig) {
  ExpectBitwiseParity(BaseConfig(), /*batch_size=*/6, /*max_batch=*/6);
}

TEST(PlannedExecutorTest, BitwiseParitySmallerBatchThanCapacity) {
  // Plans compiled for max_batch serve any smaller batch, including b = 1.
  ExpectBitwiseParity(BaseConfig(), /*batch_size=*/1, /*max_batch=*/8);
  ExpectBitwiseParity(BaseConfig(), /*batch_size=*/3, /*max_batch=*/8);
}

TEST(PlannedExecutorTest, BitwiseParityRecency) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_recency = true;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityNoAuxBehaviors) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_aux_behaviors = false;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityNoCommonInterest) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_common_interest = false;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityNoHypergraph) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_hypergraph = false;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityMeanRouting) {
  core::MisslConfig cfg = BaseConfig();
  cfg.routing = core::InterestRouting::kMean;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParitySingleHeadSingleInterest) {
  core::MisslConfig cfg = BaseConfig();
  cfg.heads = 1;
  cfg.use_multi_interest = false;  // forces K = 1
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityDeepStack) {
  core::MisslConfig cfg = BaseConfig();
  cfg.seq_layers = 2;
  cfg.hgat_layers = 2;
  ExpectBitwiseParity(cfg, 4, 4);
}

// ---------------------------------------------------------------------------
// Padding-free positions (docs/INFERENCE.md): positional ops compute only
// each row's real positions [s_b, t). Every case below is checked bitwise
// against ScoreAllItems, which computes the full padded forward, for every
// BitwiseParity* configuration above, on every tier x {1, 2, 4} threads,
// with the arena filled with NaN before each run (a prefix row read before
// it was written would poison the scores).
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, core::MisslConfig>> ParityConfigs() {
  std::vector<std::pair<std::string, core::MisslConfig>> out;
  out.emplace_back("default", BaseConfig());
  core::MisslConfig c = BaseConfig();
  c.use_recency = true;
  out.emplace_back("recency", c);
  c = BaseConfig();
  c.use_aux_behaviors = false;
  out.emplace_back("no_aux", c);
  c = BaseConfig();
  c.use_common_interest = false;
  out.emplace_back("no_common", c);
  c = BaseConfig();
  c.use_hypergraph = false;
  out.emplace_back("no_hypergraph", c);
  c = BaseConfig();
  c.routing = core::InterestRouting::kMean;
  out.emplace_back("mean_routing", c);
  c = BaseConfig();
  c.heads = 1;
  c.use_multi_interest = false;
  out.emplace_back("single_head_single_interest", c);
  c = BaseConfig();
  c.seq_layers = 2;
  c.hgat_layers = 2;
  out.emplace_back("deep_stack", c);
  return out;
}

/// A `len`-event history, oldest first, with timestamps (so recency buckets
/// vary). Behaviors are drawn from `behs` (all channels when empty); a
/// third of the items repeat so repeat hyperedges materialize.
serve::Query MakeHistory(int64_t len, uint64_t seed,
                         std::vector<int32_t> behs = {}) {
  if (behs.empty()) {
    for (int32_t b = 0; b < kBehaviors; ++b) behs.push_back(b);
  }
  Rng rng(seed);
  serve::Query q;
  q.now = 1000000;
  for (int64_t i = 0; i < len; ++i) {
    q.items.push_back(static_cast<int32_t>(rng.UniformInt(kItems / 3)));
    q.behaviors.push_back(
        behs[static_cast<size_t>(rng.UniformInt(behs.size()))]);
    q.timestamps.push_back(q.now - static_cast<int64_t>(
                                       rng.UniformInt(1 << 20)));
  }
  return q;
}

/// Runs `batches` in order through one plan per ParityConfigs() entry and
/// checks every Run bitwise against ScoreAllItems on every tier x {1, 2, 4}
/// threads. With `poison`, the arena is filled with NaN before each run;
/// without it, each run sees the previous batch's leftovers.
void ExpectPaddingParity(const std::vector<std::vector<serve::Query>>& batches,
                         bool poison) {
  int64_t cap = 1;
  for (const auto& qs : batches) {
    cap = std::max<int64_t>(cap, static_cast<int64_t>(qs.size()));
  }
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  for (const auto& [name, cfg] : ParityConfigs()) {
    auto model = MakeModel(cfg);
    model->SetTraining(false);
    Tensor catalog;
    {
      NoGradGuard ng;
      catalog = model->PrecomputeCatalog();
    }
    Status status;
    auto plan = infer::PlannedExecutor::Compile(*model, catalog, cap, &status);
    ASSERT_TRUE(status.ok()) << name << ": " << status.ToString();
    std::vector<data::Batch> data_batches;
    std::vector<std::vector<float>> oracles;
    for (const auto& qs : batches) {
      data_batches.push_back(serve::BuildQueryBatch(qs, kMaxLen, kBehaviors));
      NoGradGuard ng;
      Tensor oracle =
          model->ScoreAllItems(data_batches.back(), kItems, catalog);
      oracles.emplace_back(oracle.data(), oracle.data() + oracle.numel());
    }
    for (simd::Tier tier : tiers) {
      simd::ScopedTier tier_guard(tier);
      for (int threads : {1, 2, 4}) {
        runtime::ScopedNumThreads thread_guard(threads);
        for (size_t i = 0; i < data_batches.size(); ++i) {
          if (poison) {
            plan->FillScratchForTesting(
                std::numeric_limits<float>::quiet_NaN());
          }
          const float* got = plan->Run(data_batches[i]);
          const std::vector<float>& want = oracles[i];
          size_t mismatch = 0;
          for (size_t j = 0; j < want.size(); ++j) {
            if (std::memcmp(&got[j], &want[j], sizeof(float)) != 0) {
              ++mismatch;
            }
          }
          EXPECT_EQ(mismatch, 0u)
              << mismatch << " of " << want.size() << " scores differ: config="
              << name << " batch=" << i << " tier=" << simd::TierName(tier)
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(PaddingFreeTest, EveryLengthFromOneToMaxLen) {
  std::vector<std::vector<serve::Query>> batches;
  for (int64_t len = 1; len <= kMaxLen; ++len) {
    batches.push_back({MakeHistory(len, 500 + static_cast<uint64_t>(len))});
  }
  ExpectPaddingParity(batches, /*poison=*/true);
}

TEST(PaddingFreeTest, MixedLengthBatches) {
  std::vector<serve::Query> all_lengths;  // one row of every length
  for (int64_t len = kMaxLen; len >= 1; --len) {
    all_lengths.push_back(MakeHistory(len, 600 + static_cast<uint64_t>(len)));
  }
  ExpectPaddingParity(
      {all_lengths,
       {MakeHistory(1, 701), MakeHistory(kMaxLen, 702), MakeHistory(2, 703),
        MakeHistory(kMaxLen - 1, 704)}},
      /*poison=*/true);
}

TEST(PaddingFreeTest, HistoriesLongerThanMaxLen) {
  ExpectPaddingParity({{MakeHistory(kMaxLen + 1, 801)},
                       {MakeHistory(2 * kMaxLen, 802),
                        MakeHistory(3 * kMaxLen + 5, 803),
                        MakeHistory(3, 804)}},
                      /*poison=*/true);
}

TEST(PaddingFreeTest, RowsLackingABehaviorChannel) {
  // Rows without channel 0, without channel 1, and without the target
  // channel (kBehaviors - 1): the interest extraction of the missing
  // channel takes its no-member path, whose output is o * 0.
  const int32_t target = kBehaviors - 1;
  std::vector<std::vector<serve::Query>> batches;
  for (int64_t len : {int64_t{1}, int64_t{6}, kMaxLen}) {
    const uint64_t s = 900 + static_cast<uint64_t>(len) * 10;
    batches.push_back({MakeHistory(len, s, {1, target}),
                       MakeHistory(len, s + 1, {0, target}),
                       MakeHistory(len, s + 2, {0, 1}),
                       MakeHistory(len, s + 3, {0})});
  }
  ExpectPaddingParity(batches, /*poison=*/true);
}

TEST(PaddingFreeTest, HiddenAuxiliaryEvents) {
  // Under use_aux_behaviors = false (the no_aux config) non-target events
  // are hidden: a row of only auxiliary events has effective length 0 and
  // runs the full-length path (s_b = 0); a row whose last event is hidden
  // ends in a masked position; hidden leading events push s_b past the
  // first real event. The other configs see ordinary rows.
  const int32_t target = kBehaviors - 1;
  serve::Query all_hidden = MakeHistory(5, 1001, {0, 1});
  serve::Query all_hidden_full = MakeHistory(kMaxLen, 1002, {0, 1});
  serve::Query last_hidden = MakeHistory(7, 1003);
  last_hidden.behaviors.back() = 0;
  last_hidden.behaviors.front() = target;
  serve::Query hidden_prefix = MakeHistory(kMaxLen, 1004, {target});
  for (size_t i = 0; i < 4; ++i) hidden_prefix.behaviors[i] = 1;
  ExpectPaddingParity({{all_hidden},
                       {all_hidden, last_hidden, hidden_prefix,
                        all_hidden_full},
                       {last_hidden}},
                      /*poison=*/true);
}

TEST(PaddingFreeTest, ShortBatchAfterFullLengthBatchReusesTheArena) {
  // No NaN fill: the short batches run on the full batch's leftovers, so a
  // prefix row left unwritten would carry stale values into the scores.
  std::vector<serve::Query> full, short_rows;
  for (int i = 0; i < 4; ++i) {
    full.push_back(MakeHistory(kMaxLen + i, 1100 + static_cast<uint64_t>(i)));
    short_rows.push_back(
        MakeHistory(1 + i, 1200 + static_cast<uint64_t>(i)));
  }
  ExpectPaddingParity({full, short_rows, full, {short_rows[0]}},
                      /*poison=*/false);
}

TEST(PaddingFreeTest, CountersRecordComputedAndPaddedPositions) {
  const bool was = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& computed = reg.GetCounter("infer.positions_computed");
  obs::Counter& padded = reg.GetCounter("infer.positions_padded");
  for (const auto& [name, cfg] : ParityConfigs()) {
    auto model = MakeModel(cfg);
    model->SetTraining(false);
    Status status;
    auto plan = infer::PlannedExecutor::Compile(*model, Tensor(), 4, &status);
    ASSERT_TRUE(status.ok()) << status.ToString();
    // Lengths 1, T (exactly full), T + 3 (truncated to T) and 4; under
    // no_aux the all-auxiliary row has no effective event and counts as
    // a full row.
    std::vector<serve::Query> qs = {
        MakeHistory(1, 1301, {kBehaviors - 1}),
        MakeHistory(kMaxLen, 1302, {kBehaviors - 1}),
        MakeHistory(kMaxLen + 3, 1303, {kBehaviors - 1}),
        MakeHistory(4, 1304, {0})};
    const int64_t want_computed =
        1 + kMaxLen + kMaxLen + (cfg.use_aux_behaviors ? 4 : kMaxLen);
    data::Batch batch = serve::BuildQueryBatch(qs, kMaxLen, kBehaviors);
    const int64_t c0 = computed.value(), p0 = padded.value();
    plan->Run(batch);
    std::vector<infer::RankRequest> reqs(4);
    std::vector<core::TopKList> lists(4);
    plan->RunTopK(batch, reqs.data(), lists.data());
    EXPECT_EQ(computed.value() - c0, 2 * want_computed) << name;
    EXPECT_EQ(padded.value() - p0, 2 * (4 * kMaxLen - want_computed))
        << name;
  }
  obs::SetMetricsEnabled(was);
}

/// Row `r` of `batch` as a batch of one.
data::Batch SliceRow(const data::Batch& batch, int64_t r) {
  data::Batch one = batch;
  one.batch_size = 1;
  auto slice = [&](std::vector<int32_t>* v) {
    std::vector<int32_t> row(v->begin() + r * kMaxLen,
                             v->begin() + (r + 1) * kMaxLen);
    *v = std::move(row);
  };
  slice(&one.merged_items);
  slice(&one.merged_behaviors);
  slice(&one.merged_recency);
  one.targets = {batch.targets[static_cast<size_t>(r)]};
  one.target_behavior = {batch.target_behavior[static_cast<size_t>(r)]};
  one.users = {0};
  return one;
}

/// Arena-aliasing guard. The arena hands the same bytes to buffers whose
/// live ranges do not intersect, so an op that read a buffer before fully
/// writing it would see another buffer's (or an earlier, larger batch's)
/// leftovers. Runs batches of max_batch, 1, then max_batch rows through ONE
/// plan on every tier x {1, 2, 4} threads and checks each against an
/// independent oracle: ScoreAllItems for fp32; for int8, a fresh
/// max_batch = 1 plan (a different arena layout) run row by row. The fused
/// RunTopK lists must equal TopKRow over the same oracle rows.
void ExpectArenaReuseIsClean(const core::MisslConfig& cfg, bool quantize) {
  constexpr int64_t kCap = 5;
  auto model = MakeModel(cfg);
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  infer::InferConfig icfg;
  icfg.quantize_catalog = quantize;
  Status status;
  auto plan =
      infer::PlannedExecutor::Compile(*model, catalog, kCap, icfg, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto row_plan =
      infer::PlannedExecutor::Compile(*model, catalog, 1, icfg, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  for (simd::Tier tier : tiers) {
    simd::ScopedTier tier_guard(tier);
    for (int threads : {1, 2, 4}) {
      runtime::ScopedNumThreads thread_guard(threads);
      for (int step = 0; step < 3; ++step) {
        const int64_t b = step == 1 ? 1 : kCap;
        data::Batch batch = MakeBatch(b, 100 + 10 * threads + step);
        std::vector<float> want;
        if (!quantize) {
          NoGradGuard ng;
          Tensor oracle = model->ScoreAllItems(batch, kItems, catalog);
          want.assign(oracle.data(), oracle.data() + oracle.numel());
        } else {
          for (int64_t r = 0; r < b; ++r) {
            const float* row = row_plan->Run(SliceRow(batch, r));
            want.insert(want.end(), row, row + kItems);
          }
        }
        const std::string where = std::string("tier=") +
                                  simd::TierName(tier) +
                                  " threads=" + std::to_string(threads) +
                                  " step=" + std::to_string(step);
        const float* got = plan->Run(batch);
        for (int64_t i = 0; i < b * kItems; ++i) {
          ASSERT_EQ(got[i], want[static_cast<size_t>(i)])
              << where << " flat index " << i;
        }
        std::vector<std::vector<int32_t>> excl(static_cast<size_t>(b));
        std::vector<infer::RankRequest> reqs(static_cast<size_t>(b));
        for (int64_t r = 0; r < b; ++r) {
          auto& e = excl[static_cast<size_t>(r)];
          for (int64_t i = 0; i < kMaxLen; ++i) {
            const int32_t id = batch.merged_items[static_cast<size_t>(
                r * kMaxLen + i)];
            if (id >= 0) e.push_back(id);
          }
          std::sort(e.begin(), e.end());
          reqs[static_cast<size_t>(r)].k = r == 0 ? kItems + 3 : 5;
          reqs[static_cast<size_t>(r)].exclude = e.data();
          reqs[static_cast<size_t>(r)].num_exclude =
              static_cast<int64_t>(e.size());
        }
        std::vector<core::TopKList> lists(static_cast<size_t>(b));
        plan->RunTopK(batch, reqs.data(), lists.data());
        for (int64_t r = 0; r < b; ++r) {
          core::TopKList ref;
          core::TopKRow(want.data() + r * kItems, kItems,
                        &excl[static_cast<size_t>(r)],
                        reqs[static_cast<size_t>(r)].k, &ref.items,
                        &ref.scores);
          ASSERT_EQ(lists[static_cast<size_t>(r)].items, ref.items)
              << where << " row " << r;
          ASSERT_EQ(lists[static_cast<size_t>(r)].scores, ref.scores)
              << where << " row " << r;
        }
      }
    }
  }
}

TEST(PlannedExecutorTest, ArenaReuseIsCleanMaxRouting) {
  ExpectArenaReuseIsClean(BaseConfig(), /*quantize=*/false);
}

TEST(PlannedExecutorTest, ArenaReuseIsCleanMeanRouting) {
  core::MisslConfig cfg = BaseConfig();
  cfg.routing = core::InterestRouting::kMean;
  ExpectArenaReuseIsClean(cfg, /*quantize=*/false);
}

TEST(PlannedExecutorTest, ArenaReuseIsCleanInt8) {
  ExpectArenaReuseIsClean(BaseConfig(), /*quantize=*/true);
  core::MisslConfig cfg = BaseConfig();
  cfg.routing = core::InterestRouting::kMean;
  ExpectArenaReuseIsClean(cfg, /*quantize=*/true);
}

TEST(PlannedExecutorTest, ArenaIsPackedByLiveness) {
  // A deeper stack adds buffers whose live ranges do not intersect the
  // first layer's, so liveness packing reuses their bytes: the arena grows
  // far less than the buffer table.
  core::MisslConfig deep = BaseConfig();
  deep.seq_layers = 3;
  deep.hgat_layers = 3;
  Status status;
  auto shallow_model = MakeModel(BaseConfig());
  auto deep_model = MakeModel(deep);
  auto shallow = infer::PlannedExecutor::Compile(*shallow_model, Tensor(), 8,
                                                 &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto deeper =
      infer::PlannedExecutor::Compile(*deep_model, Tensor(), 8, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(deeper->num_buffers(), 2 * shallow->num_buffers() - 10);
  EXPECT_LT(deeper->scratch_bytes(), shallow->scratch_bytes() * 5 / 4)
      << shallow->ToString() << deeper->ToString();
}

TEST(PlannedExecutorTest, SteadyStateRunsAllocateNothing) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, catalog, 8, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  data::Batch big = MakeBatch(8, 11);
  data::Batch small = MakeBatch(3, 12);
  std::vector<infer::RankRequest> reqs(8);
  std::vector<core::TopKList> lists(8);
  // Warmup: Run allocates its score buffer on first use, and RunTopK grows
  // its heap and tile scratch once.
  plan->Run(big);
  plan->RunTopK(big, reqs.data(), lists.data());
  alloc::AllocStats before = alloc::GetAllocStats();
  for (int i = 0; i < 20; ++i) {
    plan->Run(i % 2 == 0 ? big : small);
    plan->RunTopK(i % 2 == 0 ? big : small, reqs.data(), lists.data());
  }
  alloc::AllocStats after = alloc::GetAllocStats();
  // Zero Storage traffic of ANY kind per steady-state Run: no pool churn,
  // no system allocations. This is the allocation half of the inference
  // contract (the churn gate in bench_m1_alloc holds the end-to-end
  // serve-batch variant of the same property).
  EXPECT_EQ(after.pool_hits - before.pool_hits, 0);
  EXPECT_EQ(after.pool_misses - before.pool_misses, 0);
  EXPECT_EQ(after.system_allocs - before.system_allocs, 0);
}

TEST(PlannedExecutorTest, CompileValidatesInputs) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  // Bad max_batch.
  EXPECT_EQ(infer::PlannedExecutor::Compile(*model, catalog, 0, &status),
            nullptr);
  EXPECT_FALSE(status.ok());
  // Catalog in the untransposed [V, d] orientation.
  EXPECT_EQ(infer::PlannedExecutor::Compile(*model, Transpose(catalog), 4,
                                            &status),
            nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(PlannedExecutorTest, UndefinedCatalogPacksFromItemTable) {
  // An undefined catalog means "pack straight from the model's [V, d] item
  // table" (the serving path: no transposed copy is made). It must score
  // exactly like a plan compiled from the PrecomputeCatalog matrix.
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto from_table =
      infer::PlannedExecutor::Compile(*model, Tensor(), 4, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto from_catalog =
      infer::PlannedExecutor::Compile(*model, catalog, 4, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  data::Batch batch = MakeBatch(4, 31);
  const float* ref = from_catalog->Run(batch);
  std::vector<float> want(ref, ref + 4 * kItems);
  const float* got = from_table->Run(batch);
  for (int64_t i = 0; i < 4 * kItems; ++i) {
    ASSERT_EQ(got[i], want[static_cast<size_t>(i)]) << "flat index " << i;
  }
}

TEST(PlannedExecutorTest, PlanIntrospection) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, catalog, 4, &status);
  ASSERT_TRUE(status.ok());
  EXPECT_GT(plan->num_ops(), 10);
  EXPECT_GT(plan->scratch_bytes(), 0);
  EXPECT_EQ(plan->max_batch(), 4);
  EXPECT_EQ(plan->max_len(), kMaxLen);
  EXPECT_EQ(plan->num_items(), kItems);
  std::string dump = plan->ToString();
  EXPECT_NE(dump.find("embed_sum"), std::string::npos);
  EXPECT_NE(dump.find("catalog_score"), std::string::npos);
  EXPECT_NE(dump.find("interest_extract"), std::string::npos);
  EXPECT_NE(dump.find("attention encoder.layer0.attn.core positional"),
            std::string::npos);
}

TEST(PlannedExecutorServiceTest, ServiceMatchesOfflineRecommendTopN) {
  core::MisslConfig cfg = BaseConfig();
  auto saved = MakeModel(cfg);
  std::string path = ::testing::TempDir() + "/infer_planned_ckpt.bin";
  ASSERT_TRUE(nn::SaveParameters(*saved, path).ok());

  // Offline reference first: the service's dispatcher sets the runtime
  // thread count while it runs, so offline scoring must not overlap it.
  auto offline = MakeModel(cfg);
  ASSERT_TRUE(nn::LoadParameters(offline.get(), path).ok());
  Rng rng(5);
  std::vector<serve::Query> queries;
  std::vector<core::Recommendation> want;
  for (int round = 0; round < 12; ++round) {
    serve::Query q;
    int64_t len = 1 + static_cast<int64_t>(rng.UniformInt(2 * kMaxLen));
    for (int64_t i = 0; i < len; ++i) {
      q.items.push_back(static_cast<int32_t>(rng.UniformInt(kItems)));
      q.behaviors.push_back(static_cast<int32_t>(rng.UniformInt(kBehaviors)));
    }
    q.exclude = q.items;  // unsorted, with repeats
    q.k = 7;
    data::Batch batch = serve::BuildQueryBatch(std::vector<serve::Query>{q},
                                               kMaxLen, kBehaviors);
    want.push_back(core::RecommendTopN(offline.get(), batch, {q.exclude}, q.k,
                                       kItems)[0]);
    queries.push_back(std::move(q));
  }

  serve::ServeConfig sc;
  sc.max_len = kMaxLen;
  sc.max_batch = 4;
  sc.max_wait_us = 0;
  Status status;
  auto svc = serve::RecoService::Load(MakeModel(cfg), kItems, kBehaviors,
                                      path, sc, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(svc->planned_executor(), nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    serve::TopKResult got;
    ASSERT_TRUE(svc->TopK(queries[i], &got).ok());
    ASSERT_EQ(got.items, want[i].items) << "query " << i;
    ASSERT_EQ(got.scores, want[i].scores) << "query " << i;
  }
  std::remove(path.c_str());
}

/// Minimal non-MISSL model: enough interface to pass checkpoint loading.
class StubModel : public core::SeqRecModel {
 public:
  StubModel() { w_ = RegisterParameter("w", Tensor::Zeros({1})); }
  std::string Name() const override { return "Stub"; }
  Tensor Loss(const data::Batch&) override { return Tensor::Zeros({1}); }
  Tensor ScoreCandidates(const data::Batch& batch, const std::vector<int32_t>&,
                         int64_t num_cands) override {
    return Tensor::Zeros({batch.batch_size, num_cands});
  }

 private:
  Tensor w_;
};

TEST(PlannedExecutorServiceTest, PlannedRejectsNonMisslModel) {
  // Serving compiles the concrete MISSL forward; Load must fail with a
  // clear status for any other model.
  std::string path = ::testing::TempDir() + "/infer_stub_ckpt.bin";
  StubModel saved;
  ASSERT_TRUE(nn::SaveParameters(saved, path).ok());
  serve::ServeConfig sc;
  sc.max_len = kMaxLen;
  Status status;
  auto svc = serve::RecoService::Load(std::make_unique<StubModel>(), kItems,
                                      kBehaviors, path, sc, &status);
  EXPECT_EQ(svc, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("MISSL"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace missl
