// Property suite for the quantized and multi-core FlatForest paths:
//
//  * the quantized descent is EXPECT_EQ-equal (bitwise, not
//    approximate) to the float kernels over random forests x random
//    row blocks, including NaN/inf rows and rows holding exact
//    bin-edge (threshold) values — the exactness-by-construction
//    contract: bin edges ARE the split thresholds, so `bin(x) >
//    rank(t)` decides identically to `x > t`;
//  * the bin tables themselves honor the contract: edges sorted and
//    distinct, a threshold's own bin equals its rank (so equality
//    descends left), the next representable value above it bins one
//    higher (descends right), NaN bins to 0;
//  * AccumulateBatchMt is bit-identical to the sequential path for
//    every worker count (1 / 2 / N), in both the quantized and float
//    variants — the deterministic tree-order reduction contract — and
//    AccumulateBatch's automatic multi-core dispatch matches it;
//  * a forest the scheme cannot represent stays on the float descent,
//    counts one "ml.quant_fallbacks", and still matches the single-row
//    oracle; a forest finalized on a host without AVX2 counts one
//    "ml.simd_fallbacks"; Add() invalidates the quantized tables, and
//    concurrent callers racing the global pool and the per-thread bin
//    buffer stay bit-identical (the TSan job runs this suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/decision_tree.h"
#include "ml/tree_kernel.h"
#include "obs/metrics.h"
#include "obs/switch.h"
#include "tests/ml/synthetic.h"

namespace gaugur::ml {
namespace {

/// Varied-depth forest (stumps through depth 12, cycled) of `num_trees`
/// trees fit on noisy data, finalized for the quantized descent.
FlatForest MakeQuantForest(std::uint64_t seed, std::vector<TreeModel>* keep,
                           std::size_t num_trees = 5) {
  const Dataset train = testing::MakeRegressionData(260, seed, 0.2);
  FlatForest flat;
  constexpr int kDepths[] = {1, 2, 4, 7, 12};
  for (std::size_t k = 0; k < num_trees; ++k) {
    const int depth = kDepths[k % 5];
    TreeConfig config;
    config.max_depth = depth;
    config.seed =
        seed * 131 + static_cast<std::uint64_t>(depth) + 1000 * (k / 5);
    config.min_samples_leaf = depth >= 7 ? 2 : 5;
    TreeModel tree(config);
    tree.Fit(train);
    flat.Add(tree);
    keep->push_back(std::move(tree));
  }
  flat.FinalizeQuantized();
  return flat;
}

/// Random row block with adversarial values: +/-inf, NaN, and — the
/// quantized path's sharpest edge — values copied EXACTLY from the
/// forest's own split thresholds, where `x > t` is false and the bin
/// compare must agree.
Dataset MakeRowBlock(const FlatForest& flat, std::size_t rows,
                     std::uint64_t seed) {
  std::vector<double> thresholds;
  for (const FlatNode& n : flat.Nodes()) {
    if (std::isfinite(n.threshold)) thresholds.push_back(n.threshold);
  }
  common::Rng rng(seed);
  Dataset data(5);
  std::vector<double> row(5);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = rng.Uniform(-0.25, 1.25);
    if (i % 3 == 1 && !thresholds.empty()) {
      row[i % 5] = thresholds[static_cast<std::size_t>(
          rng.UniformInt(thresholds.size()))];
    }
    if (i % 7 == 3) row[i % 5] = std::numeric_limits<double>::infinity();
    if (i % 11 == 5) row[(i + 1) % 5] = -row[(i + 1) % 5];
    if (i % 13 == 8) {
      row[(i + 2) % 5] = std::numeric_limits<double>::quiet_NaN();
    }
    data.Add(row, 0.0);
  }
  return data;
}

TEST(QuantKernel, QuantizedMatchesFloatBitwiseOnEveryTier) {
  if (!FlatForest::QuantizedActive()) {
    GTEST_SKIP() << "host does not run the AVX2 quantized descent";
  }
  for (std::uint64_t seed : {17u, 31u, 59u}) {
    std::vector<TreeModel> trees;
    const FlatForest flat = MakeQuantForest(seed, &trees);
    ASSERT_TRUE(flat.QuantizedBuilt());
    // Block sizes straddle the 128-row AVX2 main block, the 16-row mid
    // block, and the scalar tail.
    for (std::size_t rows : {1u, 3u, 5u, 15u, 16u, 17u, 127u, 128u, 131u}) {
      const Dataset block = MakeRowBlock(flat, rows, seed * 977 + rows);
      std::vector<double> reference(rows, 0.5);
      for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
        flat.AccumulateTreeBatch(t, block.Matrix(), reference, 0.375);
      }
      std::vector<std::uint16_t> bins;
      flat.BinBatch(block.Matrix(), bins);
      std::vector<double> out(rows, 0.5);
      for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
        flat.AccumulateTreeQuant(t, bins.data(), rows, 5, out, 0.375);
      }
      for (std::size_t i = 0; i < rows; ++i) {
        // Bitwise, not approximate: EXPECT_EQ on doubles.
        EXPECT_EQ(reference[i], out[i])
            << "seed " << seed << " rows " << rows << " row " << i;
      }
    }
  }
}

TEST(QuantKernel, BinEdgesAreTheThresholdsAndDecideIdentically) {
  std::vector<TreeModel> trees;
  const FlatForest flat = MakeQuantForest(43, &trees);
  ASSERT_TRUE(flat.QuantizedBuilt());
  const double inf = std::numeric_limits<double>::infinity();
  for (const FlatNode& n : flat.Nodes()) {
    if (!(n.threshold < inf)) continue;  // leaf record
    const auto f = static_cast<std::size_t>(n.feature);
    // x == t bins to t's own rank (the float compare `t > t` is false,
    // so equality must descend left), and the next representable double
    // above t must cross into the next bin (float `above > t` is true).
    const std::uint16_t rank = flat.BinValue(f, n.threshold);
    const double above = std::nextafter(n.threshold, inf);
    EXPECT_GT(flat.BinValue(f, above), rank)
        << "feature " << f << " threshold " << n.threshold;
    EXPECT_LE(rank, flat.NumBinEdges(f));
  }
  // NaN sorts below every edge (descends left, like the float NaN rule);
  // +inf above every edge.
  EXPECT_EQ(flat.BinValue(0, std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(flat.BinValue(0, -inf), 0);
  EXPECT_EQ(flat.BinValue(0, inf), flat.NumBinEdges(0));
}

TEST(QuantKernel, WorkerCountNeverChangesABit) {
  std::vector<TreeModel> trees;
  const FlatForest quantized = MakeQuantForest(71, &trees);
  // The same trees without the quantized tables: the float variant.
  const FlatForest float_only = [&] {
    FlatForest flat;
    for (const TreeModel& tree : trees) flat.Add(tree);
    return flat;
  }();
  // 2050 rows crosses two kMtRowBlock boundaries plus a remainder.
  const Dataset block = MakeRowBlock(quantized, 2050, 4242);

  for (const FlatForest* flat : {&float_only, &quantized}) {
    SCOPED_TRACE(flat->UsesQuantized() ? "quantized" : "float");
    // Five trees stay under AccumulateBatch's 16-tree multi-core cutoff,
    // so this is the sequential path.
    std::vector<double> reference(block.NumRows(), 0.25);
    flat->AccumulateBatch(block.Matrix(), reference, 0.75);

    for (std::size_t workers : {1u, 2u, 5u}) {
      SCOPED_TRACE(workers);
      common::ThreadPool pool(workers);
      std::vector<double> out(block.NumRows(), 0.25);
      flat->AccumulateBatchMt(block.Matrix(), out, 0.75, pool);
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(reference[i], out[i]) << "row " << i;
      }
    }
  }
}

TEST(QuantKernel, AutoParallelDispatchMatchesSequential) {
  std::vector<TreeModel> trees;
  // 20 trees x 512 rows clears both multi-core cutoffs, so
  // AccumulateBatch fans out over the global pool when it has 2+
  // workers; a one-worker pool pins the sequential reference.
  const FlatForest flat = MakeQuantForest(83, &trees, 20);
  const Dataset block = MakeRowBlock(flat, 512, 9191);

  std::vector<double> reference(block.NumRows(), 0.0);
  common::ThreadPool single(1);
  flat.AccumulateBatchMt(block.Matrix(), reference, 1.0, single);

  std::vector<double> out(block.NumRows(), 0.0);
  flat.AccumulateBatch(block.Matrix(), out, 1.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(reference[i], out[i]) << "row " << i;
  }
}

TEST(QuantKernel, UnquantizableForestFallsBackToFloat) {
  // One split on feature 2^16: the packed meta word has 16 bits for the
  // feature index, so the forest cannot be quantized and every batch
  // must take the float descent — on any host.
  constexpr int kWide = 1 << 16;
  const TreeModel wide = TreeModel::FromNodes(
      {}, {{.feature = kWide, .threshold = 0.5, .left = 1, .right = 2},
           {.value = 1.25},
           {.value = -0.5}});
  const TreeModel narrow = TreeModel::FromNodes(
      {}, {{.feature = 3, .threshold = 0.25, .left = 1, .right = 2},
           {.value = 0.125},
           {.value = 2.0}});
  FlatForest flat;
  for (const TreeModel* tree : {&wide, &narrow, &wide}) flat.Add(*tree);
  const obs::EnabledScope obs_on(true);
  const obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("ml.quant_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks.Value();
  flat.FinalizeQuantized();
  EXPECT_FALSE(flat.QuantizedBuilt());
  EXPECT_FALSE(flat.UsesQuantized());
  EXPECT_EQ(fallbacks.Value(), fallbacks_before + 1);

  common::Rng rng(2718);
  Dataset block(kWide + 1);
  std::vector<double> row(kWide + 1, 0.0);
  for (std::size_t i = 0; i < 19; ++i) {
    row[3] = rng.Uniform(-0.5, 1.5);
    row[kWide] = i % 5 == 2 ? std::numeric_limits<double>::quiet_NaN()
                            : rng.Uniform(-0.5, 1.5);
    block.Add(row, 0.0);
  }
  std::vector<double> out(block.NumRows(), 0.0);
  flat.AccumulateBatch(block.Matrix(), out, 1.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(flat.PredictRowSum(block.Matrix().Row(i)), out[i])
        << "row " << i;
  }
}

TEST(QuantKernel, TooManyEdgesOnOneFeatureFallsBackAndCounts) {
  // 65535 stumps, each splitting feature 0 at its own threshold: one
  // edge too many for a 16-bit bin id below the always-left rank.
  constexpr int kStumps = 0xFFFF;
  FlatForest flat;
  for (int i = 0; i < kStumps; ++i) {
    flat.Add(TreeModel::FromNodes(
        {}, {{.feature = 0,
              .threshold = static_cast<double>(i),
              .left = 1,
              .right = 2},
             {.value = 1.0},
             {.value = -1.0}}));
  }
  const obs::EnabledScope obs_on(true);
  const obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("ml.quant_fallbacks");
  const std::uint64_t before = fallbacks.Value();
  flat.FinalizeQuantized();
  EXPECT_FALSE(flat.QuantizedBuilt());
  EXPECT_EQ(fallbacks.Value(), before + 1);
}

TEST(QuantKernel, ScalarTierFinalizesCountAsSimdFallbacks) {
  // A host without the AVX2 tier serves every forest from the scalar
  // float descent; each finalized forest counts once there, never on an
  // AVX2 host, and a repeat finalize of a built forest does not count.
  const obs::EnabledScope obs_on(true);
  const obs::Counter& simd_fallbacks =
      obs::Registry::Global().GetCounter("ml.simd_fallbacks");
  const std::uint64_t before = simd_fallbacks.Value();
  constexpr std::uint64_t kForests = 3;
  std::vector<TreeModel> trees;
  for (std::uint64_t seed = 1; seed <= kForests; ++seed) {
    FlatForest flat = MakeQuantForest(seed, &trees, /*num_trees=*/2);
    flat.FinalizeQuantized();
  }
  EXPECT_EQ(simd_fallbacks.Value() - before,
            FlatForest::ActiveTier() == SimdTier::kScalar ? kForests : 0u);
}

TEST(QuantKernel, AddInvalidatesTheQuantizedTables) {
  std::vector<TreeModel> trees;
  FlatForest flat = MakeQuantForest(3, &trees);
  ASSERT_TRUE(flat.QuantizedBuilt());
  flat.Add(trees.front());
  EXPECT_FALSE(flat.QuantizedBuilt());
  flat.FinalizeQuantized();
  EXPECT_TRUE(flat.QuantizedBuilt());
  flat.Clear();
  EXPECT_FALSE(flat.QuantizedBuilt());
}

TEST(QuantKernel, ConcurrentBatchesStayBitIdentical) {
  std::vector<TreeModel> trees;
  // 16 trees x 300 rows clears the multi-core cutoffs: four callers race
  // each other through the global pool's staging and reduction, and
  // each bins into its own thread-local buffer.
  const FlatForest flat = MakeQuantForest(61, &trees, 16);
  const Dataset block = MakeRowBlock(flat, 300, 8888);
  std::vector<double> reference(block.NumRows(), 0.0);
  common::ThreadPool single(1);
  flat.AccumulateBatchMt(block.Matrix(), reference, 1.0, single);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      std::vector<double> out(block.NumRows());
      for (int iter = 0; iter < 50; ++iter) {
        std::fill(out.begin(), out.end(), 0.0);
        flat.AccumulateBatch(block.Matrix(), out, 1.0);
        for (std::size_t i = 0; i < out.size(); ++i) {
          const bool same = out[i] == reference[i] ||
                            (std::isnan(out[i]) && std::isnan(reference[i]));
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gaugur::ml
