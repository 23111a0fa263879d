// Property suite for the FlatForest float descent and level layout:
//
//  * the scalar float block descent (4-row unroll plus tail) and the
//    batch dispatch (the AVX2 quantized descent where the host runs
//    it) produce bit-identical accumulations to the single-row
//    descent over random forests x random row blocks — the contract
//    that lets dispatch, the PredictionCache, and the model monitor
//    ignore which kernel ran;
//  * the level-ordered layout round-trips: flattening a tree and
//    walking the flat form reaches the same leaf values as the
//    canonical pointer traversal, every level is one contiguous
//    segment, every split's children are adjacent in the next segment,
//    and a descent touches exactly one node per level;
//  * concurrent callers of the float descent racing the global pool's
//    multi-core path stay bit-identical (the TSan job runs this suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/tree_kernel.h"
#include "tests/ml/synthetic.h"

namespace gaugur::ml {
namespace {

/// A forest of `num_trees` trees with varied depth/seed (cycling
/// through depths 1, 2, 4, 7, 12) fit on noisy data, plus odd shapes: a
/// stump and a root-only leaf are produced by tiny depth limits,
/// exercising the leaf-chaining path hard.
FlatForest MakeRandomForest(std::uint64_t seed, std::vector<TreeModel>* keep,
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
  return flat;
}

/// Random row block with some adversarial values mixed in: +/-inf and
/// NaN (`NaN > t` is false in every kernel, so all of them send NaN
/// rows down the left child together).
Dataset MakeRowBlock(std::size_t rows, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data(5);
  std::vector<double> row(5);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = rng.Uniform(-0.25, 1.25);
    if (i % 7 == 3) row[i % 5] = std::numeric_limits<double>::infinity();
    if (i % 11 == 5) row[(i + 1) % 5] = -row[(i + 1) % 5];
    if (i % 13 == 8) row[(i + 2) % 5] = std::numeric_limits<double>::quiet_NaN();
    data.Add(row, 0.0);
  }
  return data;
}

TEST(SimdKernel, AllTiersBitIdenticalOnRandomForestsAndBlocks) {
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    std::vector<TreeModel> trees;
    const FlatForest flat = MakeRandomForest(seed, &trees);
    FlatForest finalized = flat;
    finalized.FinalizeQuantized();
    // Block sizes straddle every kernel's unroll width and tail path.
    for (std::size_t rows : {1u, 3u, 4u, 7u, 8u, 9u, 16u, 33u, 128u}) {
      const Dataset block = MakeRowBlock(rows, seed * 977 + rows);
      // The oracle: one row at a time, the same multiply-then-add.
      std::vector<double> reference(rows, 0.5);
      for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
        for (std::size_t i = 0; i < rows; ++i) {
          reference[i] += 0.375 * flat.PredictTree(t, block.Matrix().Row(i));
        }
      }
      std::vector<double> blocked(rows, 0.5);
      for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
        flat.AccumulateTreeBatch(t, block.Matrix(), blocked, 0.375);
      }
      std::vector<double> dispatched(rows, 0.5);
      finalized.AccumulateBatch(block.Matrix(), dispatched, 0.375);
      for (std::size_t i = 0; i < rows; ++i) {
        // Bitwise, not approximate: EXPECT_EQ on doubles.
        EXPECT_EQ(reference[i], blocked[i])
            << "seed " << seed << " rows " << rows << " row " << i;
        EXPECT_EQ(reference[i], dispatched[i])
            << SimdTierName(FlatForest::ActiveTier()) << " seed " << seed
            << " rows " << rows << " row " << i;
      }
    }
  }
}

TEST(SimdKernel, LevelLayoutRoundTripsToPointerTrees) {
  std::vector<TreeModel> trees;
  const FlatForest flat = MakeRandomForest(91, &trees);
  const Dataset block = MakeRowBlock(160, 4242);
  for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
    for (std::size_t i = 0; i < block.NumRows(); ++i) {
      const auto row = block.Matrix().Row(i);
      // Skip NaN rows: TreeModel::Predict descends `x <= t ? left :
      // right` (NaN goes right) while every flat kernel uses `x > t`
      // (NaN goes left). All production scalar/batch paths run the flat
      // form, so only this pointer-tree comparison sees the difference;
      // cross-kernel NaN agreement is pinned by the test above.
      if (std::any_of(row.begin(), row.end(),
                      [](double v) { return std::isnan(v); })) {
        continue;
      }
      EXPECT_EQ(trees[t].Predict(row), flat.PredictTree(t, row))
          << "tree " << t << " row " << i;
    }
  }
}

TEST(SimdKernel, LevelSegmentsAreContiguousAndChildrenAdjacent) {
  std::vector<TreeModel> trees;
  const FlatForest flat = MakeRandomForest(7, &trees);
  std::int32_t expected_begin = 0;
  for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
    ASSERT_GE(flat.NumLevels(t), 1);
    for (std::int32_t d = 0; d < flat.NumLevels(t); ++d) {
      const auto [begin, end] = flat.LevelSpan(t, d);
      // Segments tile the node array with no gaps, across trees too.
      EXPECT_EQ(begin, expected_begin);
      EXPECT_LT(begin, end);
      expected_begin = end;
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(expected_begin), flat.NumNodes());
}

TEST(SimdKernel, ChildPointersLandInTheNextLevelSegment) {
  std::vector<TreeModel> trees;
  const FlatForest flat = MakeRandomForest(29, &trees);
  const std::span<const FlatNode> nodes = flat.Nodes();
  for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
    for (std::int32_t d = 0; d < flat.NumLevels(t); ++d) {
      const auto [begin, end] = flat.LevelSpan(t, d);
      const bool last = d + 1 == flat.NumLevels(t);
      for (std::int32_t n = begin; n < end; ++n) {
        const FlatNode& node = nodes[static_cast<std::size_t>(n)];
        const bool leaf = std::isinf(node.threshold);
        if (last) {
          // Deepest level holds only self-looping leaves: the +inf
          // threshold compares false so the step adds 0 and stays put.
          EXPECT_TRUE(leaf) << "tree " << t << " node " << n;
          EXPECT_EQ(node.child, n) << "tree " << t << " node " << n;
          continue;
        }
        const auto [nb, ne] = flat.LevelSpan(t, d + 1);
        EXPECT_GE(node.child, nb) << "tree " << t << " node " << n;
        // A split reaches child and child + 1; a chained leaf only its
        // single copy one level down.
        EXPECT_LT(node.child + (leaf ? 0 : 1), ne)
            << "tree " << t << " node " << n;
      }
    }
  }
}

TEST(SimdKernel, DescentTouchesExactlyOneNodePerLevel) {
  std::vector<TreeModel> trees;
  const FlatForest flat = MakeRandomForest(29, &trees);
  const std::span<const FlatNode> nodes = flat.Nodes();
  const Dataset block = MakeRowBlock(64, 5151);
  for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
    const std::int32_t steps = flat.NumLevels(t) - 1;
    for (std::size_t i = 0; i < block.NumRows(); ++i) {
      const auto row = block.Matrix().Row(i);
      std::int32_t idx = flat.LevelSpan(t, 0).first;  // the root
      for (std::int32_t d = 0; d < steps; ++d) {
        const auto [begin, end] = flat.LevelSpan(t, d);
        ASSERT_GE(idx, begin) << "tree " << t << " row " << i << " level "
                              << d;
        ASSERT_LT(idx, end) << "tree " << t << " row " << i << " level "
                            << d;
        // Mirror the kernel recurrence one step.
        const FlatNode& n = nodes[static_cast<std::size_t>(idx)];
        idx = n.child +
              static_cast<std::int32_t>(
                  row[static_cast<std::size_t>(n.feature)] > n.threshold);
      }
      const auto [lb, le] = flat.LevelSpan(t, steps);
      ASSERT_GE(idx, lb) << "tree " << t << " row " << i;
      ASSERT_LT(idx, le) << "tree " << t << " row " << i;
    }
  }
}

TEST(SimdKernel, ConcurrentBatchesStayBitIdentical) {
  std::vector<TreeModel> trees;
  // 16 trees x 300 rows clears the multi-core cutoffs. The forest is
  // never finalized, so every batch takes the float descent: four
  // callers race each other through the global pool's staging and
  // reduction and must all reproduce the single-row descent.
  const FlatForest flat = MakeRandomForest(61, &trees, 16);
  ASSERT_FALSE(flat.UsesQuantized());
  const Dataset block = MakeRowBlock(300, 8888);
  std::vector<double> reference(block.NumRows(), 0.0);
  for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      reference[i] += 1.0 * flat.PredictTree(t, block.Matrix().Row(i));
    }
  }

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
