// CART decision trees (Breiman et al.): binary splits chosen by exhaustive
// scan over sorted feature values, minimizing MSE (regression) or Gini
// impurity (binary classification).
//
// One core tree (TreeModel) backs four consumers:
//  * DecisionTreeRegressor / DecisionTreeClassifier — the paper's DTR/DTC;
//  * RandomForest* — bagged trees with per-node feature subsampling;
//  * Gradient boosting — shallow regression trees fit to residuals, with a
//    caller-supplied leaf-value functional for Newton updates.
//
// Training sorts each feature once per ensemble (FeatureOrder); every tree
// filters that order down to its own samples in O(n * d).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/page_array.h"
#include "ml/model.h"
#include "ml/tree_kernel.h"

namespace gaugur::ml {

enum class SplitCriterion { kMse, kGini };

struct TreeConfig {
  SplitCriterion criterion = SplitCriterion::kMse;
  int max_depth = 12;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  /// Number of features considered per split; <= 0 means all features.
  int max_features = -1;
  std::uint64_t seed = 7;
};

struct TreeNode {
  int feature = -1;  // -1 marks a leaf
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;  // leaf prediction
  std::size_t num_samples = 0;
};

/// Recomputes a leaf's value from the training rows that landed in it;
/// used by gradient boosting for Newton leaf updates.
using LeafValueFn =
    std::function<double(std::span<const std::size_t> row_indices)>;

/// Every row of a dataset ordered by (value, row) for each feature: the
/// one sort an ensemble's Fit makes, read (never written) by all of its
/// trees. Each entry packs a row index with kNewValue, set on the first
/// row of each distinct value, which is all a tree needs to rank its own
/// samples' values.
///
/// It also lends the trees their column buffers: a buffer a tree gives
/// back goes to the next tree that asks for the same size, so an
/// ensemble maps them once, and all are unmapped with the order.
class FeatureOrder {
 public:
  static constexpr std::uint32_t kNewValue = 1u << 31;
  static constexpr std::uint32_t kRowMask = kNewValue - 1;

  explicit FeatureOrder(const Dataset& data);

  std::size_t NumRows() const { return num_rows_; }
  std::span<const std::uint32_t> Feature(std::size_t f) const {
    return {entries_.get() + f * num_rows_, num_rows_};
  }

  /// A buffer of `size` words, reused or newly mapped; its contents are
  /// unspecified. Safe to call from several threads.
  common::PageArray<std::uint32_t> BorrowBuffer(std::size_t size) const;
  void ReturnBuffer(common::PageArray<std::uint32_t> buffer) const;

 private:
  std::size_t num_rows_ = 0;
  common::PageArray<std::uint32_t> entries_;  // feature-major, d * n
  mutable std::mutex spare_mutex_;
  mutable std::vector<common::PageArray<std::uint32_t>> spare_;
};

/// A candidate split that beats zero and every earlier candidate of its
/// feature (a strict prefix maximum of the feature's gains).
struct SplitCandidate {
  double gain = 0.0;
  double threshold = 0.0;
};

/// The split a node takes: feature -1 when no candidate was accepted.
struct SplitChoice {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Picks a node's split from per-feature candidate lists: maxima[k] holds
/// the strict prefix maxima of feature features[k], in scan order. It
/// replays the sequential rule "accept when gain > best gain + 1e-12"
/// over features in order, which gives the same split as running that
/// rule over every candidate: a candidate that does not beat an earlier
/// one of its feature is rejected either way, because the best gain never
/// falls. Taking each feature's maximum first would not be exact, as the
/// rule is a tolerance chain rather than a maximum.
SplitChoice ReplaySplitChain(std::span<const int> features,
                             std::span<const std::vector<SplitCandidate>> maxima);

class TreeModel {
 public:
  explicit TreeModel(TreeConfig config = {}) : config_(config) {}

  /// Fits on the rows of `data` listed in `rows` (repeats allowed, as in
  /// a bootstrap sample) against `targets` (indexed by absolute row id,
  /// so callers can pass residual vectors). `order` must be `data`'s
  /// FeatureOrder. `leaf_value` overrides the default leaf mean when
  /// provided. With `search_in_parallel`, large nodes search and
  /// partition their features on ThreadPool::Global(); the tree is the
  /// same bit for bit either way. Callers that already fit trees in
  /// parallel pass false.
  void Fit(const Dataset& data, const FeatureOrder& order,
           std::span<const std::size_t> rows, std::span<const double> targets,
           const LeafValueFn& leaf_value = nullptr,
           bool search_in_parallel = true);

  /// Convenience: fit on all rows against the dataset's own targets.
  void Fit(const Dataset& data);

  double Predict(std::span<const double> x) const;

  const std::vector<TreeNode>& Nodes() const { return nodes_; }
  bool IsFitted() const { return !nodes_.empty(); }

  /// Reconstructs a fitted tree from its node array (serialization).
  static TreeModel FromNodes(TreeConfig config, std::vector<TreeNode> nodes) {
    TreeModel tree(config);
    tree.nodes_ = std::move(nodes);
    return tree;
  }
  int Depth() const;
  std::size_t NumLeaves() const;

  const TreeConfig& Config() const { return config_; }

 private:
  TreeConfig config_;
  std::vector<TreeNode> nodes_;
};

/// The paper's DTR. Inference runs on the flattened kernel; tree_ stays
/// the canonical (trainable, serializable) form.
class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = MakeDefaultConfig())
      : tree_(config) {}

  void Fit(const Dataset& data) override {
    tree_.Fit(data);
    RebuildKernel();
  }
  double Predict(std::span<const double> x) const override {
    return flat_.PredictTree(0, x);
  }
  using Regressor::PredictBatch;
  void PredictBatch(MatrixView x, std::span<double> out) const override {
    GAUGUR_CHECK(out.size() == x.rows);
    for (std::size_t i = 0; i < x.rows; ++i) {
      out[i] = flat_.PredictTree(0, x.Row(i));
    }
  }
  std::string Name() const override { return "DTR"; }
  const TreeModel& Tree() const { return tree_; }

  /// Wraps an already-fitted tree (serialization).
  static DecisionTreeRegressor FromTree(TreeModel tree) {
    DecisionTreeRegressor model(tree.Config());
    model.tree_ = std::move(tree);
    model.RebuildKernel();
    return model;
  }

  static TreeConfig MakeDefaultConfig() {
    TreeConfig c;
    c.criterion = SplitCriterion::kMse;
    c.max_depth = 10;
    c.min_samples_leaf = 3;
    return c;
  }

 private:
  void RebuildKernel() {
    flat_.Clear();
    flat_.Add(tree_);
  }

  TreeModel tree_;
  FlatForest flat_;
};

/// The paper's DTC. Leaf values are positive-class fractions, so the tree
/// doubles as a probability estimator.
class DecisionTreeClassifier final : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeConfig config = MakeDefaultConfig())
      : tree_(config) {}

  void Fit(const Dataset& data) override {
    tree_.Fit(data);
    RebuildKernel();
  }
  double PredictProb(std::span<const double> x) const override {
    return flat_.PredictTree(0, x);
  }
  using Classifier::PredictProbBatch;
  void PredictProbBatch(MatrixView x, std::span<double> out) const override {
    GAUGUR_CHECK(out.size() == x.rows);
    for (std::size_t i = 0; i < x.rows; ++i) {
      out[i] = flat_.PredictTree(0, x.Row(i));
    }
  }
  std::string Name() const override { return "DTC"; }
  const TreeModel& Tree() const { return tree_; }

  /// Wraps an already-fitted tree (serialization).
  static DecisionTreeClassifier FromTree(TreeModel tree) {
    DecisionTreeClassifier model(tree.Config());
    model.tree_ = std::move(tree);
    model.RebuildKernel();
    return model;
  }

  static TreeConfig MakeDefaultConfig() {
    TreeConfig c;
    c.criterion = SplitCriterion::kGini;
    c.max_depth = 10;
    c.min_samples_leaf = 3;
    return c;
  }

 private:
  void RebuildKernel() {
    flat_.Clear();
    flat_.Add(tree_);
  }

  TreeModel tree_;
  FlatForest flat_;
};

}  // namespace gaugur::ml
