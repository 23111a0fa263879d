#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace gaugur::ml {

namespace {

/// Tree-training telemetry. Split evaluations are accumulated in a plain
/// local during Fit and flushed once per tree — the split search is far
/// too hot for per-candidate atomics.
struct TreeMetrics {
  obs::Counter& tree_fits =
      obs::Registry::Global().GetCounter("ml.tree_fits");
  obs::Counter& split_evaluations =
      obs::Registry::Global().GetCounter("ml.split_evaluations");
  obs::Counter& tree_nodes =
      obs::Registry::Global().GetCounter("ml.tree_nodes");
  obs::Histogram& tree_fit_us =
      obs::Registry::Global().GetHistogram("ml.tree_fit_us");

  static TreeMetrics& Get() {
    static TreeMetrics metrics;
    return metrics;
  }
};

/// Node impurity * count ("weighted impurity"): sum of squared deviations
/// for MSE; count * gini for classification. Only differences of this
/// quantity matter for split selection.
double WeightedImpurity(SplitCriterion criterion, double sum, double sum_sq,
                        double count) {
  if (count <= 0.0) return 0.0;
  if (criterion == SplitCriterion::kMse) {
    return sum_sq - sum * sum / count;
  }
  // Gini with binary targets: sum == positive count.
  const double p = sum / count;
  return count * 2.0 * p * (1.0 - p);
}

/// Work (samples x features) below which a node searches and partitions
/// its features on the calling thread: a fan-out over the pool costs tens
/// of microseconds, more than a small node's whole scan.
constexpr std::size_t kParallelWork = std::size_t{1} << 15;

/// Most chunks ForFeatureChunks cuts a feature range into; buffers that
/// chunks write are sized for this many.
std::size_t MaxChunks() {
  return 4 * common::ThreadPool::Global().NumThreads();
}

/// Runs body(chunk, begin, end) over contiguous chunks of the feature
/// range [0, count): at most MaxChunks() of them on ThreadPool::Global()
/// when `parallel`, else one call on this thread. Each chunk owns its
/// features' outputs and its chunk-indexed scratch, so the result does
/// not depend on how the range was cut or who ran it. The caller makes
/// the scratch, so pool workers' own heaps keep none of it.
void ForFeatureChunks(
    std::size_t count, bool parallel,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t chunks = parallel ? std::min(count, MaxChunks()) : 1;
  if (chunks <= 1) {
    body(0, 0, count);
    return;
  }
  common::ThreadPool::Global().ParallelFor(0, chunks, [&](std::size_t c) {
    body(c, c * count / chunks, (c + 1) * count / chunks);
  });
}

/// One node's slice and the sums its split search starts from.
struct NodeStats {
  std::size_t begin = 0;
  std::size_t end = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double impurity = 0.0;
};

/// One tree's samples ("slots": a bootstrap duplicate gets a slot of its
/// own) in contiguous per-feature columns. Column f lists the slots in
/// (value, row, slot) order beside the dense rank of each slot's value,
/// so the split scan reads memory in sequence and tests a tie with one
/// integer compare; thresholds still come from the real doubles. Nodes
/// own aligned [begin, end) ranges of every column, and a split stably
/// partitions each column once (O(n * d) per node) instead of sorting.
class ColumnBuilder {
 public:
  ColumnBuilder(const Dataset& data, const FeatureOrder& order,
                std::span<const std::size_t> rows,
                std::span<const double> targets, bool parallel)
      : x_(data.Matrix().data),
        num_features_(data.NumFeatures()),
        num_slots_(rows.size()),
        // Each column has one pad word past its last slot.
        stride_(num_slots_ + 1),
        parallel_(parallel),
        slot_row_(rows.begin(), rows.end()),
        target_(rows.size()),
        is_left_(num_slots_),
        order_(order),
        // Slot and rank columns, then one partition buffer per chunk.
        block_(order.BorrowBuffer(
            2 * stride_ * (num_features_ + (parallel ? MaxChunks() : 1)))) {
    const std::size_t n = order.NumRows();
    GAUGUR_CHECK(n == data.NumRows());
    GAUGUR_CHECK(num_slots_ <= FeatureOrder::kRowMask);
    // Slots grouped by row, each row's in increasing slot order.
    std::vector<std::uint32_t> row_begin(n + 1, 0);
    for (std::size_t s = 0; s < num_slots_; ++s) {
      GAUGUR_CHECK(rows[s] < n);
      target_[s] = targets[rows[s]];
      ++row_begin[rows[s] + 1];
    }
    std::partial_sum(row_begin.begin(), row_begin.end(), row_begin.begin());
    std::vector<std::uint32_t> row_slots(num_slots_ + 1);
    std::vector<std::uint32_t> cursor(row_begin.begin(), row_begin.end() - 1);
    for (std::size_t s = 0; s < num_slots_; ++s) {
      row_slots[cursor[rows[s]]++] = static_cast<std::uint32_t>(s);
    }
    // Filtering the shared order: walking it and emitting each row's
    // slots gives every column in (value, row, slot) order.
    ForFeatureChunks(
        num_features_, parallel_ && n * num_features_ >= kParallelWork,
        [&](std::size_t, std::size_t first, std::size_t last) {
          for (std::size_t f = first; f < last; ++f) {
            std::uint32_t* slots = Slots(f);
            std::uint32_t* ranks = Ranks(f);
            std::uint32_t rank = 0;
            std::size_t out = 0;
            for (const std::uint32_t entry : order.Feature(f)) {
              rank += entry >> 31;
              const std::uint32_t row = entry & FeatureOrder::kRowMask;
              std::uint32_t k = row_begin[row];
              const std::uint32_t k_end = row_begin[row + 1];
              // Store, then advance only if the row has a slot: rows
              // left out of a subsample cost no branch (the pad word
              // takes a store past the last slot). Bootstrap duplicates
              // take the loop.
              slots[out] = row_slots[k];
              ranks[out] = rank;
              out += k < k_end ? 1 : 0;
              for (++k; k < k_end; ++k) {
                slots[out] = row_slots[k];
                ranks[out] = rank;
                ++out;
              }
            }
          }
        });
  }

  ~ColumnBuilder() { order_.ReturnBuffer(std::move(block_)); }
  ColumnBuilder(const ColumnBuilder&) = delete;
  ColumnBuilder& operator=(const ColumnBuilder&) = delete;

  double Value(std::uint32_t slot, std::size_t feature) const {
    return x_[slot_row_[slot] * num_features_ + feature];
  }
  double Target(std::uint32_t slot) const { return target_[slot]; }
  std::size_t RowOf(std::uint32_t slot) const { return slot_row_[slot]; }
  std::size_t NumSlots() const { return num_slots_; }

  std::span<const std::uint32_t> Slice(std::size_t feature,
                                       std::size_t begin,
                                       std::size_t end) const {
    return {Slots(feature) + begin, end - begin};
  }

  /// Scans feature f over the node and appends each candidate that beats
  /// zero and every earlier candidate (see ReplaySplitChain). Returns the
  /// number of candidates evaluated.
  std::uint64_t Scan(std::size_t f, const NodeStats& node,
                     SplitCriterion criterion, std::size_t min_samples_leaf,
                     std::vector<SplitCandidate>& maxima) const {
    const std::size_t n = node.end - node.begin;
    const std::uint32_t* slots = Slots(f) + node.begin;
    const std::uint32_t* ranks = Ranks(f) + node.begin;
    const std::size_t min_leaf = std::max<std::size_t>(min_samples_leaf, 1);
    if (ranks[0] == ranks[n - 1] || n < 2 * min_leaf) return 0;

    std::uint64_t evaluated = 0;
    double top = 0.0;
    double left_sum = 0.0, left_sum_sq = 0.0;
    std::size_t i = 0;
    for (; i + 1 < min_leaf; ++i) {
      const double t = target_[slots[i]];
      left_sum += t;
      left_sum_sq += t * t;
    }
    // Cuts after slot i leave both sides at least min_leaf slots.
    for (; i < n - min_leaf; ++i) {
      const double t = target_[slots[i]];
      left_sum += t;
      left_sum_sq += t * t;
      if (ranks[i] == ranks[i + 1]) continue;  // no cut between equal values
      const std::size_t left_n = i + 1;
      const std::size_t right_n = n - left_n;
      ++evaluated;
      const double impurity =
          WeightedImpurity(criterion, left_sum, left_sum_sq,
                           static_cast<double>(left_n)) +
          WeightedImpurity(criterion, node.sum - left_sum,
                           node.sum_sq - left_sum_sq,
                           static_cast<double>(right_n));
      const double gain = node.impurity - impurity;
      if (gain > top) {
        top = gain;
        maxima.push_back(
            {gain, 0.5 * (Value(slots[i], f) + Value(slots[i + 1], f))});
      }
    }
    return evaluated;
  }

  /// Stably partitions the columns' [begin, end) range so slots
  /// satisfying value(split_feature) <= threshold come first. Returns the
  /// boundary offset. Column 0, whose order leaf values and node sums
  /// follow, is always partitioned. The others are skipped when the
  /// children will be leaves, which read no other column, and where a
  /// column's values are all equal over the range: every sub-range is
  /// then constant too, and Scan never reads a constant range's slots.
  std::size_t Partition(std::size_t begin, std::size_t end,
                        int split_feature, double threshold,
                        bool children_are_leaves) {
    const auto f = static_cast<std::size_t>(split_feature);
    std::size_t left_count = 0;
    for (const std::uint32_t slot : Slice(f, begin, end)) {
      const bool left = Value(slot, f) <= threshold;
      is_left_[slot] = left;
      left_count += left ? 1 : 0;
    }
    const std::size_t mid = begin + left_count;
    ForFeatureChunks(
        num_features_,
        parallel_ && (end - begin) * num_features_ >= kParallelWork,
        [&](std::size_t chunk, std::size_t first, std::size_t last) {
          // Left slots compact in place (lo never passes i); right slots
          // wait in the chunk's buffer. Both stores happen every step and
          // only one cursor moves, so the loop has no data-dependent
          // branch. The buffer's extra word takes the right store made
          // after the last right slot.
          std::uint32_t* right_slots = Buffer(chunk);
          std::uint32_t* right_ranks = right_slots + stride_;
          for (std::size_t g = first; g < last; ++g) {
            std::uint32_t* slots = Slots(g);
            std::uint32_t* ranks = Ranks(g);
            if (g != 0 &&
                (children_are_leaves || ranks[begin] == ranks[end - 1])) {
              continue;
            }
            std::size_t lo = begin;
            std::size_t hi = 0;
            for (std::size_t i = begin; i < end; ++i) {
              const std::uint32_t slot = slots[i];
              const std::uint32_t rank = ranks[i];
              const std::size_t left = is_left_[slot];
              slots[lo] = slot;
              ranks[lo] = rank;
              right_slots[hi] = slot;
              right_ranks[hi] = rank;
              lo += left;
              hi += 1 - left;
            }
            std::copy_n(right_slots, end - mid, slots + mid);
            std::copy_n(right_ranks, end - mid, ranks + mid);
          }
        });
    return mid;
  }

 private:
  std::uint32_t* Slots(std::size_t f) const {
    return block_.get() + 2 * f * stride_;
  }
  std::uint32_t* Ranks(std::size_t f) const { return Slots(f) + stride_; }
  std::uint32_t* Buffer(std::size_t chunk) const {
    return Slots(num_features_ + chunk);
  }

  const double* x_;  // the dataset's row-major matrix
  std::size_t num_features_;
  std::size_t num_slots_;
  std::size_t stride_;
  bool parallel_;
  std::vector<std::size_t> slot_row_;
  std::vector<double> target_;  // by slot
  std::vector<char> is_left_;   // by slot
  const FeatureOrder& order_;
  common::PageArray<std::uint32_t> block_;
};

}  // namespace

FeatureOrder::FeatureOrder(const Dataset& data)
    : num_rows_(data.NumRows()),
      entries_(common::MapPageArray<std::uint32_t>(data.NumFeatures() *
                                                   data.NumRows())) {
  GAUGUR_CHECK(num_rows_ <= kRowMask);
  const std::size_t d = data.NumFeatures();
  const double* x = data.Matrix().data;
  const bool parallel = num_rows_ * d >= kParallelWork;
  struct Entry {
    double value;
    std::uint32_t row;
  };
  // One sort buffer per chunk, made here so pool workers allocate none.
  const auto buffers =
      common::MapPageArray<Entry>(num_rows_ * (parallel ? MaxChunks() : 1));
  ForFeatureChunks(
      d, parallel, [&](std::size_t chunk, std::size_t first, std::size_t last) {
        Entry* column = buffers.get() + chunk * num_rows_;
        for (std::size_t f = first; f < last; ++f) {
          for (std::size_t r = 0; r < num_rows_; ++r) {
            column[r] = {x[r * d + f], static_cast<std::uint32_t>(r)};
          }
          std::sort(column, column + num_rows_,
                    [](const Entry& a, const Entry& b) {
                      return a.value < b.value ||
                             (!(b.value < a.value) && a.row < b.row);
                    });
          std::uint32_t* out = entries_.get() + f * num_rows_;
          for (std::size_t i = 0; i < num_rows_; ++i) {
            const bool new_value =
                i == 0 || column[i - 1].value < column[i].value;
            out[i] = column[i].row | (new_value ? kNewValue : 0u);
          }
        }
      });
}

common::PageArray<std::uint32_t> FeatureOrder::BorrowBuffer(
    std::size_t size) const {
  {
    const std::lock_guard lock(spare_mutex_);
    const auto fits = std::find_if(
        spare_.begin(), spare_.end(), [&](const auto& spare) {
          return spare.get_deleter().bytes == size * sizeof(std::uint32_t);
        });
    if (fits != spare_.end()) {
      std::swap(*fits, spare_.back());
      auto buffer = std::move(spare_.back());
      spare_.pop_back();
      return buffer;
    }
  }
  return common::MapPageArray<std::uint32_t>(size);
}

void FeatureOrder::ReturnBuffer(
    common::PageArray<std::uint32_t> buffer) const {
  const std::lock_guard lock(spare_mutex_);
  spare_.push_back(std::move(buffer));
}

SplitChoice ReplaySplitChain(
    std::span<const int> features,
    std::span<const std::vector<SplitCandidate>> maxima) {
  GAUGUR_CHECK(features.size() == maxima.size());
  SplitChoice best;
  for (std::size_t k = 0; k < features.size(); ++k) {
    for (const SplitCandidate& c : maxima[k]) {
      if (c.gain > best.gain + 1e-12) {
        best = {features[k], c.threshold, c.gain};
      }
    }
  }
  return best;
}

void TreeModel::Fit(const Dataset& data) {
  std::vector<std::size_t> rows(data.NumRows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Fit(data, FeatureOrder(data), rows, data.Targets());
}

void TreeModel::Fit(const Dataset& data, const FeatureOrder& order,
                    std::span<const std::size_t> rows,
                    std::span<const double> targets,
                    const LeafValueFn& leaf_value, bool search_in_parallel) {
  GAUGUR_CHECK(!rows.empty());
  GAUGUR_CHECK(targets.size() == data.NumRows());
  obs::ScopedTimer fit_timer(TreeMetrics::Get().tree_fit_us);
  std::uint64_t split_evals = 0;
  nodes_.clear();

  const std::size_t num_features = data.NumFeatures();
  common::Rng rng(config_.seed);
  ColumnBuilder builder(data, order, rows, targets, search_in_parallel);

  struct WorkItem {
    int node;
    int depth;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<WorkItem> stack;

  // Leaf values and node sums add targets in column 0's order.
  auto make_leaf = [&](int node_idx, std::size_t begin, std::size_t end) {
    TreeNode& node = nodes_[static_cast<std::size_t>(node_idx)];
    node.feature = -1;
    const auto slots = builder.Slice(0, begin, end);
    if (leaf_value) {
      std::vector<std::size_t> leaf_rows;
      leaf_rows.reserve(slots.size());
      for (std::uint32_t s : slots) leaf_rows.push_back(builder.RowOf(s));
      node.value = leaf_value(leaf_rows);
    } else {
      double sum = 0.0;
      for (std::uint32_t s : slots) sum += builder.Target(s);
      node.value = sum / static_cast<double>(slots.size());
    }
  };

  nodes_.emplace_back();
  nodes_[0].num_samples = builder.NumSlots();
  stack.push_back({0, 0, 0, builder.NumSlots()});

  std::vector<int> feature_order(num_features);
  std::iota(feature_order.begin(), feature_order.end(), 0);
  std::vector<std::vector<SplitCandidate>> maxima(num_features);
  std::vector<std::uint64_t> evaluated(num_features);

  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    const std::size_t n = item.end - item.begin;
    nodes_[static_cast<std::size_t>(item.node)].num_samples = n;

    // Stopping conditions: depth, size, or pure targets.
    bool pure = true;
    {
      const auto slots = builder.Slice(0, item.begin, item.end);
      const double first_target = builder.Target(slots[0]);
      for (std::size_t i = 1; i < slots.size() && pure; ++i) {
        pure = builder.Target(slots[i]) == first_target;
      }
    }
    if (item.depth >= config_.max_depth || n < config_.min_samples_split ||
        pure) {
      make_leaf(item.node, item.begin, item.end);
      continue;
    }

    // Feature subsampling (random forest style).
    std::size_t features_to_try = num_features;
    if (config_.max_features > 0 &&
        static_cast<std::size_t>(config_.max_features) < num_features) {
      features_to_try = static_cast<std::size_t>(config_.max_features);
      for (std::size_t i = 0; i < features_to_try; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.UniformInt(num_features - i));
        std::swap(feature_order[i], feature_order[j]);
      }
    }

    NodeStats stats{item.begin, item.end};
    for (std::uint32_t s : builder.Slice(0, item.begin, item.end)) {
      const double t = builder.Target(s);
      stats.sum += t;
      stats.sum_sq += t * t;
    }
    stats.impurity = WeightedImpurity(config_.criterion, stats.sum,
                                      stats.sum_sq, static_cast<double>(n));

    ForFeatureChunks(
        features_to_try,
        search_in_parallel && n * features_to_try >= kParallelWork,
        [&](std::size_t, std::size_t first, std::size_t last) {
          for (std::size_t k = first; k < last; ++k) {
            maxima[k].clear();
            evaluated[k] = builder.Scan(
                static_cast<std::size_t>(feature_order[k]), stats,
                config_.criterion, config_.min_samples_leaf, maxima[k]);
          }
        });
    for (std::size_t k = 0; k < features_to_try; ++k) {
      split_evals += evaluated[k];
    }
    const SplitChoice best = ReplaySplitChain(
        std::span<const int>(feature_order.data(), features_to_try),
        std::span<const std::vector<SplitCandidate>>(maxima.data(),
                                                     features_to_try));

    if (best.feature < 0) {
      make_leaf(item.node, item.begin, item.end);
      continue;
    }

    const std::size_t mid =
        builder.Partition(item.begin, item.end, best.feature, best.threshold,
                          item.depth + 1 >= config_.max_depth);
    GAUGUR_CHECK(mid > item.begin && mid < item.end);

    const int left_idx = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    const int right_idx = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    TreeNode& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = best.feature;
    parent.threshold = best.threshold;
    parent.left = left_idx;
    parent.right = right_idx;
    stack.push_back({left_idx, item.depth + 1, item.begin, mid});
    stack.push_back({right_idx, item.depth + 1, mid, item.end});
  }

  if (obs::Enabled()) {
    TreeMetrics& metrics = TreeMetrics::Get();
    metrics.tree_fits.Add(1);
    metrics.split_evaluations.Add(split_evals);
    metrics.tree_nodes.Add(nodes_.size());
  }
}

double TreeModel::Predict(std::span<const double> x) const {
  GAUGUR_CHECK_MSG(IsFitted(), "Predict before Fit");
  int idx = 0;
  for (;;) {
    const TreeNode& node = nodes_[static_cast<std::size_t>(idx)];
    if (node.feature < 0) return node.value;
    GAUGUR_CHECK(static_cast<std::size_t>(node.feature) < x.size());
    idx = x[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
}

int TreeModel::Depth() const {
  if (nodes_.empty()) return 0;
  std::vector<std::pair<int, int>> stack{{0, 1}};
  int depth = 0;
  while (!stack.empty()) {
    auto [idx, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    const TreeNode& node = nodes_[static_cast<std::size_t>(idx)];
    if (node.feature >= 0) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return depth;
}

std::size_t TreeModel::NumLeaves() const {
  std::size_t leaves = 0;
  for (const auto& node : nodes_) {
    if (node.feature < 0) ++leaves;
  }
  return leaves;
}

}  // namespace gaugur::ml
