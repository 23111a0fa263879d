#include "ml/tree_kernel.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "ml/decision_tree.h"
#include "ml/tree_kernel_simd.h"
#include "obs/metrics.h"

namespace gaugur::ml {

namespace {

/// Portable block descent: four independent descents in flight per
/// iteration. The fixed per-tree level count (leaf chains pad every
/// path) lets every lane take the same step count, and the
/// child-adjacent layout keeps each step a compare-and-add with no
/// data-dependent branch to mispredict. This is the semantic reference
/// the AVX2 quantized kernel must match bit for bit.
void AccumulateTreeScalar(const FlatNode* nodes, const double* value,
                          std::int32_t root, std::int32_t levels,
                          const double* data, std::size_t rows,
                          std::size_t cols, double* out, double scale) {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* r0 = data + i * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    std::int32_t n0 = root, n1 = root, n2 = root, n3 = root;
    for (std::int32_t d = 0; d < levels; ++d) {
      const FlatNode a = nodes[n0];
      const FlatNode b = nodes[n1];
      const FlatNode c = nodes[n2];
      const FlatNode e = nodes[n3];
      n0 = a.child + static_cast<std::int32_t>(r0[a.feature] > a.threshold);
      n1 = b.child + static_cast<std::int32_t>(r1[b.feature] > b.threshold);
      n2 = c.child + static_cast<std::int32_t>(r2[c.feature] > c.threshold);
      n3 = e.child + static_cast<std::int32_t>(r3[e.feature] > e.threshold);
    }
    out[i] += scale * value[n0];
    out[i + 1] += scale * value[n1];
    out[i + 2] += scale * value[n2];
    out[i + 3] += scale * value[n3];
  }
  for (; i < rows; ++i) {
    const double* row = data + i * cols;
    std::int32_t idx = root;
    for (std::int32_t d = 0; d < levels; ++d) {
      const FlatNode& n = nodes[idx];
      idx = n.child +
            static_cast<std::int32_t>(row[n.feature] > n.threshold);
    }
    out[i] += scale * value[idx];
  }
}

/// Threshold rank marking a leaf/always-left record in a qmeta word. No
/// bin id reaches it (FinalizeQuantized caps edges per feature at
/// kLeafRank - 1), so `bin > kLeafRank` is always false and the record
/// adds 0 to the index — exactly like its +inf float threshold.
constexpr std::uint32_t kLeafRank = 0xFFFFu;

/// The AVX2 quantized kernel computes bin offsets in 32-bit lanes; any
/// batch whose flat element count overflows them (absurd for this
/// repo's row widths) runs the float kernel instead.
bool FitsInt32(std::size_t rows, std::size_t cols) {
  return rows <= static_cast<std::size_t>(
                     std::numeric_limits<std::int32_t>::max()) /
                     (cols == 0 ? 1 : cols);
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdTier FlatForest::ActiveTier() {
#if defined(GAUGUR_SIMD_X86)
  static const SimdTier tier = __builtin_cpu_supports("avx2")
                                   ? SimdTier::kAvx2
                                   : SimdTier::kScalar;
  return tier;
#else
  return SimdTier::kScalar;
#endif
}

void FlatForest::Add(const TreeModel& tree) {
  GAUGUR_CHECK_MSG(tree.IsFitted(), "FlatForest::Add on an unfitted tree");
  // Any structural change invalidates the quantized tables (the GBDT
  // fit adds a tree per stage and re-finalizes once after the last).
  quant_built_ = false;
  edges_.clear();
  edge_flat_.clear();
  edge_off_.clear();
  qmeta_.clear();
  qchild_.clear();
  const auto& nodes = tree.Nodes();
  const auto base = static_cast<std::int32_t>(nodes_.size());
  // Depth() counts levels including the root; descents are one fewer.
  const std::int32_t levels = tree.Depth() - 1;
  roots_.push_back(base);
  levels_.push_back(levels);
  level_index_.push_back(static_cast<std::int32_t>(level_base_.size()));

  // Level-by-level renumbering: every node of descent depth d —
  // including copies of leaves that ended shallower — occupies one
  // contiguous segment, children of a split land adjacent in the next
  // segment, and a leaf at depth k < levels is chained downward (one
  // copy per deeper level, threshold +inf so the step adds 0). Every
  // descent is exactly `levels` steps and step d of a row block reads
  // only level d's segment.
  std::vector<std::int32_t> cur{0};  // original node ids at this level
  std::vector<std::int32_t> next;
  std::int32_t cur_base = base;
  for (std::int32_t d = 0; d <= levels; ++d) {
    level_base_.push_back(cur_base);
    const std::int32_t next_base =
        cur_base + static_cast<std::int32_t>(cur.size());
    nodes_.resize(static_cast<std::size_t>(next_base));
    value_.resize(static_cast<std::size_t>(next_base));
    next.clear();
    for (std::size_t q = 0; q < cur.size(); ++q) {
      const TreeNode& node = nodes[static_cast<std::size_t>(cur[q])];
      const auto self =
          static_cast<std::size_t>(cur_base + static_cast<std::int32_t>(q));
      if (node.feature < 0) {
        // Leaf: self-loop at the last level, chain one level down
        // otherwise. Copies carry the leaf value too, so any level's
        // record is self-describing.
        const std::int32_t child =
            d == levels
                ? static_cast<std::int32_t>(self)
                : next_base + static_cast<std::int32_t>(next.size());
        nodes_[self] = {std::numeric_limits<double>::infinity(), 0, child};
        value_[self] = node.value;
        if (d < levels) next.push_back(cur[q]);
      } else {
        GAUGUR_CHECK_MSG(d < levels, "split below the tree's depth");
        const std::int32_t child =
            next_base + static_cast<std::int32_t>(next.size());
        nodes_[self] = {node.threshold, node.feature, child};
        next.push_back(node.left);
        next.push_back(node.right);
        max_feature_ =
            std::max(max_feature_, static_cast<std::size_t>(node.feature));
      }
    }
    cur.swap(next);
    cur_base = next_base;
  }
}

void FlatForest::Clear() {
  nodes_.clear();
  value_.clear();
  roots_.clear();
  levels_.clear();
  level_base_.clear();
  level_index_.clear();
  max_feature_ = 0;
  edges_.clear();
  edge_flat_.clear();
  edge_off_.clear();
  qmeta_.clear();
  qchild_.clear();
  quant_built_ = false;
}

std::int32_t FlatForest::NumLevels(std::size_t t) const {
  GAUGUR_CHECK(t < roots_.size());
  return levels_[t] + 1;
}

std::pair<std::int32_t, std::int32_t> FlatForest::LevelSpan(
    std::size_t t, std::int32_t d) const {
  GAUGUR_CHECK(t < roots_.size());
  GAUGUR_CHECK(d >= 0 && d <= levels_[t]);
  const auto first = static_cast<std::size_t>(level_index_[t] + d);
  const std::int32_t begin = level_base_[first];
  // Segments are laid out consecutively (across trees too), so the next
  // recorded base is this segment's end.
  const std::int32_t end = first + 1 < level_base_.size()
                               ? level_base_[first + 1]
                               : static_cast<std::int32_t>(nodes_.size());
  return {begin, end};
}

void FlatForest::CheckWidth(std::size_t cols) const {
  GAUGUR_CHECK_MSG(!Empty(), "Predict before Fit");
  GAUGUR_CHECK_MSG(cols > max_feature_,
                   "row width " << cols << " <= max split feature "
                                << max_feature_);
}

double FlatForest::PredictTree(std::size_t t,
                               std::span<const double> x) const {
  CheckWidth(x.size());
  std::int32_t idx = roots_[t];
  const std::int32_t levels = levels_[t];
  for (std::int32_t d = 0; d < levels; ++d) {
    const FlatNode& n = nodes_[static_cast<std::size_t>(idx)];
    idx = n.child + static_cast<std::int32_t>(
                        x[static_cast<std::size_t>(n.feature)] > n.threshold);
  }
  return value_[static_cast<std::size_t>(idx)];
}

double FlatForest::PredictRowSum(std::span<const double> x) const {
  CheckWidth(x.size());
  double sum = 0.0;
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    sum += PredictTree(t, x);
  }
  return sum;
}

void FlatForest::AccumulateTreeBatch(std::size_t t, MatrixView x,
                                     std::span<double> out,
                                     double scale) const {
  CheckWidth(x.cols);
  GAUGUR_CHECK(out.size() == x.rows);
  AccumulateTreeScalar(nodes_.data(), value_.data(), roots_[t], levels_[t],
                       x.data, x.rows, x.cols, out.data(), scale);
}

namespace {

/// Tree `t` over rows [rb, rb + out.size()) of `x`: the quantized
/// descent over `bins` (x pre-binned) when non-null, the float descent
/// otherwise.
void AccumulateTreeRows(const FlatForest& forest, std::size_t t,
                        MatrixView x, const std::uint16_t* bins,
                        std::size_t rb, std::span<double> out, double scale) {
  if (bins != nullptr) {
    forest.AccumulateTreeQuant(t, bins + rb * x.cols, out.size(), x.cols,
                               out, scale);
  } else {
    forest.AccumulateTreeBatch(t, {x.data + rb * x.cols, out.size(), x.cols},
                               out, scale);
  }
}

/// The single-threaded sweep behind AccumulateBatch and
/// AccumulateBatchMt's fallback.
void AccumulateSequential(const FlatForest& forest, MatrixView x,
                          const std::uint16_t* bins, std::span<double> out,
                          double scale) {
  // Rows outer, trees inner: a tree-outer sweep re-streams the whole
  // matrix (and bin matrix) through the cache once PER TREE — for a
  // fleet-sized batch that is gigabytes of re-read traffic and every
  // descent gather pays L3 latency. A row block small enough to stay
  // cache-resident across all trees turns those gathers into L1/L2
  // hits. Bit-identical to the tree-outer order: each row still
  // accumulates its trees in index order, one rounding per step.
  constexpr std::size_t kBatchRowBlock = 512;
  for (std::size_t rb = 0; rb < x.rows; rb += kBatchRowBlock) {
    const std::size_t brows = std::min(kBatchRowBlock, x.rows - rb);
    for (std::size_t t = 0; t < forest.NumTrees(); ++t) {
      AccumulateTreeRows(forest, t, x, bins, rb, out.subspan(rb, brows),
                         scale);
    }
  }
}

/// Bins `x` into this thread's reused buffer when the batch takes the
/// quantized descent; nullptr sends it down the float one. Predictor
/// decision batches call this at high rate, and a fresh buffer per
/// batch would churn the allocator.
const std::uint16_t* BinForDescent(const FlatForest& forest, MatrixView x) {
  if (!forest.UsesQuantized() || !FitsInt32(x.rows, x.cols)) return nullptr;
  static thread_local std::vector<std::uint16_t> bins;
  forest.BinBatch(x, bins);
  return bins.data();
}

}  // namespace

void FlatForest::AccumulateBatch(MatrixView x, std::span<double> out,
                                 double scale) const {
  // Multi-core fan-out pays for itself only when there is enough work
  // to amortize the submit/staging round trip; below the cutoffs (or
  // from a pool worker — a shard's decision batch must stay on its
  // pinned worker) the sequential path wins and is what runs.
  if (x.rows >= 256 && roots_.size() >= 16) {
    common::ThreadPool& pool = common::ThreadPool::Global();
    if (pool.NumThreads() >= 2 && !pool.CurrentThreadInPool()) {
      AccumulateBatchMt(x, out, scale, pool);
      return;
    }
  }
  CheckWidth(x.cols);
  GAUGUR_CHECK(out.size() == x.rows);
  AccumulateSequential(*this, x, BinForDescent(*this, x), out, scale);
}

void FlatForest::AccumulateBatchMt(MatrixView x, std::span<double> out,
                                   double scale,
                                   common::ThreadPool& pool) const {
  CheckWidth(x.cols);
  GAUGUR_CHECK(out.size() == x.rows);
  const std::size_t trees = roots_.size();
  const std::size_t workers = pool.NumThreads();
  const std::uint16_t* bins = BinForDescent(*this, x);

  if (workers < 2 || pool.CurrentThreadInPool() || x.rows == 0) {
    AccumulateSequential(*this, x, bins, out, scale);
    return;
  }

  // Row blocks bound the staging slab (trees * block rows) so a large
  // fleet batch never allocates trees * rows doubles at once.
  constexpr std::size_t kMtRowBlock = 1024;
  const std::size_t nshards = std::min(workers, trees);
  std::vector<double> scratch;
  std::vector<std::future<void>> futs;
  futs.reserve(nshards);
  for (std::size_t rb = 0; rb < x.rows; rb += kMtRowBlock) {
    const std::size_t brows = std::min(kMtRowBlock, x.rows - rb);
    // Stage per-tree products: scratch[t * brows + i] = scale * leaf.
    // The slab starts zeroed and the kernels compute `out += scale *
    // leaf` over it; 0.0 + p == p exactly, so the staged value IS the
    // product with its single multiply rounding.
    scratch.assign(trees * brows, 0.0);
    double* const sbase = scratch.data();
    futs.clear();
    for (std::size_t w = 0; w < nshards; ++w) {
      const std::size_t tb = trees * w / nshards;
      const std::size_t te = trees * (w + 1) / nshards;
      futs.push_back(pool.SubmitPinned(w, [=, this] {
        for (std::size_t t = tb; t < te; ++t) {
          AccumulateTreeRows(*this, t, x, bins, rb,
                             std::span<double>(sbase + t * brows, brows),
                             scale);
        }
      }));
    }
    std::exception_ptr err;
    for (auto& f : futs) {
      try {
        f.get();
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
    // Deterministic reduction: each row adds its tree products in tree
    // order — exactly the addition sequence of the sequential loop, so
    // the result is bit-identical for every worker count.
    for (std::size_t i = 0; i < brows; ++i) {
      double acc = out[rb + i];
      for (std::size_t t = 0; t < trees; ++t) {
        acc += sbase[t * brows + i];
      }
      out[rb + i] = acc;
    }
  }
}

// --- Quantized descent ---------------------------------------------

void FlatForest::FinalizeQuantized() {
  if (quant_built_ || Empty()) return;
  // Each forest the scheme cannot represent counts once, so a model that
  // silently serves from the float descent shows in the run report; so
  // does each forest finalized on a host without the AVX2 tier, where
  // every batch takes the scalar float descent.
  static obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("ml.quant_fallbacks");
  static obs::Counter& simd_fallbacks =
      obs::Registry::Global().GetCounter("ml.simd_fallbacks");
  if (ActiveTier() == SimdTier::kScalar) simd_fallbacks.Add(1);
  if (max_feature_ >= (1u << 16)) {  // feature must fit 16 bits
    fallbacks.Add(1);
    return;
  }

  // Bin edges are the distinct split thresholds themselves — the whole
  // exactness argument. bin(x) counts edges strictly below x, so for a
  // threshold of rank k: x > e_k  ⟺  at least k+1 edges lie below x
  //  ⟺  bin(x) > k. +inf leaf records (and any pathological non-finite
  // threshold, whose float compare is constant-false too) skip the edge
  // list and take the always-left kLeafRank instead.
  std::vector<std::vector<double>> edges(max_feature_ + 1);
  const double inf = std::numeric_limits<double>::infinity();
  for (const FlatNode& n : nodes_) {
    if (n.threshold < inf) {
      edges[static_cast<std::size_t>(n.feature)].push_back(n.threshold);
    }
  }
  for (auto& e : edges) {
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
    // Bin ids must stay strictly below the leaf rank or a real compare
    // could alias the always-left sentinel.
    if (e.size() >= kLeafRank) {
      fallbacks.Add(1);
      return;
    }
  }

  // Eight trailing pad words per array keep the AVX2 kernel's whole-
  // register loads of a small level segment (the vpermd fast path for
  // levels of <= 16 nodes) inside the allocation; the permute selector
  // never picks a pad lane.
  std::vector<std::int32_t> qmeta(nodes_.size() + 8, 0);
  std::vector<std::int32_t> qchild(nodes_.size() + 8, 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const FlatNode& n = nodes_[i];
    std::uint32_t rank = kLeafRank;
    if (n.threshold < inf) {
      const auto& e = edges[static_cast<std::size_t>(n.feature)];
      rank = static_cast<std::uint32_t>(
          std::lower_bound(e.begin(), e.end(), n.threshold) - e.begin());
    }
    qmeta[i] = static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(n.feature) << 16) | rank);
    qchild[i] = n.child;
  }
  // Flatten the edge lists into one slab for BinBatch: slice f is
  // edge_flat_[edge_off_[f] .. edge_off_[f + 1]).
  edge_off_.assign(edges.size() + 1, 0);
  for (std::size_t f = 0; f < edges.size(); ++f) {
    edge_off_[f + 1] =
        edge_off_[f] + static_cast<std::uint32_t>(edges[f].size());
  }
  edge_flat_.clear();
  edge_flat_.reserve(edge_off_.back());
  for (const auto& e : edges) {
    edge_flat_.insert(edge_flat_.end(), e.begin(), e.end());
  }
  edges_ = std::move(edges);
  qmeta_ = std::move(qmeta);
  qchild_ = std::move(qchild);
  quant_built_ = true;
}

bool FlatForest::QuantizedActive() {
  return ActiveTier() == SimdTier::kAvx2;
}

std::size_t FlatForest::NumBinEdges(std::size_t f) const {
  GAUGUR_CHECK_MSG(quant_built_, "bin query before FinalizeQuantized");
  return f < edges_.size() ? edges_[f].size() : 0;
}

std::uint16_t FlatForest::BinValue(std::size_t f, double x) const {
  GAUGUR_CHECK_MSG(quant_built_, "bin query before FinalizeQuantized");
  if (f >= edges_.size() || std::isnan(x)) return 0;
  const auto& e = edges_[f];
  return static_cast<std::uint16_t>(
      std::lower_bound(e.begin(), e.end(), x) - e.begin());
}

namespace {

// Branchless lower_bound: the number of edges strictly below x, i.e.
// std::lower_bound(e, e + n, x) - e for a sorted edge slice with
// n >= 1. The `?:` steps compile to cmov, which matters here because
// fitted thresholds sit right in the thick of the data — every branchy
// probe would be a coin flip for the predictor. NaN compares false
// against every edge and falls out as bin 0 (descends left), matching
// BinValue without an isnan test in the hot loop.
inline std::uint16_t CountEdgesBelow(const double* e, std::size_t n,
                                     double x) {
  std::size_t base = 0;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len >> 1;
    base += e[base + half - 1] < x ? half : 0;
    len -= half;
  }
  base += e[base] < x ? 1 : 0;
  return static_cast<std::uint16_t>(base);
}

}  // namespace

void FlatForest::BinBatch(MatrixView x,
                          std::vector<std::uint16_t>& bins) const {
  GAUGUR_CHECK_MSG(quant_built_, "BinBatch before FinalizeQuantized");
  CheckWidth(x.cols);
  // Two trailing pad elements keep the AVX2 kernel's 4-byte bin gather
  // of the last element inside the allocation.
  bins.resize(x.rows * x.cols + 2);
  const std::size_t nf = edges_.size();
  // Tiled column sweep: within a tile of rows, bin one feature at a
  // time so its edge slice stays hot in L1 for the whole inner loop
  // (a row sweep rotates through every per-feature slice each row);
  // the tile bound keeps the matrix slice being strided L2-resident.
  constexpr std::size_t kBinTile = 256;
  for (std::size_t rb = 0; rb < x.rows; rb += kBinTile) {
    const std::size_t rend = std::min(x.rows, rb + kBinTile);
    for (std::size_t f = 0; f < x.cols; ++f) {
      std::uint16_t* b = bins.data() + rb * x.cols + f;
      const std::size_t n =
          f < nf ? edge_off_[f + 1] - edge_off_[f] : std::size_t{0};
      if (n == 0) {
        // Feature never split on: every value (NaN included) is bin 0.
        for (std::size_t i = rb; i < rend; ++i, b += x.cols) *b = 0;
        continue;
      }
      const double* e = edge_flat_.data() + edge_off_[f];
      const double* v = x.data + rb * x.cols + f;
      const std::size_t s = x.cols;
      // Four interleaved searches: each probe chain is serial on an L1
      // load, so independent rows in flight are what buy throughput.
      std::size_t i = rb;
      for (; i + 4 <= rend; i += 4, b += 4 * s, v += 4 * s) {
        const double x0 = v[0], x1 = v[s], x2 = v[2 * s], x3 = v[3 * s];
        std::size_t b0 = 0, b1 = 0, b2 = 0, b3 = 0;
        std::size_t len = n;
        while (len > 1) {
          const std::size_t half = len >> 1;
          b0 += e[b0 + half - 1] < x0 ? half : 0;
          b1 += e[b1 + half - 1] < x1 ? half : 0;
          b2 += e[b2 + half - 1] < x2 ? half : 0;
          b3 += e[b3 + half - 1] < x3 ? half : 0;
          len -= half;
        }
        b[0] = static_cast<std::uint16_t>(b0 + (e[b0] < x0 ? 1 : 0));
        b[s] = static_cast<std::uint16_t>(b1 + (e[b1] < x1 ? 1 : 0));
        b[2 * s] = static_cast<std::uint16_t>(b2 + (e[b2] < x2 ? 1 : 0));
        b[3 * s] = static_cast<std::uint16_t>(b3 + (e[b3] < x3 ? 1 : 0));
      }
      for (; i < rend; ++i, b += s, v += s) {
        *b = CountEdgesBelow(e, n, *v);
      }
    }
  }
}

void FlatForest::AccumulateTreeQuant(std::size_t t,
                                     const std::uint16_t* bins,
                                     std::size_t rows, std::size_t cols,
                                     std::span<double> out,
                                     double scale) const {
  GAUGUR_CHECK_MSG(quant_built_,
                   "quantized descent before FinalizeQuantized");
  GAUGUR_CHECK_MSG(QuantizedActive() && FitsInt32(rows, cols),
                   "quantized descent needs AVX2 and int32 bin offsets");
  GAUGUR_CHECK(out.size() == rows);
#if defined(GAUGUR_SIMD_X86)
  detail::AccumulateTreeQuantAvx2(qmeta_.data(), qchild_.data(),
                                  value_.data(), roots_[t], levels_[t], bins,
                                  rows, cols, out.data(), scale);
#else
  // Unreachable: QuantizedActive() is false without the AVX2 TU.
  (void)t;
  (void)bins;
  (void)scale;
#endif
}

}  // namespace gaugur::ml
