// Contiguous inference kernel for CART tree ensembles.
//
// TreeModel stores an AoS node vector that is convenient to build and
// serialize but slow to query: every ensemble prediction pointer-chases
// 24-byte nodes scattered per tree, and the left-or-right choice compiles
// to a data-dependent branch that mispredicts roughly half the time on
// real feature data. FlatForest re-lays fitted trees into one contiguous
// array shared by the whole ensemble and traverses it without branches:
//
//  * nodes are renumbered **level by level**: all nodes of descent depth
//    d of a tree occupy one contiguous segment (LevelSpan), each split's
//    two children sit in adjacent slots of the next segment, and leaves
//    that end shallower than the tree's depth are chained downward (one
//    16-byte copy per deeper level, threshold +inf so the step adds 0).
//    Every root-to-leaf walk is therefore exactly the same fixed number
//    of steps, and step d of a whole row block touches only level d's
//    segment — one contiguous stream instead of a scatter across the
//    tree;
//  * the child choice collapses to integer arithmetic:
//    `idx = child + (x[feature] > threshold)` — a comisd/seta data
//    dependency instead of a mispredicting jump;
//  * each node packs {threshold, feature, child} into 16 bytes, so one
//    descent step touches a single node cache line plus the row value it
//    compares against; leaf values live in a separate array indexed by
//    the final position;
//  * batch entry points sweep cache-sized row blocks with the trees
//    inner, so a block's rows stay hot across the whole ensemble, and
//    descend each block as independent chains for instruction-level
//    parallelism.
//
// Two descent kernels serve batches, chosen by what the build and the
// CPU can run (never by a runtime switch):
//
//  * the portable **scalar float** block descent (4-row unroll) is the
//    oracle every other path is tested against. It serves the GBDT
//    per-stage training update (AccumulateTreeBatch), non-AVX2 or
//    non-x86 hosts, forests that cannot be quantized, and batches too
//    large for 32-bit bin offsets;
//  * the **AVX2 quantized** descent serves every other batch.
//
// Both execute the identical recurrence with the identical decision
// (`x > threshold`; NaN compares false, so every kernel sends a NaN
// feature down the left child — note TreeModel::Predict's
// `x <= threshold` form would send it right, which is why the ensembles
// route their scalar paths through FlatForest too) and the identical
// `out += scale * leaf` accumulation (separate multiply and add, never
// an FMA), so predictions are bit-identical across kernels and match
// the scalar ensemble loops exactly (per row: tree 0, tree 1, ...) —
// the property the batch-equivalence and kernel test suites pin down,
// and the contract the PredictionCache and obs::ModelMonitor depend on
// (a memoized or audited value never depends on which kernel produced
// it).
//
// On top of the float layout sit two accelerations, both bound by the
// same bit-identicality contract (see docs/inference.md):
//
//  * a **quantized** descent (FinalizeQuantized): every distinct split
//    threshold of feature f becomes a bin edge, a batch's feature
//    values are binned once up front (uint16 bin ids), and each node
//    shrinks to 8 bytes of per-level SoA int32 arrays —
//    {feature, threshold-rank} packed in one word plus the child index
//    in another — so a cache line holds 8 nodes instead of 4 and the
//    AVX2 kernel descends 8 rows per vector. Binning is exact by construction:
//    thresholds ARE the bin edges, so `bin(x) > rank(t)` decides
//    exactly like `x > t` (NaN bins to 0 and still descends left; leaf
//    records carry rank 0xFFFF, which no bin id reaches, so their step
//    still adds 0). Quantized results are therefore EXPECT_EQ-equal to
//    the float kernel, not merely close;
//  * a **multi-core** batch path (AccumulateBatchMt): trees fan out
//    over common::ThreadPool workers, each tree's per-row contribution
//    `scale * leaf` is staged in a scratch slab, and a deterministic
//    tree-order reduction replays the exact addition sequence of the
//    sequential loop — so results are bit-identical for every worker
//    count (1, 2, N), and identical to the single-threaded path.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.h"

namespace gaugur::common {
class ThreadPool;
}

namespace gaugur::ml {

class TreeModel;

/// What the running build + CPU can execute: kAvx2 when the AVX2
/// translation unit is compiled in (x86-64 builds) and CPUID reports
/// AVX2, else kScalar. Both tiers return bit-identical predictions.
enum class SimdTier : int { kScalar = 0, kAvx2 = 1 };

const char* SimdTierName(SimdTier tier);

/// One packed split/leaf record. `child` is the index of the left child;
/// the right child is `child + 1` (children adjacent in the next level's
/// segment). Leaves carry threshold == +inf so the descent step adds 0:
/// at the tree's last level they self-loop (child == own index), at
/// shallower levels `child` points at the leaf's copy one level down.
struct alignas(16) FlatNode {
  double threshold = 0.0;
  std::int32_t feature = 0;  // leaves use feature 0
  std::int32_t child = 0;
};
static_assert(sizeof(FlatNode) == 16);

class FlatForest {
 public:
  /// Appends a fitted tree to the ensemble.
  void Add(const TreeModel& tree);

  void Clear();

  bool Empty() const { return roots_.empty(); }
  std::size_t NumTrees() const { return roots_.size(); }
  std::size_t NumNodes() const { return nodes_.size(); }

  /// Largest feature index any node compares on; batch calls CHECK the
  /// row width against this once instead of per node.
  std::size_t MaxFeature() const { return max_feature_; }

  /// The packed node array in level order; read-only structural view for
  /// tests and inspection tooling.
  std::span<const FlatNode> Nodes() const { return nodes_; }

  /// Number of node levels of tree `t` (tree depth); descents take one
  /// step fewer.
  std::int32_t NumLevels(std::size_t t) const;

  /// Half-open node-index span [begin, end) of descent level `d` of
  /// tree `t`: the contiguous segment a row block's step `d` reads.
  std::pair<std::int32_t, std::int32_t> LevelSpan(std::size_t t,
                                                  std::int32_t d) const;

  /// Leaf value of tree `t` for one row (the batch-of-one scalar path).
  double PredictTree(std::size_t t, std::span<const double> x) const;

  /// Sum of all trees' leaf values for one row, accumulated in tree
  /// order (matches the scalar ensemble loops bit for bit).
  double PredictRowSum(std::span<const double> x) const;

  /// out[i] += scale * tree_t(x.Row(i)) for every row, through the
  /// scalar float block descent (the oracle kernel).
  void AccumulateTreeBatch(std::size_t t, MatrixView x,
                           std::span<double> out, double scale) const;

  /// Applies every tree in order to every row: rows-blocked, trees
  /// inner. Takes the AVX2 quantized descent when UsesQuantized() and
  /// the batch fits 32-bit bin offsets, the scalar float descent
  /// otherwise, and the multi-core path on batches of >= 256 rows over
  /// >= 16 trees when the global pool has 2+ workers (all bit-identical,
  /// so no dispatch choice is observable in the outputs).
  void AccumulateBatch(MatrixView x, std::span<double> out,
                       double scale) const;

  /// AccumulateBatch fanned out trees-outer over `pool` via
  /// SubmitPinned. Each tree's per-row product `scale * leaf` is staged
  /// in a scratch slab and reduced in tree order, replaying the exact
  /// addition sequence of the sequential loop — results are
  /// bit-identical to AccumulateBatch for every pool size. Falls back
  /// to the sequential path when called from one of `pool`'s own
  /// workers (a shard worker's decision batch must not re-enter its own
  /// queue) or when the pool has a single worker.
  void AccumulateBatchMt(MatrixView x, std::span<double> out, double scale,
                         common::ThreadPool& pool) const;

  // --- Quantized descent -------------------------------------------

  /// Builds the quantized tables from the current trees: per-feature
  /// sorted bin edges (the distinct split thresholds) plus the packed
  /// per-level SoA node arrays. Idempotent; call after the last Add.
  /// A forest the scheme cannot represent exactly (a feature with more
  /// than 65534 distinct thresholds, or a feature index beyond 16 bits)
  /// simply leaves QuantizedBuilt() false and every batch on the float
  /// path, and adds one to the "ml.quant_fallbacks" counter. Each forest
  /// finalized while ActiveTier() is kScalar adds one to
  /// "ml.simd_fallbacks": its batches run the scalar float descent.
  void FinalizeQuantized();

  /// True when FinalizeQuantized built exact tables for this forest.
  bool QuantizedBuilt() const { return quant_built_; }

  /// True when batch calls on this forest take the quantized descent:
  /// tables built and the host runs the AVX2 kernel.
  bool UsesQuantized() const { return quant_built_ && QuantizedActive(); }

  /// Whether this host runs the quantized descent at all
  /// (ActiveTier() == kAvx2).
  static bool QuantizedActive();

  /// Number of bin edges (distinct split thresholds) of feature `f`;
  /// bin ids for that feature range over [0, NumBinEdges(f)].
  /// Inspection hook for tests and docs tooling.
  std::size_t NumBinEdges(std::size_t f) const;

  /// The bin id the quantized descent compares for value `x` of
  /// feature `f`: the count of edges strictly below `x` (NaN -> 0).
  std::uint16_t BinValue(std::size_t f, double x) const;

  /// Bins one row-major batch into `bins` (resized to rows * cols plus
  /// two elements of gather-overread padding). Test/bench hook for the
  /// exact front half of the quantized batch path.
  void BinBatch(MatrixView x, std::vector<std::uint16_t>& bins) const;

  /// Quantized counterpart of AccumulateTreeBatch over a pre-binned
  /// batch, through the AVX2 kernel. Requires QuantizedBuilt(),
  /// QuantizedActive() and rows * cols within int32 (CHECKed).
  void AccumulateTreeQuant(std::size_t t, const std::uint16_t* bins,
                           std::size_t rows, std::size_t cols,
                           std::span<double> out, double scale) const;

  /// The kernel tier this build + CPU runs, detected once (CPUID).
  static SimdTier ActiveTier();

 private:
  void CheckWidth(std::size_t cols) const;

  std::vector<FlatNode> nodes_;
  std::vector<double> value_;         // leaf value; 0 for splits
  std::vector<std::int32_t> roots_;   // per-tree root node index
  std::vector<std::int32_t> levels_;  // per-tree descent count
  /// Flat list of level-segment start offsets; tree t's levels begin at
  /// level_index_[t] and segments are contiguous, so a segment's end is
  /// the next entry's start (or nodes_.size() for the very last one).
  std::vector<std::int32_t> level_base_;
  std::vector<std::int32_t> level_index_;
  std::size_t max_feature_ = 0;

  // Quantized tables (valid iff quant_built_; any Add invalidates).
  // Per-feature sorted distinct split thresholds: bin(x) for feature f
  // is the count of edges_[f] entries strictly below x.
  std::vector<std::vector<double>> edges_;
  /// The same edges flattened into one contiguous slab for the hot
  /// BinBatch sweep: feature f's slice is
  /// edge_flat_[edge_off_[f] .. edge_off_[f + 1]). One allocation keeps
  /// every per-feature slice a pointer bump apart instead of a heap
  /// object apart.
  std::vector<double> edge_flat_;
  std::vector<std::uint32_t> edge_off_;
  /// SoA node words, parallel to nodes_ (same level-contiguous index
  /// space): qmeta_[i] packs (feature << 16) | threshold_rank, with
  /// rank 0xFFFF marking a leaf record; qchild_[i] is the left-child
  /// index. 8 bytes per node -> 8 nodes per cache line.
  std::vector<std::int32_t> qmeta_;
  std::vector<std::int32_t> qchild_;
  bool quant_built_ = false;
};

}  // namespace gaugur::ml
