// Predictor throughput: queries/sec of the online feasibility service
// under three regimes over the same CM query stream:
//
//  * scalar  — the legacy per-query path: build one feature vector, walk
//    every boosting stage with the pointer-chasing TreeModel traversal,
//    sigmoid, threshold. This is what every scheduler paid per candidate
//    before the batched inference engine.
//  * batch   — GAugurPredictor::PredictQosOkBatch with the prediction
//    cache disabled: one row-major feature matrix per chunk and one
//    flattened-kernel PredictProbBatch call over it.
//  * cached  — the same entry point with the CLOCK PredictionCache warmed,
//    the regime a scheduler sees when arrivals revisit open servers.
//
// Decisions are cross-checked for agreement across all three regimes.
//
// On top of the regimes, two kernel axes, every number cross-checked
// for bit-identical results before the JSON is written:
//
//  * descent: the two kernels FlatForest serves batches with, timed in
//    one per-tree harness over pre-built inputs (rows-blocked, trees
//    inner — exactly AccumulateBatch's loop structure): the scalar float
//    descent over the feature matrix (kernel_float_descent_rps) and, on
//    AVX2 hosts, the quantized descent over the pre-binned batch
//    (kernel_quant_avx2_rps). Binning is the quantized path's batch prep
//    the way feature materialization is the float path's, so it gets
//    its own rate (quant_bin_rows_ps), and kernel_quant_avx2_e2e_rps
//    adds a fresh binning to every quantized pass. The float, binning
//    and quantized passes run interleaved, and
//    speedup_quant_vs_float_kernel is the median of the per-pass float /
//    quantized time ratios — the ratio the quantization work is
//    accountable for, with host drift cancelled within each pair.
//  * multi-core (--threads k1,k2,...): AccumulateBatchMt over explicit
//    ThreadPool(k) instances (kernel_mt_<k>_rps), with results checked
//    bit-identical across every k and per-core scaling efficiency
//    reported (mt_scaling_efficiency).
//
// Emits bench_results/BENCH_predictor.json with the QPS numbers and the
// speedup ratios CI trend-tracks (batch >= 3x scalar, cached >= batch,
// and speedup_quant_vs_float_kernel >= 3.4 on AVX2 hosts).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_world.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "gaugur/predictor.h"
#include "gaugur/training.h"
#include "ml/gradient_boosting.h"
#include "ml/tree_kernel.h"
#include "obs/switch.h"
#include "sched/enumeration.h"
#include "sched/study.h"

using namespace gaugur;

namespace {

constexpr double kQos = 60.0;
constexpr std::size_t kChunk = 512;  // queries per batched call

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pre-batching predictor hot path, replicated verbatim: fresh
/// feature vector, per-stage scalar tree walks, sigmoid, threshold.
std::vector<char> RunScalarBaseline(
    const core::FeatureBuilder& features,
    const ml::GradientBoostedClassifier& gbdt, double threshold,
    std::span<const core::QosQuery> queries) {
  std::vector<char> decisions(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::vector<double> x =
        features.CmFeatures(kQos, queries[i].victim, queries[i].corunners);
    double log_odds = gbdt.BaseValue();
    for (const ml::TreeModel& tree : gbdt.Stages()) {
      log_odds += gbdt.Config().learning_rate * tree.Predict(x);
    }
    decisions[i] = common::Sigmoid(log_odds) >= threshold ? 1 : 0;
  }
  return decisions;
}

std::vector<char> RunPredictorChunked(
    const core::GAugurPredictor& predictor,
    std::span<const core::QosQuery> queries) {
  std::vector<char> decisions;
  decisions.reserve(queries.size());
  for (std::size_t begin = 0; begin < queries.size(); begin += kChunk) {
    const std::size_t count = std::min(kChunk, queries.size() - begin);
    const auto chunk = predictor.PredictQosOkBatch(
        kQos, queries.subspan(begin, count));
    decisions.insert(decisions.end(), chunk.begin(), chunk.end());
  }
  return decisions;
}

/// Parses "--threads 1,2,4" (or "--threads=1,2,4"). Default: powers of
/// two up to the hardware thread count, so the scaling claim is
/// measured against what the machine actually has.
std::vector<std::size_t> ParseThreadsAxis(int argc, char** argv) {
  std::string spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--threads=", 0) == 0) {
      spec = arg.substr(10);
    } else if (arg == "--threads" && i + 1 < argc) {
      spec = argv[++i];
    }
  }
  std::vector<std::size_t> axis;
  if (spec.empty()) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    for (std::size_t k = 1; k <= hw; k *= 2) axis.push_back(k);
    return axis;
  }
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const unsigned long k = std::stoul(tok);
    GAUGUR_CHECK_MSG(k >= 1 && k <= 256, "--threads entry out of range");
    axis.push_back(static_cast<std::size_t>(k));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return axis;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& world = bench::BenchWorld::Get();
  const std::vector<std::size_t> threads_axis = ParseThreadsAxis(argc, argv);
  const auto wall_start = std::chrono::steady_clock::now();

  // Two predictors trained identically (same config/seed/data): one with
  // the cache off, one with it on. The bare GBDT below is constructed
  // with the same seed and dataset as their CM, so all regimes evaluate
  // the exact same model.
  core::PredictorConfig config;
  config.cm_decision_threshold = 0.8;
  core::PredictorConfig uncached_config = config;
  uncached_config.prediction_cache_capacity = 0;
  core::GAugurPredictor uncached(world.features(), uncached_config);
  core::GAugurPredictor cached(world.features(), config);

  const std::vector<double> qos_grid{40.0, 50.0, 55.0, 60.0,
                                     65.0, 70.0, 80.0};
  const auto cm_dataset = core::BuildCmDatasetMultiQos(
      world.features(), world.train_colocations(), qos_grid);
  uncached.TrainCmOnDataset(cm_dataset);
  cached.TrainCmOnDataset(cm_dataset);

  ml::BoostConfig boost;
  boost.seed = config.seed + 1;  // the seed MakeClassifier gives the CM
  ml::GradientBoostedClassifier gbdt(boost);
  gbdt.Fit(cm_dataset);

  // Query stream: every (victim, colocation) pair of the study
  // enumeration, replayed round-robin — schedulers re-scoring the same
  // open-server candidates across arrivals.
  const auto setup = sched::SelectStudyGames(world.lab(), 10, kQos, 5);
  const auto colocations = sched::EnumerateColocations(setup.pool, 4);
  const core::VictimQueries victims = core::BuildVictimQueries(colocations);
  const std::vector<core::QosQuery>& distinct = victims.queries;
  const std::size_t target = world.fast_mode() ? 2000 : 20000;
  std::vector<core::QosQuery> queries;
  queries.reserve(target);
  while (queries.size() < target) {
    const std::size_t take =
        std::min(distinct.size(), target - queries.size());
    queries.insert(queries.end(), distinct.begin(),
                   distinct.begin() + static_cast<std::ptrdiff_t>(take));
  }
  std::printf("query stream: %zu queries (%zu distinct), %zu-query chunks\n",
              queries.size(), distinct.size(), kChunk);

  double scalar_s = 0.0, batch_s = 0.0, cached_s = 0.0;
  std::vector<char> scalar_dec, batch_dec, cached_dec;
  {
    // Timed sections run with observability off: measure inference, not
    // audit bookkeeping.
    const obs::EnabledScope obs_off(false);

    auto t0 = std::chrono::steady_clock::now();
    scalar_dec = RunScalarBaseline(world.features(), gbdt,
                                   config.cm_decision_threshold, queries);
    scalar_s = SecondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    batch_dec = RunPredictorChunked(uncached, queries);
    batch_s = SecondsSince(t0);

    RunPredictorChunked(cached, queries);  // warm the cache
    t0 = std::chrono::steady_clock::now();
    cached_dec = RunPredictorChunked(cached, queries);
    cached_s = SecondsSince(t0);
  }

  GAUGUR_CHECK_MSG(scalar_dec == batch_dec && batch_dec == cached_dec,
                   "regimes disagree on decisions");
  const auto stats = cached.PredictionCacheStats();
  GAUGUR_CHECK_MSG(stats.hits > 0, "cached regime never hit the cache");

  // Kernel axes over one prebuilt feature matrix, isolating the
  // descent from feature building and cache probes.
  std::vector<double> matrix;
  for (const core::QosQuery& q : queries) {
    const std::vector<double> x =
        world.features().CmFeatures(kQos, q.victim, q.corunners);
    matrix.insert(matrix.end(), x.begin(), x.end());
  }
  const std::size_t rows = queries.size();
  const std::size_t cols = matrix.size() / rows;
  const ml::MatrixView view{matrix.data(), rows, cols};
  const ml::FlatForest& flat = gbdt.Kernel();
  const double lr = gbdt.Config().learning_rate;
  const bool quant = flat.UsesQuantized();
  const int descent_passes = world.fast_mode() ? 9 : 15;
  const int kernel_reps = world.fast_mode() ? 4 : 8;
  double float_descent_rps = 0.0;
  double quant_descent_rps = 0.0;
  double quant_e2e_rps = 0.0;
  double quant_bin_rows_ps = 0.0;
  double speedup_quant_vs_float = 0.0;
  std::vector<double> mt_kernel_rps(threads_axis.size());
  {
    const obs::EnabledScope obs_off(false);

    // One timed pass of `tree_pass` over every row block and tree, from
    // zeroed sums; returns seconds.
    constexpr std::size_t kRowBlock = 512;  // mirrors AccumulateBatch
    std::vector<double> float_sums(rows);
    std::vector<double> quant_sums(rows);
    const auto time_pass = [&](std::vector<double>& sums, auto&& tree_pass) {
      std::fill(sums.begin(), sums.end(), 0.0);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t rb = 0; rb < rows; rb += kRowBlock) {
        const std::size_t brows = std::min(kRowBlock, rows - rb);
        for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
          tree_pass(t, rb, brows, std::span<double>(sums).subspan(rb, brows));
        }
      }
      return SecondsSince(t0);
    };
    std::vector<double> float_s, quant_s, bin_s, e2e_s, ratio;
    std::vector<std::uint16_t> bins;
    for (int pass = 0; pass < descent_passes; ++pass) {
      float_s.push_back(time_pass(
          float_sums, [&](std::size_t t, std::size_t rb, std::size_t brows,
                          std::span<double> o) {
            flat.AccumulateTreeBatch(
                t, {matrix.data() + rb * cols, brows, cols}, o, lr);
          }));
      if (!quant) continue;
      auto t0 = std::chrono::steady_clock::now();
      flat.BinBatch(view, bins);
      bin_s.push_back(SecondsSince(t0));
      quant_s.push_back(time_pass(
          quant_sums, [&](std::size_t t, std::size_t rb, std::size_t brows,
                          std::span<double> o) {
            flat.AccumulateTreeQuant(t, bins.data() + rb * cols, brows, cols,
                                     o, lr);
          }));
      GAUGUR_CHECK_MSG(quant_sums == float_sums,
                       "quantized descent changed the accumulation bits");
      e2e_s.push_back(bin_s.back() + quant_s.back());
      ratio.push_back(float_s.back() / quant_s.back());
    }
    const auto n = static_cast<double>(rows);
    float_descent_rps = n / common::Percentile(float_s, 0.5);
    if (quant) {
      quant_descent_rps = n / common::Percentile(quant_s, 0.5);
      quant_bin_rows_ps = n / common::Percentile(bin_s, 0.5);
      quant_e2e_rps = n / common::Percentile(e2e_s, 0.5);
      speedup_quant_vs_float = common::Percentile(ratio, 0.5);
    }

    // Multi-core axis: the raw kernel over explicit pools, one per
    // --threads entry, every worker count checked bit-identical against
    // the single-threaded accumulation (the deterministic-reduction
    // contract, enforced here so the JSON never ships numbers from a
    // run that broke it).
    std::vector<double> sums(rows);
    std::vector<double> reference(rows, gbdt.BaseValue());
    common::ThreadPool single(1);
    flat.AccumulateBatchMt(view, reference, lr, single);
    for (std::size_t k = 0; k < threads_axis.size(); ++k) {
      common::ThreadPool pool(threads_axis[k]);
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kernel_reps; ++rep) {
        std::fill(sums.begin(), sums.end(), gbdt.BaseValue());
        flat.AccumulateBatchMt(view, sums, lr, pool);
      }
      mt_kernel_rps[k] = n * kernel_reps / SecondsSince(t0);
      GAUGUR_CHECK_MSG(sums == reference,
                       threads_axis[k]
                           << " workers changed the accumulation bits");
    }
  }

  const double n = static_cast<double>(queries.size());
  const double scalar_qps = n / scalar_s;
  const double batch_qps = n / batch_s;
  const double cached_qps = n / cached_s;
  std::printf("scalar  : %10.0f queries/sec\n", scalar_qps);
  std::printf("batch   : %10.0f queries/sec  (%.2fx scalar)\n", batch_qps,
              batch_qps / scalar_qps);
  std::printf("cached  : %10.0f queries/sec  (%.2fx batch)\n", cached_qps,
              cached_qps / batch_qps);
  std::printf("float descent     : %12.0f descent rows/sec  (scalar)\n",
              float_descent_rps);
  if (quant) {
    std::printf("quant binning     : %12.0f rows/sec  (batch prep)\n",
                quant_bin_rows_ps);
    std::printf(
        "quant descent     : %12.0f descent rows/sec  (%.2fx float, "
        "median of %d paired passes; %.0f rows/sec incl. binning)\n",
        quant_descent_rps, speedup_quant_vs_float, descent_passes,
        quant_e2e_rps);
  }
  for (std::size_t k = 0; k < threads_axis.size(); ++k) {
    const double eff = mt_kernel_rps[k] / mt_kernel_rps.front() /
                       static_cast<double>(threads_axis[k]);
    std::printf(
        "kernel mt %2zu thr : %27.0f kernel rows/sec  (%.0f%% per-core)\n",
        threads_axis[k], mt_kernel_rps[k], 100.0 * eff);
  }

  obs::JsonObject json_config;
  json_config["qos_fps"] = kQos;
  json_config["queries"] = static_cast<unsigned long long>(queries.size());
  json_config["distinct_queries"] =
      static_cast<unsigned long long>(distinct.size());
  json_config["chunk"] = static_cast<unsigned long long>(kChunk);
  json_config["cache_capacity"] = static_cast<unsigned long long>(
      config.prediction_cache_capacity);
  json_config["fast_mode"] = world.fast_mode();
  json_config["simd_active"] =
      std::string(ml::SimdTierName(ml::FlatForest::ActiveTier()));
  json_config["quant_active"] = ml::FlatForest::QuantizedActive();
  json_config["descent_passes"] =
      static_cast<unsigned long long>(descent_passes);
  json_config["hardware_threads"] = static_cast<unsigned long long>(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::string axis_str;
  for (std::size_t k : threads_axis) {
    if (!axis_str.empty()) axis_str += ",";
    axis_str += std::to_string(k);
  }
  json_config["threads_axis"] = axis_str;
  obs::JsonObject counters;
  counters["scalar_qps"] = scalar_qps;
  counters["batch_qps"] = batch_qps;
  counters["cached_qps"] = cached_qps;
  counters["speedup_batch_vs_scalar"] = batch_qps / scalar_qps;
  counters["speedup_cached_vs_batch"] = cached_qps / batch_qps;
  counters["cache_hits"] = static_cast<unsigned long long>(stats.hits);
  counters["cache_misses"] = static_cast<unsigned long long>(stats.misses);
  counters["kernel_float_descent_rps"] = float_descent_rps;
  if (quant) {
    counters["kernel_quant_avx2_rps"] = quant_descent_rps;
    counters["kernel_quant_avx2_e2e_rps"] = quant_e2e_rps;
    counters["quant_bin_rows_ps"] = quant_bin_rows_ps;
    // Median paired ratio of the quantized descent over the scalar float
    // descent, both over pre-built inputs in the same rows-blocked
    // harness (CI gates the committed value >= 3.4).
    counters["speedup_quant_vs_float_kernel"] = speedup_quant_vs_float;
  }
  for (std::size_t k = 0; k < threads_axis.size(); ++k) {
    counters["kernel_mt_" + std::to_string(threads_axis[k]) + "_rps"] =
        mt_kernel_rps[k];
  }
  // Per-core efficiency at the widest measured worker count: 1.0 is
  // perfect linear scaling over the 1-worker entry.
  counters["mt_scaling_efficiency"] =
      mt_kernel_rps.back() / mt_kernel_rps.front() /
      static_cast<double>(threads_axis.back());
  bench::WriteBenchJson("predictor",
                        1000.0 * SecondsSince(wall_start),
                        std::move(json_config), std::move(counters));

  std::printf(
      "\nThe flattened-kernel batch path should clear 3x the legacy "
      "scalar QPS,\nthe warmed cache should beat the batch path again, "
      "and on AVX2 hosts\nthe quantized descent should clear 3.4x the "
      "scalar float descent's rows/sec.\n");
  return 0;
}
