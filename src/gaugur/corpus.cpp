#include "gaugur/corpus.h"

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace gaugur::core {

namespace {

/// Corpus-generation telemetry: how many colocations the offline budget
/// spent and the realized FPS distribution the models will train on.
struct CorpusMetrics {
  obs::Counter& colocations =
      obs::Registry::Global().GetCounter("corpus.colocations");
  obs::Counter& sessions =
      obs::Registry::Global().GetCounter("corpus.sessions");
  obs::Histogram& measured_fps =
      obs::Registry::Global().GetHistogram("corpus.measured_fps");

  static CorpusMetrics& Get() {
    static CorpusMetrics metrics;
    return metrics;
  }
};

Colocation DrawColocation(const ColocationLab& lab, std::size_t size,
                          bool random_resolutions, common::Rng& rng) {
  const std::size_t num_games = lab.catalog().size();
  GAUGUR_CHECK(size <= num_games);
  constexpr int kMaxAttempts = 1000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const auto ids = rng.SampleWithoutReplacement(num_games, size);
    Colocation colocation;
    colocation.reserve(size);
    for (std::size_t id : ids) {
      SessionRequest session;
      session.game_id = static_cast<int>(id);
      session.resolution =
          random_resolutions
              ? resources::kPlayerResolutions[rng.UniformInt(
                    static_cast<std::uint64_t>(
                        resources::kNumPlayerResolutions))]
              : resources::kReferenceResolution;
      colocation.push_back(session);
    }
    if (lab.FitsMemory(colocation)) return colocation;
  }
  GAUGUR_CHECK_MSG(false, "could not draw a memory-feasible colocation of "
                              << size << " games");
}

}  // namespace

std::vector<MeasuredColocation> GenerateCorpus(const ColocationLab& lab,
                                               const CorpusOptions& options) {
  common::Rng rng(options.seed);
  std::vector<MeasuredColocation> corpus;
  corpus.reserve(static_cast<std::size_t>(
      options.num_pairs + options.num_triples + options.num_quads));

  auto generate = [&](int count, std::size_t size) {
    for (int i = 0; i < count; ++i) {
      const Colocation colocation =
          DrawColocation(lab, size, options.random_resolutions, rng);
      corpus.push_back(
          lab.Measure(colocation, rng.Next(), options.noise_sigma));
      CorpusMetrics::Get().colocations.Add(1);
      CorpusMetrics::Get().sessions.Add(corpus.back().fps.size());
      for (double fps : corpus.back().fps) {
        CorpusMetrics::Get().measured_fps.Record(fps);
      }
    }
  };
  generate(options.num_pairs, 2);
  generate(options.num_triples, 3);
  generate(options.num_quads, 4);
  return corpus;
}

}  // namespace gaugur::core
