#include "sched/methodology.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace gaugur::sched {

using core::Colocation;
using core::QosQuery;

Methodology::Methodology(std::string name, FeasibleFn feasible, FpsFn fps)
    : name_(std::move(name)),
      feasible_(std::move(feasible)),
      fps_(std::move(fps)) {}

std::vector<double> Methodology::PredictFpsSums(
    std::span<const Colocation> candidates) const {
  GAUGUR_CHECK_MSG(CanPredictFps(), name_ << " cannot predict FPS");
  const core::VictimQueries vq = core::BuildVictimQueries(candidates);
  const std::vector<double> fps = fps_(vq.queries);
  std::vector<double> sums(candidates.size(), 0.0);
  for (std::size_t q = 0; q < fps.size(); ++q) {
    sums[vq.query_candidate[q]] += fps[q];
  }
  return sums;
}

namespace {

/// The FPS-threshold methodology: a candidate is feasible when its
/// profiled memory fits and every victim's predicted FPS meets QoS. Only
/// memory-fitting candidates spend queries, all in one `fps` call.
std::unique_ptr<Methodology> MakeThresholdMethod(
    std::string name, const core::FeatureBuilder& features,
    Methodology::FpsFn fps) {
  auto feasible = [&features, fps](double qos_fps,
                                   std::span<const Colocation> candidates) {
    std::vector<char> out(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      out[i] = core::ProfiledMemoryFits(features, candidates[i]) ? 1 : 0;
    }
    const core::VictimQueries vq = core::BuildVictimQueries(candidates, out);
    const std::vector<double> predicted = fps(vq.queries);
    for (std::size_t q = 0; q < predicted.size(); ++q) {
      if (predicted[q] < qos_fps) out[vq.query_candidate[q]] = 0;
    }
    return out;
  };
  return std::make_unique<Methodology>(std::move(name), std::move(feasible),
                                       std::move(fps));
}

}  // namespace

std::unique_ptr<Methodology> MakeGAugurCmMethod(
    const core::GAugurPredictor& predictor) {
  return std::make_unique<Methodology>(
      "GAugur(CM)",
      [&predictor](double qos_fps, std::span<const Colocation> candidates) {
        return predictor.ScoreCandidates(qos_fps, candidates);
      },
      [&predictor](std::span<const QosQuery> queries) {
        return predictor.PredictFpsBatch(queries);
      });
}

std::unique_ptr<Methodology> MakeGAugurRmMethod(
    const core::GAugurPredictor& predictor) {
  return MakeThresholdMethod(
      "GAugur(RM)", predictor.Features(),
      [&predictor](std::span<const QosQuery> queries) {
        return predictor.PredictFpsBatch(queries);
      });
}

std::unique_ptr<Methodology> MakeSigmoidMethod(
    const core::FeatureBuilder& features,
    const baselines::SigmoidModel& model) {
  return MakeThresholdMethod("Sigmoid", features,
                             [&model](std::span<const QosQuery> queries) {
                               return model.PredictFpsBatch(queries);
                             });
}

std::unique_ptr<Methodology> MakeSmiteMethod(
    const core::FeatureBuilder& features,
    const baselines::SmiteModel& model) {
  return MakeThresholdMethod("SMiTe", features,
                             [&model](std::span<const QosQuery> queries) {
                               return model.PredictFpsBatch(queries);
                             });
}

std::unique_ptr<Methodology> MakeVbpMethod(const baselines::VbpModel& model) {
  return std::make_unique<Methodology>(
      "VBP", [&model](double, std::span<const Colocation> candidates) {
        std::vector<char> out(candidates.size());
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          out[i] = model.Feasible(candidates[i]) ? 1 : 0;
        }
        return out;
      });
}

}  // namespace gaugur::sched
