// Scalar reference judgements for the §5 methodologies, built from each
// model's own per-victim call and a per-session memory sum. They share
// nothing with the batch path under test: no BuildVictimQueries, no
// ProfiledMemoryFits, no ScoreCandidates. So a fault in the victim-query
// order, the memory screen or the QoS threshold cannot hide in both.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/sigmoid_model.h"
#include "baselines/smite_model.h"
#include "baselines/vbp_model.h"
#include "gaugur/predictor.h"
#include "sched/methodology.h"

namespace gaugur::testing {

/// One victim's predicted FPS among `corunners`, by a model's scalar call.
using ScalarFps = std::function<double(
    const core::SessionRequest& victim,
    std::span<const core::SessionRequest> corunners)>;

struct ScalarOracle {
  std::string name;
  std::function<bool(double qos_fps, const core::Colocation&)> feasible;
  /// Empty for a methodology without a performance model (VBP).
  ScalarFps fps;
};

inline core::Colocation ScalarCorunners(const core::Colocation& colocation,
                                        std::size_t victim) {
  core::Colocation corunners;
  for (std::size_t j = 0; j < colocation.size(); ++j) {
    if (j != victim) corunners.push_back(colocation[j]);
  }
  return corunners;
}

/// Sum of every victim's scalar FPS, victims in colocation order.
inline double ScalarFpsSum(const ScalarFps& fps,
                           const core::Colocation& colocation) {
  double sum = 0.0;
  for (std::size_t v = 0; v < colocation.size(); ++v) {
    sum += fps(colocation[v], ScalarCorunners(colocation, v));
  }
  return sum;
}

inline bool MemorySumFits(const core::FeatureBuilder& features,
                          const core::Colocation& colocation) {
  double cpu = 0.0, gpu = 0.0;
  for (const auto& session : colocation) {
    cpu += features.Profile(session.game_id).cpu_memory;
    gpu += features.Profile(session.game_id).gpu_memory;
  }
  return cpu <= 1.0 && gpu <= 1.0;
}

/// Memory fits and every victim's verdict holds.
inline bool EveryVictim(
    const core::FeatureBuilder& features, const core::Colocation& colocation,
    const std::function<bool(const core::SessionRequest&,
                             const core::Colocation&)>& victim_ok) {
  if (!MemorySumFits(features, colocation)) return false;
  for (std::size_t v = 0; v < colocation.size(); ++v) {
    if (!victim_ok(colocation[v], ScalarCorunners(colocation, v))) {
      return false;
    }
  }
  return true;
}

/// Memory fits and every victim's scalar FPS meets QoS.
inline ScalarOracle ThresholdOracle(std::string name,
                                    const core::FeatureBuilder& features,
                                    ScalarFps fps) {
  auto feasible = [&features, fps](double qos_fps,
                                   const core::Colocation& colocation) {
    return EveryVictim(features, colocation,
                       [&](const core::SessionRequest& victim,
                           const core::Colocation& corunners) {
                         return fps(victim, corunners) >= qos_fps;
                       });
  };
  return {std::move(name), std::move(feasible), std::move(fps)};
}

inline ScalarOracle GAugurCmOracle(const core::GAugurPredictor& predictor) {
  return {"GAugur(CM)",
          [&predictor](double qos_fps, const core::Colocation& colocation) {
            return EveryVictim(predictor.Features(), colocation,
                               [&](const core::SessionRequest& victim,
                                   const core::Colocation& corunners) {
                                 return predictor.PredictQosOk(
                                     qos_fps, victim, corunners);
                               });
          },
          [&predictor](const core::SessionRequest& victim,
                       std::span<const core::SessionRequest> corunners) {
            return predictor.PredictFps(victim, corunners);
          }};
}

inline ScalarOracle GAugurRmOracle(const core::GAugurPredictor& predictor) {
  return ThresholdOracle(
      "GAugur(RM)", predictor.Features(),
      [&predictor](const core::SessionRequest& victim,
                   std::span<const core::SessionRequest> corunners) {
        return predictor.PredictFps(victim, corunners);
      });
}

inline ScalarOracle SigmoidOracle(const core::FeatureBuilder& features,
                                  const baselines::SigmoidModel& model) {
  return ThresholdOracle(
      "Sigmoid", features,
      [&model](const core::SessionRequest& victim,
               std::span<const core::SessionRequest> corunners) {
        return model.PredictFps(victim, corunners.size());
      });
}

inline ScalarOracle SmiteOracle(const core::FeatureBuilder& features,
                                const baselines::SmiteModel& model) {
  return ThresholdOracle(
      "SMiTe", features,
      [&model](const core::SessionRequest& victim,
               std::span<const core::SessionRequest> corunners) {
        return model.PredictFps(victim, corunners);
      });
}

inline ScalarOracle VbpOracle(const baselines::VbpModel& model) {
  return {"VBP",
          [&model](double, const core::Colocation& colocation) {
            return model.Feasible(colocation);
          },
          {}};
}

/// A Methodology that answers every batch call one candidate or one
/// query at a time through `oracle`: the pre-batch evaluation path, for
/// the placement-parity tests.
inline sched::Methodology OracleMethod(ScalarOracle oracle) {
  sched::Methodology::FpsFn fps;
  if (oracle.fps) {
    fps = [fps = oracle.fps](std::span<const core::QosQuery> queries) {
      std::vector<double> out;
      for (const auto& query : queries) {
        out.push_back(fps(query.victim, query.corunners));
      }
      return out;
    };
  }
  return sched::Methodology(
      oracle.name,
      [feasible = oracle.feasible](
          double qos_fps, std::span<const core::Colocation> candidates) {
        std::vector<char> out;
        for (const auto& colocation : candidates) {
          out.push_back(feasible(qos_fps, colocation) ? 1 : 0);
        }
        return out;
      },
      std::move(fps));
}

}  // namespace gaugur::testing
