// A uniform facade over every prediction methodology the paper compares
// (GAugur CM, GAugur RM, Sigmoid, SMiTe, VBP), so the §5 experiments can
// sweep them: feasibility judgement for the packing study (Fig. 9) and
// per-session FPS prediction for the assignment study (Fig. 10).
//
// One concrete class: a methodology is a name, a batch feasibility
// function and, when it has a performance model, a batch FPS function
// over per-victim queries. GAugur(RM), Sigmoid and SMiTe are one
// construction — screen profiled memory, predict every victim's FPS in
// one batched call, compare with QoS — over their model's
// PredictFpsBatch. GAugur(CM) judges through the predictor's
// ScoreCandidates; VBP judges capacity alone and has no FPS function.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/sigmoid_model.h"
#include "baselines/smite_model.h"
#include "baselines/vbp_model.h"
#include "gaugur/predictor.h"

namespace gaugur::sched {

class Methodology {
 public:
  using FeasibleFn = std::function<std::vector<char>(
      double qos_fps, std::span<const core::Colocation> candidates)>;
  using FpsFn = std::function<std::vector<double>(
      std::span<const core::QosQuery> queries)>;

  /// `fps` may be empty: the methodology then has no performance model.
  Methodology(std::string name, FeasibleFn feasible, FpsFn fps = {});

  const std::string& Name() const { return name_; }

  /// One verdict per candidate colocation: does this methodology judge
  /// it QoS-feasible?
  std::vector<char> FeasibleBatch(
      double qos_fps, std::span<const core::Colocation> candidates) const {
    return feasible_(qos_fps, candidates);
  }

  /// Whether PredictFpsSums is meaningful (VBP has no performance model).
  bool CanPredictFps() const { return static_cast<bool>(fps_); }

  /// Per-candidate sum of the predicted FPS of every session, from one
  /// batched call over core::BuildVictimQueries. Its candidate-major,
  /// victim-minor order adds each candidate's victims in colocation
  /// order, so a sum is bit-identical to the scalar per-victim loop.
  /// Requires CanPredictFps().
  std::vector<double> PredictFpsSums(
      std::span<const core::Colocation> candidates) const;

 private:
  std::string name_;
  FeasibleFn feasible_;
  FpsFn fps_;
};

/// GAugur with the classification model (and RM for FPS if trained).
std::unique_ptr<Methodology> MakeGAugurCmMethod(
    const core::GAugurPredictor& predictor);

/// GAugur using the regression model thresholded for feasibility.
std::unique_ptr<Methodology> MakeGAugurRmMethod(
    const core::GAugurPredictor& predictor);

std::unique_ptr<Methodology> MakeSigmoidMethod(
    const core::FeatureBuilder& features,
    const baselines::SigmoidModel& model);

std::unique_ptr<Methodology> MakeSmiteMethod(
    const core::FeatureBuilder& features, const baselines::SmiteModel& model);

/// Capacity alone: VbpModel's demand vector already holds the memory
/// dimensions, and VBP has no QoS model.
std::unique_ptr<Methodology> MakeVbpMethod(const baselines::VbpModel& model);

}  // namespace gaugur::sched
