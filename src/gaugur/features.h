// Feature construction for the GAugur models (paper §3.4).
//
// RM input (Eq. 4, extended):  [ S^A | V^A | I^G ]
// CM input (Eq. 3):            [ Q, F_solo^A | S^A | V^A | I^G ]
//
// where S^A is the victim's 7 sensitivity curves sampled at the k+1 grid
// pressures (7 * 11 = 77 values for k = 10) and I^G is the aggregate
// intensity of the co-runner set G under the paper's fixed-size transform
// (Eq. 5).
//
// V^A is our extension of the paper's feature set: the victim's rendered
// megapixels, its profiled solo FPS at that resolution, and its own 7
// intensities at that resolution (9 values). The paper profiles
// sensitivity once and relies on Observation 6 (resolution invariance);
// in practice invariance is approximate — the victim's resolution shifts
// its CPU/GPU bottleneck balance, and the victim's own pressure feeds
// back into how hard its co-runners push. Making these profiled
// quantities visible to the models cuts the RM's relative error by about
// a third in our evaluation (see DESIGN.md), using only §3.3's linear
// resolution models — no extra profiling cost.
//
// Aggregate-intensity transform (Eq. 5):
//
//   I^G = [ |G|, (mean_1, var_1), ..., (mean_R, var_R) ]    (2R+1 values)
//
// with mean_r the average of the co-runners' intensities on resource r and
// var_r the paper's dispersion term (1/|G|) * sqrt(sum of squared
// deviations). Intensities are evaluated at each co-runner's own
// resolution through the Observation 7/8 linear models, and F_solo at the
// victim's resolution through the Eq. 2 model — profiling happened at the
// reference resolutions only.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "gaugur/colocation.h"
#include "profiling/game_profile.h"

namespace gaugur::core {

/// The paper's aggregate-intensity transform (Eq. 5). Exposed separately
/// so the ablation bench can compare it against naive alternatives.
struct AggregateIntensity {
  double group_size = 0.0;
  resources::PerResource<double> mean{};
  resources::PerResource<double> dispersion{};

  static constexpr std::size_t kDim = 1 + 2 * resources::kNumResources;

  void AppendTo(std::vector<double>& out) const;
};

class FeatureBuilder {
 public:
  /// `profiles` must be indexed so that profiles[game_id].game_id ==
  /// game_id (the profiler preserves catalog order).
  explicit FeatureBuilder(std::vector<profiling::GameProfile> profiles);

  const profiling::GameProfile& Profile(int game_id) const;
  std::size_t NumGames() const { return profiles_.size(); }

  AggregateIntensity Aggregate(
      std::span<const SessionRequest> corunners) const;

  /// RM feature vector for `victim` colocated with `corunners` (victim
  /// excluded from corunners by the caller).
  std::vector<double> RmFeatures(
      const SessionRequest& victim,
      std::span<const SessionRequest> corunners) const;

  /// CM feature vector; prepends [Q, F_solo at victim's resolution].
  std::vector<double> CmFeatures(
      double qos_fps, const SessionRequest& victim,
      std::span<const SessionRequest> corunners) const;

  /// Appends the RM feature vector (RmDim() values) to `out` without a
  /// fresh allocation — the matrix-building primitive behind the batch
  /// prediction path: callers append many rows into one row-major buffer.
  void AppendRmFeatures(const SessionRequest& victim,
                        std::span<const SessionRequest> corunners,
                        std::vector<double>& out) const;

  /// Appends the CM feature vector (CmDim() values) to `out`.
  void AppendCmFeatures(double qos_fps, const SessionRequest& victim,
                        std::span<const SessionRequest> corunners,
                        std::vector<double>& out) const;

  /// Victim-side extension features (see header comment): megapixels,
  /// solo FPS, and the 7 own-intensities.
  static constexpr std::size_t kVictimDim = 2 + resources::kNumResources;

  std::size_t RmDim() const;
  std::size_t CmDim() const { return RmDim() + 2; }

  std::vector<std::string> RmFeatureNames() const;
  std::vector<std::string> CmFeatureNames() const;

  /// Grid resolution of the profiled sensitivity curves (k+1 points).
  std::size_t CurvePoints() const { return curve_points_; }

 private:
  std::vector<profiling::GameProfile> profiles_;
  std::size_t curve_points_ = 0;
};

/// The profiled memory screen every predictive methodology applies
/// first: the colocation's summed CPU and GPU memory demands each fit in
/// one server. Memory is a hard constraint, independent of interference.
bool ProfiledMemoryFits(const FeatureBuilder& features,
                        std::span<const SessionRequest> colocation);

}  // namespace gaugur::core
