#include "gaugur/features.h"

#include <cmath>

#include "common/check.h"

namespace gaugur::core {

using resources::Resource;

void AggregateIntensity::AppendTo(std::vector<double>& out) const {
  out.push_back(group_size);
  for (Resource r : resources::kAllResources) {
    out.push_back(mean[r]);
    out.push_back(dispersion[r]);
  }
}

FeatureBuilder::FeatureBuilder(std::vector<profiling::GameProfile> profiles)
    : profiles_(std::move(profiles)) {
  GAUGUR_CHECK(!profiles_.empty());
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    GAUGUR_CHECK_MSG(profiles_[i].game_id == static_cast<int>(i),
                     "profiles must be indexed by game id");
  }
  curve_points_ = profiles_[0].sensitivity[0].degradation.size();
  GAUGUR_CHECK(curve_points_ >= 2);
}

const profiling::GameProfile& FeatureBuilder::Profile(int game_id) const {
  GAUGUR_CHECK(game_id >= 0 &&
               static_cast<std::size_t>(game_id) < profiles_.size());
  return profiles_[static_cast<std::size_t>(game_id)];
}

AggregateIntensity FeatureBuilder::Aggregate(
    std::span<const SessionRequest> corunners) const {
  AggregateIntensity agg;
  agg.group_size = static_cast<double>(corunners.size());
  if (corunners.empty()) return agg;

  for (Resource r : resources::kAllResources) {
    double sum = 0.0;
    for (const auto& c : corunners) {
      sum += Profile(c.game_id).IntensityAt(r, c.resolution);
    }
    agg.mean[r] = sum / agg.group_size;
  }
  for (Resource r : resources::kAllResources) {
    double sq = 0.0;
    for (const auto& c : corunners) {
      const double d =
          Profile(c.game_id).IntensityAt(r, c.resolution) - agg.mean[r];
      sq += d * d;
    }
    // The paper's dispersion term: (1/|G|) * sqrt(sum of squared devs).
    agg.dispersion[r] = std::sqrt(sq) / agg.group_size;
  }
  return agg;
}

void FeatureBuilder::AppendRmFeatures(
    const SessionRequest& victim, std::span<const SessionRequest> corunners,
    std::vector<double>& out) const {
  const auto& profile = Profile(victim.game_id);
  for (const auto& curve : profile.sensitivity) {
    GAUGUR_CHECK(curve.degradation.size() == curve_points_);
    out.insert(out.end(), curve.degradation.begin(),
               curve.degradation.end());
  }
  // Victim-side extension block (see header).
  out.push_back(victim.resolution.Megapixels());
  out.push_back(profile.SoloFps(victim.resolution));
  for (Resource r : resources::kAllResources) {
    out.push_back(profile.IntensityAt(r, victim.resolution));
  }
  Aggregate(corunners).AppendTo(out);
}

void FeatureBuilder::AppendCmFeatures(
    double qos_fps, const SessionRequest& victim,
    std::span<const SessionRequest> corunners,
    std::vector<double>& out) const {
  out.push_back(qos_fps);
  out.push_back(Profile(victim.game_id).SoloFps(victim.resolution));
  AppendRmFeatures(victim, corunners, out);
}

std::vector<double> FeatureBuilder::RmFeatures(
    const SessionRequest& victim,
    std::span<const SessionRequest> corunners) const {
  std::vector<double> features;
  features.reserve(RmDim());
  AppendRmFeatures(victim, corunners, features);
  return features;
}

std::vector<double> FeatureBuilder::CmFeatures(
    double qos_fps, const SessionRequest& victim,
    std::span<const SessionRequest> corunners) const {
  std::vector<double> features;
  features.reserve(CmDim());
  AppendCmFeatures(qos_fps, victim, corunners, features);
  return features;
}

std::size_t FeatureBuilder::RmDim() const {
  return resources::kNumResources * curve_points_ + kVictimDim +
         AggregateIntensity::kDim;
}

std::vector<std::string> FeatureBuilder::RmFeatureNames() const {
  std::vector<std::string> names;
  names.reserve(RmDim());
  for (Resource r : resources::kAllResources) {
    for (std::size_t p = 0; p < curve_points_; ++p) {
      names.push_back("S." + std::string(resources::Name(r)) + "." +
                      std::to_string(p));
    }
  }
  names.emplace_back("V.megapixels");
  names.emplace_back("V.solo_fps");
  for (Resource r : resources::kAllResources) {
    names.push_back("V.intensity." + std::string(resources::Name(r)));
  }
  names.push_back("I.group_size");
  for (Resource r : resources::kAllResources) {
    names.push_back("I.mean." + std::string(resources::Name(r)));
    names.push_back("I.disp." + std::string(resources::Name(r)));
  }
  return names;
}

std::vector<std::string> FeatureBuilder::CmFeatureNames() const {
  std::vector<std::string> names;
  names.reserve(CmDim());
  names.emplace_back("qos_fps");
  names.emplace_back("solo_fps");
  const auto rm = RmFeatureNames();
  names.insert(names.end(), rm.begin(), rm.end());
  return names;
}

bool ProfiledMemoryFits(const FeatureBuilder& features,
                        std::span<const SessionRequest> colocation) {
  double cpu_mem = 0.0, gpu_mem = 0.0;
  for (const auto& session : colocation) {
    const auto& profile = features.Profile(session.game_id);
    cpu_mem += profile.cpu_memory;
    gpu_mem += profile.gpu_memory;
  }
  return cpu_mem <= 1.0 && gpu_mem <= 1.0;
}

}  // namespace gaugur::core
