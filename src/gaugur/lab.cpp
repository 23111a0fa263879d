#include "gaugur/lab.h"

#include <algorithm>

#include "common/check.h"
#include "gamesim/encoder.h"
#include "obs/metrics.h"

namespace gaugur::core {

namespace {

/// Lab telemetry: the paper's measurement budget ("a few hundred
/// colocations", §3.6) made observable — every trip to the machine room
/// is counted and timed.
struct LabMetrics {
  obs::Counter& measurements =
      obs::Registry::Global().GetCounter("lab.measurements");
  obs::Counter& true_fps_calls =
      obs::Registry::Global().GetCounter("lab.true_fps_calls");
  obs::Counter& frame_time_calls =
      obs::Registry::Global().GetCounter("lab.frame_time_calls");
  obs::Counter& attributions =
      obs::Registry::Global().GetCounter("lab.attributions");
  obs::Histogram& measure_us =
      obs::Registry::Global().GetHistogram("lab.measure_us");

  static LabMetrics& Get() {
    static LabMetrics metrics;
    return metrics;
  }
};

}  // namespace

bool MatchColocation(std::span<const SessionRequest> query,
                     std::span<const SessionRequest> stored,
                     std::vector<std::size_t>& slot_of) {
  slot_of.clear();
  if (query.size() != stored.size()) return false;
  for (const SessionRequest& session : query) {
    std::size_t j = 0;
    while (j < stored.size() &&
           (!(stored[j] == session) ||
            std::find(slot_of.begin(), slot_of.end(), j) != slot_of.end())) {
      ++j;
    }
    if (j == stored.size()) return false;
    slot_of.push_back(j);
  }
  return true;
}

std::uint64_t ModelJoinKey(const SessionRequest& victim,
                           std::span<const SessionRequest> corunners) {
  // Additive-Zobrist form: the co-runner multiset reduces to a commutative
  // sum of per-session hashes (no sort, no allocation), then the victim is
  // mixed in asymmetrically. Defined exactly as JoinKeyFromHashes over
  // SessionHash/ColocationHash so the predictor's scoring loop derives the
  // identical key from a candidate's total hash in O(1) per victim.
  return JoinKeyFromHashes(SessionHash(victim), ColocationHash(corunners));
}

ColocationLab::ColocationLab(const gamesim::GameCatalog& catalog,
                             const gamesim::ServerSim& server,
                             LabOptions options)
    : catalog_(&catalog), server_(&server), options_(options) {}

std::vector<gamesim::WorkloadProfile> ColocationLab::ToWorkloads(
    const Colocation& colocation) const {
  std::vector<gamesim::WorkloadProfile> workloads;
  workloads.reserve(colocation.size());
  for (const auto& session : colocation) {
    GAUGUR_CHECK(session.game_id >= 0 &&
                 static_cast<std::size_t>(session.game_id) <
                     catalog_->size());
    workloads.push_back(
        (*catalog_)[static_cast<std::size_t>(session.game_id)].AtResolution(
            session.resolution));
    if (options_.include_encoders) {
      gamesim::AttachHardwareEncoder(workloads.back(), session.resolution);
    }
  }
  return workloads;
}

MeasuredColocation ColocationLab::Measure(const Colocation& colocation,
                                          std::uint64_t seed,
                                          double noise_sigma) const {
  LabMetrics::Get().measurements.Add(1);
  obs::ScopedTimer timer(LabMetrics::Get().measure_us);
  const auto workloads = ToWorkloads(colocation);
  const auto results = server_->Measure(workloads, seed, noise_sigma);
  MeasuredColocation measured;
  measured.sessions = colocation;
  measured.fps.reserve(results.size());
  for (const auto& r : results) measured.fps.push_back(r.rate);
  return measured;
}

std::vector<double> ColocationLab::TrueFps(
    const Colocation& colocation) const {
  LabMetrics::Get().true_fps_calls.Add(1);
  const auto workloads = ToWorkloads(colocation);
  const auto results = server_->RunAnalytic(workloads);
  std::vector<double> fps;
  fps.reserve(results.size());
  for (const auto& r : results) fps.push_back(r.rate);
  return fps;
}

double ColocationLab::TrueSoloFps(const SessionRequest& session) const {
  return TrueFps({session})[0];
}

std::vector<gamesim::FrameTimeStats> ColocationLab::MeasureFrameTimes(
    const Colocation& colocation, std::uint64_t seed) const {
  LabMetrics::Get().frame_time_calls.Add(1);
  return server_->SimulateFrameTimes(ToWorkloads(colocation),
                                     options_.delay_frames, seed);
}

bool ColocationLab::FitsMemory(const Colocation& colocation) const {
  return server_->FitsMemory(ToWorkloads(colocation));
}

bool ColocationLab::TrulyFeasible(const Colocation& colocation,
                                  double qos_fps) const {
  if (!FitsMemory(colocation)) return false;
  for (double fps : TrueFps(colocation)) {
    if (fps < qos_fps) return false;
  }
  return true;
}

std::vector<resources::PerResource<double>> ColocationLab::TruePressures(
    const Colocation& colocation) const {
  const auto workloads = ToWorkloads(colocation);
  std::vector<resources::PerResource<double>> pressures;
  pressures.reserve(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    pressures.push_back(server_->EquilibriumPressureOn(workloads, i));
  }
  return pressures;
}

InterferenceAttribution ColocationLab::AttributeInterference(
    const Colocation& colocation, std::size_t victim) const {
  GAUGUR_CHECK(victim < colocation.size());
  LabMetrics::Get().attributions.Add(1);

  const auto workloads = ToWorkloads(colocation);
  InterferenceAttribution attribution;
  attribution.pressure = server_->EquilibriumPressureOn(workloads, victim);

  // Contention-model walk: translate the pressure each resource is under
  // into the stage slowdown the victim's inflation response assigns it.
  const gamesim::WorkloadProfile& profile = workloads[victim];
  for (resources::Resource r : resources::kAllResources) {
    attribution.damage[r] =
        profile.response[r].SlowdownFactor(attribution.pressure[r]) - 1.0;
    if (attribution.damage[r] > attribution.dominant_damage) {
      attribution.dominant_damage = attribution.damage[r];
      attribution.dominant_resource = r;
    }
  }

  // Dominant offender by leave-one-out: whose departure helps most?
  if (colocation.size() > 1) {
    const double base_fps = TrueFps(colocation)[victim];
    for (std::size_t j = 0; j < colocation.size(); ++j) {
      if (j == victim) continue;
      Colocation reduced;
      reduced.reserve(colocation.size() - 1);
      std::size_t victim_index = victim;
      for (std::size_t k = 0; k < colocation.size(); ++k) {
        if (k == j) continue;
        if (k == victim) victim_index = reduced.size();
        reduced.push_back(colocation[k]);
      }
      const double gain = TrueFps(reduced)[victim_index] - base_fps;
      if (attribution.dominant_offender ==
              InterferenceAttribution::kNoOffender ||
          gain > attribution.offender_fps_gain) {
        attribution.dominant_offender = j;
        attribution.offender_game_id = colocation[j].game_id;
        attribution.offender_fps_gain = gain;
      }
    }
  }
  return attribution;
}

}  // namespace gaugur::core
