// Bounded per-server fleet time series.
//
// The fleet simulator records one ServerSample per server whenever that
// server's colocation changes (arrival or departure): the sim tick plus,
// for every occupied slot, the realized FPS and the equilibrium pressure
// on each of the seven shared resources. Forensics tooling uses the
// series to show what a server looked like around a QoS violation.
//
// Memory is bounded per server by a thinning downsampler: each series
// keeps at most `capacity_per_server` samples and enforces a minimum
// tick gap between kept samples. When a ring fills, every other sample
// is discarded and the minimum gap doubles, so an arbitrarily long run
// converges to `capacity` samples spread across the whole horizon
// (classic halving decimation — resolution degrades, coverage does not).
//
// Pressures are stored as a plain vector (index order matches
// resources::kAllResources) so the obs layer stays dependency-free.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace gaugur::obs {

struct SlotSample {
  int game_id = -1;
  double fps = 0.0;
  /// Equilibrium pressure per shared resource, resources::kAllResources
  /// order (7 entries); may be empty when pressure was not sampled.
  std::vector<double> pressure;

  bool operator==(const SlotSample&) const = default;
};

struct ServerSample {
  double tick = 0.0;
  std::vector<SlotSample> slots;

  bool operator==(const ServerSample&) const = default;
};

/// Wire form of a slot list, [{"game_id": ..., "fps": ..., "pressure":
/// [...]}, ...] — shared by FleetTimeSeries::ToJson and the streaming
/// sink's timeseries lines so both dumps parse the same way.
JsonValue SlotSamplesToJson(const std::vector<SlotSample>& slots);
std::vector<SlotSample> SlotSamplesFromJson(const JsonValue& value);

/// A run of full-fidelity samples for one server, handed from Record()
/// to the streaming sink. Sealed segments carry every sample as
/// recorded — the in-memory thinning decimation never touches them.
struct SealedSeriesSegment {
  std::size_t server = 0;
  std::vector<ServerSample> samples;
};

struct TimeSeriesConfig {
  /// Samples kept per server; halving decimation on overflow.
  std::size_t capacity_per_server = 512;
};

class FleetTimeSeries {
 public:
  explicit FleetTimeSeries(TimeSeriesConfig config = {});

  static FleetTimeSeries& Global();

  /// Replaces the configuration and drops all series.
  void Configure(TimeSeriesConfig config);
  void Clear();

  /// Records one sample for `server`. No-op when the observability
  /// switch is off, or when the sample is closer than the current
  /// minimum gap to the last kept sample of that server (streaming
  /// staging below sees it either way — thinning only governs the
  /// in-memory series).
  void Record(std::size_t server, ServerSample sample);

  /// Turns sealed-segment handoff on or off. While on, every Record()
  /// call (thinned or not) is also staged at full fidelity; a server's
  /// staging run is sealed into a SealedSeriesSegment every
  /// `seal_after` samples and queued for DrainSealed(). The sealed
  /// queue is bounded; overflow drops the oldest segment and counts it
  /// in StreamDropped(). Turning streaming off discards staged and
  /// sealed data.
  void SetStreaming(bool streaming, std::size_t seal_after = 256);

  /// Removes and returns all sealed segments, oldest first. With
  /// `seal_partial` set, in-progress staging runs are sealed and
  /// included too (the sink's final drain).
  std::vector<SealedSeriesSegment> DrainSealed(bool seal_partial = false);

  /// Samples lost to sealed-queue overflow since streaming was enabled.
  std::uint64_t StreamDropped() const;

  /// Kept samples for one server, oldest first (empty if never seen).
  std::vector<ServerSample> Series(std::size_t server) const;
  std::size_t NumServers() const;

  /// The most recent sample recorded per server, independent of the
  /// thinning downsampler (a thinned-away Record still updates this).
  std::map<std::size_t, ServerSample> LatestSamples() const;

  /// (server, minimum realized FPS over occupied slots) from each
  /// server's most recent sample; servers whose latest sample has no
  /// occupied slots are omitted (a drained server carries no deficit).
  /// The health engine's per-server FPS-deficit signal — computed under
  /// the lock so the per-tick read copies no slot or pressure vectors.
  std::vector<std::pair<std::size_t, double>> LatestMinFps() const;

  struct Summary {
    std::uint64_t servers = 0;
    /// All Record() calls while enabled, including thinned/skipped ones.
    std::uint64_t samples_seen = 0;
    /// Samples currently retained across all servers.
    std::uint64_t samples_kept = 0;
    /// Largest per-server minimum tick gap (0 until decimation starts).
    double max_gap = 0.0;

    bool operator==(const Summary&) const = default;
  };
  Summary Summarize() const;

  /// Full dump, {"<server>": [{"tick": ..., "slots": [...]}, ...]}.
  JsonValue ToJson() const;

 private:
  struct ServerSeries {
    std::vector<ServerSample> samples;
    double min_gap = 0.0;
    /// Most recent Record() for this server, thinned or not.
    ServerSample last;
  };

  void SealLocked(std::size_t server, std::vector<ServerSample>* staged);

  TimeSeriesConfig config_;
  mutable std::mutex mutex_;
  std::map<std::size_t, ServerSeries> series_;
  std::uint64_t samples_seen_ = 0;

  // Streaming state, guarded by the same mutex as the series.
  bool streaming_ = false;
  std::size_t seal_after_ = 256;
  std::map<std::size_t, std::vector<ServerSample>> staging_;
  std::deque<SealedSeriesSegment> sealed_;
  std::uint64_t stream_dropped_ = 0;
};

/// Sealed segments the sink will buffer before dropping the oldest.
inline constexpr std::size_t kMaxSealedSegments = 4096;

}  // namespace gaugur::obs
