// Bounded memoization for the online prediction service.
//
// The schedulers re-ask the predictor about the same (victim, co-runner
// set) many times — every arrival in the dynamic fleet re-scores the open
// servers, and packing/assignment sweeps revisit candidate colocations —
// so the predictor front-ends its models with this LRU cache. Keys are
// core::ModelJoinKey (order-insensitive over the co-runner set) combined
// with the query kind and, for CM queries, the QoS bit pattern; entries
// carry the model's raw output *and* the feature vector it was computed
// from, so a cache hit can still emit the exact audit record
// (obs::ModelMonitor) an uncached query would have — memoization is
// invisible to the monitoring pipeline.
//
// Sharing: one PredictionCache instance is shared by every predictor
// replica in the sharded fleet service (one shard's miss warms every
// shard), so the structure is striped — the key space is partitioned
// into kStripes independent (mutex, map, LRU list, stats) units (fewer
// when the capacity is below kStripes) and a lookup touches exactly one
// stripe's lock. LRU recency is per stripe, and the capacity is split
// exactly across the stripes, so the total never exceeds Capacity().
//
// Invalidation: GAugurPredictor::TrainRm/TrainCm call Clear() — a cache
// must never outlive the model that filled it. Entries otherwise live
// until evicted.
//
// Thread-safe. Hit/miss/eviction tallies are kept per stripe under that
// stripe's lock — never a data race no matter how many workers share the
// cache — and folded on GetStats(). Callers that mirror outcomes into
// obs counters must not diff GetStats() snapshots (another thread's
// traffic lands in the delta); Lookup/Insert report their own outcome
// exactly via the returned pointer / the eviction count instead.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/model_monitor.h"

namespace gaugur::core {

/// Identifies one logical predictor query.
struct PredictionCacheKey {
  std::uint64_t join_key = 0;  // core::ModelJoinKey(victim, corunners)
  std::uint64_t qos_bits = 0;  // bit pattern of the QoS; 0 for RM queries
  std::uint8_t kind = 0;       // 0 = RM degradation, 1 = CM probability

  friend bool operator==(const PredictionCacheKey&,
                         const PredictionCacheKey&) = default;
};

struct PredictionCacheKeyHash {
  std::size_t operator()(const PredictionCacheKey& key) const {
    std::uint64_t h = key.join_key;
    h ^= key.qos_bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= key.kind + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

/// One memoized model answer: the raw output (clamped RM degradation or
/// CM probability) plus the features it was computed from, kept so cache
/// hits replay bit-identical audit records. `fingerprint` is the
/// features' digest and drift bins, taken once when the entry is built
/// while obs is on, so a hit's audit skips the hashing and binning;
/// null when the entry was built with obs off. It sits behind a pointer
/// so that obs-off entries stay as small as they were without it.
struct CachedPrediction {
  std::vector<double> features;
  double value = 0.0;
  std::unique_ptr<const obs::FeatureFingerprint> fingerprint;
};

class PredictionCache {
 public:
  /// `capacity` == 0 disables the cache (every Lookup misses, Insert is
  /// a no-op).
  explicit PredictionCache(std::size_t capacity);

  /// Returns the entry and refreshes its recency, or nullptr on miss.
  std::shared_ptr<const CachedPrediction> Lookup(
      const PredictionCacheKey& key) const;

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// entries of the key's stripe beyond its capacity share. Returns the
  /// number of entries evicted by this call.
  std::size_t Insert(const PredictionCacheKey& key,
                     std::shared_ptr<const CachedPrediction> entry);

  /// Drops every entry (retrain invalidation). Stats are kept.
  void Clear();

  std::size_t Size() const;
  std::size_t Capacity() const { return capacity_; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  /// Folded view over every stripe.
  Stats GetStats() const;

 private:
  struct Entry {
    std::list<PredictionCacheKey>::iterator lru_it;
    std::shared_ptr<const CachedPrediction> value;
  };

  /// One lock domain: its own map, recency list, and tallies. Stats are
  /// only ever written under `mutex`, so sharing the cache across
  /// workers cannot race the counters.
  struct Stripe {
    mutable std::mutex mutex;
    /// Most recently used at the front.
    std::list<PredictionCacheKey> lru;
    std::unordered_map<PredictionCacheKey, Entry, PredictionCacheKeyHash>
        entries;
    /// This stripe's share of the capacity.
    std::size_t capacity = 0;
    Stats stats;
  };

  static constexpr std::size_t kStripes = 8;

  Stripe& StripeFor(const PredictionCacheKey& key) const {
    return stripes_[PredictionCacheKeyHash{}(key) % num_stripes_];
  }

  /// Takes `stripe.mutex`, tallying acquisition waits into the global
  /// latency profiler while it is active.
  static std::unique_lock<std::mutex> LockStripe(Stripe& stripe);

  const std::size_t capacity_;
  /// Stripes in use: kStripes, or fewer when the capacity is smaller, so
  /// every stripe a key can land in holds at least one entry.
  const std::size_t num_stripes_;
  mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace gaugur::core
