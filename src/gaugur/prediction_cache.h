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
// into `stripes` independent (mutex, map, LRU list, stats) units and a
// lookup touches exactly one stripe's lock. Capacity and LRU recency are
// per stripe (capacity_/stripes each); with stripes == 1 the cache is
// exactly the former single-lock global-LRU structure, which tests that
// pin exact eviction order rely on.
//
// Invalidation: GAugurPredictor::TrainRm/TrainCm call Clear() — a cache
// must never outlive the model that filled it. Orthogonally, an optional
// max-age knob bounds how long an entry may be reused across scheduler
// arrivals: AdvanceEpoch() ticks once per arrival (the predictor calls
// it from ScoreCandidates; the counter is a single atomic shared by all
// stripes), and a Lookup that finds an entry older than `max_age_epochs`
// lazily expires it (counted separately from LRU evictions). 0 = no age
// bound, the PR-3 behavior.
//
// Thread-safe. Hit/miss/eviction tallies are kept per stripe under that
// stripe's lock — never a data race no matter how many workers share the
// cache — and folded on GetStats(). Callers that mirror outcomes into
// obs counters must not diff GetStats() snapshots (another thread's
// traffic lands in the delta); Lookup/Insert report their own outcome
// exactly via LookupOutcome / the eviction count instead.
#pragma once

#include <atomic>
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

/// Exact per-call outcome of a Lookup, for callers that mirror cache
/// activity into obs counters (snapshot diffs are racy once the cache is
/// shared).
enum class CacheLookupOutcome : std::uint8_t {
  kHit,
  kMiss,
  /// Found but older than the max-age reuse window; dropped. Counts as a
  /// miss for the caller (it must recompute) *and* as an expiry.
  kExpired,
};

class PredictionCache {
 public:
  static constexpr std::size_t kDefaultStripes = 8;

  /// `capacity` == 0 disables the cache (every Lookup misses, Insert is
  /// a no-op). `max_age_epochs` == 0 means entries never age out; with a
  /// positive value, an entry inserted at epoch E expires once the epoch
  /// reaches E + max_age_epochs. `stripes` partitions the key space into
  /// independent lock domains; 1 reproduces the former single-lock
  /// global-LRU behavior exactly.
  explicit PredictionCache(std::size_t capacity,
                           std::size_t max_age_epochs = 0,
                           std::size_t stripes = kDefaultStripes);

  /// Advances the reuse-window clock (one tick per scheduler arrival).
  void AdvanceEpoch() { epoch_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t Epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Returns the entry and refreshes its recency, or nullptr on miss.
  /// When `outcome` is non-null it receives the exact disposition of
  /// this call (kExpired implies a nullptr return).
  std::shared_ptr<const CachedPrediction> Lookup(
      const PredictionCacheKey& key,
      CacheLookupOutcome* outcome = nullptr) const;

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// entries of the key's stripe beyond its capacity share. Returns the
  /// number of entries evicted by this call.
  std::size_t Insert(const PredictionCacheKey& key,
                     std::shared_ptr<const CachedPrediction> entry);

  /// Drops every entry (retrain invalidation). Stats are kept.
  void Clear();

  std::size_t Size() const;
  std::size_t Capacity() const { return capacity_; }
  std::size_t NumStripes() const { return stripes_.size(); }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Entries dropped by the max-age reuse window (each also counts as
    /// a miss for the lookup that found it stale).
    std::uint64_t expired = 0;
    /// Stripe-lock acquisition accounting, kept only while the latency
    /// profiler is active (obs::LatencyProfiler): how many Lookup/Insert
    /// calls took this stripe's lock, how many of those found it held,
    /// and the total time they spent blocked. The uncontended fast path
    /// (try_lock succeeds) costs no clock read; with the profiler
    /// inactive the plain lock is taken and nothing is tallied.
    std::uint64_t lock_acquisitions = 0;
    std::uint64_t lock_contended = 0;
    double lock_wait_us = 0.0;
  };
  /// Folded view over every stripe.
  Stats GetStats() const;
  /// One stripe's tally (for tests asserting the fold is consistent).
  Stats StripeStats(std::size_t stripe) const;

 private:
  struct Entry {
    std::list<PredictionCacheKey>::iterator lru_it;
    std::shared_ptr<const CachedPrediction> value;
    std::uint64_t inserted_epoch = 0;
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
    Stats stats;
  };

  Stripe& StripeFor(const PredictionCacheKey& key) const {
    return stripes_[PredictionCacheKeyHash{}(key) % stripes_.size()];
  }

  /// Takes `stripe.mutex`, tallying acquisition waits into the stripe
  /// stats and the global latency profiler while it is active.
  static std::unique_lock<std::mutex> LockStripe(Stripe& stripe);

  const std::size_t capacity_;
  /// Per-stripe LRU bound: ceil(capacity_ / stripes).
  const std::size_t stripe_capacity_;
  const std::size_t max_age_epochs_;
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::vector<Stripe> stripes_;
};

}  // namespace gaugur::core
