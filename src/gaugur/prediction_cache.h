// Bounded memoization for the online prediction service.
//
// The schedulers re-ask the predictor about the same (victim, co-runner
// set) many times — every arrival in the dynamic fleet re-scores the open
// servers, and packing/assignment sweeps revisit candidate colocations —
// so the predictor front-ends its models with this cache. Keys are
// core::ModelJoinKey (order-insensitive over the co-runner set) combined
// with the query kind and, for CM queries, the QoS bit pattern; entries
// carry the model's raw output, plus — only when obs was on as the entry
// was built — the feature row it was computed from and that row's
// fingerprint. A hit on a row-less entry while obs is on has its row
// rebuilt from the query for the audit (see GAugurPredictor), so the
// audit record (obs::ModelMonitor) is the same as an uncached query's —
// memoization is invisible to the monitoring pipeline.
//
// Layout: a flat CLOCK table. Each stripe owns a fixed slab of its
// capacity share of slots, filled in order and never reallocated, and
// an open-addressing index of bit_ceil(2 x share) int32 slab positions
// (-1 = empty) with linear probing and backward-shift deletion, so no
// tombstones accumulate. A key's home index slot is
// (PredictionCacheKeyHash >> 3) & (index size - 1): the low bits pick
// the stripe, and the join key is already SplitMix64-mixed. Eviction is
// CLOCK: a hit sets the slot's referenced bit; a full stripe's hand
// sweeps the slab, clearing set bits, and evicts the first slot whose bit
// is clear. Which entries stay resident therefore depends only on the
// order of the queries, never on timing.
//
// Sharing: one PredictionCache instance is shared by every predictor
// replica in the sharded fleet service (one shard's miss warms every
// shard), so the structure is striped — the key space is partitioned
// into kStripes independent (mutex, slab, index, hand, stats) units
// (fewer when the capacity is below kStripes), a key living in stripe
// hash % stripes. The capacity is split exactly across the stripes, so
// the total never exceeds Capacity().
//
// Batches: the predictor hands over a whole scored batch at once.
// LookupBatch and InsertBatch group the batch's keys by stripe with a
// stable counting sort and take each touched stripe's lock once, probing
// its keys in batch order; so every stripe sees the same sequence of
// operations as one call per key would issue, and residency and tallies
// are unchanged by the grouping. A hit copies the value; the shared
// entry is copied only for callers that ask for it (the obs audit,
// which needs the row and fingerprint). Lookup and Insert are batches
// of one.
//
// Invalidation: GAugurPredictor::TrainRm/TrainCm call Clear() — a cache
// must never outlive the model that filled it. Entries otherwise live
// until evicted.
//
// Thread-safe. Hit/miss/eviction tallies are kept per stripe under that
// stripe's lock — never a data race no matter how many workers share the
// cache — and folded on GetStats(). A batch holds one stripe lock at a
// time, so it is not atomic across stripes: another thread's traffic may
// land between two of its stripe visits. Callers that mirror outcomes
// into obs counters must not diff GetStats() snapshots (another thread's
// traffic lands in the delta); the calls report their own outcome
// exactly instead: the hit flags and hit count, the eviction count.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
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
/// CM probability) and, for an entry built while obs was on, the feature
/// row it was computed from plus the row's fingerprint (digest and drift
/// bins, taken once so a hit's audit skips the hashing and binning).
/// With obs off nothing can read the row, so `features` is empty and
/// `fingerprint` null, and an entry costs no row copy.
struct CachedPrediction {
  std::vector<double> features;
  double value = 0.0;
  std::unique_ptr<const obs::FeatureFingerprint> fingerprint;
};

class PredictionCache {
 public:
  /// `capacity` == 0 disables the cache (every Lookup misses, Insert is
  /// a no-op). The slabs and indexes are allocated here, once.
  explicit PredictionCache(std::size_t capacity);

  /// Looks up every key of the batch. On a hit, sets the slot's
  /// referenced bit, `hit[i]` = 1 and `values[i]` = the entry's value,
  /// and, when `entries` is non-empty, `entries[i]` = the entry itself;
  /// on a miss, `hit[i]` = 0 and `entries[i]` (if given) = nullptr, and
  /// `values[i]` is left alone. Each stripe the batch touches is locked
  /// once and sees its keys in batch order; a key repeated within the
  /// batch is looked up once per occurrence. Returns the number of hits.
  std::size_t LookupBatch(
      std::span<const PredictionCacheKey> keys, std::span<char> hit,
      std::span<double> values,
      std::span<std::shared_ptr<const CachedPrediction>> entries = {}) const;

  /// Inserts `entries[i]` under `keys[i]` for every i: a new key takes a
  /// free slot or, in a full stripe, the CLOCK victim's; a resident key
  /// has its entry replaced in place and its referenced bit set (so a
  /// key repeated within the batch is refreshed by its later
  /// occurrences). Each stripe is locked once and sees its keys in batch
  /// order. Returns the number of entries evicted by the batch.
  std::size_t InsertBatch(
      std::span<const PredictionCacheKey> keys,
      std::span<const std::shared_ptr<const CachedPrediction>> entries);

  /// LookupBatch of one: the entry, or nullptr on a miss.
  std::shared_ptr<const CachedPrediction> Lookup(
      const PredictionCacheKey& key) const;

  /// InsertBatch of one: returns the number evicted (0 or 1).
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
  struct Slot {
    PredictionCacheKey key;
    /// CLOCK bit: set by a hit or a refresh, cleared as the hand passes.
    bool referenced = false;
    /// `entry->value`, held inline so a value-only hit reads no entry.
    double value = 0.0;
    std::shared_ptr<const CachedPrediction> entry;
  };

  /// One lock domain: its own slab, index, hand and tallies. Everything
  /// is only ever touched under `mutex`, so sharing the cache across
  /// workers cannot race the counters.
  struct Stripe {
    mutable std::mutex mutex;
    /// Fixed at this stripe's capacity share; slots [0, size) are live.
    std::vector<Slot> slab;
    /// Open-addressing index of slab positions, -1 where empty; its size
    /// is a power of two of at least twice the slab's.
    std::vector<std::int32_t> index;
    std::size_t size = 0;
    /// Next slab position the CLOCK hand inspects.
    std::size_t hand = 0;
    Stats stats;

    /// Index slot holding `key` (whose PredictionCacheKeyHash is
    /// `hash`), or the empty slot ending its probe run.
    std::size_t Find(const PredictionCacheKey& key, std::size_t hash) const;
    /// Empties index slot `i`, shifting later members of its probe run
    /// back so every remaining key stays reachable from its home.
    void EraseIndexSlot(std::size_t i);
    /// Slab position of the CLOCK victim; advances the hand past it.
    std::size_t Victim();
  };

  static constexpr std::size_t kStripes = 8;

  /// Calls `visit(stripe, i, hash)` for every key of the batch, with
  /// `hash` its PredictionCacheKeyHash: stripe by stripe, each stripe
  /// locked once, its keys in batch order.
  template <typename Visit>
  void ForEachByStripe(std::span<const PredictionCacheKey> keys,
                       Visit visit) const;

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
