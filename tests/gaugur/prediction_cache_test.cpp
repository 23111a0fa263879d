// Unit tests for the predictor's LRU memoization layer: roundtrip,
// recency/eviction bounds, retrain invalidation, the capacity-0 disabled
// mode, striped-lock behavior (per-stripe stats folding, the exact
// capacity split), and concurrent mixed workloads — shared fingerprinted
// entries audited from several threads included — for the TSan build.
//
// Recency is per stripe, so tests that pin exact LRU order use keys that
// all hash to one stripe (SameStripeKeys).

#include "gaugur/prediction_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "obs/model_monitor.h"
#include "obs/switch.h"

namespace gaugur::core {
namespace {

PredictionCacheKey Key(std::uint64_t join_key, std::uint64_t qos_bits = 0,
                       std::uint8_t kind = 0) {
  return PredictionCacheKey{join_key, qos_bits, kind};
}

/// PredictionCache's stripe count: at a capacity of at least kStripes,
/// keys go to stripe hash % kStripes.
constexpr std::size_t kStripes = 8;

/// `n` distinct keys that all land in one stripe.
std::vector<PredictionCacheKey> SameStripeKeys(std::size_t n) {
  std::vector<PredictionCacheKey> keys;
  const std::size_t stripe = PredictionCacheKeyHash{}(Key(0)) % kStripes;
  for (std::uint64_t k = 0; keys.size() < n; ++k) {
    if (PredictionCacheKeyHash{}(Key(k)) % kStripes == stripe) {
      keys.push_back(Key(k));
    }
  }
  return keys;
}

std::shared_ptr<const CachedPrediction> Entry(
    double value, std::vector<double> features = {}) {
  return std::make_shared<const CachedPrediction>(
      CachedPrediction{std::move(features), value, nullptr});
}

TEST(PredictionCache, RoundtripPreservesFeaturesAndValue) {
  PredictionCache cache(8);
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  cache.Insert(Key(1), Entry(0.9, {0.25, 0.5, 0.75}));

  const auto hit = cache.Lookup(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 0.9);
  EXPECT_EQ(hit->features, (std::vector<double>{0.25, 0.5, 0.75}));

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PredictionCache, KeyComponentsAreAllSignificant) {
  PredictionCache cache(8);
  cache.Insert(Key(1, 0, 0), Entry(1.0));
  EXPECT_EQ(cache.Lookup(Key(2, 0, 0)), nullptr);  // different join key
  EXPECT_EQ(cache.Lookup(Key(1, 7, 0)), nullptr);  // different QoS bits
  EXPECT_EQ(cache.Lookup(Key(1, 0, 1)), nullptr);  // different kind
  ASSERT_NE(cache.Lookup(Key(1, 0, 0)), nullptr);
}

TEST(PredictionCache, EvictsLeastRecentlyUsedAtCapacity) {
  // Three slots per stripe; every key below shares one stripe.
  PredictionCache cache(3 * kStripes);
  const auto keys = SameStripeKeys(4);
  cache.Insert(keys[0], Entry(1.0));
  cache.Insert(keys[1], Entry(2.0));
  cache.Insert(keys[2], Entry(3.0));
  EXPECT_EQ(cache.Size(), 3u);

  // Touch key 0 so key 1 becomes the LRU victim.
  ASSERT_NE(cache.Lookup(keys[0]), nullptr);
  cache.Insert(keys[3], Entry(4.0));

  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_EQ(cache.Lookup(keys[1]), nullptr);
  EXPECT_NE(cache.Lookup(keys[0]), nullptr);
  EXPECT_NE(cache.Lookup(keys[2]), nullptr);
  EXPECT_NE(cache.Lookup(keys[3]), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(PredictionCache, SizeNeverExceedsCapacity) {
  // Capacities that are not multiples of the stripe count included: the
  // per-stripe shares must sum to exactly the capacity.
  for (const std::size_t capacity : {2u, 3u, 16u, 100u}) {
    PredictionCache cache(capacity);
    constexpr std::uint64_t kInserts = 2000;
    for (std::uint64_t k = 0; k < kInserts; ++k) {
      cache.Insert(Key(k), Entry(static_cast<double>(k)));
      ASSERT_LE(cache.Size(), capacity) << "capacity=" << capacity;
    }
    EXPECT_EQ(cache.Size(), capacity);
    EXPECT_EQ(cache.GetStats().evictions, kInserts - capacity);
  }
}

TEST(PredictionCache, ReinsertRefreshesInsteadOfDuplicating) {
  PredictionCache cache(2);
  cache.Insert(Key(1), Entry(1.0));
  cache.Insert(Key(1), Entry(1.5));
  EXPECT_EQ(cache.Size(), 1u);
  ASSERT_NE(cache.Lookup(Key(1)), nullptr);
  EXPECT_EQ(cache.Lookup(Key(1))->value, 1.5);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
}

TEST(PredictionCache, ClearEmptiesButKeepsStats) {
  PredictionCache cache(8);
  cache.Insert(Key(1), Entry(1.0));
  ASSERT_NE(cache.Lookup(Key(1)), nullptr);
  cache.Lookup(Key(99));

  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);  // 99, then 1 again after Clear
}

TEST(PredictionCache, CapacityZeroDisables) {
  PredictionCache cache(0);
  cache.Insert(Key(1), Entry(1.0));
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  // The disabled cache neither hits nor counts traffic.
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PredictionCache, ConcurrentMixedWorkloadIsSafe) {
  PredictionCache cache(64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 2000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = (static_cast<std::uint64_t>(t) * 37 + i) % 128;
        if (i % 3 == 0) {
          cache.Insert(Key(k), Entry(static_cast<double>(k), {1.0, 2.0}));
        } else if (i % 257 == 0) {
          cache.Clear();
        } else {
          const auto hit = cache.Lookup(Key(k));
          if (hit != nullptr) {
            // Entries are immutable snapshots: a concurrent Clear or
            // eviction must not invalidate a handed-out pointer.
            EXPECT_EQ(hit->value, static_cast<double>(k));
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_LE(cache.Size(), 64u);
  const auto stats = cache.GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(PredictionCache, LookupReportsExactOutcome) {
  // A hit is a non-null return, and each call tallies exactly one outcome.
  PredictionCache cache(8);
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  EXPECT_EQ(cache.GetStats().misses, 1u);

  cache.Insert(Key(1), Entry(1.0));
  ASSERT_NE(cache.Lookup(Key(1)), nullptr);
  EXPECT_EQ(cache.GetStats().hits, 1u);
  EXPECT_EQ(cache.GetStats().misses, 1u);
}

TEST(PredictionCache, InsertReturnsEvictionCount) {
  // Two slots per stripe; every key below shares one stripe.
  PredictionCache cache(2 * kStripes);
  const auto keys = SameStripeKeys(3);
  EXPECT_EQ(cache.Insert(keys[0], Entry(1.0)), 0u);
  EXPECT_EQ(cache.Insert(keys[1], Entry(2.0)), 0u);
  EXPECT_EQ(cache.Insert(keys[2], Entry(3.0)), 1u);  // evicts keys[0]
  EXPECT_EQ(cache.Insert(keys[2], Entry(3.5)), 0u);  // refresh, no eviction
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(PredictionCache, GetStatsFoldsPerStripeTalliesExactly) {
  // Keys spread over every stripe; single-threaded, so the folded totals
  // are exactly the issued traffic.
  PredictionCache cache(64 * kStripes);
  for (std::uint64_t k = 0; k < 100; ++k) {
    cache.Insert(Key(k), Entry(static_cast<double>(k)));
    cache.Lookup(Key(k));         // hit
    cache.Lookup(Key(k + 1000));  // miss
  }
  const auto total = cache.GetStats();
  EXPECT_EQ(total.hits, 100u);
  EXPECT_EQ(total.misses, 100u);
  EXPECT_EQ(total.evictions, 0u);
}

TEST(PredictionCache, StripesPartitionTheKeySpace) {
  // The same key must always land in the same stripe: insert through one
  // path, look up through another, across many keys.
  PredictionCache cache(1024);
  for (std::uint64_t k = 0; k < 300; ++k) {
    cache.Insert(Key(k * 0x9e3779b97f4a7c15ULL), Entry(static_cast<double>(k)));
  }
  for (std::uint64_t k = 0; k < 300; ++k) {
    const auto hit = cache.Lookup(Key(k * 0x9e3779b97f4a7c15ULL));
    ASSERT_NE(hit, nullptr) << "k=" << k;
    EXPECT_EQ(hit->value, static_cast<double>(k));
  }
}

TEST(PredictionCache, ConcurrentTalliesAreExactUnderStriping) {
  // The racy pattern this replaces (GetStats deltas around each call)
  // undercounted under contention. With per-stripe tallies updated under
  // the stripe lock, hits + misses must equal the exact number of lookups
  // issued, and per-thread outcome counts must fold to the same totals.
  PredictionCache cache(4096);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kLookupsPerThread = 5000;
  std::atomic<std::uint64_t> observed_hits{0};
  std::atomic<std::uint64_t> observed_misses{0};

  for (std::uint64_t k = 0; k < 256; ++k) {
    cache.Insert(Key(k), Entry(static_cast<double>(k)));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t hits = 0, misses = 0;
      for (std::uint64_t i = 0; i < kLookupsPerThread; ++i) {
        // Even iterations probe the warmed range, odd ones miss.
        const std::uint64_t k =
            i % 2 == 0 ? (static_cast<std::uint64_t>(t) * 67 + i) % 256
                       : 1000000 + static_cast<std::uint64_t>(t) * 10000 + i;
        (cache.Lookup(Key(k)) != nullptr ? hits : misses) += 1;
      }
      observed_hits.fetch_add(hits);
      observed_misses.fetch_add(misses);
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.misses, observed_misses.load());
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookupsPerThread);
}

TEST(PredictionCache, SharedFingerprintedEntryAuditsConcurrently) {
  // Shards share cache entries and audit them into one monitor at the
  // same time: the fingerprint is read-only once inserted, so concurrent
  // hits must count exactly like the same number of plain records.
  obs::EnabledScope on(true);
  obs::FeatureReference reference;
  reference.names = {"a", "b"};
  reference.edges = {{0.5}, {1.0, 2.0}};
  reference.probs = {{0.5, 0.5}, {0.2, 0.3, 0.5}};
  constexpr int kThreads = 4;
  constexpr int kAuditsPerThread = 500;

  const std::vector<double> x = {0.7, 1.5};
  obs::ModelMonitor fingerprinted;
  fingerprinted.SetReference(obs::ModelKind::kCm, reference);
  PredictionCache cache(64);
  cache.Insert(Key(7),
               std::make_shared<const CachedPrediction>(CachedPrediction{
                   x, 0.9,
                   std::make_unique<const obs::FeatureFingerprint>(
                       fingerprinted.Fingerprint(obs::ModelKind::kCm, x))}));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAuditsPerThread; ++i) {
        const auto entry = cache.Lookup(Key(7));
        ASSERT_NE(entry, nullptr);
        fingerprinted.RecordPrediction(obs::ModelKind::kCm, 7,
                                       entry->features, entry->value, 0.5,
                                       true, 60.0, entry->fingerprint.get());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  obs::ModelMonitor plain;
  plain.SetReference(obs::ModelKind::kCm, reference);
  for (int i = 0; i < kThreads * kAuditsPerThread; ++i) {
    plain.RecordPrediction(obs::ModelKind::kCm, 7, x, 0.9, 0.5, true, 60.0);
  }
  EXPECT_EQ(fingerprinted.Summary(), plain.Summary());
  EXPECT_EQ(fingerprinted.Summary().cm_drift.online_samples,
            static_cast<std::uint64_t>(kThreads * kAuditsPerThread));
}

}  // namespace
}  // namespace gaugur::core
