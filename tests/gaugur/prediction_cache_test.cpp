// Unit tests for the predictor's memoization layer, a flat CLOCK table:
// roundtrip, CLOCK's eviction properties (an unreferenced entry is the
// victim, a referenced one survives one sweep of the hand, a re-insert
// refreshes in place), the capacity bound, retrain invalidation, the
// capacity-0 disabled mode, striped-lock behavior (per-stripe stats
// folding, the exact capacity split), a randomized differential check of
// the table against a reference model (forced index collisions that wrap
// the backward-shift deletion around the index end included), the batch
// calls against one call per key (duplicate keys within a batch
// included), and concurrent mixed workloads — batched, and shared
// fingerprinted entries audited from several threads, included — for the
// TSan build.
//
// The CLOCK hand is per stripe, so tests that pin which entry is evicted
// use keys that all hash to one stripe (SameStripeKeys).

#include "gaugur/prediction_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gaugur/colocation.h"

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

/// Whether `key` is resident. A Lookup, so it sets the key's referenced
/// bit: call it only after the evictions under test.
bool Resident(const PredictionCache& cache, const PredictionCacheKey& key) {
  return cache.Lookup(key) != nullptr;
}

TEST(PredictionCache, ClockEvictsAnUnreferencedEntry) {
  // Three slots per stripe; every key below shares one stripe.
  PredictionCache cache(3 * kStripes);
  const auto keys = SameStripeKeys(4);
  cache.Insert(keys[0], Entry(1.0));
  cache.Insert(keys[1], Entry(2.0));
  cache.Insert(keys[2], Entry(3.0));
  EXPECT_EQ(cache.Size(), 3u);

  // Hit keys 0 and 2: key 1 is the only unreferenced entry, so it is the
  // victim wherever the hand starts.
  ASSERT_NE(cache.Lookup(keys[2]), nullptr);
  ASSERT_NE(cache.Lookup(keys[0]), nullptr);
  EXPECT_EQ(cache.Insert(keys[3], Entry(4.0)), 1u);

  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_FALSE(Resident(cache, keys[1]));
  EXPECT_TRUE(Resident(cache, keys[0]));
  EXPECT_TRUE(Resident(cache, keys[2]));
  EXPECT_TRUE(Resident(cache, keys[3]));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(PredictionCache, ReferencedEntrySurvivesOneSweepOfTheHand) {
  // Three slots in one stripe, filled in order, then key 0 is hit. The
  // next two new keys evict keys 1 and 2: the hand passes key 0 once,
  // clearing its bit instead of evicting it.
  const auto keys = SameStripeKeys(6);
  const auto fill_and_hit_first = [&keys](PredictionCache& cache) {
    for (std::size_t k = 0; k < 3; ++k) {
      cache.Insert(keys[k], Entry(static_cast<double>(k)));
    }
    ASSERT_NE(cache.Lookup(keys[0]), nullptr);
  };
  {
    PredictionCache cache(3 * kStripes);
    fill_and_hit_first(cache);
    EXPECT_EQ(cache.Insert(keys[3], Entry(3.0)), 1u);
    EXPECT_EQ(cache.Insert(keys[4], Entry(4.0)), 1u);
    EXPECT_TRUE(Resident(cache, keys[0]));
    EXPECT_FALSE(Resident(cache, keys[1]));
    EXPECT_FALSE(Resident(cache, keys[2]));
  }
  {
    // The same traffic plus one more new key: the sweep cleared key 0's
    // bit and nothing hit it since, so it is the next victim.
    PredictionCache cache(3 * kStripes);
    fill_and_hit_first(cache);
    cache.Insert(keys[3], Entry(3.0));
    cache.Insert(keys[4], Entry(4.0));
    EXPECT_EQ(cache.Insert(keys[5], Entry(5.0)), 1u);
    EXPECT_FALSE(Resident(cache, keys[0]));
    EXPECT_TRUE(Resident(cache, keys[3]));
    EXPECT_TRUE(Resident(cache, keys[4]));
    EXPECT_TRUE(Resident(cache, keys[5]));
  }
}

TEST(PredictionCache, ReinsertRefreshesInPlaceAndSetsTheReference) {
  // A re-insert replaces the entry in its slot — no duplicate, no
  // eviction — and counts as a use: the next new key evicts another.
  PredictionCache cache(3 * kStripes);
  const auto keys = SameStripeKeys(4);
  for (std::size_t k = 0; k < 3; ++k) {
    cache.Insert(keys[k], Entry(static_cast<double>(k)));
  }
  EXPECT_EQ(cache.Insert(keys[0], Entry(10.0)), 0u);
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_EQ(cache.Insert(keys[3], Entry(3.0)), 1u);
  EXPECT_EQ(cache.Size(), 3u);
  const auto refreshed = cache.Lookup(keys[0]);
  ASSERT_NE(refreshed, nullptr);
  EXPECT_EQ(refreshed->value, 10.0);
  EXPECT_FALSE(Resident(cache, keys[1]));
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

TEST(PredictionCache, ConcurrentBatchedMixedWorkloadIsSafe) {
  // The batched calls hold one stripe lock at a time across a batch that
  // spans every stripe; value-only and entry-copying lookups, inserts
  // with repeated keys and Clears race from every thread.
  PredictionCache cache(64);
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 400;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int b = 0; b < kBatchesPerThread; ++b) {
        std::vector<PredictionCacheKey> keys(1 + rng() % 24);
        for (auto& key : keys) key = Key(rng() % 128);
        if (b % 3 == 0) {
          std::vector<std::shared_ptr<const CachedPrediction>> entries;
          for (const auto& key : keys) {
            entries.push_back(
                Entry(static_cast<double>(key.join_key), {1.0, 2.0}));
          }
          EXPECT_LE(cache.InsertBatch(keys, entries), keys.size());
        } else if (b % 97 == 0) {
          cache.Clear();
        } else {
          std::vector<char> hit(keys.size());
          std::vector<double> values(keys.size());
          std::vector<std::shared_ptr<const CachedPrediction>> entries(
              b % 2 == 0 ? keys.size() : 0);
          cache.LookupBatch(keys, hit, values, entries);
          for (std::size_t i = 0; i < keys.size(); ++i) {
            if (hit[i] == 0) continue;
            EXPECT_EQ(values[i], static_cast<double>(keys[i].join_key));
            // A handed-out entry outlives a concurrent Clear or eviction.
            if (!entries.empty()) {
              EXPECT_EQ(entries[i]->value, values[i]);
            }
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
  EXPECT_EQ(cache.Insert(keys[2], Entry(3.0)), 1u);  // the stripe is full
  EXPECT_EQ(cache.Insert(keys[2], Entry(3.5)), 0u);  // refresh, no eviction
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_TRUE(Resident(cache, keys[2]));
  EXPECT_NE(Resident(cache, keys[0]), Resident(cache, keys[1]));
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

/// Drives a cache with random Lookup / miss-then-Insert / refresh /
/// Clear traffic over `universe` and checks it against a reference
/// model: a map of the value last inserted per key since the last Clear.
/// Every Insert is preceded by a Lookup of its key, as in the predictor,
/// so the model knows whether the key was resident. Checked throughout:
///  * Size() <= Capacity();
///  * a hit returns the entry last inserted for its key;
///  * a miss-then-Insert evicts at most one entry and grows Size() by
///    one less than it evicted; a refresh evicts nothing;
///  * hits + misses equals the lookups issued;
///  * evictions equal the new-key inserts minus Size(), between Clears;
///  * every universe/8 operations, a sweep of all inserted keys hits
///    exactly Size() of them — no entry is lost from the index or
///    duplicated in the slab by a backward shift.
///
/// With `batch_lookups`, every lookup goes through LookupBatch without
/// entries (the value-only hit the predictor takes with obs off): the
/// per-operation lookup as a batch of one, each sweep as one batch of
/// every inserted key.
void CheckAgainstReferenceModel(std::size_t capacity,
                                const std::vector<PredictionCacheKey>& universe,
                                std::size_t ops, std::uint64_t seed,
                                bool batch_lookups = false) {
  SCOPED_TRACE(::testing::Message() << "capacity=" << capacity
                                    << " universe=" << universe.size()
                                    << " batch_lookups=" << batch_lookups);
  PredictionCache cache(capacity);
  std::unordered_map<PredictionCacheKey, double, PredictionCacheKeyHash>
      last;
  std::uint64_t lookups = 0, hits = 0;
  std::uint64_t new_inserts = 0, evictions_at_clear = 0;
  double next_value = 0.0;
  std::mt19937_64 rng(seed);
  // A sweep costs a lookup per inserted key, so it runs about every
  // universe/8 operations: after every operation on the smallest tables,
  // where a lost index entry would otherwise fill the index within a few
  // evictions and hang the next probe instead of failing.
  const std::size_t sweep_every = std::max<std::size_t>(1, universe.size() / 8);

  // One batch of lookups, checked against the model; returns how many
  // hit.
  const auto lookup_batch = [&](std::span<const PredictionCacheKey> keys) {
    std::vector<char> hit(keys.size());
    std::vector<double> values(keys.size());
    std::vector<std::shared_ptr<const CachedPrediction>> entries;
    if (batch_lookups) {
      cache.LookupBatch(keys, hit, values);
    } else {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        entries.push_back(cache.Lookup(keys[i]));
        hit[i] = entries.back() != nullptr ? 1 : 0;
        if (hit[i] != 0) values[i] = entries.back()->value;
      }
    }
    std::size_t batch_hits = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ++lookups;
      if (hit[i] == 0) continue;
      ++batch_hits;
      const auto it = last.find(keys[i]);
      if (it == last.end()) {
        ADD_FAILURE() << "hit on a key not inserted since Clear";
      } else {
        EXPECT_EQ(values[i], it->second);
      }
    }
    hits += batch_hits;
    return batch_hits;
  };
  const auto lookup = [&](const PredictionCacheKey& key) {
    return lookup_batch({&key, 1}) == 1;
  };
  const auto sweep = [&] {
    std::vector<PredictionCacheKey> keys;
    keys.reserve(last.size());
    for (const auto& entry : last) keys.push_back(entry.first);
    EXPECT_EQ(lookup_batch(keys), cache.Size());
  };

  for (std::size_t op = 0; op < ops; ++op) {
    const PredictionCacheKey& key = universe[rng() % universe.size()];
    const std::uint64_t roll = rng() % 10000;
    if (roll == 0) {
      cache.Clear();
      last.clear();
      new_inserts = 0;
      evictions_at_clear = cache.GetStats().evictions;
      EXPECT_EQ(cache.Size(), 0u);
    } else {
      const std::size_t size_before = cache.Size();
      const bool hit = lookup(key);
      const bool write = roll < 8000;  // else a plain lookup
      if (write && (!hit || roll < 2500)) {
        const double value = ++next_value;
        const std::size_t evicted = cache.Insert(key, Entry(value));
        last[key] = value;
        if (hit) {
          EXPECT_EQ(evicted, 0u);  // a refresh, in place
          EXPECT_EQ(cache.Size(), size_before);
        } else {
          ++new_inserts;
          EXPECT_LE(evicted, 1u);
          EXPECT_EQ(cache.Size(), size_before + 1 - evicted);
        }
      }
    }
    ASSERT_LE(cache.Size(), cache.Capacity());
    if (op % sweep_every == 0 || op + 1 == ops) sweep();
    if (::testing::Test::HasFailure()) return;
  }
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_EQ(stats.evictions - evictions_at_clear,
            new_inserts - cache.Size());
}

TEST(PredictionCache, MatchesAReferenceModelUnderRandomTraffic) {
  std::uint64_t seed = 1;
  bool batch_lookups = false;
  for (const std::size_t capacity : {1u, 2u, 3u, 7u, 8u, 9u, 100u, 4096u}) {
    // About twice as many keys as slots, so the stripes fill and evict.
    // Half are raw small integers (clustered hashes), half SplitMix-mixed
    // like real join keys; both kinds and two QoS patterns appear.
    std::vector<PredictionCacheKey> universe;
    for (std::uint64_t k = 0; universe.size() < 2 * capacity + 3; ++k) {
      const std::uint64_t join_key = k % 2 == 0 ? k : SplitMix64(k);
      universe.push_back(Key(join_key, k % 3 == 0 ? 0 : 0x404e000000000000ULL,
                             static_cast<std::uint8_t>(k % 3 == 0 ? 0 : 1)));
    }
    // Every other capacity looks its keys up through LookupBatch.
    CheckAgainstReferenceModel(capacity, universe, 100000, seed++,
                               batch_lookups);
    batch_lookups = !batch_lookups;
    if (HasFailure()) return;
  }
}

TEST(PredictionCache, LookupBatchReportsEachKeysOutcome) {
  PredictionCache cache(8 * kStripes);
  cache.Insert(Key(1), Entry(1.5, {0.25}));
  cache.Insert(Key(2), Entry(2.5));
  const std::vector<PredictionCacheKey> keys = {Key(2), Key(3), Key(1),
                                                Key(2)};
  std::vector<char> hit(keys.size(), 1);
  std::vector<double> values(keys.size(), -1.0);
  EXPECT_EQ(cache.LookupBatch(keys, hit, values), 3u);
  EXPECT_EQ(hit, (std::vector<char>{1, 0, 1, 1}));
  // A miss leaves its value alone.
  EXPECT_EQ(values, (std::vector<double>{2.5, -1.0, 1.5, 2.5}));

  // With entries requested, a hit hands out the shared entry and a miss
  // a null one.
  std::vector<std::shared_ptr<const CachedPrediction>> entries(
      keys.size(), Entry(9.0));
  EXPECT_EQ(cache.LookupBatch(keys, hit, values, entries), 3u);
  EXPECT_EQ(entries[1], nullptr);
  ASSERT_NE(entries[2], nullptr);
  EXPECT_EQ(entries[2]->features, (std::vector<double>{0.25}));
  EXPECT_EQ(entries[0], entries[3]);

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.misses, 2u);

  // The disabled cache misses every key of a batch and counts nothing.
  PredictionCache disabled(0);
  EXPECT_EQ(disabled.InsertBatch(keys, std::vector<std::shared_ptr<
                                           const CachedPrediction>>(
                                           keys.size(), Entry(1.0))),
            0u);
  EXPECT_EQ(disabled.LookupBatch(keys, hit, values), 0u);
  EXPECT_EQ(hit, (std::vector<char>(keys.size(), 0)));
  EXPECT_EQ(disabled.GetStats().misses, 0u);
}

TEST(PredictionCache, BatchesMatchOneCallPerKey) {
  // Two caches see the same random traffic, one a call per key, the
  // other in batches of random size, each looked up and then its misses
  // inserted as the predictor does. Keys repeat within a batch (a small
  // universe), so a batch can miss a key twice and then insert it twice,
  // the second time as a refresh. Stripe grouping must be invisible:
  // after every batch the two caches agree on every outcome, tally and
  // size, and periodically on the resident set and its values.
  for (const std::size_t capacity : {3u, 9u, 64u}) {
    SCOPED_TRACE(::testing::Message() << "capacity=" << capacity);
    PredictionCache single(capacity);
    PredictionCache batched(capacity);
    std::vector<PredictionCacheKey> universe;
    for (std::uint64_t k = 0; k < 3 * capacity + 5; ++k) {
      universe.push_back(Key(k % 2 == 0 ? k : SplitMix64(k)));
    }
    std::mt19937_64 rng(capacity);
    double next_value = 0.0;
    for (int batch = 0; batch < 2000; ++batch) {
      std::vector<PredictionCacheKey> keys(1 + rng() % 40);
      for (auto& key : keys) key = universe[rng() % universe.size()];

      std::vector<char> single_hit(keys.size());
      std::vector<double> single_values(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto entry = single.Lookup(keys[i]);
        single_hit[i] = entry != nullptr ? 1 : 0;
        if (entry != nullptr) single_values[i] = entry->value;
      }
      std::vector<char> hit(keys.size());
      std::vector<double> values(keys.size());
      const std::size_t hits = batched.LookupBatch(keys, hit, values);
      ASSERT_EQ(hit, single_hit) << "batch " << batch;
      ASSERT_EQ(values, single_values) << "batch " << batch;
      ASSERT_EQ(hits, static_cast<std::size_t>(
                          std::count(hit.begin(), hit.end(), char{1})));

      std::vector<PredictionCacheKey> miss_keys;
      std::vector<std::shared_ptr<const CachedPrediction>> miss_entries;
      std::size_t single_evicted = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (hit[i] != 0) continue;
        miss_keys.push_back(keys[i]);
        miss_entries.push_back(Entry(++next_value));
        single_evicted += single.Insert(keys[i], miss_entries.back());
      }
      ASSERT_EQ(batched.InsertBatch(miss_keys, miss_entries), single_evicted);

      const auto a = single.GetStats();
      const auto b = batched.GetStats();
      ASSERT_EQ(a.hits, b.hits);
      ASSERT_EQ(a.misses, b.misses);
      ASSERT_EQ(a.evictions, b.evictions);
      ASSERT_EQ(single.Size(), batched.Size());
      if (batch % 100 == 99) {
        // The same sweep on both keeps them in step.
        std::vector<char> resident(universe.size());
        std::vector<double> resident_values(universe.size());
        batched.LookupBatch(universe, resident, resident_values);
        for (std::size_t u = 0; u < universe.size(); ++u) {
          const auto entry = single.Lookup(universe[u]);
          ASSERT_EQ(entry != nullptr, resident[u] != 0) << "key " << u;
          if (entry != nullptr) {
            EXPECT_EQ(entry->value, resident_values[u]);
          }
        }
      }
    }
    EXPECT_GT(batched.GetStats().evictions, 0u);
  }
}

TEST(PredictionCache, BackwardShiftWrapsAroundTheIndexEnd) {
  // Four slots per stripe, so each stripe's index has bit_ceil(2 x 4) = 8
  // slots and a key's home is (hash >> 3) & 7. Keys of stripe 0 homed at
  // slots 6, 7 and 0 form one probe run across the index end: every
  // eviction's backward shift moves members across the wrap, and must
  // not move a key homed at 0 back to 7, before its home.
  constexpr std::size_t kShare = 4;
  constexpr std::size_t kIndexMask = std::bit_ceil(2 * kShare) - 1;
  std::vector<PredictionCacheKey> home6, home7, home0;
  for (std::uint64_t k = 0;
       home6.size() < 4 || home7.size() < 4 || home0.size() < 4; ++k) {
    const PredictionCacheKey key = Key(SplitMix64(k));
    const std::size_t hash = PredictionCacheKeyHash{}(key);
    if (hash % kStripes != 0) continue;
    const std::size_t home = (hash >> 3) & kIndexMask;
    auto& bucket = home == 6 ? home6 : home == 7 ? home7 : home0;
    if ((home == 6 || home == 7 || home == 0) && bucket.size() < 4) {
      bucket.push_back(key);
    }
  }
  {
    // The shortest wrap: three keys homed at 7 and one at 0 fill the
    // stripe in index slots 7, 0, 1, 2; a fifth key homed at 7 evicts
    // one of them, and the shift must keep the other three reachable.
    PredictionCache cache(kShare * kStripes);
    for (std::size_t k = 0; k < 3; ++k) {
      cache.Insert(home7[k], Entry(1.0 + static_cast<double>(k)));
    }
    cache.Insert(home0[0], Entry(10.0));
    EXPECT_EQ(cache.Insert(home7[3], Entry(4.0)), 1u);
    EXPECT_EQ(cache.Size(), kShare);
    std::size_t resident = 0;
    for (const auto& key : {home7[0], home7[1], home7[2], home7[3], home0[0]}) {
      resident += Resident(cache, key) ? 1 : 0;
    }
    EXPECT_EQ(resident, kShare);
    EXPECT_TRUE(Resident(cache, home7[3]));
  }
  std::vector<PredictionCacheKey> universe = home6;
  universe.insert(universe.end(), home7.begin(), home7.end());
  universe.insert(universe.end(), home0.begin(), home0.end());
  CheckAgainstReferenceModel(kShare * kStripes, universe, 20000, 99);
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
