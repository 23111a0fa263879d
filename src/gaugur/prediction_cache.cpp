#include "gaugur/prediction_cache.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

#include "common/check.h"
#include "obs/latency_profiler.h"

namespace gaugur::core {

namespace {

constexpr std::int32_t kEmpty = -1;

/// Home index slot of a key hash: the bits above the stripe's.
std::size_t Home(std::size_t hash, std::size_t mask) {
  return (hash >> 3) & mask;
}

}  // namespace

std::unique_lock<std::mutex> PredictionCache::LockStripe(Stripe& stripe) {
  auto& profiler = obs::LatencyProfiler::Global();
  if (!profiler.Active()) return std::unique_lock<std::mutex>(stripe.mutex);
  std::unique_lock<std::mutex> lock(stripe.mutex, std::try_to_lock);
  if (lock.owns_lock()) {
    // Uncontended fast path: no clock read.
    profiler.RecordCacheAcquisition(0.0, /*contended=*/false);
    return lock;
  }
  const auto start = std::chrono::steady_clock::now();
  lock.lock();
  const double wait_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  profiler.RecordCacheAcquisition(wait_us, /*contended=*/true);
  return lock;
}

std::size_t PredictionCache::Stripe::Find(const PredictionCacheKey& key,
                                          std::size_t hash) const {
  const std::size_t mask = index.size() - 1;
  std::size_t i = Home(hash, mask);
  while (index[i] != kEmpty &&
         !(slab[static_cast<std::size_t>(index[i])].key == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

void PredictionCache::Stripe::EraseIndexSlot(std::size_t i) {
  const std::size_t mask = index.size() - 1;
  for (std::size_t j = (i + 1) & mask; index[j] != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t home = Home(
        PredictionCacheKeyHash{}(slab[static_cast<std::size_t>(index[j])].key),
        mask);
    // The member at j may fill the hole at i only if i lies on its probe
    // path, i.e. cyclically within [home, j).
    if (((j - home) & mask) >= ((j - i) & mask)) {
      index[i] = index[j];
      i = j;
    }
  }
  index[i] = kEmpty;
}

std::size_t PredictionCache::Stripe::Victim() {
  while (slab[hand].referenced) {
    slab[hand].referenced = false;
    hand = hand + 1 == slab.size() ? 0 : hand + 1;
  }
  const std::size_t victim = hand;
  hand = hand + 1 == slab.size() ? 0 : hand + 1;
  return victim;
}

PredictionCache::PredictionCache(std::size_t capacity)
    : capacity_(capacity),
      num_stripes_(std::clamp<std::size_t>(capacity, 1, kStripes)) {
  // The first capacity % num_stripes_ stripes hold one entry more, so the
  // shares sum to exactly `capacity` and each stripe in use holds one.
  for (std::size_t s = 0; s < num_stripes_; ++s) {
    const std::size_t share =
        capacity / num_stripes_ + (s < capacity % num_stripes_ ? 1 : 0);
    GAUGUR_CHECK_MSG(
        share <= static_cast<std::size_t>(
                     std::numeric_limits<std::int32_t>::max()),
        "prediction cache stripe exceeds int32 slab positions");
    stripes_[s].slab.resize(share);
    stripes_[s].index.assign(std::bit_ceil(std::max<std::size_t>(2 * share, 1)),
                             kEmpty);
  }
}

template <typename Visit>
void PredictionCache::ForEachByStripe(std::span<const PredictionCacheKey> keys,
                                      Visit visit) const {
  // Counting sort on the stripe: start[s] .. start[s + 1] is stripe s's
  // run of `order`, which keeps batch order within the run.
  const std::size_t n = keys.size();
  std::vector<std::size_t> hashes(n);
  std::array<std::size_t, kStripes + 1> start{};
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = PredictionCacheKeyHash{}(keys[i]);
    ++start[hashes[i] % num_stripes_ + 1];
  }
  for (std::size_t s = 0; s < num_stripes_; ++s) start[s + 1] += start[s];
  std::array<std::size_t, kStripes> next;
  std::copy_n(start.begin(), kStripes, next.begin());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[next[hashes[i] % num_stripes_]++] = i;
  }
  for (std::size_t s = 0; s < num_stripes_; ++s) {
    if (start[s] == start[s + 1]) continue;
    Stripe& stripe = stripes_[s];
    const auto lock = LockStripe(stripe);
    for (std::size_t j = start[s]; j < start[s + 1]; ++j) {
      visit(stripe, order[j], hashes[order[j]]);
    }
  }
}

std::size_t PredictionCache::LookupBatch(
    std::span<const PredictionCacheKey> keys, std::span<char> hit,
    std::span<double> values,
    std::span<std::shared_ptr<const CachedPrediction>> entries) const {
  GAUGUR_CHECK(hit.size() == keys.size() && values.size() == keys.size());
  GAUGUR_CHECK(entries.empty() || entries.size() == keys.size());
  std::fill(hit.begin(), hit.end(), 0);
  std::fill(entries.begin(), entries.end(), nullptr);
  if (capacity_ == 0) return 0;
  std::size_t hits = 0;
  ForEachByStripe(keys, [&](Stripe& stripe, std::size_t i, std::size_t hash) {
    const std::int32_t pos = stripe.index[stripe.Find(keys[i], hash)];
    if (pos == kEmpty) {
      ++stripe.stats.misses;
      return;
    }
    ++stripe.stats.hits;
    Slot& slot = stripe.slab[static_cast<std::size_t>(pos)];
    slot.referenced = true;
    hit[i] = 1;
    values[i] = slot.value;
    if (!entries.empty()) entries[i] = slot.entry;
    ++hits;
  });
  return hits;
}

std::size_t PredictionCache::InsertBatch(
    std::span<const PredictionCacheKey> keys,
    std::span<const std::shared_ptr<const CachedPrediction>> entries) {
  GAUGUR_CHECK(entries.size() == keys.size());
  if (capacity_ == 0) return 0;
  std::size_t evicted = 0;
  ForEachByStripe(keys, [&](Stripe& stripe, std::size_t k, std::size_t hash) {
    const PredictionCacheKey& key = keys[k];
    const std::shared_ptr<const CachedPrediction>& entry = entries[k];
    GAUGUR_CHECK_MSG(entry != nullptr, "prediction cache entry is null");
    std::size_t i = stripe.Find(key, hash);
    if (stripe.index[i] != kEmpty) {
      Slot& slot = stripe.slab[static_cast<std::size_t>(stripe.index[i])];
      slot.referenced = true;
      slot.value = entry->value;
      slot.entry = entry;
      return;
    }
    std::size_t pos = stripe.size;
    if (pos < stripe.slab.size()) {
      ++stripe.size;
    } else {
      pos = stripe.Victim();
      const PredictionCacheKey& victim = stripe.slab[pos].key;
      stripe.EraseIndexSlot(
          stripe.Find(victim, PredictionCacheKeyHash{}(victim)));
      // The shift may have moved the new key's probe run: find its end
      // again.
      i = stripe.Find(key, hash);
      ++stripe.stats.evictions;
      ++evicted;
    }
    stripe.slab[pos] = {key, /*referenced=*/false, entry->value, entry};
    stripe.index[i] = static_cast<std::int32_t>(pos);
  });
  return evicted;
}

std::shared_ptr<const CachedPrediction> PredictionCache::Lookup(
    const PredictionCacheKey& key) const {
  char hit = 0;
  double value = 0.0;
  std::shared_ptr<const CachedPrediction> entry;
  LookupBatch({&key, 1}, {&hit, 1}, {&value, 1}, {&entry, 1});
  return entry;
}

std::size_t PredictionCache::Insert(
    const PredictionCacheKey& key,
    std::shared_ptr<const CachedPrediction> entry) {
  return InsertBatch({&key, 1}, {&entry, 1});
}

void PredictionCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (std::size_t pos = 0; pos < stripe.size; ++pos) {
      stripe.slab[pos] = {};
    }
    std::fill(stripe.index.begin(), stripe.index.end(), kEmpty);
    stripe.size = 0;
    stripe.hand = 0;
  }
}

std::size_t PredictionCache::Size() const {
  std::size_t total = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.size;
  }
  return total;
}

PredictionCache::Stats PredictionCache::GetStats() const {
  Stats folded;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    folded.hits += stripe.stats.hits;
    folded.misses += stripe.stats.misses;
    folded.evictions += stripe.stats.evictions;
  }
  return folded;
}

}  // namespace gaugur::core
