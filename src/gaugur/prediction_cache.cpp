#include "gaugur/prediction_cache.h"

#include <algorithm>
#include <utility>
#include <chrono>

#include "obs/latency_profiler.h"

namespace gaugur::core {

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

PredictionCache::PredictionCache(std::size_t capacity)
    : capacity_(capacity),
      num_stripes_(std::clamp<std::size_t>(capacity, 1, kStripes)) {
  // The first capacity % num_stripes_ stripes hold one entry more, so the
  // shares sum to exactly `capacity` and each stripe in use holds one.
  for (std::size_t s = 0; s < num_stripes_; ++s) {
    stripes_[s].capacity =
        capacity / num_stripes_ + (s < capacity % num_stripes_ ? 1 : 0);
  }
}

std::shared_ptr<const CachedPrediction> PredictionCache::Lookup(
    const PredictionCacheKey& key) const {
  if (capacity_ == 0) return nullptr;
  Stripe& stripe = StripeFor(key);
  const auto lock = LockStripe(stripe);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) {
    ++stripe.stats.misses;
    return nullptr;
  }
  ++stripe.stats.hits;
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
  return it->second.value;
}

std::size_t PredictionCache::Insert(
    const PredictionCacheKey& key,
    std::shared_ptr<const CachedPrediction> entry) {
  if (capacity_ == 0) return 0;
  Stripe& stripe = StripeFor(key);
  const auto lock = LockStripe(stripe);
  auto it = stripe.entries.find(key);
  if (it != stripe.entries.end()) {
    it->second.value = std::move(entry);
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
    return 0;
  }
  stripe.lru.push_front(key);
  stripe.entries[key] = {stripe.lru.begin(), std::move(entry)};
  std::size_t evicted = 0;
  while (stripe.entries.size() > stripe.capacity) {
    stripe.entries.erase(stripe.lru.back());
    stripe.lru.pop_back();
    ++stripe.stats.evictions;
    ++evicted;
  }
  return evicted;
}

void PredictionCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.entries.clear();
    stripe.lru.clear();
  }
}

std::size_t PredictionCache::Size() const {
  std::size_t total = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.entries.size();
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
