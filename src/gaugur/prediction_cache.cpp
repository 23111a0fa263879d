#include "gaugur/prediction_cache.h"

#include <algorithm>
#include <chrono>

#include "obs/latency_profiler.h"

namespace gaugur::core {

std::unique_lock<std::mutex> PredictionCache::LockStripe(Stripe& stripe) {
  auto& profiler = obs::LatencyProfiler::Global();
  if (!profiler.Active()) return std::unique_lock<std::mutex>(stripe.mutex);
  std::unique_lock<std::mutex> lock(stripe.mutex, std::try_to_lock);
  if (lock.owns_lock()) {
    // Uncontended fast path: no clock read, just the tallies (we hold
    // the stripe lock, so writing its stats is race-free).
    ++stripe.stats.lock_acquisitions;
    profiler.RecordCacheAcquisition(0.0, /*contended=*/false);
    return lock;
  }
  const auto start = std::chrono::steady_clock::now();
  lock.lock();
  const double wait_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  ++stripe.stats.lock_acquisitions;
  ++stripe.stats.lock_contended;
  stripe.stats.lock_wait_us += wait_us;
  profiler.RecordCacheAcquisition(wait_us, /*contended=*/true);
  return lock;
}

PredictionCache::PredictionCache(std::size_t capacity,
                                 std::size_t max_age_epochs,
                                 std::size_t stripes)
    : capacity_(capacity),
      stripe_capacity_((capacity + std::max<std::size_t>(stripes, 1) - 1) /
                       std::max<std::size_t>(stripes, 1)),
      max_age_epochs_(max_age_epochs),
      stripes_(std::max<std::size_t>(stripes, 1)) {}

std::shared_ptr<const CachedPrediction> PredictionCache::Lookup(
    const PredictionCacheKey& key, CacheLookupOutcome* outcome) const {
  if (outcome != nullptr) *outcome = CacheLookupOutcome::kMiss;
  if (capacity_ == 0) return nullptr;
  Stripe& stripe = StripeFor(key);
  const auto lock = LockStripe(stripe);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) {
    ++stripe.stats.misses;
    return nullptr;
  }
  if (max_age_epochs_ > 0 &&
      Epoch() - it->second.inserted_epoch >= max_age_epochs_) {
    // Lazy reuse-window expiry: the answer is from a fit that is still
    // valid (retrains Clear() outright) but older than the configured
    // arrival window — treat as a miss so the caller recomputes.
    stripe.lru.erase(it->second.lru_it);
    stripe.entries.erase(it);
    ++stripe.stats.expired;
    ++stripe.stats.misses;
    if (outcome != nullptr) *outcome = CacheLookupOutcome::kExpired;
    return nullptr;
  }
  ++stripe.stats.hits;
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
  if (outcome != nullptr) *outcome = CacheLookupOutcome::kHit;
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
    it->second.inserted_epoch = Epoch();
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
    return 0;
  }
  stripe.lru.push_front(key);
  stripe.entries[key] = {stripe.lru.begin(), std::move(entry), Epoch()};
  std::size_t evicted = 0;
  while (stripe.entries.size() > stripe_capacity_) {
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
    folded.expired += stripe.stats.expired;
    folded.lock_acquisitions += stripe.stats.lock_acquisitions;
    folded.lock_contended += stripe.stats.lock_contended;
    folded.lock_wait_us += stripe.stats.lock_wait_us;
  }
  return folded;
}

PredictionCache::Stats PredictionCache::StripeStats(std::size_t stripe) const {
  Stripe& s = stripes_[stripe % stripes_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.stats;
}

}  // namespace gaugur::core
