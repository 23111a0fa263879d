#include "sched/assignment.h"

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/check.h"

namespace gaugur::sched {

using core::Colocation;
using core::SessionRequest;

namespace {

/// True when `a` and `b` are the same multiset: the exact check every
/// ColocationHash memo hit below makes before trusting the stored value.
bool SameColocation(const Colocation& a, const Colocation& b) {
  std::vector<std::size_t> slot_of;
  return core::MatchColocation(a, b, slot_of);
}

/// Server groups: all servers currently hosting the same colocation.
struct GroupState {
  Colocation content;
  std::size_t count = 0;
};

class GroupedFleet {
 public:
  /// Every server starts empty, and the empty colocation hashes to 0.
  GroupedFleet(std::size_t num_servers, std::size_t max_sessions)
      : max_sessions_(max_sessions) {
    groups_[0] = GroupState{{}, num_servers};
  }

  /// Visits each distinct group that still has a free session slot.
  template <typename Fn>
  void ForEachOpenGroup(Fn&& fn) const {
    for (const auto& [key, group] : groups_) {
      if (group.content.size() < max_sessions_) fn(key, group);
    }
  }

  /// Moves one server from `from_key`'s group into the group holding
  /// `new_content`.
  void Move(std::uint64_t from_key, Colocation new_content) {
    auto it = groups_.find(from_key);
    GAUGUR_CHECK(it != groups_.end() && it->second.count > 0);
    if (--it->second.count == 0) groups_.erase(it);
    auto& group = groups_[core::ColocationHash(new_content)];
    if (group.count == 0) {
      group.content = std::move(new_content);
    } else {
      GAUGUR_CHECK_MSG(SameColocation(new_content, group.content),
                       "ColocationHash collision between server groups");
    }
    ++group.count;
  }

  std::vector<Colocation> Expand() const {
    std::vector<Colocation> servers;
    for (const auto& [key, group] : groups_) {
      for (std::size_t i = 0; i < group.count; ++i) {
        servers.push_back(group.content);
      }
    }
    return servers;
  }

 private:
  std::size_t max_sessions_;
  std::unordered_map<std::uint64_t, GroupState> groups_;
};

/// A memoized per-colocation value with the colocation it was computed
/// for, so a hit can be confirmed exactly.
struct MemoEntry {
  Colocation content;
  double value = 0.0;
};
using ValueMemo = std::unordered_map<std::uint64_t, MemoEntry>;

/// The entry memoized for `colocation`, or nullptr. A hit holding another
/// multiset (a ColocationHash collision) fails the CHECK.
MemoEntry* FindExact(ValueMemo& memo, const Colocation& colocation) {
  const auto it = memo.find(core::ColocationHash(colocation));
  if (it == memo.end()) return nullptr;
  GAUGUR_CHECK_MSG(SameColocation(colocation, it->second.content),
                   "ColocationHash collision in a colocation memo");
  return &it->second;
}

Colocation Extend(const Colocation& content, const SessionRequest& request) {
  Colocation extended = content;
  extended.push_back(request);
  return extended;
}

}  // namespace

std::vector<Colocation> AssignByPredictedFps(
    const Methodology& method, const core::FeatureBuilder& features,
    std::span<const SessionRequest> requests,
    const AssignmentOptions& options) {
  GAUGUR_CHECK_MSG(method.CanPredictFps(),
                   method.Name() << " has no FPS model");
  GAUGUR_CHECK_MSG(
      requests.size() <= options.num_servers * options.max_sessions_per_server,
      "fleet capacity too small for the request stream");

  GroupedFleet fleet(options.num_servers, options.max_sessions_per_server);
  // Memoized predicted-FPS sums by ColocationHash, filled one batched
  // Methodology::PredictFpsSums call per request (below); by the time the
  // selection loop runs, every candidate's sum is memoized.
  ValueMemo fps_sum_cache;
  auto cached_sum = [&](const Colocation& colocation) {
    const MemoEntry* entry = FindExact(fps_sum_cache, colocation);
    GAUGUR_CHECK_MSG(entry != nullptr,
                     "candidate sum missing from the prefetch");
    return entry->value;
  };

  for (const auto& request : requests) {
    // Prefetch pass: collect every candidate colocation this decision can
    // touch (group contents and memory-fitting extensions) whose sum is
    // not memoized yet, and score them with one batched call.
    std::vector<Colocation> uncached;
    auto enqueue = [&](const Colocation& colocation) {
      if (FindExact(fps_sum_cache, colocation) != nullptr) return;
      // Placeholder so duplicates within this prefetch are skipped; the
      // real value lands right after the batch call.
      fps_sum_cache.emplace(core::ColocationHash(colocation),
                            MemoEntry{colocation, 0.0});
      uncached.push_back(colocation);
    };
    fleet.ForEachOpenGroup([&](std::uint64_t, const GroupState& group) {
      const Colocation extended = Extend(group.content, request);
      if (!core::ProfiledMemoryFits(features, extended)) return;
      enqueue(group.content);
      enqueue(extended);
    });
    if (!uncached.empty()) {
      const std::vector<double> sums = method.PredictFpsSums(uncached);
      for (std::size_t i = 0; i < uncached.size(); ++i) {
        FindExact(fps_sum_cache, uncached[i])->value = sums[i];
      }
    }

    std::uint64_t best_key = 0;
    const Colocation* best_content = nullptr;
    double best_gain = -std::numeric_limits<double>::infinity();
    fleet.ForEachOpenGroup([&](std::uint64_t key, const GroupState& group) {
      const Colocation extended = Extend(group.content, request);
      if (!core::ProfiledMemoryFits(features, extended)) return;
      const double gain = cached_sum(extended) - cached_sum(group.content);
      if (gain > best_gain) {
        best_gain = gain;
        best_key = key;
        best_content = &group.content;
      }
    });
    GAUGUR_CHECK_MSG(best_content != nullptr,
                     "no server can host the request (memory)");
    fleet.Move(best_key, Extend(*best_content, request));
  }
  return fleet.Expand();
}

std::vector<Colocation> AssignWorstFit(
    const baselines::VbpModel& vbp, const core::FeatureBuilder& features,
    std::span<const SessionRequest> requests,
    const AssignmentOptions& options) {
  GAUGUR_CHECK_MSG(
      requests.size() <= options.num_servers * options.max_sessions_per_server,
      "fleet capacity too small for the request stream");
  (void)features;

  GroupedFleet fleet(options.num_servers, options.max_sessions_per_server);
  ValueMemo capacity_cache;
  auto cached_capacity = [&](const Colocation& colocation) {
    if (const MemoEntry* entry = FindExact(capacity_cache, colocation)) {
      return entry->value;
    }
    const double cap = vbp.RemainingCapacity(colocation);
    capacity_cache.emplace(core::ColocationHash(colocation),
                           MemoEntry{colocation, cap});
    return cap;
  };

  for (const auto& request : requests) {
    std::uint64_t best_key = 0;
    const Colocation* best_content = nullptr;
    double best_capacity = -std::numeric_limits<double>::infinity();
    fleet.ForEachOpenGroup([&](std::uint64_t key, const GroupState& group) {
      const double capacity = cached_capacity(group.content);
      if (capacity > best_capacity) {
        best_capacity = capacity;
        best_key = key;
        best_content = &group.content;
      }
    });
    GAUGUR_CHECK(best_content != nullptr);
    fleet.Move(best_key, Extend(*best_content, request));
  }
  return fleet.Expand();
}

std::vector<double> EvaluateAssignment(
    const core::ColocationLab& lab,
    std::span<const Colocation> servers) {
  struct Solved {
    Colocation content;
    std::vector<double> fps;  // parallel to `content`
  };
  std::unordered_map<std::uint64_t, Solved> fps_cache;
  std::vector<std::size_t> slot_of;
  std::vector<double> all_fps;
  for (const auto& server : servers) {
    if (server.empty()) continue;
    auto [it, inserted] =
        fps_cache.try_emplace(core::ColocationHash(server), Solved{});
    if (inserted) it->second = Solved{server, lab.TrueFps(server)};
    GAUGUR_CHECK_MSG(core::MatchColocation(server, it->second.content,
                                           slot_of),
                     "ColocationHash collision in the ground-truth memo");
    for (const std::size_t slot : slot_of) {
      all_fps.push_back(it->second.fps[slot]);
    }
  }
  return all_fps;
}

}  // namespace gaugur::sched
