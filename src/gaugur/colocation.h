// Colocation primitives: a session request (game + player-chosen
// resolution), a colocation (the set of sessions sharing one server), and
// a measured colocation (the observed frame rates).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "resources/resolution.h"

namespace gaugur::core {

struct SessionRequest {
  int game_id = -1;
  resources::Resolution resolution = resources::kReferenceResolution;

  friend bool operator==(const SessionRequest&,
                         const SessionRequest&) = default;
};

using Colocation = std::vector<SessionRequest>;

struct MeasuredColocation {
  Colocation sessions;
  /// Measured frame rate of each session (paper: mean FPS over the test
  /// scene), parallel to `sessions`.
  std::vector<double> fps;
};

/// One per-victim prediction query: `corunners` excludes the victim and
/// must stay alive for the duration of the call. Shared by the GAugur
/// predictor and the baseline models' batch entry points.
struct QosQuery {
  SessionRequest victim;
  std::span<const SessionRequest> corunners;
};

/// Every victim of every candidate as one QosQuery, for one batched
/// model call. Co-runner sets live in `pool`, reserved up front so the
/// spans stay valid (a move keeps the buffer); `query_candidate[q]` is
/// query q's candidate.
struct VictimQueries {
  std::vector<SessionRequest> pool;
  std::vector<QosQuery> queries;
  std::vector<std::size_t> query_candidate;
};

/// Queries are candidate-major and victim-minor, co-runners in
/// colocation order: summing per-candidate results in query order adds
/// them exactly as a scalar per-victim loop does. With `mask` non-empty,
/// candidates with mask 0 get no queries.
inline VictimQueries BuildVictimQueries(std::span<const Colocation> candidates,
                                        std::span<const char> mask = {}) {
  const auto skip = [&](std::size_t i) { return !mask.empty() && !mask[i]; };
  VictimQueries vq;
  std::size_t slots = 0, count = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (skip(i)) continue;
    slots += candidates[i].size() * (candidates[i].size() - 1);
    count += candidates[i].size();
  }
  vq.pool.reserve(slots);
  vq.queries.reserve(count);
  vq.query_candidate.reserve(count);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (skip(i)) continue;
    const Colocation& colocation = candidates[i];
    for (std::size_t v = 0; v < colocation.size(); ++v) {
      const std::size_t begin = vq.pool.size();
      for (std::size_t j = 0; j < colocation.size(); ++j) {
        if (j != v) vq.pool.push_back(colocation[j]);
      }
      vq.queries.push_back(
          {colocation[v],
           std::span<const SessionRequest>(vq.pool.data() + begin,
                                           vq.pool.size() - begin)});
      vq.query_candidate.push_back(i);
    }
  }
  return vq;
}

/// 64-bit join key for one (victim, co-runner set) — order-insensitive in
/// the co-runners, victim-sensitive. The model monitor (obs) uses it to
/// join prediction audit records with the realized FPS the simulator
/// later measures for the same victim in the same colocation. Derived
/// from per-session hashes (see SessionHash / JoinKeyFromHashes below),
/// so a caller holding a colocation's ColocationHash forms every victim's
/// key in O(1) instead of rehashing the co-runner set.
std::uint64_t ModelJoinKey(const SessionRequest& victim,
                           std::span<const SessionRequest> corunners);

/// SplitMix64 finalizer: a cheap, statistically strong 64-bit mixer.
/// Every hash primitive below funnels through it so that structurally
/// similar sessions (adjacent game ids, same resolution) land far apart
/// in key space.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-session Zobrist value. Unlike classic Zobrist tables this is
/// computed (not looked up), so any (game_id, resolution) pair — including
/// ones outside the profiled catalog — gets a stable 64-bit code without
/// a preallocated table.
inline std::uint64_t SessionHash(const SessionRequest& session) {
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(session.game_id))
       << 32) |
      static_cast<std::uint32_t>(session.resolution.NumPixels());
  return SplitMix64(packed);
}

/// Additive hash of a colocation *multiset*.
///
/// Classic Zobrist hashing XORs piece codes — but XOR cancels duplicates,
/// and colocations are multisets (two copies of the same game on one
/// server are a real, distinct state). Working in the group (Z/2^64, +)
/// instead preserves multiplicity, and subtraction removes one session
/// in O(1):
///
///   value = sum over sessions of SessionHash(session)   (mod 2^64)
///
/// Order-insensitive by commutativity; the empty colocation is 0.
///
/// This is the one colocation identity: every memo keyed by a colocation
/// (prediction sums, ground-truth FPS, server groups) keys on this value
/// and confirms each hit with MatchColocation below.
inline std::uint64_t ColocationHash(std::span<const SessionRequest> sessions) {
  std::uint64_t sum = 0;
  for (const auto& s : sessions) sum += SessionHash(s);
  return sum;
}

/// Exact-match check for a ColocationHash memo hit: pairs each `query`
/// session with the first unused equal session of `stored`. Returns false
/// when the two are different multisets (a 64-bit collision). On a match,
/// `slot_of[i]` is the index in `stored` of query session i, so a
/// per-session vector memoized in `stored`'s order reads `v[slot_of[i]]`
/// for query session i.
bool MatchColocation(std::span<const SessionRequest> query,
                     std::span<const SessionRequest> stored,
                     std::vector<std::size_t>& slot_of);

/// Forms the ModelJoinKey from precomputed hashes: the victim's own
/// SessionHash and the ColocationHash of the co-runner multiset. With a
/// colocation's total hash `H`, each victim's key is
/// JoinKeyFromHashes(SessionHash(victim), H - SessionHash(victim)) — no
/// set traversal per victim.
/// The final mix makes the key victim-sensitive (swapping victim and a
/// co-runner changes the key even though the total multiset is equal).
inline std::uint64_t JoinKeyFromHashes(std::uint64_t victim_hash,
                                       std::uint64_t corunner_sum) {
  return SplitMix64(victim_hash ^ SplitMix64(corunner_sum + 0x51ed270b0f4aULL));
}

}  // namespace gaugur::core
