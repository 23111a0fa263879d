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
