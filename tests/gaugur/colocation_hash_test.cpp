// Property suite for the additive (Zobrist-style) colocation hash:
// multisets must hash by multiplicity (the reason the group is
// (Z/2^64, +) rather than XOR), and the derived ModelJoinKey must match
// the span-based entry point exactly — that identity is what lets the
// predictor key every victim of a candidate in O(1) from one total hash.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gaugur/colocation.h"
#include "resources/resolution.h"

namespace gaugur::core {
namespace {

SessionRequest Session(int game_id, resources::Resolution resolution =
                                        resources::kReferenceResolution) {
  return SessionRequest{game_id, resolution};
}

TEST(ColocationHash, EmptyColocationHashesToZero) {
  EXPECT_EQ(ColocationHash({}), 0u);
  const Colocation one = {Session(7, resources::k720p)};
  EXPECT_EQ(ColocationHash(one) - SessionHash(one[0]), 0u)
      << "removing the only session must return to the identity";
}

TEST(ColocationHash, OrderInsensitive) {
  Colocation forward = {Session(1), Session(2, resources::k720p),
                        Session(3, resources::k1440p), Session(2)};
  Colocation reversed(forward.rbegin(), forward.rend());
  EXPECT_EQ(ColocationHash(forward),
            ColocationHash(reversed));
}

TEST(ColocationHash, MultisetMultiplicityIsPreserved) {
  // XOR-Zobrist would cancel the duplicate; the additive group must not.
  const Colocation one = {Session(5)};
  const Colocation two = {Session(5), Session(5)};
  const Colocation three = {Session(5), Session(5), Session(5)};
  EXPECT_NE(ColocationHash(two), 0u);
  EXPECT_NE(ColocationHash(two),
            ColocationHash(one));
  EXPECT_NE(ColocationHash(three),
            ColocationHash(one));
  EXPECT_EQ(ColocationHash(two),
            2 * SessionHash(Session(5)));
}

TEST(ColocationHash, SessionHashSeparatesGameAndResolution) {
  EXPECT_NE(SessionHash(Session(1)), SessionHash(Session(2)));
  EXPECT_NE(SessionHash(Session(1, resources::k720p)),
            SessionHash(Session(1, resources::k1080p)));
}

TEST(ColocationHash, ModelJoinKeyMatchesHashDerivedForm) {
  // The hash-derived key path: with the co-runners' additive hash H, the
  // key for "victim joins these co-runners" is
  // JoinKeyFromHashes(SessionHash(victim), H) — bit-identical to the
  // span-based ModelJoinKey over the materialized co-runner list.
  common::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<SessionRequest> corunners;
    const std::size_t n = rng.UniformInt(5);
    for (std::size_t i = 0; i < n; ++i) {
      corunners.push_back(
          Session(static_cast<int>(rng.UniformInt(10)),
                  resources::kPlayerResolutions[rng.UniformInt(4)]));
    }
    const SessionRequest victim =
        Session(static_cast<int>(rng.UniformInt(10)),
                resources::kPlayerResolutions[rng.UniformInt(4)]);
    EXPECT_EQ(ModelJoinKey(victim, corunners),
              JoinKeyFromHashes(SessionHash(victim),
                                ColocationHash(corunners)));
  }
}

TEST(ColocationHash, ModelJoinKeyIsVictimSensitive) {
  // Same total multiset, different victim -> different key: the final mix
  // must not collapse "A among {B}" with "B among {A}".
  const SessionRequest a = Session(1);
  const SessionRequest b = Session(2);
  const Colocation only_b = {b};
  const Colocation only_a = {a};
  EXPECT_NE(ModelJoinKey(a, only_b), ModelJoinKey(b, only_a));
}

TEST(ColocationHash, PerVictimKeysDeriveFromTotalInConstantTime) {
  // From the full colocation's additive hash, every victim's co-runner
  // sum is total - SessionHash(victim): the subtraction trick the
  // predictor's scoring loop uses to key all victims of one candidate.
  const Colocation content = {Session(1), Session(2, resources::k720p),
                              Session(2, resources::k720p), Session(4)};
  const std::uint64_t total = ColocationHash(content);
  for (std::size_t i = 0; i < content.size(); ++i) {
    std::vector<SessionRequest> corunners;
    for (std::size_t j = 0; j < content.size(); ++j) {
      if (j != i) corunners.push_back(content[j]);
    }
    EXPECT_EQ(ModelJoinKey(content[i], corunners),
              JoinKeyFromHashes(SessionHash(content[i]),
                                total - SessionHash(content[i])));
  }
}

TEST(MatchColocation, ReorderedColocationMapsEachSessionToItsSlot) {
  const Colocation stored = {Session(1), Session(2, resources::k720p),
                             Session(3)};
  const Colocation query = {Session(3), Session(1),
                            Session(2, resources::k720p)};
  std::vector<std::size_t> slot_of;
  ASSERT_TRUE(MatchColocation(query, stored, slot_of));
  EXPECT_EQ(slot_of, (std::vector<std::size_t>{2, 0, 1}));
  for (std::size_t i = 0; i < query.size(); ++i) {
    EXPECT_EQ(query[i], stored[slot_of[i]]);
  }
}

TEST(MatchColocation, DuplicateSessionsTakeDistinctSlots) {
  // Each query copy of game 5 takes the first *unused* equal slot, so a
  // per-session vector read through the map never repeats a slot.
  const Colocation stored = {Session(5), Session(6), Session(5)};
  const Colocation query = {Session(5), Session(5), Session(6)};
  std::vector<std::size_t> slot_of;
  ASSERT_TRUE(MatchColocation(query, stored, slot_of));
  EXPECT_EQ(slot_of, (std::vector<std::size_t>{0, 2, 1}));
  ASSERT_TRUE(MatchColocation(stored, stored, slot_of));
  EXPECT_EQ(slot_of, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(MatchColocation, DifferentMultisetsDoNotMatch) {
  std::vector<std::size_t> slot_of;
  // Multiplicity: {5, 5, 6} is not {5, 6, 6}, though both hold 5 and 6.
  EXPECT_FALSE(MatchColocation(Colocation{Session(5), Session(5), Session(6)},
                               Colocation{Session(5), Session(6), Session(6)},
                               slot_of));
  // Size.
  EXPECT_FALSE(MatchColocation(Colocation{Session(5)},
                               Colocation{Session(5), Session(5)}, slot_of));
  // Resolution: same game at another resolution is another session.
  EXPECT_FALSE(MatchColocation(Colocation{Session(1, resources::k720p)},
                               Colocation{Session(1, resources::k1080p)},
                               slot_of));
  // The empty colocation matches only itself.
  EXPECT_TRUE(MatchColocation(Colocation{}, Colocation{}, slot_of));
  EXPECT_TRUE(slot_of.empty());
}

TEST(BuildVictimQueries, CandidateMajorVictimMinorSkippingMasked) {
  const std::vector<Colocation> candidates = {
      {Session(1), Session(2), Session(3)},
      {Session(4), Session(5)},
      {Session(6), Session(7)}};
  const std::vector<char> mask = {1, 0, 1};
  const VictimQueries vq = BuildVictimQueries(candidates, mask);
  // Each victim's co-runners keep colocation order; candidate 1 is
  // masked out.
  const std::vector<std::pair<int, std::vector<int>>> expected = {
      {1, {2, 3}}, {2, {1, 3}}, {3, {1, 2}}, {6, {7}}, {7, {6}}};
  ASSERT_EQ(vq.queries.size(), expected.size());
  EXPECT_EQ(vq.query_candidate,
            (std::vector<std::size_t>{0, 0, 0, 2, 2}));
  for (std::size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(vq.queries[q].victim.game_id, expected[q].first) << q;
    std::vector<int> corunners;
    for (const auto& s : vq.queries[q].corunners) {
      corunners.push_back(s.game_id);
    }
    EXPECT_EQ(corunners, expected[q].second) << q;
  }
  // No mask: every candidate, in order.
  EXPECT_EQ(BuildVictimQueries(candidates).query_candidate,
            (std::vector<std::size_t>{0, 0, 0, 1, 1, 2, 2}));
}

}  // namespace
}  // namespace gaugur::core
