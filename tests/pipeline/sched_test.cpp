// Enumeration, Algorithm 1 packing, assignment, and study-setup tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "sched/assignment.h"
#include "sched/enumeration.h"
#include "sched/methodology.h"
#include "sched/packing.h"
#include "sched/study.h"
#include "tests/pipeline/world.h"

namespace gaugur::sched {
namespace {

using core::Colocation;
using core::SessionRequest;
using gaugur::testing::TestWorld;

std::vector<SessionRequest> MakePool(int n) {
  std::vector<SessionRequest> pool;
  for (int i = 0; i < n; ++i) {
    pool.push_back({i, resources::k1080p});
  }
  return pool;
}

TEST(EnumerationTest, PaperCount385) {
  EXPECT_EQ(CountColocations(10, 4), 385u);
  const auto colocations = EnumerateColocations(MakePool(10), 4);
  EXPECT_EQ(colocations.size(), 385u);
}

TEST(EnumerationTest, SizesOrderedAndBounded) {
  const auto colocations = EnumerateColocations(MakePool(6), 3);
  EXPECT_EQ(colocations.size(), 6u + 15u + 20u);
  for (std::size_t i = 1; i < colocations.size(); ++i) {
    EXPECT_LE(colocations[i - 1].size(), colocations[i].size());
  }
  for (const auto& c : colocations) {
    EXPECT_GE(c.size(), 1u);
    EXPECT_LE(c.size(), 3u);
  }
}

TEST(EnumerationTest, NoDuplicateSubsets) {
  const auto colocations = EnumerateColocations(MakePool(8), 4);
  std::set<std::uint64_t> keys;
  for (const auto& c : colocations) keys.insert(core::ColocationHash(c));
  EXPECT_EQ(keys.size(), colocations.size());
}

TEST(EnumerationTest, GamesWithinSubsetDistinct) {
  for (const auto& c : EnumerateColocations(MakePool(5), 4)) {
    std::set<int> ids;
    for (const auto& s : c) ids.insert(s.game_id);
    EXPECT_EQ(ids.size(), c.size());
  }
}

TEST(PackingTest, SingletonOnlyUsesOneServerPerRequest) {
  const auto pool = MakePool(3);
  std::vector<Colocation> feasible;
  for (const auto& s : pool) feasible.push_back({s});
  const std::vector<int> requests{2, 3, 1};
  const auto result = PackRequests(feasible, requests);
  EXPECT_EQ(result.servers_used, 6u);
}

TEST(PackingTest, PairsHalveServerCount) {
  const auto pool = MakePool(2);
  std::vector<Colocation> feasible{{pool[0]}, {pool[1]},
                                   {pool[0], pool[1]}};
  const std::vector<int> requests{10, 10};
  const auto result = PackRequests(feasible, requests);
  // Algorithm 1 instantiates the pair 10 times.
  EXPECT_EQ(result.servers_used, 10u);
}

TEST(PackingTest, FallsBackToSingletonsForRemainder) {
  const auto pool = MakePool(2);
  std::vector<Colocation> feasible{{pool[0]}, {pool[1]},
                                   {pool[0], pool[1]}};
  const std::vector<int> requests{10, 4};
  const auto result = PackRequests(feasible, requests);
  // 4 pairs + 6 singles of game 0.
  EXPECT_EQ(result.servers_used, 10u);
}

TEST(PackingTest, PrefersLargerColocations) {
  const auto pool = MakePool(4);
  std::vector<Colocation> feasible;
  for (const auto& s : pool) feasible.push_back({s});
  feasible.push_back({pool[0], pool[1]});
  feasible.push_back({pool[0], pool[1], pool[2], pool[3]});
  const std::vector<int> requests{5, 5, 5, 5};
  const auto result = PackRequests(feasible, requests);
  // The quad handles everything in 5 servers.
  EXPECT_EQ(result.servers_used, 5u);
}

TEST(PackingTest, AllRequestsPlacedExactly) {
  const auto pool = MakePool(3);
  std::vector<Colocation> feasible;
  for (const auto& s : pool) feasible.push_back({s});
  feasible.push_back({pool[0], pool[2]});
  const std::vector<int> requests{7, 3, 5};
  const auto result = PackRequests(feasible, requests);
  std::vector<int> placed(3, 0);
  for (const auto& server : result.assignments) {
    for (const auto& s : server) {
      ++placed[static_cast<std::size_t>(s.game_id)];
    }
  }
  EXPECT_EQ(placed[0], 7);
  EXPECT_EQ(placed[1], 3);
  EXPECT_EQ(placed[2], 5);
}

TEST(PackingTest, MissingSingletonRejected) {
  const auto pool = MakePool(2);
  const std::vector<Colocation> feasible{{pool[0]}};
  const std::vector<int> requests{1, 1};
  EXPECT_THROW(PackRequests(feasible, requests), std::logic_error);
}

TEST(PackingTest, ZeroRequestsZeroServers) {
  const auto pool = MakePool(2);
  std::vector<Colocation> feasible{{pool[0]}, {pool[1]}};
  const std::vector<int> requests{0, 0};
  EXPECT_EQ(PackRequests(feasible, requests).servers_used, 0u);
}

TEST(StudyTest, SelectedGamesClearQosSolo) {
  const auto& world = TestWorld::Get();
  const auto setup = SelectStudyGames(world.lab(), 10, 60.0, 5);
  EXPECT_EQ(setup.game_ids.size(), 10u);
  for (const auto& s : setup.pool) {
    EXPECT_GE(world.lab().TrueSoloFps(s), 60.0);
  }
}

TEST(StudyTest, SelectionDeterministicInSeed) {
  const auto& world = TestWorld::Get();
  const auto a = SelectStudyGames(world.lab(), 10, 60.0, 5);
  const auto b = SelectStudyGames(world.lab(), 10, 60.0, 5);
  EXPECT_EQ(a.game_ids, b.game_ids);
  const auto c = SelectStudyGames(world.lab(), 10, 60.0, 6);
  EXPECT_NE(a.game_ids, c.game_ids);
}

TEST(StudyTest, RequestCountsSumToTotal) {
  const auto& world = TestWorld::Get();
  const auto setup = SelectStudyGames(world.lab(), 10, 60.0, 5);
  const auto counts =
      GenerateRequestCounts(world.catalog().size(), setup.game_ids, 5000, 7);
  int total = 0;
  for (std::size_t id = 0; id < counts.size(); ++id) {
    total += counts[id];
    if (std::find(setup.game_ids.begin(), setup.game_ids.end(),
                  static_cast<int>(id)) == setup.game_ids.end()) {
      EXPECT_EQ(counts[id], 0);
    }
  }
  EXPECT_EQ(total, 5000);
}

TEST(StudyTest, RequestStreamMatchesCounts) {
  const auto& world = TestWorld::Get();
  const auto setup = SelectStudyGames(world.lab(), 5, 60.0, 5);
  const auto counts =
      GenerateRequestCounts(world.catalog().size(), setup.game_ids, 200, 8);
  const auto stream = RequestStream(counts, 9);
  EXPECT_EQ(stream.size(), 200u);
  std::vector<int> recount(world.catalog().size(), 0);
  for (const auto& r : stream) {
    ++recount[static_cast<std::size_t>(r.game_id)];
  }
  EXPECT_EQ(recount, counts);
}

TEST(AssignmentTest, WorstFitSpreadsLoad) {
  const auto& world = TestWorld::Get();
  const baselines::VbpModel vbp(world.features());
  const auto setup = SelectStudyGames(world.lab(), 5, 60.0, 5);
  std::vector<SessionRequest> requests;
  for (int i = 0; i < 20; ++i) {
    requests.push_back(setup.pool[static_cast<std::size_t>(i % 5)]);
  }
  AssignmentOptions options;
  options.num_servers = 20;
  const auto servers =
      AssignWorstFit(vbp, world.features(), requests, options);
  EXPECT_EQ(servers.size(), 20u);
  // Worst-fit with ample servers puts every request on its own box.
  for (const auto& s : servers) {
    EXPECT_LE(s.size(), 1u);
  }
}

TEST(AssignmentTest, CapacityRespected) {
  const auto& world = TestWorld::Get();
  const baselines::VbpModel vbp(world.features());
  const auto setup = SelectStudyGames(world.lab(), 5, 60.0, 5);
  std::vector<SessionRequest> requests;
  for (int i = 0; i < 40; ++i) {
    requests.push_back(setup.pool[static_cast<std::size_t>(i % 5)]);
  }
  AssignmentOptions options;
  options.num_servers = 10;
  const auto servers =
      AssignWorstFit(vbp, world.features(), requests, options);
  std::size_t assigned = 0;
  for (const auto& s : servers) {
    EXPECT_LE(s.size(), options.max_sessions_per_server);
    assigned += s.size();
  }
  EXPECT_EQ(assigned, 40u);
}

TEST(AssignmentTest, FleetTooSmallRejected) {
  const auto& world = TestWorld::Get();
  const baselines::VbpModel vbp(world.features());
  const std::vector<SessionRequest> requests(
      9, SessionRequest{0, resources::k1080p});
  AssignmentOptions options;
  options.num_servers = 2;
  EXPECT_THROW(AssignWorstFit(vbp, world.features(), requests, options),
               std::logic_error);
}

TEST(AssignmentTest, EvaluateAssignmentCountsSessions) {
  const auto& world = TestWorld::Get();
  const std::vector<Colocation> servers{
      {}, {{0, resources::k1080p}},
      {{1, resources::k1080p}, {2, resources::k1080p}}};
  const auto fps = EvaluateAssignment(world.lab(), servers);
  EXPECT_EQ(fps.size(), 3u);
  for (double f : fps) EXPECT_GT(f, 0.0);
}

TEST(MethodologyTest, VbpMethodHasNoFpsModel) {
  const auto& world = TestWorld::Get();
  const baselines::VbpModel vbp(world.features());
  const auto method = MakeVbpMethod(vbp);
  EXPECT_FALSE(method->CanPredictFps());
  EXPECT_EQ(method->Name(), "VBP");
  const std::vector<Colocation> candidates{{{0, resources::k1080p}}};
  EXPECT_THROW(method->PredictFpsSums(candidates), std::logic_error);
}

}  // namespace
}  // namespace gaugur::sched
