#include "gaugur/features.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/pipeline/world.h"

namespace gaugur::core {
namespace {

using gaugur::testing::TestWorld;
using resources::Resource;

SessionRequest At1080(int id) {
  return SessionRequest{id, resources::k1080p};
}

TEST(FeatureBuilderTest, DimensionsMatchPaperFormulas) {
  const auto& features = TestWorld::Get().features();
  // 7 curves x 11 points + 9 victim-side features + (1 + 2 * 7)
  // aggregate features.
  EXPECT_EQ(features.RmDim(), 7u * 11u + 9u + 15u);
  EXPECT_EQ(features.CmDim(), features.RmDim() + 2u);
  EXPECT_EQ(features.CurvePoints(), 11u);
}

TEST(FeatureBuilderTest, FeatureNamesMatchDims) {
  const auto& features = TestWorld::Get().features();
  EXPECT_EQ(features.RmFeatureNames().size(), features.RmDim());
  EXPECT_EQ(features.CmFeatureNames().size(), features.CmDim());
  EXPECT_EQ(features.CmFeatureNames()[0], "qos_fps");
  EXPECT_EQ(features.CmFeatureNames()[1], "solo_fps");
}

TEST(FeatureBuilderTest, RmFeaturesStartWithSensitivityCurves) {
  const auto& features = TestWorld::Get().features();
  const std::vector<SessionRequest> corunners{At1080(1)};
  const auto x = features.RmFeatures(At1080(0), corunners);
  ASSERT_EQ(x.size(), features.RmDim());
  const auto& profile = features.Profile(0);
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_DOUBLE_EQ(x[i],
                     profile.Sensitivity(Resource::kCpuCore).degradation[i]);
  }
}

TEST(FeatureBuilderTest, CmFeaturesPrependQosAndSolo) {
  const auto& features = TestWorld::Get().features();
  const std::vector<SessionRequest> corunners{At1080(2)};
  const auto cm = features.CmFeatures(60.0, At1080(0), corunners);
  const auto rm = features.RmFeatures(At1080(0), corunners);
  ASSERT_EQ(cm.size(), rm.size() + 2);
  EXPECT_DOUBLE_EQ(cm[0], 60.0);
  EXPECT_DOUBLE_EQ(cm[1], features.Profile(0).SoloFps(resources::k1080p));
  for (std::size_t i = 0; i < rm.size(); ++i) {
    EXPECT_DOUBLE_EQ(cm[i + 2], rm[i]);
  }
}

TEST(FeatureBuilderTest, ProfiledMemoryFitsMatchesSums) {
  // Grow one colocation game by game until a memory sum overflows: the
  // screen must agree with both sums at every size on either side.
  const auto& features = TestWorld::Get().features();
  Colocation colocation;
  double cpu = 0.0, gpu = 0.0;
  bool fits = true;
  for (int id = 0; fits && id < static_cast<int>(features.NumGames()); ++id) {
    colocation.push_back({id, resources::k1080p});
    cpu += features.Profile(id).cpu_memory;
    gpu += features.Profile(id).gpu_memory;
    fits = cpu <= 1.0 && gpu <= 1.0;
    EXPECT_EQ(ProfiledMemoryFits(features, colocation), fits)
        << colocation.size() << " sessions";
  }
  EXPECT_FALSE(fits) << "the catalog never overflows one server";
  EXPECT_GT(colocation.size(), 1u);
}

TEST(AggregateIntensityTest, GroupSizeRecorded) {
  const auto& features = TestWorld::Get().features();
  for (std::size_t k = 0; k <= 3; ++k) {
    std::vector<SessionRequest> corunners;
    for (std::size_t i = 0; i < k; ++i) {
      corunners.push_back(At1080(static_cast<int>(i + 1)));
    }
    EXPECT_DOUBLE_EQ(features.Aggregate(corunners).group_size,
                     static_cast<double>(k));
  }
}

TEST(AggregateIntensityTest, SingleCorunnerMeanIsItsIntensity) {
  const auto& features = TestWorld::Get().features();
  const std::vector<SessionRequest> corunners{At1080(5)};
  const auto agg = features.Aggregate(corunners);
  for (Resource r : resources::kAllResources) {
    EXPECT_DOUBLE_EQ(agg.mean[r],
                     features.Profile(5).IntensityAt(r, resources::k1080p));
    EXPECT_DOUBLE_EQ(agg.dispersion[r], 0.0);
  }
}

TEST(AggregateIntensityTest, PaperDispersionFormula) {
  // var_r = (1/|G|) * sqrt(sum of squared deviations) per Eq. 5.
  const auto& features = TestWorld::Get().features();
  const std::vector<SessionRequest> corunners{At1080(1), At1080(2)};
  const auto agg = features.Aggregate(corunners);
  for (Resource r : resources::kAllResources) {
    const double i1 = features.Profile(1).IntensityAt(r, resources::k1080p);
    const double i2 = features.Profile(2).IntensityAt(r, resources::k1080p);
    const double mean = (i1 + i2) / 2.0;
    const double expected =
        std::sqrt((i1 - mean) * (i1 - mean) + (i2 - mean) * (i2 - mean)) /
        2.0;
    EXPECT_NEAR(agg.dispersion[r], expected, 1e-12);
    EXPECT_NEAR(agg.mean[r], mean, 1e-12);
  }
}

TEST(AggregateIntensityTest, PermutationInvariant) {
  const auto& features = TestWorld::Get().features();
  const std::vector<SessionRequest> ab{At1080(1), At1080(2), At1080(3)};
  const std::vector<SessionRequest> ba{At1080(3), At1080(1), At1080(2)};
  const auto x = features.RmFeatures(At1080(0), ab);
  const auto y = features.RmFeatures(At1080(0), ba);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(x[i], y[i]) << i;
  }
}

TEST(AggregateIntensityTest, FixedSizeForAnyGroup) {
  // The whole point of the Eq. 5 transform: 2, 3 and 4 co-runners all map
  // to the same feature dimensionality.
  const auto& features = TestWorld::Get().features();
  for (std::size_t k : {1u, 2u, 3u}) {
    std::vector<SessionRequest> corunners;
    for (std::size_t i = 0; i < k; ++i) {
      corunners.push_back(At1080(static_cast<int>(i + 10)));
    }
    EXPECT_EQ(features.RmFeatures(At1080(0), corunners).size(),
              features.RmDim());
  }
}

TEST(AggregateIntensityTest, ResolutionAffectsCorunnerIntensity) {
  const auto& features = TestWorld::Get().features();
  // Pick a co-runner with meaningful GPU intensity.
  int heavy = -1;
  for (std::size_t id = 0; id < features.NumGames(); ++id) {
    if (features.Profile(static_cast<int>(id))
            .intensity_ref[Resource::kGpuCore] > 0.3) {
      heavy = static_cast<int>(id);
      break;
    }
  }
  ASSERT_GE(heavy, 0);
  const std::vector<SessionRequest> lo{{heavy, resources::k720p}};
  const std::vector<SessionRequest> hi{{heavy, resources::k1440p}};
  EXPECT_LT(features.Aggregate(lo).mean[Resource::kGpuCore],
            features.Aggregate(hi).mean[Resource::kGpuCore]);
}

TEST(FeatureBuilderTest, ProfileLookupValidatesIds) {
  const auto& features = TestWorld::Get().features();
  EXPECT_THROW(features.Profile(-1), std::logic_error);
  EXPECT_THROW(features.Profile(static_cast<int>(features.NumGames())),
               std::logic_error);
}

}  // namespace
}  // namespace gaugur::core
