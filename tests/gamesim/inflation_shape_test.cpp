#include "gamesim/inflation_shape.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

namespace gaugur::gamesim {

// gtest prints a parameter it has no printer for as its raw bytes, and the
// printed parameter becomes part of each test's name. InflationShape has
// seven padding bytes after `kind` that hold whatever the stack held, so the
// default names change from run to run. Print the same byte layout with the
// padding zeroed, so every run lists the same test names.
static void PrintTo(const InflationShape& shape, std::ostream* os) {
  unsigned char bytes[sizeof(InflationShape)];
  std::memset(bytes, 0, sizeof bytes);
  std::memcpy(bytes + offsetof(InflationShape, kind), &shape.kind,
              sizeof shape.kind);
  std::memcpy(bytes + offsetof(InflationShape, p1), &shape.p1,
              sizeof shape.p1);
  std::memcpy(bytes + offsetof(InflationShape, p2), &shape.p2,
              sizeof shape.p2);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

namespace {

// Every shape family, across parameters, must satisfy the normalized-shape
// contract: h(0) = 0, h(1) = 1, monotone nondecreasing, bounded in [0,1].
class ShapeContractTest
    : public ::testing::TestWithParam<std::tuple<std::string, InflationShape>> {
};

TEST_P(ShapeContractTest, Endpoints) {
  const auto& shape = std::get<1>(GetParam());
  EXPECT_NEAR(shape.Eval(0.0), 0.0, 1e-12);
  EXPECT_NEAR(shape.Eval(1.0), 1.0, 1e-12);
}

TEST_P(ShapeContractTest, MonotoneNondecreasing) {
  const auto& shape = std::get<1>(GetParam());
  double prev = -1e-9;
  for (int i = 0; i <= 100; ++i) {
    const double v = shape.Eval(i / 100.0);
    EXPECT_GE(v, prev - 1e-12) << "at x=" << i / 100.0;
    prev = v;
  }
}

TEST_P(ShapeContractTest, BoundedAndClamped) {
  const auto& shape = std::get<1>(GetParam());
  for (double x : {-0.5, 0.3, 0.9, 1.5}) {
    const double v = shape.Eval(x);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_DOUBLE_EQ(shape.Eval(-1.0), shape.Eval(0.0));
  EXPECT_DOUBLE_EQ(shape.Eval(2.0), shape.Eval(1.0));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ShapeContractTest,
    ::testing::Values(
        std::make_tuple("linear", InflationShape::Linear()),
        std::make_tuple("power_0_5", InflationShape::Power(0.5)),
        std::make_tuple("power_2", InflationShape::Power(2.0)),
        std::make_tuple("power_3_2", InflationShape::Power(3.2)),
        std::make_tuple("logistic_mild", InflationShape::Logistic(4.0, 0.5)),
        std::make_tuple("logistic_steep", InflationShape::Logistic(12.0, 0.3)),
        std::make_tuple("logistic_late", InflationShape::Logistic(8.0, 0.7)),
        std::make_tuple("plateau_early", InflationShape::Plateau(0.25)),
        std::make_tuple("plateau_late", InflationShape::Plateau(0.6))),
    [](const auto& info) { return std::get<0>(info.param); });

TEST(InflationShapeTest, LinearIsIdentity) {
  const auto shape = InflationShape::Linear();
  for (double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(shape.Eval(x), x);
  }
}

TEST(InflationShapeTest, ConvexPowerBelowLinear) {
  const auto shape = InflationShape::Power(2.0);
  EXPECT_LT(shape.Eval(0.5), 0.5);
}

TEST(InflationShapeTest, ConcavePowerAboveLinear) {
  const auto shape = InflationShape::Power(0.5);
  EXPECT_GT(shape.Eval(0.5), 0.5);
}

TEST(InflationShapeTest, PlateauFlatBeforeKnee) {
  const auto shape = InflationShape::Plateau(0.4);
  EXPECT_DOUBLE_EQ(shape.Eval(0.2), 0.0);
  EXPECT_DOUBLE_EQ(shape.Eval(0.4), 0.0);
  EXPECT_GT(shape.Eval(0.5), 0.0);
  EXPECT_NEAR(shape.Eval(0.7), 0.5, 1e-12);
}

TEST(InflationShapeTest, LogisticKneeLocation) {
  // At the knee the normalized logistic passes near its midpoint.
  const auto shape = InflationShape::Logistic(10.0, 0.5);
  EXPECT_NEAR(shape.Eval(0.5), 0.5, 0.02);
}

TEST(InflationResponseTest, SlowdownFactorAtZeroPressureIsOne) {
  const InflationResponse response{0.8, InflationShape::Power(2.0)};
  EXPECT_DOUBLE_EQ(response.SlowdownFactor(0.0), 1.0);
}

TEST(InflationResponseTest, SlowdownFactorAtMaxPressure) {
  const InflationResponse response{0.8, InflationShape::Linear()};
  EXPECT_DOUBLE_EQ(response.SlowdownFactor(1.0), 1.8);
}

TEST(InflationResponseTest, ZeroAmplitudeIsInert) {
  const InflationResponse response{0.0, InflationShape::Power(2.0)};
  for (double x : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(response.SlowdownFactor(x), 1.0);
  }
}

}  // namespace
}  // namespace gaugur::gamesim
