#include "common/page_array.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace gaugur::common {
namespace {

TEST(PageArray, EmptyArrayMapsNothing) {
  EXPECT_EQ(MapPageArray<std::uint32_t>(0), nullptr);
}

TEST(PageArray, StartsZeroedAndKeepsWrites) {
  constexpr std::size_t kSize = 300000;  // spans many pages
  auto values = MapPageArray<std::uint64_t>(kSize);
  ASSERT_NE(values, nullptr);
  for (std::size_t i = 0; i < kSize; ++i) ASSERT_EQ(values[i], 0u);
  for (std::size_t i = 0; i < kSize; ++i) values[i] = i * 3;
  const auto moved = std::move(values);
  EXPECT_EQ(values, nullptr);
  EXPECT_EQ(moved[kSize - 1], (kSize - 1) * 3);
}

}  // namespace
}  // namespace gaugur::common
