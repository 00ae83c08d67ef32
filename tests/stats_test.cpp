#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ltnc {
namespace {

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.relative_stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // textbook population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.relative_stddev(), 0.4);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

}  // namespace
}  // namespace ltnc
