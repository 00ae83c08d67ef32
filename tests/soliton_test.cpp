#include "lt/soliton.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace ltnc::lt {
namespace {

TEST(IdealSoliton, SumsToOne) {
  for (std::size_t k : {1u, 2u, 10u, 1000u}) {
    const auto w = ideal_soliton_weights(k);
    ASSERT_EQ(w.size(), k);
    const double sum = std::accumulate(w.begin(), w.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "k=" << k;
  }
}

TEST(IdealSoliton, KnownValues) {
  const auto w = ideal_soliton_weights(4);
  EXPECT_NEAR(w[0], 0.25, 1e-12);        // ρ(1) = 1/k
  EXPECT_NEAR(w[1], 0.5, 1e-12);         // ρ(2) = 1/2
  EXPECT_NEAR(w[2], 1.0 / 6.0, 1e-12);   // ρ(3) = 1/6
  EXPECT_NEAR(w[3], 1.0 / 12.0, 1e-12);  // ρ(4) = 1/12
}

TEST(RobustSoliton, NormalisedAndSpiked) {
  const std::size_t k = 2048;
  const RobustSolitonParams params{};
  const auto w = robust_soliton_weights(k, params);
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // Spike at k/R: strictly more mass than its ideal-soliton neighbourhood.
  const double R = params.c * std::log(static_cast<double>(k) / params.delta) *
                   std::sqrt(static_cast<double>(k));
  const auto spike = static_cast<std::size_t>(static_cast<double>(k) / R);
  EXPECT_GT(w[spike - 1], w[spike]);
  EXPECT_GT(w[spike - 1], w[spike - 2]);
}

TEST(RobustSoliton, LowDegreesDominate) {
  // The paper: "more than 50% of encoded packets of degree 1 or 2" — our
  // default parameters give ≈ 45–55 %; assert the qualitative property
  // that degrees 1–3 carry the majority of the mass.
  const RobustSoliton rs(2048);
  double low = rs.probability(1) + rs.probability(2) + rs.probability(3);
  EXPECT_GT(low, 0.5);
  EXPECT_GT(rs.probability(2), rs.probability(5));
}

TEST(RobustSoliton, MeanDegreeIsLogarithmic) {
  // Average degree should grow like log k (paper §II).
  const RobustSoliton small(256);
  const RobustSoliton large(4096);
  EXPECT_GT(large.mean_degree(), small.mean_degree());
  EXPECT_LT(large.mean_degree(), 4.0 * std::log(4096.0));
  EXPECT_GT(large.mean_degree(), 0.5 * std::log(4096.0));
}

TEST(RobustSoliton, SamplesWithinRangeAndMatchDistribution) {
  const std::size_t k = 64;
  const RobustSoliton rs(k);
  Rng rng(9);
  constexpr int kSamples = 200000;
  std::vector<int> counts(k + 1, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::size_t d = rs.sample(rng);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, k);
    ++counts[d];
  }
  for (std::size_t d = 1; d <= k; ++d) {
    const double expected = rs.probability(d);
    const double observed =
        static_cast<double>(counts[d]) / static_cast<double>(kSamples);
    const double sigma = std::sqrt(expected * (1 - expected) / kSamples);
    EXPECT_NEAR(observed, expected, 5 * sigma + 1e-4) << "degree " << d;
  }
}

TEST(RobustSoliton, InvalidParamsThrow) {
  EXPECT_THROW(robust_soliton_weights(16, {.c = 0.0, .delta = 0.5}),
               std::logic_error);
  EXPECT_THROW(robust_soliton_weights(16, {.c = 0.1, .delta = 0.0}),
               std::logic_error);
  EXPECT_THROW(robust_soliton_weights(16, {.c = 0.1, .delta = 1.5}),
               std::logic_error);
}

TEST(RobustSoliton, TinyK) {
  // k = 1: the only possible degree is 1.
  const RobustSoliton rs(1);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rs.sample(rng), 1u);
}

TEST(RobustSoliton, OneDrawPerSample) {
  const RobustSoliton rs(32);
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t d = rs.sample(a);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 32u);
    b.next();
    ASSERT_EQ(a.next(), b.next()) << "sample " << i
                                  << " consumed more than one draw";
  }
}

class RobustSolitonSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RobustSolitonSweep, ProbabilitiesFormDistribution) {
  const std::size_t k = GetParam();
  const RobustSoliton rs(k);
  double sum = 0.0;
  for (std::size_t d = 1; d <= k; ++d) {
    const double p = rs.probability(d);
    ASSERT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(rs.probability(0), 0.0);
  EXPECT_EQ(rs.probability(k + 1), 0.0);
}

INSTANTIATE_TEST_SUITE_P(K, RobustSolitonSweep,
                         ::testing::Values(2, 16, 100, 512, 2048));

// --- fixed-point degree LUT -------------------------------------------------

TEST(DegreeLut, MassMatchesWeightsExactly) {
  // Not a statistical check: the LUT's fixed-point mass for every degree
  // must equal the real-valued weight to within CDF rounding (one ulp per
  // entry at 2⁻⁶⁴, plus double accumulation noise — far below 1e-12).
  for (const std::size_t k : {2u, 16u, 100u, 512u}) {
    const auto weights = robust_soliton_weights(k, {});
    const DegreeLut lut(weights);
    ASSERT_EQ(lut.k(), k);
    for (std::size_t d = 1; d <= k; ++d) {
      const double mass =
          std::ldexp(static_cast<double>(lut.mass(d)), -64);
      EXPECT_NEAR(mass, weights[d - 1], 1e-12) << "k=" << k << " d=" << d;
    }
  }
}

TEST(DegreeLut, SamplesAreAlwaysInRange) {
  const std::size_t k = 48;
  const DegreeLut lut(robust_soliton_weights(k, {}));
  Rng rng(11);
  for (int i = 0; i < 100000; ++i) {
    const std::size_t d = lut.sample(rng);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, k);
  }
}

TEST(DegreeLut, SampleInvertsTheFixedPointCdf) {
  // The bucket table only chooses where the forward walk starts, so every
  // draw must land on the degree a linear scan of the fixed-point CDF
  // gives. k = 1 has the smallest table (two entries), 3 and 5000 are not
  // powers of two, and 5000 is past the 4,096-entry cap.
  for (const std::size_t k : {1u, 2u, 3u, 16u, 512u, 1024u, 5000u}) {
    const DegreeLut lut(robust_soliton_weights(k, {}));
    std::vector<std::uint64_t> cdf(k);
    std::uint64_t cum = 0;
    for (std::size_t d = 1; d <= k; ++d) cdf[d - 1] = cum += lut.mass(d);
    Rng rng(k);
    for (int i = 0; i < 100000; ++i) {
      Rng peek = rng;
      const std::uint64_t u = peek.next();
      std::size_t expected = 1;
      while (expected < k && u >= cdf[expected - 1]) ++expected;
      ASSERT_EQ(lut.sample(rng), expected) << "k=" << k << " draw " << i;
    }
  }
}

TEST(DegreeLut, RejectsDegenerateWeights) {
  EXPECT_THROW(DegreeLut(std::vector<double>{}), std::logic_error);
  EXPECT_THROW(DegreeLut(std::vector<double>{0.0, 0.0}), std::logic_error);
  EXPECT_THROW(DegreeLut(std::vector<double>{0.5, -0.1}), std::logic_error);
}

}  // namespace
}  // namespace ltnc::lt
