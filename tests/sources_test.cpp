#include "dissemination/sources.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"

namespace ltnc::dissem {
namespace {

constexpr std::size_t kK = 32;
constexpr std::size_t kM = 16;
constexpr std::uint64_t kSeed = 9;

Payload expected_payload(const BitVector& coeffs) {
  Payload p(kM);
  coeffs.for_each_set([&](std::size_t i) {
    p.xor_with(Payload::deterministic(kM, kSeed, i));
  });
  return p;
}

TEST(Sources, WcSourceRoundRobinCoversContent) {
  auto src = make_source(session::Scheme::kWc, kK, kM, kSeed, {});
  Rng rng(1);
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < kK; ++i) {
    const CodedPacket pkt = src->next(rng);
    ASSERT_EQ(pkt.degree(), 1u);
    const std::size_t native = pkt.coeffs.first_set();
    EXPECT_EQ(pkt.payload, Payload::deterministic(kM, kSeed, native));
    seen.insert(native);
  }
  // One full cycle covers every native exactly once.
  EXPECT_EQ(seen.size(), kK);
}

TEST(Sources, RlncSourceIsDenseAndConsistent) {
  auto src = make_source(session::Scheme::kRlnc, kK, kM, kSeed, {});
  Rng rng(2);
  double total_degree = 0;
  for (int i = 0; i < 200; ++i) {
    const CodedPacket pkt = src->next(rng);
    ASSERT_GE(pkt.degree(), 1u);
    EXPECT_EQ(pkt.payload, expected_payload(pkt.coeffs));
    total_degree += static_cast<double>(pkt.degree());
  }
  // Bernoulli(1/2) coefficients: mean degree ≈ k/2.
  EXPECT_NEAR(total_degree / 200.0, kK / 2.0, kK / 8.0);
}

TEST(Sources, LtSourceFollowsRobustSoliton) {
  auto src = make_source(session::Scheme::kLtnc, kK, kM, kSeed, {});
  Rng rng(3);
  const lt::RobustSoliton rs(kK);
  std::vector<int> counts(kK + 1, 0);
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    const CodedPacket pkt = src->next(rng);
    ASSERT_GE(pkt.degree(), 1u);
    ++counts[pkt.degree()];
  }
  for (std::size_t d = 1; d <= 3; ++d) {
    EXPECT_NEAR(static_cast<double>(counts[d]) / kSamples,
                rs.probability(d), 0.02)
        << "degree " << d;
  }
}

TEST(Sources, LtSourcePayloadsConsistent) {
  auto src = make_source(session::Scheme::kLtnc, kK, kM, kSeed, {});
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const CodedPacket pkt = src->next(rng);
    ASSERT_EQ(pkt.payload, expected_payload(pkt.coeffs));
  }
}

TEST(Sources, ContentMatchesAcrossSchemes) {
  // All three sources serve the same deterministic content for a seed.
  Rng rng(5);
  auto wc = make_source(session::Scheme::kWc, kK, kM, kSeed, {});
  const CodedPacket native0 = wc->next(rng);
  EXPECT_EQ(native0.payload,
            Payload::deterministic(kM, kSeed, native0.coeffs.first_set()));
}

}  // namespace
}  // namespace ltnc::dissem
