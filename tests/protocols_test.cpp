#include "session/protocols.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dissemination/sources.hpp"
#include "lt/lt_encoder.hpp"

namespace ltnc::dissem {
namespace {

constexpr std::size_t kM = 16;
constexpr std::uint64_t kContentSeed = 42;

session::ProtocolParams params(std::size_t k, double aggressiveness = 0.01) {
  session::ProtocolParams p;
  p.k = k;
  p.payload_bytes = kM;
  p.aggressiveness = aggressiveness;
  return p;
}

class ProtocolConformance : public ::testing::TestWithParam<session::Scheme> {};

TEST_P(ProtocolConformance, SourceFeedsNodeToCompletion) {
  const session::Scheme scheme = GetParam();
  const std::size_t k = 64;
  auto node = session::make_node(scheme, params(k));
  auto source = make_source(scheme, k, kM, kContentSeed, {});
  Rng rng(1);
  std::size_t delivered = 0;
  while (!node->complete() && delivered < 30 * k) {
    const CodedPacket pkt = source->next(rng);
    if (!node->would_reject(pkt.coeffs)) {
      node->deliver(pkt);
      ++delivered;
    }
  }
  ASSERT_TRUE(node->complete()) << session::scheme_name(scheme);
  EXPECT_EQ(node->useful_packets(), k);
  EXPECT_TRUE(node->finish_and_verify(kContentSeed))
      << session::scheme_name(scheme);
}

TEST_P(ProtocolConformance, EmitOnlyAfterAggressivenessThreshold) {
  const session::Scheme scheme = GetParam();
  const std::size_t k = 100;
  auto node = session::make_node(scheme, params(k, 0.10));
  auto source = make_source(scheme, k, kM, kContentSeed, {});
  Rng rng(2);
  // WC/RLNC push as soon as they hold anything; LTNC waits for 10 % of k
  // ("the aggressiveness", paper §IV-A).
  std::size_t accepted = 0;
  while (accepted < (scheme == session::Scheme::kLtnc ? 5u : 1u)) {
    const CodedPacket pkt = source->next(rng);
    if (!node->would_reject(pkt.coeffs)) {
      node->deliver(pkt);
      ++accepted;
    }
  }
  if (scheme == session::Scheme::kLtnc) {
    // 5 accepted packets can hold at most 5 useful packets < 10.
    EXPECT_FALSE(node->can_emit());
    std::size_t budget = 20 * k;
    while (!node->can_emit() && budget-- > 0) {
      const CodedPacket pkt = source->next(rng);
      if (!node->would_reject(pkt.coeffs)) node->deliver(pkt);
    }
  }
  EXPECT_TRUE(node->can_emit());
  EXPECT_TRUE(node->emit(rng).has_value());
}

TEST_P(ProtocolConformance, WouldRejectIsConsistentWithDeliver) {
  const session::Scheme scheme = GetParam();
  const std::size_t k = 32;
  auto node = session::make_node(scheme, params(k));
  auto source = make_source(scheme, k, kM, kContentSeed, {});
  Rng rng(3);
  for (int i = 0; i < 200 && !node->complete(); ++i) {
    const CodedPacket pkt = source->next(rng);
    const std::size_t before = node->useful_packets();
    if (node->would_reject(pkt.coeffs)) {
      // A rejected packet must indeed be useless.
      node->deliver(pkt);
      EXPECT_EQ(node->useful_packets(), before) << session::scheme_name(scheme);
    } else {
      node->deliver(pkt);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ProtocolConformance,
                         ::testing::Values(session::Scheme::kLtnc,
                                           session::Scheme::kRlnc,
                                           session::Scheme::kWc),
                         [](const auto& info) {
                           return session::scheme_name(info.param);
                         });

TEST(Protocols, SchemeNames) {
  EXPECT_STREQ(session::scheme_name(session::Scheme::kLtnc), "LTNC");
  EXPECT_STREQ(session::scheme_name(session::Scheme::kRlnc), "RLNC");
  EXPECT_STREQ(session::scheme_name(session::Scheme::kWc), "WC");
}

TEST(Protocols, LtncExposesComponentLeaders) {
  auto node = session::make_node(session::Scheme::kLtnc, params(16));
  ASSERT_NE(node->component_leaders(), nullptr);
  EXPECT_EQ(node->component_leaders()->size(), 16u);
  auto rlnc = session::make_node(session::Scheme::kRlnc, params(16));
  EXPECT_EQ(rlnc->component_leaders(), nullptr);
}

TEST(Protocols, EmitForFallsBackOnSchemesWithoutSmartConstruction) {
  // RLNC/WC ignore the receiver cc and emit normally.
  auto node = session::make_node(session::Scheme::kRlnc, params(16));
  auto source = make_source(session::Scheme::kRlnc, 16, kM, kContentSeed, {});
  Rng rng(9);
  node->deliver(source->next(rng));
  const std::vector<std::uint32_t> cc(16, 1);
  EXPECT_TRUE(node->emit_for(cc, rng).has_value());
}

TEST(Protocols, FinishAndVerifyFailsWhenIncomplete) {
  auto node = session::make_node(session::Scheme::kLtnc, params(16));
  EXPECT_FALSE(node->finish_and_verify(kContentSeed));
}

TEST(Protocols, FinishAndVerifyDetectsCorruptContent) {
  // Feed content generated from the WRONG seed: decoding succeeds but the
  // verification against the canonical content must fail.
  const std::size_t k = 8;
  auto node = session::make_node(session::Scheme::kWc, params(k));
  for (std::size_t i = 0; i < k; ++i) {
    node->deliver(CodedPacket::native(
        k, i, Payload::deterministic(kM, kContentSeed + 1, i)));
  }
  ASSERT_TRUE(node->complete());
  EXPECT_FALSE(node->finish_and_verify(kContentSeed));
}

}  // namespace
}  // namespace ltnc::dissem
