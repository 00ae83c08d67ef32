#include "core/ltnc_codec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gf2/gf2_matrix.hpp"
#include "lt/lt_encoder.hpp"

namespace ltnc::core {
namespace {

constexpr std::size_t kM = 8;

LtncConfig config(std::size_t k) {
  LtncConfig cfg;
  cfg.k = k;
  cfg.payload_bytes = kM;
  return cfg;
}

CodedPacket make_packet(std::size_t k, std::vector<std::size_t> idx,
                        const std::vector<Payload>& natives) {
  CodedPacket pkt{BitVector::from_indices(k, idx), Payload(kM)};
  for (std::size_t i : idx) pkt.payload.xor_with(natives[i]);
  return pkt;
}

TEST(LtncCodec, DecodesLtStreamEndToEnd) {
  constexpr std::size_t k = 128;
  const auto natives = lt::make_native_payloads(k, kM, 1);
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 1));
  LtncCodec codec(config(k));
  Rng rng(2);
  std::size_t received = 0;
  while (!codec.complete() && received < 8 * k) {
    codec.receive(enc.encode(rng));
    ++received;
  }
  ASSERT_TRUE(codec.complete());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(codec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

TEST(LtncCodec, RejectsDetectablyRedundantArrivals) {
  constexpr std::size_t k = 16;
  const auto natives = lt::make_native_payloads(k, kM, 3);
  LtncCodec codec(config(k));
  codec.receive(make_packet(k, {0, 1}, natives));
  codec.receive(make_packet(k, {1, 2}, natives));
  // x0 ⊕ x2 is generable via the chain: Algorithm 3 must veto it.
  EXPECT_TRUE(codec.would_reject(
      BitVector::from_indices(k, {0, 2})));
  EXPECT_EQ(codec.receive(make_packet(k, {0, 2}, natives)),
            lt::ReceiveResult::kRejectedRedundant);
  EXPECT_EQ(codec.stats().redundant_rejected, 1u);
}

TEST(LtncCodec, WouldRejectMatchesReceiveOutcome) {
  // Protocol invariant behind the binary feedback channel: a vector that
  // passes would_reject() must not be wasted on arrival, and vice versa.
  constexpr std::size_t k = 64;
  const auto natives = lt::make_native_payloads(k, kM, 4);
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 4));
  LtncCodec codec(config(k));
  Rng rng(5);
  for (int i = 0; i < 400 && !codec.complete(); ++i) {
    const CodedPacket pkt = enc.encode(rng);
    const bool rejected = codec.would_reject(pkt.coeffs);
    const auto outcome = codec.receive(pkt);
    if (rejected) {
      EXPECT_TRUE(outcome == lt::ReceiveResult::kDuplicate ||
                  outcome == lt::ReceiveResult::kRejectedRedundant)
          << "packet " << pkt.coeffs.to_string();
    } else {
      EXPECT_TRUE(outcome == lt::ReceiveResult::kDecodedNative ||
                  outcome == lt::ReceiveResult::kStored)
          << "packet " << pkt.coeffs.to_string();
    }
  }
}

TEST(LtncCodec, RecodedPacketsCarryConsistentPayloads) {
  constexpr std::size_t k = 64;
  const auto natives = lt::make_native_payloads(k, kM, 6);
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 6));
  LtncCodec codec(config(k));
  Rng rng(7);
  for (int i = 0; i < 40; ++i) codec.receive(enc.encode(rng));
  for (int i = 0; i < 200; ++i) {
    const auto pkt = codec.recode(rng);
    ASSERT_TRUE(pkt.has_value());
    ASSERT_GE(pkt->degree(), 1u);
    Payload expected(kM);
    pkt->coeffs.for_each_set(
        [&](std::size_t j) { expected.xor_with(natives[j]); });
    ASSERT_EQ(pkt->payload, expected)
        << "recoded packet " << pkt->coeffs.to_string();
  }
}

TEST(LtncCodec, RecodedPacketsStayInReceivedSpan) {
  // A recoded packet must be a GF(2) combination of what was received —
  // otherwise the node would be inventing data.
  constexpr std::size_t k = 32;
  const auto natives = lt::make_native_payloads(k, kM, 8);
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 8));
  LtncCodec codec(config(k));
  gf2::GF2Matrix received(k);
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const CodedPacket pkt = enc.encode(rng);
    received.append_row(pkt.coeffs);
    codec.receive(pkt);
  }
  for (int i = 0; i < 100; ++i) {
    const auto pkt = codec.recode(rng);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_TRUE(received.in_row_space(pkt->coeffs))
        << pkt->coeffs.to_string();
  }
}

TEST(LtncCodec, RecodeFromNothingFails) {
  LtncCodec codec(config(16));
  Rng rng(10);
  EXPECT_FALSE(codec.recode(rng).has_value());
  EXPECT_EQ(codec.stats().recode_failures, 1u);
}

TEST(LtncCodec, ChainOfRecodersStillDecodes) {
  // The network-coding property: relay nodes that only ever see encoded
  // packets can recode, and the sink still decodes with belief
  // propagation. Source → relay1 → relay2 → sink.
  constexpr std::size_t k = 64;
  const auto natives = lt::make_native_payloads(k, kM, 11);
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 11));
  LtncCodec relay1(config(k));
  LtncCodec relay2(config(k));
  LtncCodec sink(config(k));
  Rng rng(12);
  std::size_t sink_received = 0;
  const std::size_t budget = 40 * k;
  std::size_t steps = 0;
  while (!sink.complete() && steps < budget) {
    ++steps;
    relay1.receive(enc.encode(rng));
    if (const auto p1 = relay1.recode(rng)) {
      if (!relay2.would_reject(p1->coeffs)) relay2.receive(*p1);
    }
    if (const auto p2 = relay2.recode(rng)) {
      if (!sink.would_reject(p2->coeffs)) {
        sink.receive(*p2);
        ++sink_received;
      }
    }
  }
  ASSERT_TRUE(sink.complete())
      << "sink decoded " << sink.decoded_count() << "/" << k << " after "
      << steps << " steps";
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_EQ(sink.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
  // The sink must not need an absurd number of packets (LT overhead only).
  EXPECT_LT(sink_received, 6 * k);
}

TEST(LtncCodec, RecodedDegreesTrackRobustSoliton) {
  // §III-B: the degrees of fresh packets recoded from a *rich* store
  // should follow the Robust Soliton distribution closely.
  constexpr std::size_t k = 128;
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 13));
  LtncCodec codec(config(k));
  Rng rng(14);
  for (int i = 0; i < 300; ++i) codec.receive(enc.encode(rng));

  const lt::RobustSoliton rs(k);
  constexpr int kSamples = 20000;
  std::vector<int> counts(k + 1, 0);
  for (int i = 0; i < kSamples; ++i) {
    const auto pkt = codec.recode(rng);
    ASSERT_TRUE(pkt.has_value());
    ++counts[pkt->degree()];
  }
  // Compare the low-degree head (the part BP depends on) within a few
  // percentage points.
  for (std::size_t d = 1; d <= 4; ++d) {
    const double expected = rs.probability(d);
    const double observed =
        static_cast<double>(counts[d]) / static_cast<double>(kSamples);
    EXPECT_NEAR(observed, expected, 0.05) << "degree " << d;
  }
  EXPECT_GT(codec.degree_stats().first_accept_rate(), 0.99);
}

TEST(LtncCodec, DuplicateStreamDoesNotBloatStore) {
  constexpr std::size_t k = 16;
  const auto natives = lt::make_native_payloads(k, kM, 15);
  LtncCodec codec(config(k));
  const CodedPacket pkt = make_packet(k, {0, 1, 2, 3}, natives);
  codec.receive(pkt);
  for (int i = 0; i < 10; ++i) {
    // Identical degree-4 packets cannot be detected (degree > 3)…
    codec.receive(pkt);
  }
  // …but the store only grows by the duplicates, never decodes wrongly.
  EXPECT_EQ(codec.decoded_count(), 0u);
  const CodedPacket dup2 = make_packet(k, {0, 1}, natives);
  codec.receive(dup2);
  EXPECT_EQ(codec.receive(dup2), lt::ReceiveResult::kRejectedRedundant);
}

TEST(LtncCodec, AblationFlagsAreHonoured) {
  constexpr std::size_t k = 16;
  const auto natives = lt::make_native_payloads(k, kM, 16);
  LtncConfig cfg = config(k);
  cfg.enable_redundancy_detection = false;
  LtncCodec codec(cfg);
  codec.receive(make_packet(k, {0, 1}, natives));
  codec.receive(make_packet(k, {1, 2}, natives));
  // Without the detector the redundant pair is accepted and stored.
  EXPECT_EQ(codec.receive(make_packet(k, {0, 2}, natives)),
            lt::ReceiveResult::kStored);
  EXPECT_FALSE(codec.would_reject(BitVector::from_indices(k, {0, 2})));
}

TEST(LtncCodec, StatsAccumulate) {
  constexpr std::size_t k = 32;
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 17));
  LtncCodec codec(config(k));
  Rng rng(18);
  for (int i = 0; i < 50; ++i) codec.receive(enc.encode(rng));
  for (int i = 0; i < 50; ++i) (void)codec.recode(rng);
  const auto& s = codec.stats();
  EXPECT_EQ(s.receives, 50u);
  EXPECT_EQ(s.recodes, 50u);
  EXPECT_EQ(s.duplicates + s.redundant_rejected + s.decoded_on_arrival +
                s.stored,
            s.receives);
  EXPECT_GT(codec.recode_ops().invocations, 0u);
  EXPECT_GT(codec.decode_ops().invocations, 0u);
}

class LtncDecodabilitySweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::uint64_t, std::size_t>> {};

TEST_P(LtncDecodabilitySweep, GossipOfRecodedPacketsConverges) {
  // Five LTNC nodes in a ring where only node 0 hears the source: all
  // must eventually decode purely from recoded traffic downstream. Also
  // swept over payload sizes (0 = control-plane only; 13 exercises the
  // non-word-aligned tail masking), which draw identically. The step
  // budget is a hang guard, not a speed bound: replayed over seeds 1–60
  // at k = 32 / 64 / 128, the ring converges in a median of
  // 14.8 / 18.6 / 33.0 steps per k and at most 98.7 / 180.2 / 639.4, so
  // 4 / 12 / 17 of those seeds need more than 60·k steps, and none fails
  // within 2000·k. Seed 3 needs 70.7·k at k = 128.
  const auto [k, seed, m] = GetParam();
  const auto natives = lt::make_native_payloads(k, m, seed);
  lt::LtEncoder enc(lt::make_native_payloads(k, m, seed));
  constexpr int kNodes = 5;
  std::vector<std::unique_ptr<LtncCodec>> nodes;
  for (int n = 0; n < kNodes; ++n) {
    LtncConfig cfg = config(k);
    cfg.payload_bytes = m;
    nodes.push_back(std::make_unique<LtncCodec>(cfg));
  }
  Rng rng(seed + 100);
  const std::size_t budget = 2000 * k;
  std::size_t steps = 0;
  auto complete = [&] {
    for (const auto& n : nodes) {
      if (!n->complete()) return false;
    }
    return true;
  };
  while (!complete() && steps < budget) {
    ++steps;
    nodes[0]->receive(enc.encode(rng));
    for (int n = 0; n < kNodes; ++n) {
      if (const auto pkt = nodes[n]->recode(rng)) {
        auto& next = *nodes[(n + 1) % kNodes];
        if (!next.would_reject(pkt->coeffs)) next.receive(*pkt);
      }
    }
  }
  ASSERT_TRUE(complete()) << "k=" << k << " seed=" << seed;
  for (const auto& n : nodes) {
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(n->native_payload(static_cast<NativeIndex>(i)), natives[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LtncDecodabilitySweep,
    ::testing::Combine(::testing::Values(32, 64, 128),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 13, kM)));

}  // namespace
}  // namespace ltnc::core
