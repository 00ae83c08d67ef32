#include "core/builder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/lt_encoder.hpp"

namespace ltnc::core {
namespace {

constexpr std::size_t kM = 8;

// Minimal wiring of a BP decoder store into a DegreeIndex, mimicking the
// codec's observer without the rest of the machinery.
class IndexedStore : public lt::StoreObserver {
 public:
  explicit IndexedStore(std::size_t k, std::uint64_t content_seed = 31)
      : index(k),
        decoder(k, kM, this),
        natives(lt::make_native_payloads(k, kM, content_seed)) {}

  void on_stored(PacketId id, const BitVector&, std::size_t degree,
                 const Payload&) override {
    index.insert(id, degree);
  }
  void on_degree_changed(PacketId id, const BitVector&, std::size_t od,
                         std::size_t nd) override {
    index.change(id, od, nd);
  }
  void on_removed(PacketId id, const BitVector&, std::size_t deg) override {
    index.remove(id, deg);
  }

  void give(std::vector<std::size_t> idx) {
    CodedPacket pkt{BitVector::from_indices(decoder.k(), idx), Payload(kM)};
    for (std::size_t i : idx) pkt.payload.xor_with(natives[i]);
    decoder.receive(pkt);
  }

  /// The ground-truth payload for an arbitrary coefficient vector.
  Payload expected_payload(const BitVector& coeffs) const {
    Payload p(kM);
    coeffs.for_each_set([&](std::size_t i) { p.xor_with(natives[i]); });
    return p;
  }

  DegreeIndex index;
  lt::BpDecoder decoder;
  std::vector<Payload> natives;
};

TEST(PacketBuilder, PaperWalkthrough) {
  // Figure 4 / §III-B.2 example (0-based): store y1 = x1⊕x2 (deg 2),
  // y2 = x2⊕x3⊕x4 (deg 3), y5 = x3⊕x4⊕x5 (deg 3)… then build degree 5.
  IndexedStore s(7);
  s.give({0, 1});        // y1, degree 2
  s.give({1, 2, 3});     // y2, degree 3
  s.give({2, 3, 4});     // y5, degree 3
  s.give({2, 4});        // y4, degree 2
  s.give({4, 6});        // y6, degree 2
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto z = builder.build(5, rng, ops);
    ASSERT_TRUE(z.has_value());
    // Degree must never exceed the target; payload must be consistent.
    EXPECT_LE(z->degree(), 5u);
    EXPECT_GE(z->degree(), 2u);
    EXPECT_EQ(z->payload, s.expected_payload(z->coeffs));
  }
}

TEST(PacketBuilder, ReachesExactTargetWhenPossible) {
  IndexedStore s(8);
  s.give({0, 1});
  s.give({2, 3, 4});
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  Rng rng(8);
  const auto z = builder.build(5, rng, ops);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(z->degree(), 5u);  // disjoint supports always combine fully
  EXPECT_EQ(z->coeffs, BitVector::from_indices(8, {0, 1, 2, 3, 4}));
  EXPECT_EQ(builder.stats().reached_target, 1u);
}

TEST(PacketBuilder, AvoidsCollisionsThatLowerDegree) {
  // Only {0,1} and {0,1,2} available: combining them gives degree 1 < 2,
  // so a degree-3 build must pick exactly the triple.
  IndexedStore s(8);
  s.give({0, 1});
  s.give({0, 1, 2});
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const auto z = builder.build(3, rng, ops);
    ASSERT_TRUE(z.has_value());
    EXPECT_EQ(z->degree(), 3u);
    EXPECT_EQ(z->coeffs, BitVector::from_indices(8, {0, 1, 2}));
  }
}

TEST(PacketBuilder, UsesDecodedNativesAsDegree1) {
  IndexedStore s(8);
  s.give({3});  // decodes x3
  s.give({5});  // decodes x5
  ASSERT_EQ(s.decoder.decoded_count(), 2u);
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  Rng rng(10);
  const auto z = builder.build(2, rng, ops);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(z->degree(), 2u);
  EXPECT_EQ(z->coeffs, BitVector::from_indices(8, {3, 5}));
  EXPECT_EQ(z->payload, s.expected_payload(z->coeffs));
}

TEST(PacketBuilder, MixesEncodedAndDecoded) {
  IndexedStore s(8);
  s.give({0});        // decoded x0
  s.give({1, 2});     // degree-2 packet
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  Rng rng(11);
  const auto z = builder.build(3, rng, ops);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(z->degree(), 3u);
  EXPECT_EQ(z->coeffs, BitVector::from_indices(8, {0, 1, 2}));
}

TEST(PacketBuilder, EmptyStoreFails) {
  IndexedStore s(8);
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  Rng rng(12);
  EXPECT_FALSE(builder.build(3, rng, ops).has_value());
}

TEST(PacketBuilder, DeviationStatsRecorded) {
  IndexedStore s(8);
  s.give({0, 1});
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  Rng rng(13);
  const auto z = builder.build(5, rng, ops);  // can only reach 2
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(z->degree(), 2u);
  EXPECT_EQ(builder.stats().builds, 1u);
  EXPECT_EQ(builder.stats().reached_target, 0u);
  EXPECT_NEAR(builder.stats().relative_deviation.mean(), 3.0 / 5.0, 1e-12);
}

class BuilderTargetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BuilderTargetSweep, RichStoreHitsTargetsOften) {
  // With a realistic LT packet population, the builder should reach the
  // requested degree almost always (paper: 95 %).
  const std::size_t target = GetParam();
  constexpr std::size_t k = 128;
  IndexedStore s(k);
  lt::LtEncoder enc(lt::make_native_payloads(k, kM, 31));
  Rng rng(14);
  for (int i = 0; i < 160; ++i) s.decoder.receive(enc.encode(rng));
  PacketBuilder builder(s.decoder, s.index);
  OpCounters ops;
  int hits = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    const auto z = builder.build(target, rng, ops);
    ASSERT_TRUE(z.has_value());
    ASSERT_LE(z->degree(), target);
    EXPECT_EQ(z->payload, s.expected_payload(z->coeffs));
    hits += (z->degree() == target);
  }
  EXPECT_GT(hits, kTrials * 0.8) << "target degree " << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, BuilderTargetSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace ltnc::core
