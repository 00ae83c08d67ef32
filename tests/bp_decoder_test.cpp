#include "lt/bp_decoder.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"

namespace ltnc::lt {
namespace {

CodedPacket combine(std::size_t k, std::size_t m,
                    const std::vector<std::size_t>& idx,
                    const std::vector<Payload>& natives) {
  CodedPacket pkt{BitVector::from_indices(k, idx), Payload(m)};
  for (std::size_t i : idx) pkt.payload.xor_with(natives[i]);
  return pkt;
}

TEST(BpDecoder, DecodesFromUnitPackets) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 16;
  const auto natives = make_native_payloads(k, m, 1);
  BpDecoder dec(k, m);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(dec.receive(CodedPacket::native(k, i, natives[i])),
              ReceiveResult::kDecodedNative);
  }
  EXPECT_TRUE(dec.complete());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(dec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

TEST(BpDecoder, DuplicateNativeIsDetected) {
  constexpr std::size_t k = 4;
  const auto natives = make_native_payloads(k, 8, 2);
  BpDecoder dec(k, 8);
  dec.receive(CodedPacket::native(k, 0, natives[0]));
  EXPECT_EQ(dec.receive(CodedPacket::native(k, 0, natives[0])),
            ReceiveResult::kDuplicate);
  EXPECT_EQ(dec.decoded_count(), 1u);
}

TEST(BpDecoder, RippleCascades) {
  // x0 ⊕ x1 and x1 ⊕ x2 stored; decoding x0 must ripple to x1 then x2.
  constexpr std::size_t k = 4;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 3);
  BpDecoder dec(k, m);
  EXPECT_EQ(dec.receive(combine(k, m, {0, 1}, natives)),
            ReceiveResult::kStored);
  EXPECT_EQ(dec.receive(combine(k, m, {1, 2}, natives)),
            ReceiveResult::kStored);
  EXPECT_EQ(dec.decoded_count(), 0u);
  EXPECT_EQ(dec.stored_count(), 2u);
  EXPECT_EQ(dec.receive(combine(k, m, {0}, natives)),
            ReceiveResult::kDecodedNative);
  EXPECT_EQ(dec.decoded_count(), 3u);
  EXPECT_EQ(dec.stored_count(), 0u);
  for (std::size_t i : {0u, 1u, 2u}) {
    EXPECT_EQ(dec.native_payload(i), natives[i]);
  }
}

TEST(BpDecoder, ArrivalReducedByDecodedNatives) {
  constexpr std::size_t k = 4;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 4);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0}, natives));
  // x0 ⊕ x3 arrives: reduces to x3 and decodes immediately.
  EXPECT_EQ(dec.receive(combine(k, m, {0, 3}, natives)),
            ReceiveResult::kDecodedNative);
  EXPECT_TRUE(dec.is_decoded(3));
  EXPECT_EQ(dec.native_payload(3), natives[3]);
}

TEST(BpDecoder, DependentPacketAbsorbsToZero) {
  constexpr std::size_t k = 4;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 5);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {1, 2}, natives));
  dec.receive(combine(k, m, {1}, natives));  // decodes x1 then ripples x2
  EXPECT_EQ(dec.decoded_count(), 2u);
  // Now x1 ⊕ x2 again: reduces against both decoded natives to zero.
  EXPECT_EQ(dec.receive(combine(k, m, {1, 2}, natives)),
            ReceiveResult::kDuplicate);
}

TEST(BpDecoder, ResidualDegree) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 6);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0}, natives));
  dec.receive(combine(k, m, {1}, natives));
  const BitVector v = BitVector::from_indices(k, {0, 1, 5});
  EXPECT_EQ(dec.residual_degree(v), 1u);
  EXPECT_EQ(dec.residual_degree(BitVector::from_indices(k, {0, 1})), 0u);
}

// Observer that mirrors the packet store and verifies event consistency.
class MirrorObserver : public StoreObserver {
 public:
  bool should_drop(PacketId, const BitVector&, std::size_t) override {
    return false;
  }
  void on_stored(PacketId id, const BitVector& coeffs, std::size_t degree,
                 const Payload&) override {
    ASSERT_FALSE(live.contains(id));
    ASSERT_EQ(coeffs.popcount(), degree);
    live[id] = degree;
  }
  void on_degree_changed(PacketId id, const BitVector& coeffs,
                         std::size_t old_degree,
                         std::size_t new_degree) override {
    ASSERT_TRUE(live.contains(id));
    ASSERT_EQ(live[id], old_degree);
    ASSERT_EQ(new_degree + 1, old_degree);
    ASSERT_EQ(coeffs.popcount(), new_degree);
    live[id] = new_degree;
  }
  void on_removed(PacketId id, const BitVector&,
                  std::size_t degree) override {
    ASSERT_TRUE(live.contains(id));
    ASSERT_EQ(live[id], degree);
    live.erase(id);
  }
  void on_native_decoded(NativeIndex index, const Payload&) override {
    decoded.push_back(index);
  }

  std::map<PacketId, std::size_t> live;
  std::vector<NativeIndex> decoded;
};

TEST(BpDecoder, ObserverSeesConsistentEventStream) {
  constexpr std::size_t k = 64;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 7);
  LtEncoder enc(make_native_payloads(k, m, 7));
  MirrorObserver obs;
  BpDecoder dec(k, m, &obs);
  Rng rng(8);
  while (!dec.complete()) {
    dec.receive(enc.encode(rng));
    ASSERT_EQ(obs.live.size(), dec.stored_count());
  }
  EXPECT_EQ(obs.decoded.size(), k);
  EXPECT_TRUE(obs.live.empty());  // everything consumed once complete
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(dec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

// Observer that vetoes every degree-2 packet at receive time.
class VetoDegree2 : public StoreObserver {
 public:
  bool should_drop(PacketId id, const BitVector&,
                   std::size_t degree) override {
    return id == kInvalidPacket && degree == 2;
  }
};

TEST(BpDecoder, ObserverVetoRejectsAtReceive) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 9);
  VetoDegree2 obs;
  BpDecoder dec(k, m, &obs);
  EXPECT_EQ(dec.receive(combine(k, m, {0, 1}, natives)),
            ReceiveResult::kRejectedRedundant);
  EXPECT_EQ(dec.stored_count(), 0u);
  EXPECT_EQ(dec.receive(combine(k, m, {0, 1, 2}, natives)),
            ReceiveResult::kStored);
}

// Observer that drops stored packets when their degree falls to 2.
class DropOnReduce2 : public StoreObserver {
 public:
  bool should_drop(PacketId id, const BitVector&,
                   std::size_t degree) override {
    return id != kInvalidPacket && degree == 2;
  }
};

TEST(BpDecoder, ObserverDropDuringDecode) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 10);
  DropOnReduce2 obs;
  BpDecoder dec(k, m, &obs);
  dec.receive(combine(k, m, {0, 1, 2}, natives));
  EXPECT_EQ(dec.stored_count(), 1u);
  dec.receive(combine(k, m, {0}, natives));  // reduces the triple to degree 2
  EXPECT_EQ(dec.stored_count(), 0u);         // dropped by the observer
  EXPECT_EQ(dec.decoded_count(), 1u);
}

TEST(BpDecoder, RemovePacketExternally) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 11);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0, 1, 2, 3}, natives));
  std::vector<PacketId> ids;
  dec.for_each_packet([&](PacketId id) { ids.push_back(id); });
  ASSERT_EQ(ids.size(), 1u);
  dec.remove_packet(ids[0]);
  EXPECT_EQ(dec.stored_count(), 0u);
  EXPECT_FALSE(dec.packet_alive(ids[0]));
}

TEST(BpDecoder, ForEachPacketContaining) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 12);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0, 1}, natives));
  dec.receive(combine(k, m, {1, 2, 3}, natives));
  int count = 0;
  dec.for_each_packet_containing(1, [&](PacketId) { ++count; });
  EXPECT_EQ(count, 2);
  count = 0;
  dec.for_each_packet_containing(5, [&](PacketId) { ++count; });
  EXPECT_EQ(count, 0);

  // A retired packet's edges stay on its undecoded natives' lists; when
  // its slot is reused by a packet holding the same native, that packet
  // must still be visited once.
  BpDecoder reuse(k, m);
  reuse.receive(combine(k, m, {0, 1}, natives));
  reuse.remove_packet(0);
  reuse.receive(combine(k, m, {0, 2}, natives));
  ASSERT_TRUE(reuse.packet_alive(0));
  std::vector<PacketId> visited;
  reuse.for_each_packet_containing(0,
                                   [&](PacketId id) { visited.push_back(id); });
  EXPECT_EQ(visited, std::vector<PacketId>{0});
  visited.clear();
  reuse.for_each_packet_containing(1,
                                   [&](PacketId id) { visited.push_back(id); });
  EXPECT_TRUE(visited.empty());
}

TEST(BpDecoder, CountsOps) {
  constexpr std::size_t k = 64;
  constexpr std::size_t m = 64;
  const auto natives = make_native_payloads(k, m, 13);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0, 1}, natives));
  dec.receive(combine(k, m, {0}, natives));
  EXPECT_GT(dec.ops().control_word_ops + dec.ops().control_steps, 0u);
  EXPECT_GT(dec.ops().data_word_ops, 0u);
}

// Ground truth for a stored packet: the XOR of the natives it still holds.
Payload expected_payload(const BitVector& coeffs,
                         const std::vector<Payload>& natives) {
  Payload p(natives.front().size_bytes());
  coeffs.for_each_set([&](std::size_t i) { p.xor_with(natives[i]); });
  return p;
}

// Every live packet's payload matches its code vector, and every decoded
// native its true value. Reading each payload folds it.
void expect_store_matches(const BpDecoder& dec,
                          const std::vector<Payload>& natives) {
  dec.for_each_packet([&](PacketId id) {
    EXPECT_EQ(dec.packet_payload(id),
              expected_payload(dec.packet_coeffs(id), natives))
        << "packet " << id;
  });
  for (const NativeIndex i : dec.decoded_order()) {
    EXPECT_EQ(dec.native_payload(i), natives[i]) << "native " << i;
  }
}

// Observer that reads payloads mid-decode as LTNC does (at degree 2) and
// vetoes a quarter of the degree-3 packets, so folds and drops both happen
// while natives are pending.
class ReadingObserver : public StoreObserver {
 public:
  explicit ReadingObserver(const std::vector<Payload>& natives)
      : natives_(natives) {}

  bool should_drop(PacketId, const BitVector& coeffs,
                   std::size_t degree) override {
    return degree == 3 && coeffs.hash() % 4 == 0;
  }
  void on_stored(PacketId, const BitVector& coeffs, std::size_t,
                 const Payload& payload) override {
    EXPECT_EQ(payload, expected_payload(coeffs, natives_));
  }
  void on_degree_changed(PacketId id, const BitVector& coeffs, std::size_t,
                         std::size_t new_degree) override {
    if (new_degree != 2) return;
    EXPECT_EQ(decoder->packet_payload(id), expected_payload(coeffs, natives_));
  }
  void on_native_decoded(NativeIndex index, const Payload& value) override {
    EXPECT_EQ(value, natives_[index]);
  }

  const BpDecoder* decoder = nullptr;

 private:
  const std::vector<Payload>& natives_;
};

class BpFoldOnRead : public ::testing::TestWithParam<bool> {};

TEST_P(BpFoldOnRead, StoredPayloadsMatchTheirCodeVectors) {
  // Two decoders take the same LT stream with remove_packet calls mixed
  // in. `checked` reads every live payload after every call; `lazy` reads
  // one only when the op stream says so, so its pending lists grow across
  // many calls before a ripple, a read or a removal consumes them. Folding
  // never touches the coefficient side, so both stores stay identical.
  const bool with_observer = GetParam();
  constexpr std::size_t k = 96;
  constexpr std::size_t m = 24;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto natives = make_native_payloads(k, m, seed);
    LtEncoder enc(make_native_payloads(k, m, seed));
    ReadingObserver checked_obs(natives);
    ReadingObserver lazy_obs(natives);
    BpDecoder checked(k, m, with_observer ? &checked_obs : nullptr);
    BpDecoder lazy(k, m, with_observer ? &lazy_obs : nullptr);
    checked_obs.decoder = &checked;
    lazy_obs.decoder = &lazy;
    Rng rng(seed * 31 + 7);
    std::vector<PacketId> live;
    const auto pick_live = [&] {
      live.clear();
      lazy.for_each_packet([&](PacketId id) { live.push_back(id); });
      return live[rng.uniform(live.size())];
    };
    for (std::size_t step = 0; step < 50 * k && !checked.complete(); ++step) {
      const double roll = rng.uniform_double();
      if (roll < 0.1 && lazy.stored_count() > 0) {
        const PacketId id = pick_live();
        checked.remove_packet(id);
        lazy.remove_packet(id);
      } else if (roll < 0.25 && lazy.stored_count() > 0) {
        const PacketId id = pick_live();
        EXPECT_EQ(lazy.packet_payload(id),
                  expected_payload(lazy.packet_coeffs(id), natives));
      } else {
        const CodedPacket pkt = enc.encode(rng);
        ASSERT_EQ(checked.receive(pkt), lazy.receive(pkt));
      }
      expect_store_matches(checked, natives);
      ASSERT_EQ(lazy.stored_count(), checked.stored_count());
      ASSERT_EQ(lazy.decoded_order(), checked.decoded_order());
      if (::testing::Test::HasFailure()) return;
    }
    ASSERT_TRUE(checked.complete()) << "seed " << seed;
    expect_store_matches(lazy, natives);
    // Folding happened only where payloads were read: the lazy decoder
    // never did more data work than the one that read everything.
    EXPECT_LE(lazy.ops().data_word_ops, checked.ops().data_word_ops);
  }
}

INSTANTIATE_TEST_SUITE_P(Observer, BpFoldOnRead, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "WithObserver" : "Plain";
                         });

class BpEndToEnd
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BpEndToEnd, DecodesLtStreamWithReasonableOverhead) {
  const auto [k, seed] = GetParam();
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, seed);
  LtEncoder enc(make_native_payloads(k, m, seed));
  BpDecoder dec(k, m);
  Rng rng(seed * 7 + 1);
  std::size_t received = 0;
  // LT decoding should finish within a small constant factor of k.
  const std::size_t budget = 6 * k + 200;
  while (!dec.complete() && received < budget) {
    dec.receive(enc.encode(rng));
    ++received;
  }
  ASSERT_TRUE(dec.complete()) << "k=" << k << " still incomplete after "
                              << received << " packets";
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_EQ(dec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BpEndToEnd,
    ::testing::Combine(::testing::Values(16, 64, 256, 1024),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ltnc::lt
