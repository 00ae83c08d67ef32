// Wire codec: round-trip identity for every message type (property-tested
// over random dimensions/degrees), adaptive code-vector encoding choice,
// size-function agreement, and the strict v1 rejection policy.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "wire/frame.hpp"

namespace ltnc::wire {
namespace {

BitVector random_coeffs(std::size_t k, std::size_t degree, Rng& rng) {
  BitVector v(k);
  while (v.popcount() < degree) v.set(rng.uniform(k));
  return v;
}

Payload random_payload(std::size_t bytes, Rng& rng) {
  Payload p(bytes);
  for (std::size_t w = 0; w < p.word_count(); ++w) {
    p.mutable_words()[w] = rng.next();
  }
  // Respect the masked-tail invariant for byte sizes that are not a
  // multiple of 8 (same rule as Payload::deterministic).
  const std::size_t tail = bytes % 8;
  if (tail != 0 && p.word_count() != 0) {
    p.mutable_words()[p.word_count() - 1] &= ~0ULL >> ((8 - tail) * 8);
  }
  return p;
}

TEST(WireCodec, CodedPacketRoundTripsAcrossDimensions) {
  Rng rng(101);
  for (const std::size_t k : {1u, 7u, 8u, 63u, 64u, 65u, 200u, 1024u}) {
    for (const std::size_t m : {0u, 1u, 7u, 8u, 64u, 257u}) {
      for (int rep = 0; rep < 8; ++rep) {
        const std::size_t degree = rng.uniform(k + 1);
        const CodedPacket original(random_coeffs(k, degree, rng),
                                   random_payload(m, rng));
        Frame frame;
        serialize(0, original, frame);
        EXPECT_EQ(frame.size(), serialized_size(0, original));

        ContentId content = 1;
        CodedPacket decoded;
        ASSERT_EQ(deserialize(frame.bytes(), content, decoded),
                  DecodeStatus::kOk)
            << "k=" << k << " m=" << m << " degree=" << degree;
        EXPECT_EQ(content, 0u);
        EXPECT_EQ(decoded.coeffs, original.coeffs);
        EXPECT_EQ(decoded.payload, original.payload);
      }
    }
  }
}

TEST(WireCodec, ZeroDegreeAndFullDegreeRoundTrip) {
  Rng rng(102);
  for (const std::size_t k : {1u, 64u, 100u}) {
    BitVector none(k);
    BitVector all(k);
    for (std::size_t i = 0; i < k; ++i) all.set(i);
    for (const BitVector& coeffs : {none, all}) {
      const CodedPacket original(coeffs, random_payload(16, rng));
      Frame frame;
      serialize(0, original, frame);
      ContentId content = 0;
      CodedPacket decoded;
      ASSERT_EQ(deserialize(frame.bytes(), content, decoded),
                DecodeStatus::kOk);
      EXPECT_EQ(decoded.coeffs, original.coeffs);
    }
  }
}

/// `advertise` must equal the data frame of `packet` for `content` with
/// the type byte swapped and the payload span cut off.
void expect_advertise_is_packet_minus_payload(const Frame& advertise,
                                              ContentId content,
                                              const CodedPacket& packet) {
  Frame data;
  serialize(content, packet, data);
  const std::size_t m = packet.payload.size_bytes();
  ASSERT_EQ(advertise.size() + m, data.size());
  EXPECT_EQ(advertise.bytes()[1],
            static_cast<std::uint8_t>(MessageType::kAdvertise));
  EXPECT_EQ(data.bytes()[1],
            static_cast<std::uint8_t>(MessageType::kCodedPacket));
  EXPECT_EQ(advertise.bytes()[0], data.bytes()[0]);  // version agrees
  EXPECT_TRUE(std::equal(advertise.bytes().begin() + 2,
                         advertise.bytes().end(), data.bytes().begin() + 2));
}

TEST(WireCodec, AdvertiseRoundTrips) {
  Rng rng(107);
  for (int rep = 0; rep < 100; ++rep) {
    const std::size_t k = 1 + rng.uniform(600);
    const std::size_t m = rng.uniform(300);
    const BitVector coeffs = random_coeffs(k, rng.uniform(k + 1), rng);
    Frame frame;
    const AdvertiseInfo plain{0, m};
    serialize_advertise(plain, coeffs, frame);
    EXPECT_EQ(frame.size(), serialized_size_advertise(plain, coeffs));

    BitVector decoded;
    AdvertiseInfo decoded_info{1, 0};
    ASSERT_EQ(deserialize_advertise(frame.bytes(), decoded, decoded_info),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded, coeffs);
    EXPECT_EQ(decoded_info.content, 0u);
    EXPECT_EQ(decoded_info.payload_bytes, m);

    // The identity the session layer's traffic accounting rests on: an
    // advertise is the coded-packet frame minus its payload span, byte
    // for byte — with the default content and with a content id, the
    // case the simulator's multi-content byte counts rely on.
    const CodedPacket packet(coeffs, Payload(m));
    EXPECT_EQ(frame.size(), serialized_size(0, packet) - m);
    expect_advertise_is_packet_minus_payload(frame, ContentId{0}, packet);

    AdvertiseInfo info;
    info.content = 1 + static_cast<ContentId>(rep) * 131;  // 1- and 2-byte
    info.payload_bytes = m;
    serialize_advertise(info, coeffs, frame);
    EXPECT_EQ(frame.size(), serialized_size_advertise(info, coeffs));
    EXPECT_EQ(frame.size(), serialized_size(info.content, packet) - m);
    expect_advertise_is_packet_minus_payload(frame, info.content, packet);
  }
}

TEST(WireCodec, AdvertiseRejectsTrailingBytes) {
  Frame frame;
  serialize_advertise({0, 8}, BitVector::unit(16, 3), frame);
  const std::uint8_t junk = 0;
  frame.append(&junk, 1);
  BitVector decoded;
  AdvertiseInfo info;
  EXPECT_EQ(deserialize_advertise(frame.bytes(), decoded, info),
            DecodeStatus::kTrailingBytes);
}

TEST(WireCodec, FeedbackRoundTrips) {
  for (const MessageType type : {MessageType::kAbort, MessageType::kAck,
                                 MessageType::kProceed}) {
    for (const std::uint64_t token :
         {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
          std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      Frame frame;
      serialize_feedback(0, type, token, frame);
      EXPECT_EQ(frame.size(), serialized_size_feedback(0, token));

      MessageType decoded_type{};
      std::uint64_t decoded_token = 0;
      ContentId content = 1;
      ASSERT_EQ(deserialize_feedback(frame.bytes(), decoded_type,
                                     decoded_token, content),
                DecodeStatus::kOk);
      EXPECT_EQ(decoded_type, type);
      EXPECT_EQ(decoded_token, token);
      EXPECT_EQ(content, 0u);
    }
  }
}

TEST(WireCodec, CcArrayRoundTrips) {
  Rng rng(104);
  for (const std::size_t n : {0u, 1u, 17u, 300u}) {
    std::vector<std::uint32_t> leaders(n);
    for (auto& leader : leaders) {
      leader = static_cast<std::uint32_t>(rng.next());
    }
    Frame frame;
    serialize_cc(0, leaders, frame);
    EXPECT_EQ(frame.size(), serialized_size_cc(0, leaders));

    ContentId content = 1;
    std::vector<std::uint32_t> decoded;
    ASSERT_EQ(deserialize_cc(frame.bytes(), content, decoded),
              DecodeStatus::kOk);
    EXPECT_EQ(content, 0u);
    EXPECT_EQ(decoded, leaders);
  }
}

TEST(WireCodec, PeekTypeSeesEveryMessage) {
  Frame frame;
  MessageType type{};

  serialize(0, CodedPacket(BitVector(8), Payload(4)), frame);
  ASSERT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kOk);
  EXPECT_EQ(type, MessageType::kCodedPacket);

  for (const MessageType feedback : {MessageType::kAbort, MessageType::kAck,
                                     MessageType::kProceed}) {
    serialize_feedback(0, feedback, 9, frame);
    ASSERT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kOk);
    EXPECT_EQ(type, feedback);
  }

  serialize_cc(0, {}, frame);
  ASSERT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kOk);
  EXPECT_EQ(type, MessageType::kCcArray);

  serialize_advertise({0, 4}, BitVector::unit(8, 2), frame);
  ASSERT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kOk);
  EXPECT_EQ(type, MessageType::kAdvertise);
}

// -- v2 content multiplexing ------------------------------------------------

TEST(WireCodec, ContentIdRoundTripsOnEveryType) {
  Rng rng(108);
  for (const ContentId cid : {ContentId{1}, ContentId{42}, ContentId{0x3FFF},
                              ContentId{1} << 40}) {
    const CodedPacket original(random_coeffs(64, 5, rng),
                               random_payload(32, rng));
    Frame frame;
    ContentId decoded_cid = 0;

    serialize(cid, original, frame);
    EXPECT_EQ(frame.size(), serialized_size(cid, original));
    CodedPacket packet;
    ASSERT_EQ(deserialize(frame.bytes(), decoded_cid, packet),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded_cid, cid);
    EXPECT_EQ(packet.coeffs, original.coeffs);

    serialize_feedback(cid, MessageType::kProceed, 99, frame);
    MessageType type{};
    std::uint64_t token = 0;
    ASSERT_EQ(deserialize_feedback(frame.bytes(), type, token, decoded_cid),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded_cid, cid);
    EXPECT_EQ(token, 99u);

    std::vector<std::uint32_t> leaders = {1, 2, 3};
    serialize_cc(cid, leaders, frame);
    EXPECT_EQ(frame.size(), serialized_size_cc(cid, leaders));
    std::vector<std::uint32_t> decoded_leaders;
    ASSERT_EQ(deserialize_cc(frame.bytes(), decoded_cid, decoded_leaders),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded_cid, cid);
    EXPECT_EQ(decoded_leaders, leaders);
  }
}

TEST(WireCodec, AdvertiseCarriesContent) {
  Rng rng(109);
  const BitVector coeffs = random_coeffs(48, 6, rng);
  AdvertiseInfo info;
  info.content = 321;
  info.payload_bytes = 100;
  Frame frame;
  serialize_advertise(info, coeffs, frame);
  EXPECT_EQ(frame.size(), serialized_size_advertise(info, coeffs));

  BitVector decoded;
  AdvertiseInfo out;
  ASSERT_EQ(deserialize_advertise(frame.bytes(), decoded, out),
            DecodeStatus::kOk);
  EXPECT_EQ(out.content, info.content);
  EXPECT_EQ(out.payload_bytes, info.payload_bytes);
  EXPECT_EQ(decoded, coeffs);
}

TEST(WireCodec, DefaultContentFramesAreByteIdenticalToV1) {
  // The content-id field costs zero bytes for id 0 and the version byte
  // stays 1, so a single-content fleet never pays for multiplexing and
  // old decoders keep reading new senders: content 0's frame is content
  // 1's with the id varint and its flag bit cut out.
  Rng rng(110);
  const CodedPacket packet(random_coeffs(64, 4, rng), random_payload(16, rng));
  Frame plain;
  Frame with_id;
  serialize(0, packet, plain);
  serialize(1, packet, with_id);
  ASSERT_EQ(plain.size() + 1, with_id.size());
  EXPECT_EQ(plain.bytes()[0], 1u);  // v1 version byte
  EXPECT_EQ(with_id.bytes()[0], 2u);
  EXPECT_EQ(plain.bytes()[1], with_id.bytes()[1]);
  EXPECT_EQ(plain.bytes()[2], with_id.bytes()[2] & ~kFlagContentId);
  EXPECT_EQ(with_id.bytes()[3], 1u);  // the id varint
  EXPECT_TRUE(std::equal(plain.bytes().begin() + 3, plain.bytes().end(),
                         with_id.bytes().begin() + 4));
}

TEST(WireCodec, V2FramesDecodeAsV2AndV1FlagPolicyHolds) {
  Rng rng(111);
  const CodedPacket packet(random_coeffs(64, 4, rng), random_payload(16, rng));
  Frame frame;
  serialize(ContentId{9}, packet, frame);
  EXPECT_EQ(frame.bytes()[0], 2u);  // v2 version byte

  // A v1 frame may never set the multiplexing bits: flip the version of a
  // v2 frame back to 1 and the decoder must reject it as malformed (the
  // bits were reserved in v1).
  frame.mutable_bytes()[0] = 1;
  CodedPacket decoded;
  ContentId cid = 0;
  EXPECT_EQ(deserialize(frame.bytes(), cid, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, ContentIdCostIsAtMostTwoBytesForDerivedIds) {
  // derive_content_id folds into 14 bits, so the multiplexing overhead on
  // a Soliton-typical frame is bounded by 2 wire bytes (satellite
  // acceptance: content-id varint ≤ 2 bytes).
  EXPECT_EQ(content_id_size(0), 0u);
  EXPECT_EQ(content_id_size(1), 1u);
  EXPECT_EQ(content_id_size(127), 1u);
  EXPECT_EQ(content_id_size(128), 2u);
  EXPECT_EQ(content_id_size(0x3FFF), 2u);
  Rng rng(112);
  const CodedPacket packet(random_coeffs(1024, 8, rng),
                           random_payload(64, rng));
  const std::size_t base = serialized_size(0, packet);
  for (const ContentId cid : {ContentId{1}, ContentId{200},
                              ContentId{0x3FFF}}) {
    EXPECT_LE(serialized_size(cid, packet) - base, 2u);
  }
}

// -- adaptive code-vector encoding -----------------------------------------

TEST(WireCodec, SparseBeatsDenseAtLowDegree) {
  Rng rng(105);
  const std::size_t k = 1024;
  const std::size_t dense = coeff_encoded_size(BitVector(k),
                                               CoeffEncoding::kDense);
  EXPECT_EQ(dense, 128u);
  for (const std::size_t degree : {1u, 2u, 8u, 32u, 64u}) {
    const BitVector coeffs = random_coeffs(k, degree, rng);
    EXPECT_EQ(choose_coeff_encoding(coeffs), CoeffEncoding::kSparse)
        << "degree=" << degree;
    EXPECT_LT(coeff_encoded_size(coeffs, CoeffEncoding::kSparse), dense);
  }
  for (const std::size_t degree : {256u, 512u, 1024u}) {
    const BitVector coeffs = random_coeffs(k, degree, rng);
    EXPECT_EQ(choose_coeff_encoding(coeffs), CoeffEncoding::kDense)
        << "degree=" << degree;
  }
}

TEST(WireCodec, ChosenEncodingNeverLoses) {
  // The serializer's pick is exactly min(dense, sparse) for every shape.
  Rng rng(106);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t k = 1 + rng.uniform(600);
    const std::size_t degree = rng.uniform(k + 1);
    const BitVector coeffs = random_coeffs(k, degree, rng);
    const std::size_t dense = coeff_encoded_size(coeffs,
                                                 CoeffEncoding::kDense);
    const std::size_t sparse = coeff_encoded_size(coeffs,
                                                  CoeffEncoding::kSparse);
    const std::size_t chosen =
        coeff_encoded_size(coeffs, choose_coeff_encoding(coeffs));
    EXPECT_EQ(chosen, std::min(dense, sparse));
  }
}

TEST(WireCodec, WireBytesTracksDegree) {
  // The frame size follows the adaptive code-vector encoding, so a
  // low-degree packet over a large k costs far less than a bitmap.
  const std::size_t k = 1024;
  const CodedPacket low(BitVector::unit(k, 3), Payload(64));
  EXPECT_LT(serialized_size(0, low), (k + 7) / 8 + 64);
  Frame frame;
  serialize(0, low, frame);
  EXPECT_EQ(serialized_size(0, low), frame.size());
}

// -- strict rejection policy -----------------------------------------------

TEST(WireCodec, RejectsWrongVersion) {
  Frame frame;
  serialize(0, CodedPacket(BitVector(16), Payload(8)), frame);
  frame.mutable_bytes()[0] = kProtocolVersion + 1;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kBadVersion);
}

TEST(WireCodec, RejectsUnknownType) {
  Frame frame;
  serialize(0, CodedPacket(BitVector(16), Payload(8)), frame);
  frame.mutable_bytes()[1] = 0x7F;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kBadType);
  // Type 2 lies inside the live 1–7 range but is retired (it carried a
  // generation number): the header check itself refuses it.
  frame.mutable_bytes()[1] = 2;
  MessageType type{};
  EXPECT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kBadType);
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kBadType);
}

TEST(WireCodec, RejectsMismatchedType) {
  Frame frame;
  serialize_feedback(0, MessageType::kAck, 1, frame);
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kBadType);
}

TEST(WireCodec, RejectsReservedFlagBits) {
  Frame frame;
  serialize(0, CodedPacket(BitVector(16), Payload(8)), frame);
  frame.mutable_bytes()[2] |= 0x80;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kMalformed);

  // Bit 2 is retired: it announced a generation varint right after the
  // content id. An advertise carrying both, laid out exactly as that
  // retired form was, is malformed.
  AdvertiseInfo info;
  info.content = 5;
  info.payload_bytes = 8;
  serialize_advertise(info, BitVector::unit(16, 3), frame);
  std::vector<std::uint8_t> bytes(frame.bytes().begin(), frame.bytes().end());
  ASSERT_EQ(bytes[3], 5u);  // the content-id varint follows the header
  bytes[2] |= 0x04;
  bytes.insert(bytes.begin() + 4, std::uint8_t{3});  // generation 3
  BitVector coeffs;
  AdvertiseInfo out;
  EXPECT_EQ(deserialize_advertise({bytes.data(), bytes.size()}, coeffs, out),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsDirtyTailBitsInDenseBitmap) {
  // k = 12 leaves 4 tail bits in the second bitmap byte; a frame with any
  // of them set must be rejected, or the decoded degree would be wrong.
  BitVector coeffs(12);
  coeffs.set(0);
  Frame frame;
  serialize(0, CodedPacket(coeffs, Payload(0)), frame);
  ASSERT_EQ(frame.size(), 3u + 1 + 1 + 2);
  frame.mutable_bytes()[frame.size() - 1] |= 0xF0;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsTrailingBytes) {
  Frame frame;
  serialize(0, CodedPacket(BitVector(16), Payload(8)), frame);
  const std::uint8_t junk = 0;
  frame.append(&junk, 1);
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kTrailingBytes);
}

TEST(WireCodec, RejectsOversizedDimensions) {
  // Hand-build a frame declaring k past the cap: ver/type/flags, then a
  // 5-byte varint for 2^32.
  const std::uint8_t huge_k[] = {kProtocolVersion,
                                 static_cast<std::uint8_t>(
                                     MessageType::kCodedPacket),
                                 0,
                                 0x80, 0x80, 0x80, 0x80, 0x10,  // k = 2^32
                                 0x00};                         // m = 0
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({huge_k, sizeof(huge_k)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsOverlongVarint) {
  // k = 0 encoded as 0x80 0x00 (overlong) must be rejected, so every
  // message has exactly one byte representation.
  const std::uint8_t overlong[] = {kProtocolVersion,
                                   static_cast<std::uint8_t>(
                                       MessageType::kCodedPacket),
                                   0, 0x80, 0x00, 0x00};
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({overlong, sizeof(overlong)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsUnorderedSparseIndices) {
  // Sparse degree 2 with a gap that walks past k.
  const std::uint8_t bad[] = {kProtocolVersion,
                              static_cast<std::uint8_t>(
                                  MessageType::kCodedPacket),
                              1,     // sparse
                              0x08,  // k = 8
                              0x00,  // m = 0
                              0x02,  // degree 2
                              0x07,  // index 7 (the last valid one)
                              0x00};  // next = 7 + 0 + 1 = 8 ≥ k
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({bad, sizeof(bad)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsSparseDegreeAboveK) {
  const std::uint8_t bad[] = {kProtocolVersion,
                              static_cast<std::uint8_t>(
                                  MessageType::kCodedPacket),
                              1,     // sparse
                              0x04,  // k = 4
                              0x00,  // m = 0
                              0x05};  // degree 5 > k
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({bad, sizeof(bad)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsEmptyFrame) {
  ContentId content = 0;
  CodedPacket decoded;
  MessageType type{};
  EXPECT_EQ(deserialize({}, content, decoded),
            DecodeStatus::kTruncated);
  EXPECT_EQ(peek_type({}, type), DecodeStatus::kTruncated);
}

}  // namespace
}  // namespace ltnc::wire
