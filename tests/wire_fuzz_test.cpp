// Deserializer hardening fuzz: truncations, bit flips, byte mutations and
// pure garbage must be rejected cleanly — never a crash, never a read past
// the frame (ASan/UBSan enforce the memory-safety half in the sanitizer
// CI job), and never a decoded packet that violates its own invariants.
// The same holds for splitting a datagram of frames sent back to back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::wire {
namespace {

BitVector random_coeffs(std::size_t k, std::size_t degree, Rng& rng) {
  BitVector v(k);
  while (v.popcount() < degree) v.set(rng.uniform(k));
  return v;
}

/// Decodes `frame` as every message type; returns true if any accepted.
/// Accepted packets are checked against their own invariants.
bool decode_any(std::span<const std::uint8_t> frame) {
  bool accepted = false;

  ContentId content = 0;
  CodedPacket packet;
  if (deserialize(frame, content, packet) == DecodeStatus::kOk) {
    accepted = true;
    // The zero-tail invariant must survive hostile input, or degree
    // bookkeeping (popcount) is poisoned downstream.
    EXPECT_EQ(packet.degree(), packet.coeffs.indices().size());
  }

  MessageType type{};
  std::uint64_t token = 0;
  if (deserialize_feedback(frame, type, token, content) == DecodeStatus::kOk) {
    accepted = true;
  }

  std::vector<std::uint32_t> leaders;
  if (deserialize_cc(frame, content, leaders) == DecodeStatus::kOk) {
    accepted = true;
  }

  BitVector advertised;
  AdvertiseInfo info;
  if (deserialize_advertise(frame, advertised, info) == DecodeStatus::kOk) {
    accepted = true;
    EXPECT_EQ(advertised.popcount(), advertised.indices().size());
  }

  return accepted;
}

/// One valid serialized frame of each message type, varied by `rng`, plus
/// a data frame carrying a content id (the v2 layout).
std::vector<Frame> sample_frames(Rng& rng) {
  std::vector<Frame> frames(6);
  const std::size_t k = 1 + rng.uniform(300);
  const std::size_t m = rng.uniform(100);
  const CodedPacket packet(random_coeffs(k, rng.uniform(k + 1), rng),
                           Payload::deterministic(m, rng.next(), 0));
  serialize(0, packet, frames[0]);
  serialize(static_cast<ContentId>(1 + rng.uniform(0x3FFF)), packet,
            frames[1]);
  serialize_feedback(0,
                     rng.chance(0.5) ? MessageType::kAbort : MessageType::kAck,
                     rng.next(), frames[2]);
  std::vector<std::uint32_t> leaders(rng.uniform(50));
  for (auto& leader : leaders) {
    leader = static_cast<std::uint32_t>(rng.uniform(k));
  }
  serialize_cc(0, leaders, frames[3]);
  serialize_advertise({0, packet.payload.size_bytes()}, packet.coeffs,
                      frames[4]);
  serialize_feedback(0, MessageType::kProceed, rng.next(), frames[5]);
  return frames;
}

TEST(WireFuzz, EveryTruncationIsRejected) {
  Rng rng(7001);
  for (int rep = 0; rep < 20; ++rep) {
    for (const Frame& frame : sample_frames(rng)) {
      for (std::size_t len = 0; len < frame.size(); ++len) {
        // A strict prefix can never decode as the same message; at most a
        // shorter message of another type could coincidentally parse, and
        // decode_any verifies invariants in that case.
        ContentId content = 0;
        CodedPacket packet;
        const DecodeStatus status =
            deserialize(frame.bytes().first(len), content, packet);
        EXPECT_NE(status, DecodeStatus::kOk);
        decode_any(frame.bytes().first(len));
      }
    }
  }
}

TEST(WireFuzz, BitFlipsNeverCrashAndKeepInvariants) {
  Rng rng(7002);
  for (int rep = 0; rep < 40; ++rep) {
    for (Frame& frame : sample_frames(rng)) {
      const int flips = 1 + static_cast<int>(rng.uniform(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t bit = rng.uniform(frame.size() * 8);
        frame.mutable_bytes()[bit / 8] ^= std::uint8_t{1} << (bit % 8);
      }
      decode_any(frame.bytes());  // must not crash / overread
    }
  }
}

TEST(WireFuzz, ByteMutationsNeverCrash) {
  Rng rng(7003);
  for (int rep = 0; rep < 40; ++rep) {
    for (Frame& frame : sample_frames(rng)) {
      const int edits = 1 + static_cast<int>(rng.uniform(8));
      for (int e = 0; e < edits; ++e) {
        frame.mutable_bytes()[rng.uniform(frame.size())] =
            static_cast<std::uint8_t>(rng.next());
      }
      decode_any(frame.bytes());
    }
  }
}

TEST(WireFuzz, PureGarbageNeverCrashes) {
  Rng rng(7004);
  for (int rep = 0; rep < 400; ++rep) {
    Frame frame;
    frame.resize(rng.uniform(200));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame.mutable_bytes()[i] = static_cast<std::uint8_t>(rng.next());
    }
    decode_any(frame.bytes());
  }
}

TEST(WireFuzz, GarbageWithValidHeaderNeverCrashes) {
  // Force the header checks to pass so the body parsers get exercised:
  // every live type, with any combination of the sparse and content-id
  // flag bits.
  constexpr MessageType kLiveTypes[] = {
      MessageType::kCodedPacket, MessageType::kAbort,
      MessageType::kAck,         MessageType::kCcArray,
      MessageType::kAdvertise,   MessageType::kProceed};
  Rng rng(7005);
  for (int rep = 0; rep < 400; ++rep) {
    Frame frame;
    frame.resize(3 + rng.uniform(120));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame.mutable_bytes()[i] = static_cast<std::uint8_t>(rng.next());
    }
    frame.mutable_bytes()[0] = kProtocolVersion;
    frame.mutable_bytes()[1] = static_cast<std::uint8_t>(
        kLiveTypes[rng.uniform(std::size(kLiveTypes))]);
    frame.mutable_bytes()[2] = static_cast<std::uint8_t>(rng.uniform(4));
    decode_any(frame.bytes());
  }
}

// -- frames back to back ----------------------------------------------------

/// One valid frame of a random type: packets and advertises with a dense
/// or a sparse code vector, every type with or without a content id.
Frame random_frame(Rng& rng) {
  const ContentId content =
      rng.chance(0.5) ? 0 : static_cast<ContentId>(1 + rng.uniform(0x3FFF));
  const std::size_t k = 1 + rng.uniform(600);
  // A handful of indices encodes sparse, about half of k dense.
  const std::size_t degree =
      rng.chance(0.5) ? 1 + rng.uniform(std::min<std::size_t>(k, 6))
                      : (k + 1) / 2;
  Frame frame;
  switch (rng.uniform(5)) {
    case 0:
      serialize(content,
                CodedPacket(random_coeffs(k, degree, rng),
                            Payload::deterministic(rng.uniform(200),
                                                   rng.next(), 0)),
                frame);
      break;
    case 1:
      serialize_advertise({content, rng.uniform(5000)},
                          random_coeffs(k, degree, rng), frame);
      break;
    case 2: {
      std::vector<std::uint32_t> leaders(rng.uniform(40));
      for (auto& leader : leaders) leader = static_cast<std::uint32_t>(rng.next());
      serialize_cc(content, leaders, frame);
      break;
    }
    default: {
      constexpr MessageType kFeedback[] = {
          MessageType::kAbort, MessageType::kAck, MessageType::kProceed};
      serialize_feedback(content, kFeedback[rng.uniform(3)], rng.next(),
                         frame);
      break;
    }
  }
  return frame;
}

using Bytes = std::vector<std::uint8_t>;

/// The pieces a receiver splits `datagram` into: its frames when it is a
/// run of whole frames, else the datagram whole. `datagram` lives in a
/// heap block of exactly its size, so ASan catches any read past it.
std::vector<Bytes> pieces_of(const Bytes& datagram) {
  std::span<const std::uint8_t> rest(datagram);
  const std::size_t count = count_frames(rest);
  if (count == 0) return {datagram};
  std::vector<Bytes> pieces;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t size = 0;
    EXPECT_EQ(leading_frame_size(rest, size), DecodeStatus::kOk);
    EXPECT_GT(size, 0u);
    EXPECT_LE(size, rest.size());
    pieces.emplace_back(rest.begin(), rest.begin() + size);
    EXPECT_TRUE(decode_any(pieces.back())) << "a piece that is a frame decodes";
    rest = rest.subspan(size);
  }
  EXPECT_TRUE(rest.empty());
  return pieces;
}

TEST(WireFuzz, BackToBackFramesSplitIntoTheOriginals) {
  Rng rng(7006);
  for (int rep = 0; rep < 500; ++rep) {
    std::vector<Bytes> frames(1 + rng.uniform(12));
    Bytes datagram;
    for (Bytes& f : frames) {
      const Frame frame = random_frame(rng);
      f.assign(frame.bytes().begin(), frame.bytes().end());
      std::size_t size = 0;
      ASSERT_EQ(leading_frame_size(f, size), DecodeStatus::kOk);
      ASSERT_EQ(size, f.size()) << "a frame alone is exactly one frame";
      datagram.insert(datagram.end(), f.begin(), f.end());
    }
    EXPECT_EQ(count_frames(datagram), frames.size());
    EXPECT_EQ(pieces_of(datagram), frames);
  }
}

TEST(WireFuzz, DamagedRunsSplitIntoPiecesOfTheInput) {
  Rng rng(7007);
  for (int rep = 0; rep < 1000; ++rep) {
    Bytes datagram;
    for (std::size_t n = 1 + rng.uniform(6); n > 0; --n) {
      const Frame frame = random_frame(rng);
      datagram.insert(datagram.end(), frame.bytes().begin(),
                      frame.bytes().end());
    }
    switch (rng.uniform(4)) {
      case 0:  // truncated anywhere, down to nothing
        datagram.resize(rng.uniform(datagram.size() + 1));
        break;
      case 1:  // bit flips
        for (int f = 1 + static_cast<int>(rng.uniform(4)); f > 0; --f) {
          const std::size_t bit = rng.uniform(datagram.size() * 8);
          datagram[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      case 2:  // garbage after the last frame
        for (std::size_t g = 1 + rng.uniform(20); g > 0; --g) {
          datagram.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      default:  // garbage throughout
        for (std::uint8_t& b : datagram) b = static_cast<std::uint8_t>(rng.next());
        break;
    }
    const std::vector<Bytes> pieces = pieces_of(datagram);
    Bytes joined;
    for (const Bytes& piece : pieces) {
      joined.insert(joined.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(joined, datagram) << "the pieces concatenate to the input";
  }
}

}  // namespace
}  // namespace ltnc::wire
