// shard_of: the conversation → shard mapping the whole sharded data plane
// rests on. Pinned values (stability across runs and builds), uniformity
// over realistic id distributions, and — via wire::peek_content — the
// guarantee that every frame type of one conversation routes to the same
// shard without a full decode.
#include "session/sharded.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "store/content_store.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::session {
namespace {

TEST(ShardHash, PinnedValuesAreStableAcrossRunsAndBuilds) {
  // The hash has no seeding and no pointer/layout dependence, so these
  // values are part of the routing contract: a restarted (or upgraded)
  // node must keep hashing live conversations onto the same shards.
  EXPECT_EQ(shard_of(0, 0, 4), shard_of(0, 0, 4));
  const std::uint32_t pinned[] = {
      shard_of(0, 0, 8),    shard_of(1, 0, 8),    shard_of(0, 1, 8),
      shard_of(7, 123, 8),  shard_of(1000, 42, 8), shard_of(42, 16383, 8),
  };
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(shard_of(0, 0, 8), pinned[0]);
    EXPECT_EQ(shard_of(1, 0, 8), pinned[1]);
    EXPECT_EQ(shard_of(0, 1, 8), pinned[2]);
    EXPECT_EQ(shard_of(7, 123, 8), pinned[3]);
    EXPECT_EQ(shard_of(1000, 42, 8), pinned[4]);
    EXPECT_EQ(shard_of(42, 16383, 8), pinned[5]);
  }
  // Neighbouring keys must not alias (the low-entropy failure mode of a
  // truncated or un-avalanched mix): over 64 consecutive peers of one
  // content, every shard of 8 must appear.
  std::vector<int> seen(8, 0);
  for (PeerId p = 0; p < 64; ++p) ++seen[shard_of(p, 7, 8)];
  for (int s = 0; s < 8; ++s) EXPECT_GT(seen[s], 0) << "shard " << s;
}

TEST(ShardHash, SingleShardAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(shard_of(static_cast<PeerId>(rng.uniform(1 << 20)),
                       rng.uniform(1 << 14), 1),
              0u);
  }
}

TEST(ShardHash, UniformOverRealisticIdDistributions) {
  // Realistic load: dense small peer ids (the transport's interned
  // indices) × 14-bit derived content ids (store::derive_content_id).
  std::vector<ContentId> contents;
  Rng rng(99);
  for (int i = 0; i < 64; ++i) {
    contents.push_back(store::derive_content_id(
        64 + rng.uniform(1024), 64 + rng.uniform(4096), rng.next()));
  }
  for (const std::uint32_t shards : {2u, 4u, 8u, 16u}) {
    std::vector<std::uint64_t> count(shards, 0);
    std::uint64_t total = 0;
    for (PeerId peer = 0; peer < 256; ++peer) {
      for (const ContentId content : contents) {
        ++count[shard_of(peer, content, shards)];
        ++total;
      }
    }
    const double mean = static_cast<double>(total) / shards;
    for (std::uint32_t s = 0; s < shards; ++s) {
      EXPECT_GT(static_cast<double>(count[s]), 0.8 * mean)
          << shards << " shards: shard " << s << " starved";
      EXPECT_LT(static_cast<double>(count[s]), 1.2 * mean)
          << shards << " shards: shard " << s << " overloaded";
    }
  }
}

TEST(ShardHash, EveryFrameTypeOfAConversationRoutesToOneShard) {
  // The router peeks the content id off raw bytes; every frame the
  // §III-C conversation can ship — advertise, proceed/abort, the data
  // frame, cc arrays, the completion ack — must peek to the same id and
  // therefore the same shard.
  const ContentId content = 1234;
  const PeerId peer = 17;
  Rng rng(3);
  BitVector coeffs(64);
  coeffs.set(3);
  coeffs.set(17);
  const CodedPacket packet(coeffs, Payload::deterministic(128, 7, 0));

  std::vector<wire::Frame> frames(6);
  wire::serialize(content, packet, frames[0]);
  wire::serialize_feedback(content, wire::MessageType::kProceed, 8,
                           frames[1]);
  wire::serialize_feedback(content, wire::MessageType::kAbort, 9, frames[2]);
  wire::serialize_feedback(content, wire::MessageType::kAck, 10, frames[3]);
  const std::uint32_t leaders[] = {1, 5, 9};
  wire::serialize_cc(content, leaders, frames[4]);
  wire::AdvertiseInfo info;
  info.content = content;
  info.payload_bytes = 128;
  wire::serialize_advertise(info, coeffs, frames[5]);

  const std::uint32_t home = shard_of(peer, content, 4);
  for (const wire::Frame& frame : frames) {
    ContentId peeked = ~ContentId{0};
    ASSERT_EQ(wire::peek_content(frame.bytes(), peeked),
              wire::DecodeStatus::kOk);
    EXPECT_EQ(peeked, content);
    EXPECT_EQ(shard_of(peer, peeked, 4), home);
  }
}

TEST(ShardHash, PeekContentHandlesV1AndGarbage) {
  // v1 frame (no id field) peeks to the default content 0.
  BitVector coeffs(32);
  coeffs.set(1);
  const CodedPacket packet(coeffs, Payload::deterministic(64, 3, 0));
  wire::Frame v1;
  wire::serialize(0, packet, v1);  // content 0 ⇒ exact v1 byte image
  ContentId content = 99;
  ASSERT_EQ(wire::peek_content(v1.bytes(), content), wire::DecodeStatus::kOk);
  EXPECT_EQ(content, 0u);

  // Truncation inside the header or the id varint fails the peek (the
  // router then falls back to peer-only routing — still deterministic).
  wire::Frame v2;
  wire::serialize(ContentId{300}, packet, v2);
  ASSERT_GT(v2.size(), 4u);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{2},
                                std::size_t{4}}) {
    ContentId ignored = 0;
    EXPECT_NE(wire::peek_content({v2.data(), cut}, ignored),
              wire::DecodeStatus::kOk)
        << "cut at " << cut;
  }
  // Peeking does not validate past the id: a frame with a mangled body
  // still peeks (the owning shard counts it malformed on full decode).
  wire::Frame mangled = v2;
  mangled.mutable_bytes()[mangled.size() - 1] ^= 0xFF;
  ContentId peeked = 0;
  EXPECT_EQ(wire::peek_content(mangled.bytes(), peeked),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(peeked, 300u);
}

}  // namespace
}  // namespace ltnc::session
