// ContentStore / SwarmScheduler / chunker unit tests: registration and
// lookup, the rarest-first + round-robin scheduling policy, and the bytes ⇄ blocks round trip behind the
// multi-file transfer modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"
#include "store/chunker.hpp"
#include "store/content_store.hpp"
#include "store/swarm_scheduler.hpp"

namespace ltnc::store {
namespace {

TEST(ContentId, DerivationIsDeterministicCompactAndNonZero) {
  const ContentId a = derive_content_id(256, 1024, 42);
  EXPECT_EQ(a, derive_content_id(256, 1024, 42));
  EXPECT_NE(a, 0u);
  EXPECT_LE(a, 0x3FFFu);  // 14 bits → varint ≤ 2 wire bytes
  // Different identities overwhelmingly map to different ids.
  EXPECT_NE(a, derive_content_id(256, 1024, 43));
  EXPECT_NE(a, derive_content_id(128, 1024, 42));
}

TEST(ContentId, SaltZeroPreservesHistoricalIdsAndSaltsPerturb) {
  // Golden fixtures and live transfers derive ids without a salt; the
  // salted overload must reproduce them bit-for-bit at salt 0.
  EXPECT_EQ(derive_content_id(256, 1024, 42),
            derive_content_id(256, 1024, 42, 0));
  // Salts walk the id space: some salt resolves any collision. (The hash
  // is only 14 bits, so individual salts may still collide — all that is
  // required is that the walk reaches a fresh id quickly.)
  const ContentId base = derive_content_id(32, 64, 7);
  bool moved = false;
  for (std::uint32_t salt = 1; salt < 8; ++salt) {
    if (derive_content_id(32, 64, 7, salt) != base) {
      moved = true;
      break;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(ContentStore, RegistersFindsAndRejectsDuplicates) {
  ContentStore store;
  ContentConfig cfg;
  cfg.id = 7;
  cfg.k = 16;
  cfg.payload_bytes = 32;
  Content& c = store.register_content(cfg);
  EXPECT_EQ(store.find(7), &c);
  EXPECT_EQ(store.find(8), nullptr);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(c.k(), 16u);
  EXPECT_FALSE(store.all_complete());
}

TEST(ContentStore, SeederOnlyContentIsNeverComplete) {
  ContentStore store;
  ContentConfig cfg;
  cfg.id = 1;
  cfg.k = 8;
  cfg.payload_bytes = 16;
  Content& c = store.register_content(cfg, nullptr);
  EXPECT_FALSE(c.has_receiver());
  EXPECT_FALSE(c.can_emit());
  EXPECT_TRUE(c.would_reject(BitVector::unit(8, 0)));  // vetoes everything
  EXPECT_FALSE(store.all_complete());  // no decode state anywhere
}

TEST(ContentStore, PlainContentDecodesAndVerifies) {
  ContentStore store;
  ContentConfig cfg;
  cfg.id = 3;
  cfg.k = 24;
  cfg.payload_bytes = 64;
  Content& c = store.register_content(cfg);
  const std::uint64_t seed = 99;
  for (std::size_t i = 0; i < cfg.k; ++i) {
    c.deliver(CodedPacket::native(
        cfg.k, i, Payload::deterministic(cfg.payload_bytes, seed, i)));
  }
  EXPECT_TRUE(c.complete());
  EXPECT_TRUE(store.all_complete());
  EXPECT_TRUE(c.finish_and_verify(seed));
  EXPECT_FALSE(c.finish_and_verify(seed + 1));
  EXPECT_DOUBLE_EQ(c.fill_fraction(), 1.0);
}

TEST(SwarmScheduler, PicksRarestAndRoundRobinsTies) {
  ContentStore store;
  for (ContentId id = 1; id <= 3; ++id) {
    ContentConfig cfg;
    cfg.id = id;
    cfg.k = 4;
    cfg.payload_bytes = 16;
    store.register_content(cfg);
  }
  // Fill: content 1 fully, content 2 half, content 3 empty.
  for (std::size_t i = 0; i < 4; ++i) {
    store.find(1)->deliver(
        CodedPacket::native(4, i, Payload::deterministic(16, 1, i)));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    store.find(2)->deliver(
        CodedPacket::native(4, i, Payload::deterministic(16, 2, i)));
  }
  SwarmScheduler scheduler;
  const std::uint8_t all[] = {1, 1, 1};
  // Content 3 (index 2) is the rarest (empty).
  EXPECT_EQ(scheduler.pick(store, all), 2u);
  // Masked out, the half-full content 2 (index 1) is next.
  const std::uint8_t no_three[] = {1, 1, 0};
  EXPECT_EQ(scheduler.pick(store, no_three), 1u);
  // Nothing eligible → kNone.
  const std::uint8_t none[] = {0, 0, 0};
  EXPECT_EQ(scheduler.pick(store, none), SwarmScheduler::kNone);

  // Equal fills rotate round-robin instead of index 0 winning every slot.
  ContentStore seeders;
  for (ContentId id = 1; id <= 3; ++id) {
    ContentConfig cfg;
    cfg.id = id;
    cfg.k = 2;
    cfg.payload_bytes = 8;
    seeders.register_content(cfg);
    for (std::size_t i = 0; i < 2; ++i) {
      seeders.find(id)->deliver(
          CodedPacket::native(2, i, Payload::deterministic(8, id, i)));
    }
  }
  SwarmScheduler rr;
  const std::uint8_t mask[] = {1, 1, 1};
  const std::size_t first = rr.pick(seeders, mask);
  const std::size_t second = rr.pick(seeders, mask);
  const std::size_t third = rr.pick(seeders, mask);
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(third, first);
  EXPECT_EQ(rr.pick(seeders, mask), first);  // full rotation
}

// --- chunker ---------------------------------------------------------------

TEST(Chunker, ChunkAssembleRoundTripsAllSizes) {
  Rng rng(7);
  for (const std::size_t size : {0u, 1u, 31u, 32u, 33u, 1000u}) {
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    const std::size_t block = 32;
    const std::vector<Payload> chunks = chunk_bytes(bytes, block);
    EXPECT_EQ(chunks.size(), chunk_count(size, block));
    for (const Payload& p : chunks) EXPECT_EQ(p.size_bytes(), block);
    const std::vector<std::uint8_t> back = assemble_bytes(
        size, block, [&](std::size_t i) -> const Payload& {
          return chunks[i];
        });
    EXPECT_EQ(back, bytes);
    EXPECT_EQ(hash_bytes(back), hash_bytes(bytes));
  }
}

TEST(Chunker, PadsTailWithZeros) {
  const std::uint8_t bytes[] = {0xAB, 0xCD, 0xEF};
  const std::vector<Payload> chunks = chunk_bytes({bytes, 3}, 8);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].byte(0), 0xAB);
  EXPECT_EQ(chunks[0].byte(2), 0xEF);
  for (std::size_t b = 3; b < 8; ++b) EXPECT_EQ(chunks[0].byte(b), 0u);
}

TEST(Chunker, DescribeFileDerivesStableIdentity) {
  std::vector<std::uint8_t> bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7);
  }
  const FileContent a = describe_file("a.bin", bytes, 32);
  const FileContent b = describe_file("b.bin", bytes, 32);
  EXPECT_EQ(a.blocks, 4u);
  EXPECT_EQ(a.size_bytes, 100u);
  EXPECT_EQ(a.hash, b.hash);   // verification hash is content-only…
  EXPECT_NE(a.id, b.id);       // …but the id mixes the name, so copies
                               // of one file register as distinct
                               // contents and renames resolve collisions
  EXPECT_EQ(a.id, describe_file("a.bin", bytes, 32).id);  // deterministic
  EXPECT_NE(a.id, 0u);
  const ContentConfig cfg = file_content_config(a);
  EXPECT_EQ(cfg.id, a.id);
  EXPECT_EQ(cfg.k, a.blocks);
  EXPECT_EQ(cfg.payload_bytes, a.block_bytes);

  bytes[0] ^= 1;
  const FileContent c = describe_file("a.bin", bytes, 32);
  EXPECT_NE(c.hash, a.hash);
}

// The chunked blocks are exactly what an LT encoder/decoder pair moves —
// the end-to-end shape of the multi-file transfer modes, minus sockets.
TEST(Chunker, ChunksFeedAnLtEncoder) {
  std::vector<std::uint8_t> bytes(500);
  Rng rng(11);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  const FileContent meta = describe_file("f", bytes, 64);
  lt::LtEncoder encoder(chunk_bytes(bytes, 64));
  EXPECT_EQ(encoder.k(), meta.blocks);
  const CodedPacket packet = encoder.encode(rng);
  EXPECT_EQ(packet.code_length(), meta.blocks);
  EXPECT_EQ(packet.payload.size_bytes(), 64u);
}

}  // namespace
}  // namespace ltnc::store
