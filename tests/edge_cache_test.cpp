// cache::EdgeCache: innovative-only admission, decodability sealing, byte
// accounting, and the three allocation policies (LRU / LFU eviction,
// popularity-weighted waterfill placement).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/edge_cache.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"
#include "wire/codec.hpp"

namespace ltnc::cache {
namespace {

constexpr std::size_t kK = 16;
constexpr std::size_t kBytes = 32;

CodedPacket unit(std::size_t index) {
  return CodedPacket::native(kK, index,
                             Payload::deterministic(kBytes, 1, index));
}

/// Admits symbols from a fresh encoder until the cache stops wanting
/// them; returns how many were stored.
std::size_t fill(EdgeCache& cache, ContentId id, std::uint64_t seed) {
  lt::LtEncoder enc(lt::make_native_payloads(kK, kBytes, seed));
  Rng rng(seed ^ 0xabcdef);
  std::size_t stored = 0;
  for (std::size_t i = 0; i < 8 * kK && cache.wants_symbols(id); ++i) {
    if (cache.admit(id, enc.encode(rng))) ++stored;
  }
  return stored;
}

TEST(EdgeCache, PolicyNamesRoundTrip) {
  for (const Policy p :
       {Policy::kLru, Policy::kLfu, Policy::kPopularity}) {
    EXPECT_EQ(policy_from_string(policy_name(p)), p);
  }
  EXPECT_FALSE(policy_from_string("arc").has_value());
}

TEST(EdgeCache, AdmitsOnlyAnnouncedContents) {
  EdgeCache cache(EdgeCacheConfig{});
  EXPECT_FALSE(cache.admit(5, unit(0)));
  EXPECT_EQ(cache.stats().rejected_unknown, 1u);
  cache.announce(5, kK, kBytes, 1.0);
  EXPECT_TRUE(cache.admit(5, unit(0)));
  EXPECT_EQ(cache.symbols_held(5), 1u);
}

TEST(EdgeCache, RejectsNonInnovativeSymbols) {
  EdgeCache cache(EdgeCacheConfig{});
  cache.announce(1, kK, kBytes, 1.0);
  EXPECT_TRUE(cache.admit(1, unit(3)));
  // The same degree-1 symbol again reduces to zero against the shadow
  // decoder: a cache slot it would waste.
  EXPECT_FALSE(cache.admit(1, unit(3)));
  EXPECT_EQ(cache.stats().rejected_duplicate, 1u);
  EXPECT_EQ(cache.symbols_held(1), 1u);
}

TEST(EdgeCache, SealsWhenStoredSetDecodes) {
  EdgeCache cache(EdgeCacheConfig{});
  cache.announce(1, kK, kBytes, 1.0);
  const std::size_t stored = fill(cache, 1, 99);
  EXPECT_TRUE(cache.decodable(1));
  EXPECT_FALSE(cache.wants_symbols(1));  // sealed entries stop filling
  EXPECT_GE(stored, kK);                 // at least k symbols to decode
  EXPECT_FALSE(cache.admit(1, unit(0)));
  EXPECT_GT(cache.stats().rejected_full, 0u);
}

TEST(EdgeCache, ByteAccountingIsExactWireBytes) {
  // Each symbol costs the frame that serves it, content id included: a
  // unit symbol of content 1 here is a 40-byte frame, one byte more
  // than the same symbol as content 0.
  EdgeCache cache(EdgeCacheConfig{});
  cache.announce(1, kK, kBytes, 1.0);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const CodedPacket p = unit(i);
    ASSERT_TRUE(cache.admit(1, p));
    expect += wire::serialized_size(1, p);
  }
  EXPECT_EQ(expect, 160u);
  EXPECT_EQ(cache.bytes_used(), expect);
  EXPECT_TRUE(cache.forget(1));
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(EdgeCache, ServesRoundRobinWithWraparound) {
  EdgeCache cache(EdgeCacheConfig{});
  cache.announce(1, kK, kBytes, 1.0);
  ASSERT_TRUE(cache.admit(1, unit(0)));
  ASSERT_TRUE(cache.admit(1, unit(1)));
  EXPECT_EQ(cache.begin_request(1), 2u);
  const CodedPacket* a = cache.next_symbol(1);
  const CodedPacket* b = cache.next_symbol(1);
  const CodedPacket* c = cache.next_symbol(1);  // wraps — simple ARQ
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a->coeffs, b->coeffs);
  EXPECT_EQ(a->coeffs, c->coeffs);
  EXPECT_EQ(cache.next_symbol(99), nullptr);
}

/// Measures the actual bytes two sealed entries occupy, so eviction
/// tests can size capacity to "two entries fit, three do not" without
/// depending on the planning estimate.
std::size_t two_entry_bytes() {
  EdgeCache probe(EdgeCacheConfig{});  // default capacity is ample
  probe.announce(1, kK, kBytes, 1.0);
  probe.announce(2, kK, kBytes, 1.0);
  fill(probe, 1, 11);
  fill(probe, 2, 22);
  return probe.bytes_used();
}

TEST(EdgeCache, LruEvictsTheColdestEntryWholesale) {
  EdgeCacheConfig cfg;
  cfg.policy = Policy::kLru;
  // Room for two filled entries plus slack, not three.
  cfg.capacity_bytes = two_entry_bytes() * 3 / 2;
  EdgeCache cache(cfg);
  cache.announce(1, kK, kBytes, 1.0);
  cache.announce(2, kK, kBytes, 1.0);
  cache.announce(3, kK, kBytes, 1.0);
  fill(cache, 1, 11);
  fill(cache, 2, 22);
  // Touch 1 so 2 is the LRU victim when 3 needs the space.
  cache.begin_request(2);
  cache.begin_request(1);
  fill(cache, 3, 33);
  EXPECT_GT(cache.stats().evicted_entries, 0u);
  EXPECT_EQ(cache.symbols_held(2), 0u);  // victim dropped wholesale
  EXPECT_GT(cache.symbols_held(1), 0u);  // recently used survives
  EXPECT_GT(cache.symbols_held(3), 0u);
  EXPECT_LE(cache.bytes_used(), cfg.capacity_bytes);
}

TEST(EdgeCache, LfuEvictsTheLeastRequestedEntry) {
  EdgeCacheConfig cfg;
  cfg.policy = Policy::kLfu;
  cfg.capacity_bytes = two_entry_bytes() * 3 / 2;
  EdgeCache cache(cfg);
  cache.announce(1, kK, kBytes, 1.0);
  cache.announce(2, kK, kBytes, 1.0);
  cache.announce(3, kK, kBytes, 1.0);
  fill(cache, 1, 11);
  fill(cache, 2, 22);
  // 2 is hot (3 uses), 1 is cold (1 use, later than 2's) — LFU must
  // still pick 1, where LRU would have picked 2.
  cache.begin_request(2);
  cache.begin_request(2);
  cache.begin_request(2);
  cache.begin_request(1);
  fill(cache, 3, 33);
  EXPECT_EQ(cache.symbols_held(1), 0u);
  EXPECT_GT(cache.symbols_held(2), 0u);
}

TEST(EdgeCache, PopularityWaterfillConcentratesOnTheHead) {
  EdgeCacheConfig cfg;
  cfg.policy = Policy::kPopularity;
  // Budget for ~one fully decodable entry spread over four contents.
  cfg.capacity_bytes =
      (kK + 8) * EdgeCache::symbol_cost_estimate(kK, kBytes);
  EdgeCache cache(cfg);
  // Zipf(1)-ish weights: 1, 1/2, 1/3, 1/4.
  for (std::size_t i = 0; i < 4; ++i) {
    cache.announce(static_cast<ContentId>(i + 1), kK, kBytes,
                   1.0 / static_cast<double>(i + 1));
  }
  cache.plan();
  EXPECT_GT(cache.quota(1), cache.quota(4));
  EXPECT_GT(cache.quota(1), 0u);
  // Quotas respect the byte budget under the planning estimate.
  std::size_t planned = 0;
  for (ContentId id = 1; id <= 4; ++id) {
    planned += cache.quota(id) * EdgeCache::symbol_cost_estimate(kK, kBytes);
  }
  EXPECT_LE(planned, cfg.capacity_bytes);
  // A larger budget never shrinks any quota (the nesting the capacity
  // sweeps rely on).
  EdgeCacheConfig big = cfg;
  big.capacity_bytes *= 2;
  EdgeCache wide(big);
  for (std::size_t i = 0; i < 4; ++i) {
    wide.announce(static_cast<ContentId>(i + 1), kK, kBytes,
                  1.0 / static_cast<double>(i + 1));
  }
  wide.plan();
  for (ContentId id = 1; id <= 4; ++id) {
    EXPECT_GE(wide.quota(id), cache.quota(id));
  }
}

TEST(EdgeCache, PopularityNeverEvictsAndHonoursQuota) {
  EdgeCacheConfig cfg;
  cfg.policy = Policy::kPopularity;
  cfg.capacity_bytes = 4 * EdgeCache::symbol_cost_estimate(kK, kBytes);
  EdgeCache cache(cfg);
  cache.announce(1, kK, kBytes, 1.0);
  cache.announce(2, kK, kBytes, 1.0);
  cache.plan();
  fill(cache, 1, 11);
  fill(cache, 2, 22);
  EXPECT_EQ(cache.stats().evicted_entries, 0u);
  EXPECT_LE(cache.symbols_held(1), cache.quota(1));
  EXPECT_LE(cache.symbols_held(2), cache.quota(2));
  // Over-quota admission is refused, not absorbed by eviction.
  const std::uint64_t before = cache.stats().rejected_full;
  for (std::size_t i = 0; i < 4; ++i) cache.admit(1, unit(i));
  EXPECT_GT(cache.stats().rejected_full + cache.stats().rejected_duplicate,
            before);
}

TEST(EdgeCache, ReplanTrimsEntriesShrunkBelowTheirStock) {
  EdgeCacheConfig cfg;
  cfg.policy = Policy::kPopularity;
  cfg.capacity_bytes =
      (kK + 8) * EdgeCache::symbol_cost_estimate(kK, kBytes);
  EdgeCache cache(cfg);
  cache.announce(1, kK, kBytes, 1.0);
  cache.plan();
  fill(cache, 1, 11);
  const std::size_t held = cache.symbols_held(1);
  ASSERT_GT(held, 0u);
  // A new heavyweight content steals most of the budget; content 1's
  // quota collapses below its stock, so its set is dropped for refill.
  cache.announce(2, kK, kBytes, 100.0);
  cache.plan();
  EXPECT_GT(cache.stats().trimmed_entries, 0u);
  EXPECT_EQ(cache.symbols_held(1), 0u);
}

TEST(EdgeCache, EvictedEntryCanRefillReactively) {
  EdgeCacheConfig cfg;
  cfg.policy = Policy::kLru;
  cfg.capacity_bytes = two_entry_bytes() * 3 / 2;
  EdgeCache cache(cfg);
  cache.announce(1, kK, kBytes, 1.0);
  cache.announce(2, kK, kBytes, 1.0);
  fill(cache, 1, 11);
  fill(cache, 2, 22);
  cache.begin_request(2);
  cache.announce(3, kK, kBytes, 1.0);
  fill(cache, 3, 33);           // evicts 1
  ASSERT_EQ(cache.symbols_held(1), 0u);
  cache.begin_request(1);
  cache.begin_request(1);        // 1 is hot again
  const std::size_t refilled = fill(cache, 1, 11);  // evicts 2 to refill
  EXPECT_GT(refilled, 0u);
  EXPECT_TRUE(cache.decodable(1));
}

}  // namespace
}  // namespace ltnc::cache
