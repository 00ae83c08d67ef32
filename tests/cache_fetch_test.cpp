// Hierarchical fetch path: CacheEntryProtocol served through a real
// session::Endpoint, FetchClient tier attribution and union completion,
// the expired-ring configuration (S2) and remove/re-register semantics
// (S3), and small end-to-end runs of all three harness drivers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "cache/catalog.hpp"
#include "cache/edge_cache.hpp"
#include "cache/fetch.hpp"
#include "cache/harness.hpp"
#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"
#include "session/endpoint.hpp"
#include "session/protocols.hpp"
#include "store/content_store.hpp"
#include "stream/stream_source.hpp"
#include "telemetry/metrics.hpp"
#include "test_store.hpp"
#include "wire/frame.hpp"

namespace ltnc::cache {
namespace {

using session::Endpoint;
using Event = session::Endpoint::Event;

constexpr std::size_t kK = 16;
constexpr std::size_t kBytes = 32;
constexpr std::uint64_t kSeed = 42;

session::EndpointConfig push_config() {
  session::EndpointConfig cfg;
  cfg.feedback = session::FeedbackMode::kNone;
  return cfg;
}

/// Edge endpoint whose single content is a cache entry.
Endpoint make_edge(EdgeCache& cache, ContentId id) {
  return Endpoint(push_config(),
                  test::one_content_store(
                      kK, kBytes,
                      std::make_unique<CacheEntryProtocol>(cache, id), id));
}

/// Source endpoint encoding the canonical content for `id`.
Endpoint make_source(ContentId id) {
  return Endpoint(push_config(),
                  test::one_content_store(
                      kK, kBytes,
                      std::make_unique<stream::LtSourceProtocol>(kK, kBytes,
                                                                 kSeed),
                      id));
}

/// Admits up to `want` innovative symbols from the canonical encoder.
std::size_t fill_cache(EdgeCache& cache, ContentId id, std::size_t want) {
  lt::LtEncoder enc(lt::make_native_payloads(kK, kBytes, kSeed));
  Rng rng(kSeed ^ 0x9e3779b9);
  std::size_t stored = 0;
  for (std::size_t i = 0; i < 16 * kK && stored < want; ++i) {
    if (!cache.wants_symbols(id)) break;
    if (cache.admit(id, enc.encode(rng))) ++stored;
  }
  return stored;
}

/// Drains `from`'s transmit queue into the client, tagging the tier.
void pump(Endpoint& from, FetchClient& client, bool from_source,
          Instant now) {
  session::PeerId dst = 0;
  wire::Frame frame;
  while (from.poll_transmit(dst, frame)) {
    client.ingest(from_source, frame.bytes(), now);
  }
}

TEST(CacheFetch, FullHitServedEntirelyByTheEdgeEndpoint) {
  const ContentId id = 21;
  EdgeCache cache{EdgeCacheConfig{}};
  cache.announce(id, kK, kBytes, 1.0);
  fill_cache(cache, id, 8 * kK);  // fills until sealed
  ASSERT_TRUE(cache.decodable(id));

  Endpoint edge = make_edge(cache, id);
  FetchClient client(push_config());
  client.open(id, kK, kBytes, kSeed, 0);
  cache.begin_request(id);
  Rng rng(7);
  Instant now = 0;
  while (!client.complete() && now < 400) {
    ++now;
    edge.start_transfer(0, id, rng);
    pump(edge, client, false, now);
  }
  const FetchOutcome out = client.finish(now);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.full_hit());
  EXPECT_EQ(out.symbols_from_source, 0u);
  EXPECT_GE(out.symbols_from_edge, kK);
  EXPECT_GT(out.latency, 0u);
}

TEST(CacheFetch, PartialCacheCompletesFromTheSourceUnion) {
  // The heart of the scheme: ~k/3 coded symbols at the edge plus source
  // fallback decode together — every cached symbol offloads one backhaul
  // symbol even though the cache alone is nowhere near decodable.
  const ContentId id = 22;
  EdgeCache cache{EdgeCacheConfig{}};
  cache.announce(id, kK, kBytes, 1.0);
  const std::size_t held = fill_cache(cache, id, kK / 3);
  ASSERT_GT(held, 0u);
  ASSERT_FALSE(cache.decodable(id));

  Endpoint edge = make_edge(cache, id);
  Endpoint source = make_source(id);
  FetchClient client(push_config());
  client.open(id, kK, kBytes, kSeed, 0);
  cache.begin_request(id);
  Rng rng(7);
  Instant now = 0;
  // Edge phase: one pass over the stored set.
  for (std::size_t i = 0; i < held; ++i) {
    ++now;
    edge.start_transfer(0, id, rng);
    pump(edge, client, false, now);
  }
  EXPECT_FALSE(client.complete());
  // Source fallback until the union decodes.
  while (!client.complete() && now < 400) {
    ++now;
    source.start_transfer(0, id, rng);
    pump(source, client, true, now);
  }
  const FetchOutcome out = client.finish(now);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.partial_hit());
  EXPECT_EQ(out.symbols_from_edge, held);
  // The union property: the source shipped at most (k + overhead) − held.
  EXPECT_LT(out.symbols_from_source + held, 3 * kK);
}

TEST(CacheFetch, WouldRejectFollowsCacheAppetite) {
  const ContentId id = 5;
  EdgeCache cache{EdgeCacheConfig{}};
  cache.announce(id, kK, kBytes, 1.0);
  CacheEntryProtocol proto(cache, id);
  BitVector any(kK);
  any.set(0);
  EXPECT_FALSE(proto.would_reject(any));  // hungry cache accepts fills
  fill_cache(cache, id, 8 * kK);
  EXPECT_TRUE(cache.decodable(id));
  EXPECT_TRUE(proto.would_reject(any));  // sealed: veto further fills
  EXPECT_FALSE(proto.complete());        // a cache is never "complete"
}

// S3: removing a content and re-registering the same id must route
// frames to the fresh protocol (kDelivered), not the expired ring — the
// store is consulted before the ring.
TEST(EndpointExpiry, ReRegisteredIdDeliversFreshFramesNotExpired) {
  const ContentId id = 9;
  Endpoint source = make_source(id);

  auto store = std::make_unique<store::ContentStore>();
  store::ContentConfig cc;
  cc.id = id;
  cc.k = kK;
  cc.payload_bytes = kBytes;
  store->register_content(
      cc, std::make_unique<session::LtSinkProtocol>(kK, kBytes));
  Endpoint rx(push_config(), std::move(store));

  Rng rng(3);
  session::PeerId dst = 0;
  wire::Frame frame;
  auto next_frame = [&]() -> std::span<const std::uint8_t> {
    EXPECT_TRUE(source.start_transfer(0, id, rng));
    EXPECT_TRUE(source.poll_transmit(dst, frame));
    return frame.bytes();
  };

  EXPECT_EQ(rx.handle_frame(0, next_frame()), Event::kDelivered);
  ASSERT_TRUE(rx.expire_content(id));
  EXPECT_EQ(rx.handle_frame(0, next_frame()), Event::kExpired);
  EXPECT_EQ(rx.stats().expired_frames, 1u);

  // Same id, fresh receiver: frames deliver again and count from zero.
  rx.contents().register_content(
      cc, std::make_unique<session::LtSinkProtocol>(kK, kBytes));
  EXPECT_EQ(rx.handle_frame(0, next_frame()), Event::kDelivered);
  const store::Content* fresh = rx.contents().find(id);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->protocol()->useful_packets(), 1u);
  EXPECT_EQ(rx.stats().expired_frames, 1u);  // unchanged
}

// S2: the expired ring's capacity comes from EndpointConfig. A ring of 2
// remembers only the two newest expiries; 0 disables it entirely.
TEST(EndpointExpiry, RingCapacityIsConfigurable) {
  const ContentId ids[3] = {11, 12, 13};
  std::vector<std::vector<std::uint8_t>> frames;
  {
    auto store = std::make_unique<store::ContentStore>();
    for (const ContentId id : ids) {
      store::ContentConfig cc;
      cc.id = id;
      cc.k = kK;
      cc.payload_bytes = kBytes;
      store->register_content(cc, std::make_unique<stream::LtSourceProtocol>(
                                      kK, kBytes, kSeed));
    }
    Endpoint source(push_config(), std::move(store));
    Rng rng(3);
    session::PeerId dst = 0;
    wire::Frame frame;
    for (const ContentId id : ids) {
      ASSERT_TRUE(source.start_transfer(0, id, rng));
      ASSERT_TRUE(source.poll_transmit(dst, frame));
      frames.emplace_back(frame.bytes().begin(), frame.bytes().end());
    }
  }

  auto make_rx = [&](std::size_t ring) {
    session::EndpointConfig cfg = push_config();
    cfg.expired_ring = ring;
    auto store = std::make_unique<store::ContentStore>();
    for (const ContentId id : ids) {
      store::ContentConfig cc;
      cc.id = id;
      cc.k = kK;
      cc.payload_bytes = kBytes;
      store->register_content(
          cc, std::make_unique<session::LtSinkProtocol>(kK, kBytes));
    }
    return Endpoint(cfg, std::move(store));
  };

  Endpoint small = make_rx(2);
  for (const ContentId id : ids) small.expire_content(id);
  // Oldest expiry fell off the 2-deep ring → foreign, not expired.
  EXPECT_EQ(small.handle_frame(0, frames[0]), Event::kNone);
  EXPECT_EQ(small.stats().foreign_frames, 1u);
  EXPECT_EQ(small.handle_frame(0, frames[1]), Event::kExpired);
  EXPECT_EQ(small.handle_frame(0, frames[2]), Event::kExpired);
  EXPECT_EQ(small.stats().expired_frames, 2u);

  Endpoint off = make_rx(0);
  for (const ContentId id : ids) off.expire_content(id);
  for (const auto& f : frames) {
    EXPECT_EQ(off.handle_frame(0, f), Event::kNone);
  }
  EXPECT_EQ(off.stats().foreign_frames, 3u);
  EXPECT_EQ(off.stats().expired_frames, 0u);
}

// ---- harness drivers, scaled down to test size --------------------------

CacheScenario small_scenario(std::size_t users, Policy policy,
                             double capacity_frac) {
  CacheScenario s;
  s.catalog.contents = 12;
  s.catalog.alpha = 1.0;
  s.catalog.k = kK;
  s.catalog.symbol_bytes = kBytes;
  s.catalog.seed = 5;
  s.cache.policy = policy;
  const std::size_t ws = working_set_bytes(s.catalog, s.cache);
  s.cache.capacity_bytes =
      static_cast<std::size_t>(static_cast<double>(ws) * capacity_frac);
  s.users = users;
  s.requests_per_user = 3;
  s.seed = 11;
  return s;
}

TEST(CacheHarness, EventDriverAmpleCapacityServesEverythingFromTheEdge) {
  // 1.25× the working set absorbs the planning-estimate slack: every
  // entry is sealed, so every request is a full hit and the backhaul
  // stays dark.
  const CacheRunStats stats =
      run_event_cache(small_scenario(64, Policy::kPopularity, 1.25));
  EXPECT_EQ(stats.requests, 64u * 3u);
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.full_hits, stats.requests);
  EXPECT_DOUBLE_EQ(stats.head_hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.offload(), 1.0);
  EXPECT_EQ(stats.backhaul_bytes, 0u);
  EXPECT_GT(stats.fill_bytes, 0u);
  EXPECT_GT(stats.latency_samples, 0u);
}

TEST(CacheHarness, EventDriverHeadStaysHotAtExactlyTheWorkingSet) {
  // The acceptance bar from the paper's regime: Zipf(1.0), capacity =
  // working set → the head decile is served entirely by the edge. The
  // catalog tail may end as partial fractions (the estimate-vs-wire
  // slack lands there by design), but the head is always sealed first.
  const CacheRunStats stats =
      run_event_cache(small_scenario(64, Policy::kPopularity, 1.0));
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_GE(stats.head_hit_rate(), 0.9);
  EXPECT_GE(stats.full_hit_rate(), 0.8);
  EXPECT_EQ(stats.misses, 0u);  // even partial entries contribute
  EXPECT_GE(stats.offload(), 0.8);
}

TEST(CacheHarness, EventDriverCapacitySweepIsMonotone) {
  double prev_hit = -1.0;
  double prev_offload = -1.0;
  std::uint64_t prev_backhaul = ~std::uint64_t{0};
  for (const double frac : {0.25, 0.5, 1.0}) {
    const CacheRunStats stats =
        run_event_cache(small_scenario(48, Policy::kPopularity, frac));
    EXPECT_EQ(stats.completed, stats.requests);
    EXPECT_GE(stats.hit_rate(), prev_hit);
    EXPECT_GE(stats.offload(), prev_offload);
    EXPECT_LE(stats.backhaul_bytes, prev_backhaul);
    prev_hit = stats.hit_rate();
    prev_offload = stats.offload();
    prev_backhaul = stats.backhaul_bytes;
  }
  EXPECT_GT(prev_hit, 0.5);  // full capacity serves mostly from the edge
}

TEST(CacheHarness, EventDriverLruWarmsReactively) {
  const CacheRunStats stats =
      run_event_cache(small_scenario(48, Policy::kLru, 0.5));
  EXPECT_EQ(stats.completed, stats.requests);
  // Reactive warming: no proactive fill, yet repeat requests for the
  // head hit symbols the cache absorbed off the source path.
  EXPECT_EQ(stats.fill_bytes, 0u);
  EXPECT_GT(stats.full_hits + stats.partial_hits, 0u);
  EXPECT_GT(stats.symbols_from_edge, 0u);
}

TEST(CacheHarness, EventDriverSurvivesChurn) {
  CacheScenario sc = small_scenario(48, Policy::kPopularity, 1.0);
  sc.catalog.request_churn = 0.05;
  sc.catalog.content_churn = 0.02;
  const CacheRunStats stats = run_event_cache(sc);
  EXPECT_EQ(stats.requests, 48u * 3u);
  EXPECT_EQ(stats.completed, stats.requests);  // source backstops churn
  EXPECT_GT(stats.replacements, 0u);
}

TEST(CacheHarness, SimDriverCompletesOverLossyWire) {
  SimCacheConfig cfg;
  cfg.scenario = small_scenario(8, Policy::kPopularity, 1.0);
  cfg.scenario.requests_per_user = 2;
  cfg.scenario.loss_rate = 0.1;
  const CacheRunStats stats = run_sim_cache(cfg);
  EXPECT_EQ(stats.requests, 8u * 2u);
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_EQ(stats.verify_failures, 0u);
  // ARQ over the sealed sets keeps the edge useful despite loss.
  EXPECT_GT(stats.full_hits + stats.partial_hits, 0u);
  EXPECT_GT(stats.symbols_from_edge, 0u);
}

TEST(CacheHarness, ConcurrentFetchesOfOneContentEachGetTheWholeEntry) {
  // Two users fetch the only content, sealed at the edge, at the same
  // time. Each fetch is served the stored set from its own position, so
  // both decode from the edge alone and the backhaul stays dark.
  SimCacheConfig cfg;
  cfg.scenario = small_scenario(2, Policy::kPopularity, 1.0);
  cfg.scenario.catalog.contents = 1;
  cfg.scenario.cache.capacity_bytes =
      2 * working_set_bytes(cfg.scenario.catalog, cfg.scenario.cache);
  cfg.scenario.requests_per_user = 1;
  const CacheRunStats stats = run_sim_cache(cfg);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.full_hits, 2u);
  EXPECT_EQ(stats.symbols_from_source, 0u);
  EXPECT_EQ(stats.backhaul_bytes, 0u);
}

TEST(CacheHarness, UdpDriverSmoke) {
  // The UDP link carries the SimChannel's fault schedule over loopback
  // sockets and the driver keeps its tick schedule, so one lossy
  // scenario gives the same counts over both links; only the clock of
  // latency and duration differs.
  SimCacheConfig cfg;
  cfg.scenario = small_scenario(4, Policy::kPopularity, 1.0);
  cfg.scenario.requests_per_user = 2;
  cfg.scenario.loss_rate = 0.1;
  cfg.channel.reorder_rate = 0.1;
  cfg.link = net::Link::kUdp;
  const CacheRunStats udp = run_sim_cache(cfg);
  EXPECT_EQ(udp.requests, 4u * 2u);
  EXPECT_EQ(udp.completed, udp.requests);
  EXPECT_EQ(udp.verify_failures, 0u);
  EXPECT_GT(udp.symbols_from_edge, 0u);
  EXPECT_EQ(udp.latency_samples, udp.requests);

  cfg.link = net::Link::kSim;
  const CacheRunStats sim = run_sim_cache(cfg);
  EXPECT_EQ(udp.users, sim.users);
  EXPECT_EQ(udp.requests, sim.requests);
  EXPECT_EQ(udp.completed, sim.completed);
  EXPECT_EQ(udp.failed, sim.failed);
  EXPECT_EQ(udp.verify_failures, sim.verify_failures);
  EXPECT_EQ(udp.full_hits, sim.full_hits);
  EXPECT_EQ(udp.partial_hits, sim.partial_hits);
  EXPECT_EQ(udp.misses, sim.misses);
  EXPECT_EQ(udp.head_requests, sim.head_requests);
  EXPECT_EQ(udp.head_full_hits, sim.head_full_hits);
  EXPECT_EQ(udp.symbols_from_edge, sim.symbols_from_edge);
  EXPECT_EQ(udp.symbols_from_source, sim.symbols_from_source);
  EXPECT_EQ(udp.edge_bytes, sim.edge_bytes);
  EXPECT_EQ(udp.backhaul_bytes, sim.backhaul_bytes);
  EXPECT_EQ(udp.fill_bytes, sim.fill_bytes);
  EXPECT_EQ(udp.fill_symbols, sim.fill_symbols);
  EXPECT_EQ(udp.evicted_entries, sim.evicted_entries);
  EXPECT_EQ(udp.evicted_symbols, sim.evicted_symbols);
  EXPECT_EQ(udp.replacements, sim.replacements);
  EXPECT_EQ(udp.cache_bytes_used, sim.cache_bytes_used);
  EXPECT_EQ(udp.cache_capacity, sim.cache_capacity);
  EXPECT_EQ(udp.latency_samples, sim.latency_samples);
}

/// A run writes its totals to its registry once, when it ends: every
/// ltnc_cache_* counter equals its CacheRunStats field.
void expect_registry_matches(const telemetry::Registry& registry,
                             const CacheRunStats& stats) {
  const telemetry::Snapshot snap = registry.snapshot();
  const auto read = [&snap](std::string_view name) {
    const auto* c = snap.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  EXPECT_EQ(read("ltnc_cache_requests_total"), stats.requests);
  EXPECT_EQ(read("ltnc_cache_full_hits_total"), stats.full_hits);
  EXPECT_EQ(read("ltnc_cache_partial_hits_total"), stats.partial_hits);
  EXPECT_EQ(read("ltnc_cache_misses_total"), stats.misses);
  EXPECT_EQ(read("ltnc_cache_edge_symbols_total"), stats.symbols_from_edge);
  EXPECT_EQ(read("ltnc_cache_source_symbols_total"),
            stats.symbols_from_source);
  EXPECT_EQ(read("ltnc_cache_backhaul_bytes_total"), stats.backhaul_bytes);
  EXPECT_EQ(read("ltnc_cache_fill_bytes_total"), stats.fill_bytes);
  EXPECT_EQ(read("ltnc_cache_evicted_entries_total"), stats.evicted_entries);
}

TEST(CacheHarness, RegistryCountersEqualRunStats) {
  {
    telemetry::Registry registry;
    CacheScenario sc = small_scenario(48, Policy::kLru, 0.5);
    sc.registry = &registry;
    const CacheRunStats stats = run_event_cache(sc);
    EXPECT_GT(stats.evicted_entries, 0u);
    EXPECT_GT(stats.backhaul_bytes, 0u);
    expect_registry_matches(registry, stats);
  }
  {
    telemetry::Registry registry;
    SimCacheConfig cfg;
    cfg.scenario = small_scenario(8, Policy::kPopularity, 0.5);
    cfg.scenario.requests_per_user = 2;
    cfg.scenario.loss_rate = 0.1;
    cfg.scenario.registry = &registry;
    const CacheRunStats stats = run_sim_cache(cfg);
    EXPECT_GT(stats.fill_bytes, 0u);
    EXPECT_GT(stats.backhaul_bytes, 0u);
    expect_registry_matches(registry, stats);
  }
}

TEST(CacheHarness, WorkingSetScalesWithTheCatalog) {
  CatalogConfig small;
  small.contents = 8;
  small.k = kK;
  small.symbol_bytes = kBytes;
  CatalogConfig big = small;
  big.contents = 32;
  EdgeCacheConfig cache;
  const std::size_t ws_small = working_set_bytes(small, cache);
  const std::size_t ws_big = working_set_bytes(big, cache);
  EXPECT_GT(ws_small, 0u);
  EXPECT_GT(ws_big, 2 * ws_small);
}

}  // namespace
}  // namespace ltnc::cache
