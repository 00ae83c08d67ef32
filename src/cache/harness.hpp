// Edge-cache experiment drivers: one scenario, two execution engines.
//
//   run_event_cache   an analytic model on dissem::TimerWheel — the
//                     scale driver (10^4–10^5 users). No frame crosses a
//                     link: each request is served synchronously into a
//                     per-request BP decoder, last-hop loss is a coin per
//                     symbol, and latency is a formula whose round-trip
//                     times (edge 2 ticks, source 16 more) and serving
//                     rate (8 symbols a tick) are constants of the model.
//                     Wire costs use the exact frame codec byte counts.
//   run_sim_cache     full wire path through session::Endpoint — every
//                     symbol is a real frame through the edge endpoint
//                     (CacheEntryProtocol) or the source endpoint
//                     (stream::LtSourceProtocol), over per-user links
//                     with loss/reorder faults: net::SimChannels, or the
//                     same fault schedules over loopback net::UdpPipes.
//
// Both report the same CacheRunStats — hit rates, source offload,
// backhaul bytes, fetch-latency quantiles — and feed the same PR-8
// telemetry instruments (ltnc_cache_*), so bench/edge_cache can sweep
// cache capacity across engines and diff the resulting curves. They
// share one serving policy (the edge's replay budget, the source's
// symbol cap).
//
// The model stays beside the wire driver because it is what reaches the
// sweep's scale, and because the wire driver has no link delay, so the
// edge/source round-trip gap the latency rows show exists only in the
// model. Over bench/edge_cache's 10^4-user capacity sweep the wire driver
// (SimChannel links) takes several times as long per point and hundreds
// of MB of channel rings; the two agree on hit, full-hit and head-hit
// rates, while offload differs (measurements under ROADMAP item 3).
//
// Placement vs reaction: under Policy::kPopularity the cache is filled
// proactively (the paper's off-peak placement; those bytes are counted
// as fill_bytes, not backhaul). Under kLru/kLfu the cache warms on-path:
// the edge endpoint absorbs the source traffic it relays, and eviction
// does the allocating. Request-phase source bytes are the backhaul the
// scheme exists to shrink.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cache/catalog.hpp"
#include "cache/edge_cache.hpp"
#include "common/types.hpp"
#include "net/sim_channel.hpp"
#include "net/udp_pipe.hpp"
#include "telemetry/metrics.hpp"

namespace ltnc::cache {

using Instant = std::uint64_t;  // same clock convention as ltnc::session

struct CacheScenario {
  CatalogConfig catalog;
  EdgeCacheConfig cache;
  std::size_t users = 32;
  std::size_t requests_per_user = 4;
  /// Last-hop symbol loss (edge→user and source→user). The edge sits on
  /// the source path upstream of this loss, so reactive admission sees
  /// pre-loss traffic.
  double loss_rate = 0.0;
  std::uint64_t seed = 1;
  /// Metrics sink; null = a run-local registry (stats still filled).
  telemetry::Registry* registry = nullptr;
};

struct SimCacheConfig {
  CacheScenario scenario;
  /// Fault profile for both links; loss_rate/seed are overridden from
  /// the scenario.
  net::SimChannelConfig channel;
  /// kUdp keeps the tick schedule (so every count matches kSim's) and
  /// stamps fetch latency and run duration in wall-clock µs.
  net::Link link = net::Link::kSim;
};

struct CacheRunStats {
  std::size_t users = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;  ///< decoded + verified
  std::uint64_t failed = 0;     ///< timed out / never completed
  std::uint64_t verify_failures = 0;
  std::uint64_t full_hits = 0;     ///< completed from edge symbols alone
  std::uint64_t partial_hits = 0;  ///< edge + source union
  std::uint64_t misses = 0;        ///< no edge symbol contributed
  std::uint64_t head_requests = 0;    ///< content in the catalog head
  std::uint64_t head_full_hits = 0;
  std::uint64_t symbols_from_edge = 0;    ///< delivered to users
  std::uint64_t symbols_from_source = 0;  ///< delivered to users
  std::uint64_t edge_bytes = 0;      ///< edge→user wire bytes
  std::uint64_t backhaul_bytes = 0;  ///< request-phase source wire bytes
  std::uint64_t fill_bytes = 0;      ///< proactive placement (off-peak)
  std::uint64_t fill_symbols = 0;
  std::uint64_t evicted_entries = 0;
  std::uint64_t evicted_symbols = 0;
  std::uint64_t replacements = 0;  ///< content-churn events
  std::uint64_t cache_bytes_used = 0;  ///< at end of run
  std::uint64_t cache_capacity = 0;
  std::uint64_t duration_ticks = 0;
  std::uint64_t latency_samples = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;

  /// Fraction of requests served at least partly from the cache.
  double hit_rate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(full_hits + partial_hits) /
                               static_cast<double>(requests);
  }
  /// Fraction of requests the source never saw.
  double full_hit_rate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(full_hits) /
                               static_cast<double>(requests);
  }
  /// Full-hit rate restricted to head-of-catalog requests.
  double head_hit_rate() const {
    return head_requests == 0 ? 0.0
                              : static_cast<double>(head_full_hits) /
                                    static_cast<double>(head_requests);
  }
  /// Fraction of delivered symbols that came from the edge.
  double offload() const {
    const std::uint64_t total = symbols_from_edge + symbols_from_source;
    return total == 0 ? 0.0
                      : static_cast<double>(symbols_from_edge) /
                            static_cast<double>(total);
  }
};

/// Bytes a cache of unbounded capacity stores for this catalog under
/// kPopularity placement — the catalog's working set, the natural unit
/// for capacity sweeps.
std::size_t working_set_bytes(const CatalogConfig& catalog,
                              const EdgeCacheConfig& cache);

CacheRunStats run_event_cache(const CacheScenario& scenario);
CacheRunStats run_sim_cache(const SimCacheConfig& config);

}  // namespace ltnc::cache
