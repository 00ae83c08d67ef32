#include "cache/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cache/fetch.hpp"
#include "common/check.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "dissemination/timer_wheel.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/lt_encoder.hpp"
#include "net/udp_pipe.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "stream/stream_source.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::cache {
namespace {

// Metric names shared by the drivers and examples/edge_cache's --prom
// exposition; the latency histogram carries its tick unit in the name.
constexpr const char* kRequestsName = "ltnc_cache_requests_total";
constexpr const char* kFullHitsName = "ltnc_cache_full_hits_total";
constexpr const char* kPartialHitsName = "ltnc_cache_partial_hits_total";
constexpr const char* kMissesName = "ltnc_cache_misses_total";
constexpr const char* kEdgeSymbolsName = "ltnc_cache_edge_symbols_total";
constexpr const char* kSourceSymbolsName = "ltnc_cache_source_symbols_total";
constexpr const char* kBackhaulName = "ltnc_cache_backhaul_bytes_total";
constexpr const char* kFillName = "ltnc_cache_fill_bytes_total";
constexpr const char* kEvictionsName = "ltnc_cache_evicted_entries_total";

/// Seed perturbation for the canonical placement stream of a content, so
/// fill symbols and request-phase source symbols never collide draw-for-
/// draw. The same stream at every capacity makes placements nested:
/// a bigger cache stores a superset of a smaller one's symbols, which is
/// what makes the hit-rate and offload curves monotone by construction.
constexpr std::uint64_t kFillSalt = 0x5851f42d4c957f2dULL;

// The serving policy both drivers share. The edge replays its stored
// symbols for at most two passes plus a margin for loss; the source
// serves at most 30·k symbols before the fetch counts as failed.
constexpr std::size_t edge_replay_budget(std::size_t held) {
  return 2 * held + 8;
}
constexpr std::size_t source_symbol_cap(std::size_t k) { return 30 * k; }

// The event driver's latency model, in ticks.
constexpr Instant kEdgeRtt = 2;     ///< request → first edge symbol
constexpr Instant kSourceRtt = 16;  ///< extra once the backhaul is involved
constexpr Instant kEventThinkTicks = 8;  ///< user idle between requests
constexpr std::size_t kSymbolsPerTick = 8;  ///< serving rate

// The sim driver's schedule, in ticks.
constexpr std::size_t kPushesPerTick = 4;  ///< per-user symbols queued
constexpr Instant kSimThinkTicks = 4;      ///< user idle between requests
constexpr Instant kRequestTimeout = 20000;  ///< before a fetch is failed

void fold_outcome(CacheRunStats& out, telemetry::Histogram& latency,
                  const FetchOutcome& oc, bool head) {
  ++out.requests;
  if (oc.completed && oc.verified) {
    ++out.completed;
  } else {
    ++out.failed;
    if (oc.completed) ++out.verify_failures;
  }
  if (oc.full_hit()) {
    ++out.full_hits;
  } else if (oc.partial_hit()) {
    ++out.partial_hits;
  } else {
    ++out.misses;
  }
  if (head) {
    ++out.head_requests;
    if (oc.full_hit()) ++out.head_full_hits;
  }
  out.symbols_from_edge += oc.symbols_from_edge;
  out.symbols_from_source += oc.symbols_from_source;
  latency.record(static_cast<std::uint64_t>(oc.latency));
}

/// The end of a run: its totals go to the registry once (CacheRunStats
/// is their one home), and the latency quantiles come back from it.
void finish_run(CacheRunStats& out, telemetry::Registry& registry,
                const char* latency_name) {
  registry.counter(kRequestsName).add(out.requests);
  registry.counter(kFullHitsName).add(out.full_hits);
  registry.counter(kPartialHitsName).add(out.partial_hits);
  registry.counter(kMissesName).add(out.misses);
  registry.counter(kEdgeSymbolsName).add(out.symbols_from_edge);
  registry.counter(kSourceSymbolsName).add(out.symbols_from_source);
  registry.counter(kBackhaulName).add(out.backhaul_bytes);
  registry.counter(kFillName).add(out.fill_bytes);
  registry.counter(kEvictionsName).add(out.evicted_entries);
  const telemetry::Snapshot snap = registry.snapshot();
  if (const auto* h = snap.find_histogram(latency_name)) {
    out.latency_samples = h->count();
    out.latency_p50 = h->quantile(0.50);
    out.latency_p99 = h->quantile(0.99);
    out.latency_p999 = h->quantile(0.999);
  }
}

void fold_cache(CacheRunStats& out, const EdgeCache& cache) {
  out.evicted_entries = cache.stats().evicted_entries;
  out.evicted_symbols = cache.stats().evicted_symbols;
  out.cache_bytes_used = cache.bytes_used();
  out.cache_capacity = cache.capacity_bytes();
}

/// Proactive placement of one content: admits symbols from the content's
/// canonical fill stream until the cache stops wanting them (sealed or at
/// quota). The attempt cap only bounds degenerate cases where the shadow
/// decoder keeps rejecting duplicates near completion.
void fill_one(EdgeCache& cache, ContentId id, std::size_t k,
              std::size_t payload_bytes, std::uint64_t content_seed,
              CacheRunStats* out) {
  if (!cache.wants_symbols(id)) return;
  const auto account = [&](const CodedPacket& packet) {
    if (out != nullptr) {
      ++out->fill_symbols;
      out->fill_bytes += wire::serialized_size(id, packet);
    }
  };
  if (cache.quota(id) >= k) {
    // A full allocation is shipped in systematic form: k natives seal the
    // entry by construction (BP trivially completes), so a full copy
    // never pays the LT decode overhead in cache bytes and never strands
    // an entry at quota with a stuck peeling process.
    const std::vector<Payload> natives =
        lt::make_native_payloads(k, payload_bytes, content_seed);
    for (std::size_t i = 0; i < k && cache.wants_symbols(id); ++i) {
      const CodedPacket packet = CodedPacket::native(k, i, natives[i]);
      if (cache.admit(id, packet)) account(packet);
    }
    return;
  }
  lt::LtEncoder encoder(
      lt::make_native_payloads(k, payload_bytes, content_seed));
  Rng rng(content_seed ^ kFillSalt);
  const std::size_t cap = cache.full_symbol_cap(k) * 4;
  for (std::size_t attempt = 0;
       attempt < cap && cache.wants_symbols(id); ++attempt) {
    const CodedPacket packet = encoder.encode(rng);
    if (!cache.admit(id, packet)) continue;
    account(packet);
  }
}

void announce_all(EdgeCache& cache, const Catalog& catalog) {
  for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
    cache.announce(catalog.id_of(slot), catalog.config().k,
                   catalog.config().symbol_bytes, catalog.weight_of(slot));
  }
}

/// plan() + refill every slot — the placement step, run at startup and
/// re-run when catalog churn moves weights or replaces contents. Iterated:
/// entries that seal below their planned quota release the difference on
/// the next plan() (which charges sealed sets their actual bytes), so the
/// budget waterfalls to still-hungry entries until no admission happens.
void place_all(EdgeCache& cache, const Catalog& catalog,
               CacheRunStats* out) {
  for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
    cache.set_weight(catalog.id_of(slot), catalog.weight_of(slot));
  }
  // Iterate until a pass admits nothing; the pass bound is a backstop
  // against a pathological drop-and-refill cycle (a capacity-rejected
  // systematic refill re-promoted every plan), not the usual exit.
  for (int pass = 0; pass < 64; ++pass) {
    cache.plan();
    const std::uint64_t before = cache.stats().admitted;
    for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
      fill_one(cache, catalog.id_of(slot), catalog.config().k,
               catalog.config().symbol_bytes, catalog.seed_of(slot), out);
    }
    if (cache.stats().admitted == before) break;
  }
}

bool verify_decode(const lt::BpDecoder& decoder, std::size_t k,
                   std::size_t payload_bytes, std::uint64_t content_seed) {
  for (std::size_t i = 0; i < k; ++i) {
    if (decoder.native_payload(i) !=
        Payload::deterministic(payload_bytes, content_seed, i)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::size_t working_set_bytes(const CatalogConfig& catalog,
                              const EdgeCacheConfig& cache) {
  EdgeCacheConfig unbounded = cache;
  unbounded.policy = Policy::kPopularity;
  unbounded.capacity_bytes = std::numeric_limits<std::size_t>::max() / 2;
  Catalog shape(catalog);  // no requests drawn, so no churn fires
  EdgeCache probe(unbounded);
  announce_all(probe, shape);
  place_all(probe, shape, nullptr);
  return probe.bytes_used();
}

CacheRunStats run_event_cache(const CacheScenario& sc) {
  LTNC_CHECK_MSG(sc.users > 0 && sc.requests_per_user > 0,
                 "event cache run needs users and requests");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      sc.registry != nullptr ? *sc.registry : local_registry;
  constexpr const char* kLatency = "ltnc_cache_fetch_latency_ticks";
  telemetry::Histogram& latency = registry.histogram(kLatency);

  const std::size_t k = sc.catalog.k;
  const std::size_t bytes = sc.catalog.symbol_bytes;
  const bool proactive = sc.cache.policy == Policy::kPopularity;

  Catalog catalog(sc.catalog);
  EdgeCache cache(sc.cache);
  announce_all(cache, catalog);
  CacheRunStats out;
  out.users = sc.users;

  // Per-slot source encoders, built on first fallback and retired by
  // content churn (a replaced slot serves a different content).
  std::vector<std::unique_ptr<lt::LtEncoder>> encoders(catalog.size());
  catalog.set_on_replace([&](std::size_t slot, ContentId old_id,
                             ContentId new_id) {
    cache.forget(old_id);
    cache.announce(new_id, k, bytes, catalog.weight_of(slot));
    encoders[slot].reset();
  });

  if (proactive) place_all(cache, catalog, &out);
  std::uint64_t placed_version = catalog.version();

  std::vector<Rng> user_rng;
  user_rng.reserve(sc.users);
  Rng master(sc.seed);
  for (std::size_t u = 0; u < sc.users; ++u) user_rng.push_back(master.fork());
  std::vector<std::size_t> remaining(sc.users, sc.requests_per_user);

  struct Ev {
    std::size_t user = 0;
  };
  dissem::TimerWheel<Ev> wheel;
  for (std::size_t u = 0; u < sc.users; ++u) {
    wheel.schedule(u % 64, Ev{u});  // stagger request arrivals
  }

  while (auto ev = wheel.pop_next()) {
    const Instant now = wheel.now();
    const std::size_t u = ev->user;
    const std::size_t slot = catalog.next_request(user_rng[u]);
    if (proactive && placed_version != catalog.version()) {
      place_all(cache, catalog, &out);  // churn moved the catalog
      placed_version = catalog.version();
    }
    const ContentId id = catalog.id_of(slot);
    const std::uint64_t seed = catalog.seed_of(slot);
    const bool head = catalog.in_head(id);
    Rng req_rng = user_rng[u].fork();

    const std::size_t held = cache.begin_request(id);
    lt::BpDecoder decoder(k, bytes);
    FetchOutcome oc;
    oc.id = id;

    // Edge phase: the cache replays its stored set, cycling on loss
    // (simple ARQ) until the user holds every distinct stored symbol,
    // the decode completes, or the retry budget runs out.
    std::size_t sent_edge = 0;
    if (held > 0) {
      const std::vector<CodedPacket>& stored = *cache.symbols(id);
      const std::size_t budget = edge_replay_budget(held);
      std::size_t distinct = 0;
      for (std::size_t i = 0;
           !decoder.complete() && distinct < held && sent_edge < budget;
           ++i) {
        const CodedPacket& pkt = stored[i % held];
        ++sent_edge;
        out.edge_bytes += wire::serialized_size(id, pkt);
        if (req_rng.chance(sc.loss_rate)) continue;
        ++oc.symbols_from_edge;
        if (decoder.receive(pkt) != lt::ReceiveResult::kDuplicate) ++distinct;
      }
    }

    // Source fallback over the backhaul; the edge sits on this path
    // (upstream of last-hop loss), so reactive policies absorb it.
    std::size_t sent_source = 0;
    if (!decoder.complete()) {
      if (encoders[slot] == nullptr) {
        encoders[slot] = std::make_unique<lt::LtEncoder>(
            lt::make_native_payloads(k, bytes, seed));
      }
      const std::size_t cap = source_symbol_cap(k);
      while (!decoder.complete() && sent_source < cap) {
        const CodedPacket pkt = encoders[slot]->encode(req_rng);
        ++sent_source;
        const std::uint64_t frame_bytes = wire::serialized_size(id, pkt);
        out.backhaul_bytes += frame_bytes;
        if (!proactive) cache.admit(id, pkt);
        if (req_rng.chance(sc.loss_rate)) continue;
        ++oc.symbols_from_source;
        decoder.receive(pkt);
      }
    }

    oc.completed = decoder.complete();
    oc.verified = oc.completed && verify_decode(decoder, k, bytes, seed);
    const Instant transfer =
        (sent_edge + sent_source + kSymbolsPerTick - 1) / kSymbolsPerTick;
    oc.latency = kEdgeRtt + (sent_source > 0 ? kSourceRtt : 0) + transfer;
    fold_outcome(out, latency, oc, head);

    if (--remaining[u] > 0) {
      wheel.schedule(now + oc.latency + kEventThinkTicks, Ev{u});
    }
  }

  out.replacements = catalog.replacements();
  out.duration_ticks = wheel.now();
  fold_cache(out, cache);
  finish_run(out, registry, kLatency);
  return out;
}

CacheRunStats run_sim_cache(const SimCacheConfig& config) {
  const CacheScenario& sc = config.scenario;
  LTNC_CHECK_MSG(sc.users > 0 && sc.requests_per_user > 0,
                 "sim cache run needs users and requests");
  const bool wall_clock = config.link == net::Link::kUdp;
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      sc.registry != nullptr ? *sc.registry : local_registry;
  const char* latency_name = wall_clock ? "ltnc_cache_fetch_latency_us"
                                        : "ltnc_cache_fetch_latency_ticks";
  telemetry::Histogram& latency = registry.histogram(latency_name);

  const std::size_t k = sc.catalog.k;
  const std::size_t bytes = sc.catalog.symbol_bytes;
  const bool proactive = sc.cache.policy == Policy::kPopularity;
  const auto source_peer = static_cast<session::PeerId>(sc.users);

  Catalog catalog(sc.catalog);
  EdgeCache cache(sc.cache);
  announce_all(cache, catalog);
  CacheRunStats out;
  out.users = sc.users;

  session::EndpointConfig node_cfg;
  node_cfg.feedback = session::FeedbackMode::kNone;
  node_cfg.expired_ring = std::max<std::size_t>(128, 4 * catalog.size());
  session::Endpoint edge(node_cfg, std::make_unique<store::ContentStore>());
  session::Endpoint source(node_cfg, std::make_unique<store::ContentStore>());
  const auto register_pair = [&](ContentId id, std::uint64_t seed) {
    store::ContentConfig cc;
    cc.id = id;
    cc.k = k;
    cc.payload_bytes = bytes;
    edge.contents().register_content(
        cc, std::make_unique<CacheEntryProtocol>(cache, id));
    source.contents().register_content(
        cc, std::make_unique<stream::LtSourceProtocol>(k, bytes, seed));
  };
  for (std::size_t slot = 0; slot < catalog.size(); ++slot) {
    register_pair(catalog.id_of(slot), catalog.seed_of(slot));
  }
  catalog.set_on_replace([&](std::size_t slot, ContentId old_id,
                             ContentId new_id) {
    edge.expire_content(old_id);
    source.expire_content(old_id);
    cache.forget(old_id);
    cache.announce(new_id, k, bytes, catalog.weight_of(slot));
    register_pair(new_id, catalog.seed_of(slot));
  });

  if (proactive) place_all(cache, catalog, &out);
  std::uint64_t placed_version = catalog.version();

  std::vector<std::unique_ptr<net::Transport>> edge_ch;
  std::vector<std::unique_ptr<net::Transport>> src_ch;
  std::vector<std::unique_ptr<FetchClient>> clients;
  session::EndpointConfig client_cfg;
  client_cfg.feedback = session::FeedbackMode::kNone;
  for (std::size_t u = 0; u < sc.users; ++u) {
    net::SimChannelConfig ch = config.channel;
    ch.loss_rate = sc.loss_rate;
    ch.seed = sc.seed + 0x9e3779b97f4a7c15ULL * (2 * u + 1);
    edge_ch.push_back(net::open_link(config.link, ch));
    ch.seed = sc.seed + 0x9e3779b97f4a7c15ULL * (2 * u + 2);
    src_ch.push_back(net::open_link(config.link, ch));
    clients.push_back(std::make_unique<FetchClient>(client_cfg));
  }

  struct UserState {
    Rng rng{0};
    std::size_t remaining = 0;
    Instant idle_until = 0;
    bool active = false;
    ContentId id = 0;
    bool head = false;
    std::size_t edge_budget = 0;
    std::size_t edge_sent = 0;  ///< this fetch's serve position
    bool source_phase = false;
    std::size_t source_pushed = 0;
    Instant started = 0;
  };
  std::vector<UserState> users(sc.users);
  Rng master(sc.seed);
  for (std::size_t u = 0; u < sc.users; ++u) {
    users[u].rng = master.fork();
    users[u].remaining = sc.requests_per_user;
    users[u].idle_until = static_cast<Instant>(u % 16);
  }
  Rng source_rng(sc.seed ^ 0xbb67ae8584caa73bULL);

  wire::Frame frame;
  const std::size_t source_cap = source_symbol_cap(k);
  const Instant horizon =
      static_cast<Instant>(sc.requests_per_user) *
          (kRequestTimeout + kSimThinkTicks + 16) +
      4096;
  const auto t0 = std::chrono::steady_clock::now();
  const auto clock_us = [&t0]() -> Instant {
    return static_cast<Instant>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  Instant t = 0;
  for (;; ++t) {
    LTNC_CHECK_MSG(t <= horizon, "sim cache run failed to converge");
    // Latency stamps: the tick itself, or the wall clock over UDP.
    const Instant stamp = wall_clock ? clock_us() : t;
    bool all_done = true;
    for (const UserState& st : users) {
      if (st.active || st.remaining > 0) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    edge.tick(t);
    source.tick(t);
    if (proactive && placed_version != catalog.version()) {
      place_all(cache, catalog, &out);
      placed_version = catalog.version();
    }

    for (std::size_t u = 0; u < sc.users; ++u) {
      UserState& st = users[u];
      if (!st.active) {
        if (st.remaining == 0 || t < st.idle_until) continue;
        const std::size_t slot = catalog.next_request(st.rng);
        st.id = catalog.id_of(slot);
        st.head = catalog.in_head(st.id);
        const std::size_t held = cache.begin_request(st.id);
        st.edge_budget = held > 0 ? edge_replay_budget(held) : 0;
        st.edge_sent = 0;
        st.source_phase = held == 0;
        st.source_pushed = 0;
        st.started = t;
        clients[u]->open(st.id, k, bytes, catalog.seed_of(slot), stamp);
        st.active = true;
      }
      if (!st.source_phase) {
        // Each fetch replays the stored set from its own position (as
        // the event driver does), so concurrent fetches of one content
        // never split its symbols between them.
        const std::vector<CodedPacket>* stored = cache.symbols(st.id);
        for (std::size_t i = 0; i < kPushesPerTick &&
                                st.edge_budget > 0 && stored != nullptr &&
                                !stored->empty();
             ++i) {
          edge.offer_packet(static_cast<session::PeerId>(u), st.id,
                            (*stored)[st.edge_sent++ % stored->size()]);
          --st.edge_budget;
        }
        // Fall back once the edge budget is spent: it outlasts a full
        // replay of the stored set, so a loss-free decodable serve
        // completes first and never touches the source.
        if (st.edge_budget == 0 && !clients[u]->complete()) {
          st.source_phase = true;
        }
      } else if (st.source_pushed < source_cap) {
        for (std::size_t i = 0; i < kPushesPerTick; ++i) {
          if (!source.start_transfer(static_cast<session::PeerId>(u), st.id,
                                     source_rng)) {
            break;
          }
          ++st.source_pushed;
        }
      }
    }

    session::PeerId dest = 0;
    while (edge.poll_transmit(dest, frame)) {
      edge_ch[dest]->send(frame.bytes());
    }
    while (source.poll_transmit(dest, frame)) {
      // The edge is on the source→user path: reactive policies absorb
      // the relayed symbols (pre-loss) as they pass through.
      if (!proactive) edge.handle_frame(source_peer, frame.bytes());
      src_ch[dest]->send(frame.bytes());
    }

    for (std::size_t u = 0; u < sc.users; ++u) {
      while (edge_ch[u]->recv(frame)) {
        clients[u]->ingest(false, frame.bytes(), stamp);
      }
      while (src_ch[u]->recv(frame)) {
        clients[u]->ingest(true, frame.bytes(), stamp);
      }
      UserState& st = users[u];
      if (!st.active) continue;
      const bool timed_out = t - st.started >= kRequestTimeout;
      if (clients[u]->complete() || timed_out) {
        const FetchOutcome oc = clients[u]->finish(stamp);
        fold_outcome(out, latency, oc, st.head);
        st.active = false;
        --st.remaining;
        st.idle_until = t + kSimThinkTicks;
      }
    }
  }

  out.replacements = catalog.replacements();
  out.duration_ticks = wall_clock ? clock_us() : t;
  out.edge_bytes = edge.stats().bytes_sent;
  out.backhaul_bytes = source.stats().bytes_sent;
  fold_cache(out, cache);
  finish_run(out, registry, latency_name);
  return out;
}

}  // namespace ltnc::cache
