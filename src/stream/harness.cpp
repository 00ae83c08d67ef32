#include "stream/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dissemination/timer_wheel.hpp"
#include "net/udp_pipe.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "stream/receiver.hpp"
#include "telemetry/telemetry.hpp"
#include "wire/frame.hpp"

namespace ltnc::stream {
namespace {

// Metric names shared by both drivers (and live_stream's --prom
// exposition); the latency histogram carries its tick unit in the name.
constexpr const char* kCompletedName = "ltnc_stream_blocks_completed_total";
constexpr const char* kMissName = "ltnc_stream_deadline_misses_total";
constexpr const char* kGoodputName = "ltnc_stream_goodput_bytes_total";

/// Push attempts per destination per tick: enough to spend a full
/// (slack-boosted) block budget within one block cadence, so the source
/// keeps pace with emission even while older blocks still want symbols.
std::size_t derive_pushes(const StreamConfig& stream) {
  double budget = static_cast<double>(redundancy_budget(
      stream.k(), stream.base_overhead, stream.loss_estimate));
  if (stream.slack_boost_ticks > 0) budget *= 1.0 + kSlackBoost;
  const auto per_tick = static_cast<std::size_t>(
      std::ceil(budget / static_cast<double>(stream.ticks_per_block)));
  return per_tick + 1;
}

/// The end of a run: its totals go to the registry once (the receivers'
/// ReceiverStats, folded into `out`, are their one home), and the latency
/// quantiles come back from it.
void finish_run(StreamRunStats& out, telemetry::Registry& registry,
                const char* latency_name) {
  registry.counter(kCompletedName).add(out.completed);
  registry.counter(kMissName).add(out.missed);
  registry.counter(kGoodputName).add(out.goodput_bytes);
  const telemetry::Snapshot snap = registry.snapshot();
  if (const auto* h = snap.find_histogram(latency_name)) {
    out.latency_samples = h->count();
    out.latency_p50 = h->quantile(0.50);
    out.latency_p99 = h->quantile(0.99);
    out.latency_p999 = h->quantile(0.999);
  }
}

void fold_receiver(StreamRunStats& out, const Receiver& rx) {
  const ReceiverStats& s = rx.stream_stats();
  out.completed += s.blocks_completed;
  out.missed += s.deadline_misses;
  out.verify_failures += s.verify_failures;
  out.goodput_bytes += s.goodput_bytes;
  out.expired_frames += rx.endpoint().stats().expired_frames;
  out.every_receiver_decoded =
      out.every_receiver_decoded && s.blocks_completed > 0;
}

}  // namespace

StreamRunStats run_sim_stream(const SimStreamConfig& config) {
  LTNC_CHECK_MSG(config.stream.total_blocks > 0,
                 "sim stream needs a bounded block count");
  LTNC_CHECK_MSG(config.receivers > 0, "sim stream needs receivers");
  const bool wall_clock = config.link == net::Link::kUdp;
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      config.registry != nullptr ? *config.registry : local_registry;
  const char* latency_name = wall_clock ? "ltnc_stream_block_latency_us"
                                        : "ltnc_stream_block_latency_ticks";
  telemetry::Histogram& latency = registry.histogram(latency_name);

  session::EndpointConfig net_cfg;
  net_cfg.feedback = session::FeedbackMode::kNone;
  session::Endpoint source(net_cfg, std::make_unique<store::ContentStore>());
  telemetry::SessionInstruments source_instruments;
  source_instruments.recorder = config.recorder;
  if (config.recorder != nullptr) source.set_telemetry(&source_instruments);

  StreamConfig stream = config.stream;
  stream.fanout = config.receivers;  // unicast: one budget per receiver
  if (config.adaptive_budget) stream.loss_estimate = config.channel.loss_rate;
  StreamSource src(stream, source);

  std::vector<std::unique_ptr<net::Transport>> links;
  std::vector<std::unique_ptr<Receiver>> fleet;
  links.reserve(config.receivers);
  fleet.reserve(config.receivers);
  for (std::size_t r = 0; r < config.receivers; ++r) {
    net::SimChannelConfig ch = config.channel;
    ch.seed = config.channel.seed + 0x9e3779b97f4a7c15ULL * (r + 1);
    links.push_back(net::open_link(config.link, ch));
    fleet.push_back(std::make_unique<Receiver>(stream, net_cfg, &latency));
  }
  src.set_on_emit([&fleet](std::uint64_t seq, Instant birth) {
    for (auto& rx : fleet) rx->open_block(seq, birth);
  });

  const std::size_t pushes = derive_pushes(stream);
  Rng rng(config.seed);
  wire::Frame frame;
  const auto t0 = std::chrono::steady_clock::now();
  const auto clock_us = [&t0]() -> Instant {
    return static_cast<Instant>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  // Everything must resolve by the last deadline plus channel drain; a
  // run that blows well past it is a harness bug, not a slow channel.
  // The wall clock adds two seconds for a stalled host.
  const Instant horizon = src.birth_of(stream.total_blocks) +
                          stream.deadline_ticks +
                          4 * stream.ticks_per_block +
                          (wall_clock ? 2'000'000 : 64);
  Instant t = 0;
  for (;; t = wall_clock ? clock_us() : t + 1) {
    LTNC_CHECK_MSG(t <= horizon, "sim stream failed to converge");
    source.tick(t);
    src.advance(t);
    bool exhausted = false;
    for (std::size_t i = 0; i < pushes && !exhausted; ++i) {
      for (std::size_t r = 0; r < fleet.size(); ++r) {
        if (!src.push_symbol(static_cast<session::PeerId>(r), rng)) {
          exhausted = true;
          break;
        }
      }
    }
    session::PeerId dest = 0;
    while (source.poll_transmit(dest, frame)) {
      links[dest]->send(frame.bytes());
    }
    for (std::size_t r = 0; r < fleet.size(); ++r) {
      while (links[r]->recv(frame)) {
        fleet[r]->ingest(0, frame.bytes(), t);
      }
      fleet[r]->finalize_due(t);
    }
    if (src.done() &&
        std::all_of(fleet.begin(), fleet.end(),
                    [](const auto& rx) { return rx->all_finalized(); })) {
      break;
    }
    if (wall_clock && exhausted && !src.done()) {
      std::this_thread::sleep_until(
          t0 + std::chrono::microseconds(src.next_change()));
    }
  }

  StreamRunStats out;
  out.receivers = config.receivers;
  out.blocks = src.blocks_emitted();
  out.source_frames = source.stats().frames_sent;
  for (const auto& link : links) {
    if (const auto* pipe = dynamic_cast<const net::UdpPipe*>(link.get())) {
      out.link_tx += pipe->sender_stats();
    }
  }
  out.duration_ticks = t;
  out.every_receiver_decoded = true;
  for (const auto& rx : fleet) fold_receiver(out, *rx);
  finish_run(out, registry, latency_name);
  return out;
}

StreamRunStats run_event_stream(const EventStreamConfig& config) {
  LTNC_CHECK_MSG(config.stream.total_blocks > 0,
                 "event stream needs a bounded block count");
  LTNC_CHECK_MSG(config.receivers > 0, "event stream needs receivers");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      config.registry != nullptr ? *config.registry : local_registry;
  constexpr const char* kLatency = "ltnc_stream_block_latency_ticks";
  telemetry::Histogram& latency = registry.histogram(kLatency);

  session::EndpointConfig net_cfg;
  net_cfg.feedback = session::FeedbackMode::kNone;
  session::Endpoint source(net_cfg, std::make_unique<store::ContentStore>());

  // Broadcast: every receiver hears every surviving symbol, so the block
  // budget is a single fleet-wide allowance, not per receiver.
  StreamConfig stream = config.stream;
  stream.fanout = 1;
  stream.loss_estimate = std::max(stream.loss_estimate, config.loss_rate);
  StreamSource src(stream, source);

  std::vector<std::unique_ptr<Receiver>> fleet;
  fleet.reserve(config.receivers);
  for (std::size_t r = 0; r < config.receivers; ++r) {
    fleet.push_back(std::make_unique<Receiver>(stream, net_cfg, &latency));
  }
  src.set_on_emit([&fleet](std::uint64_t seq, Instant birth) {
    for (auto& rx : fleet) rx->open_block(seq, birth);
  });

  struct Ev {
    enum Kind : std::uint8_t { kPush, kDeadline };
    Kind kind = kPush;
    std::uint64_t seq = 0;
  };
  dissem::TimerWheel<Ev> wheel;
  const std::size_t pushes = derive_pushes(stream);
  Rng push_rng(config.seed);
  Rng loss_rng(config.seed ^ 0xda3e39cb94b95bdbULL);
  wire::Frame frame;
  std::uint64_t deadlines_scheduled = 0;

  wheel.schedule(0, Ev{Ev::kPush, 0});
  while (auto ev = wheel.pop_next()) {
    const Instant now = wheel.now();
    if (ev->kind == Ev::kDeadline) {
      for (auto& rx : fleet) rx->finalize_block(ev->seq, now);
      continue;
    }
    src.advance(now);
    // One deadline event per emitted block, scheduled as emission catches
    // up (advance may emit several blocks on a slow push cadence).
    while (deadlines_scheduled < src.blocks_emitted()) {
      const std::uint64_t seq = deadlines_scheduled++;
      wheel.schedule(src.birth_of(seq) + stream.deadline_ticks + 1,
                     Ev{Ev::kDeadline, seq});
    }
    for (std::size_t i = 0; i < pushes; ++i) {
      if (!src.push_symbol(0, push_rng)) break;
    }
    session::PeerId dest = 0;
    while (source.poll_transmit(dest, frame)) {
      for (auto& rx : fleet) {
        if (loss_rng.chance(config.loss_rate)) continue;
        rx->ingest(0, frame.bytes(), now);
      }
    }
    if (!src.done()) wheel.schedule(now + 1, Ev{Ev::kPush, 0});
  }

  StreamRunStats out;
  out.receivers = config.receivers;
  out.blocks = src.blocks_emitted();
  out.source_frames = source.stats().frames_sent;
  out.duration_ticks = wheel.now();
  out.every_receiver_decoded = true;
  for (const auto& rx : fleet) fold_receiver(out, *rx);
  finish_run(out, registry, kLatency);
  return out;
}

}  // namespace ltnc::stream
