// The streaming subsystem end to end: sliding-window block lifecycle,
// the ContentStore expire path through the session layer, deadline-scored
// receivers, and the sim/event harnesses.
//
// Acceptance anchors living here:
//   * expired-block frames land in SessionStats::expired_frames and
//     nowhere else — never foreign, never double-counted;
//   * expiring a content cancels its in-flight conversations;
//   * expiry churn is arena-allocation-free at steady state (the lease
//     balance / fresh_blocks plateau test);
//   * a zero-loss stream completes every block on every receiver, heavy
//     loss misses deadlines instead of stalling.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/bitvector.hpp"

#include "common/arena.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "session/endpoint.hpp"
#include "session/protocols.hpp"
#include "store/content_store.hpp"
#include "stream/harness.hpp"
#include "stream/receiver.hpp"
#include "stream/stream_source.hpp"
#include "telemetry/metrics.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::stream {
namespace {

using session::Endpoint;
using session::EndpointConfig;
using session::FeedbackMode;

EndpointConfig push_config() {
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kNone;
  return cfg;
}

store::ContentConfig sink_config(ContentId id, std::size_t k,
                                 std::size_t m) {
  store::ContentConfig cfg;
  cfg.id = id;
  cfg.k = k;
  cfg.payload_bytes = m;
  return cfg;
}

// --- ContentStore remove (the storage half of expiry) ----------------------

TEST(ContentStoreRemove, ErasesAndShiftsLaterContents) {
  store::ContentStore store;
  for (ContentId id = 1; id <= 3; ++id) {
    store.register_content(sink_config(id, 4, 16));
  }
  ASSERT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.remove(2));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(2), nullptr);
  ASSERT_NE(store.find(1), nullptr);
  ASSERT_NE(store.find(3), nullptr);
  // Later contents shifted down one index, order preserved.
  EXPECT_EQ(store.at(0).id(), 1u);
  EXPECT_EQ(store.at(1).id(), 3u);
  EXPECT_FALSE(store.remove(2));  // already gone
  EXPECT_FALSE(store.remove(99));
}

// --- StreamSource lifecycle ------------------------------------------------

TEST(StreamSource, EmitsOnCadenceAndExpiresOnDeadline) {
  Endpoint ep(push_config(), std::make_unique<store::ContentStore>());
  StreamConfig cfg;
  cfg.block_bytes = 64;
  cfg.symbol_bytes = 16;  // k = 4
  cfg.ticks_per_block = 4;
  cfg.deadline_ticks = 8;
  cfg.window = 8;
  cfg.total_blocks = 3;
  StreamSource src(cfg, ep);
  std::vector<std::uint64_t> emitted;
  src.set_on_emit([&](std::uint64_t seq, Instant birth) {
    emitted.push_back(seq);
    EXPECT_EQ(birth, seq * cfg.ticks_per_block);
  });

  src.advance(0);
  EXPECT_EQ(src.blocks_emitted(), 1u);
  EXPECT_NE(ep.contents().find(StreamSource::id_of(0)), nullptr);
  EXPECT_TRUE(src.policy().tracked(StreamSource::id_of(0)));

  src.advance(4);  // block 1 born
  src.advance(8);  // block 2 born; block 0's deadline is tick 8 (inclusive)
  EXPECT_EQ(src.blocks_emitted(), 3u);
  EXPECT_EQ(src.live_blocks(), 3u);

  src.advance(9);  // block 0 expires
  EXPECT_EQ(src.blocks_retired(), 1u);
  EXPECT_EQ(ep.contents().find(StreamSource::id_of(0)), nullptr);
  EXPECT_FALSE(src.policy().tracked(StreamSource::id_of(0)));
  EXPECT_EQ(ep.stats().contents_expired, 1u);

  src.advance(100);  // everything past deadline
  EXPECT_TRUE(src.done());
  EXPECT_EQ(src.blocks_retired(), 3u);
  EXPECT_EQ(ep.contents().size(), 0u);
  EXPECT_EQ(src.policy().tracked_count(), 0u);
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(StreamSource, WindowCapForceRetiresTheOldest) {
  Endpoint ep(push_config(), std::make_unique<store::ContentStore>());
  StreamConfig cfg;
  cfg.block_bytes = 64;
  cfg.symbol_bytes = 16;
  cfg.ticks_per_block = 1;
  cfg.deadline_ticks = 100;  // deadlines never bind; only the window does
  cfg.window = 2;
  cfg.total_blocks = 5;
  StreamSource src(cfg, ep);
  src.advance(4);  // births 0..4 all due at once
  EXPECT_EQ(src.blocks_emitted(), 5u);
  EXPECT_EQ(src.live_blocks(), 2u);
  EXPECT_EQ(src.blocks_retired(), 3u);
  EXPECT_EQ(ep.contents().size(), 2u);
}

TEST(StreamSource, PushChargesTheBudget) {
  Endpoint ep(push_config(), std::make_unique<store::ContentStore>());
  StreamConfig cfg;
  cfg.block_bytes = 64;
  cfg.symbol_bytes = 16;
  cfg.ticks_per_block = 4;
  cfg.deadline_ticks = 16;
  cfg.total_blocks = 1;
  cfg.base_overhead = 0.5;  // budget = ceil(4 * 1.5) = 6 symbols
  StreamSource src(cfg, ep);
  src.advance(0);
  const ContentId id = StreamSource::id_of(0);
  EXPECT_EQ(src.policy().budget_left(id), 6u);
  Rng rng(1);
  std::size_t pushed = 0;
  while (src.push_symbol(0, rng)) ++pushed;
  EXPECT_EQ(pushed, 6u);
  EXPECT_EQ(src.policy().budget_left(id), 0u);
  // Every charged push became a queued data frame.
  session::PeerId dst = 0;
  wire::Frame frame;
  std::size_t queued = 0;
  while (ep.poll_transmit(dst, frame)) ++queued;
  EXPECT_EQ(queued, 6u);
}

TEST(StreamSource, NextChangeIsTheNextBirthExpiryOrBoost) {
  Endpoint ep(push_config(), std::make_unique<store::ContentStore>());
  StreamConfig cfg;
  cfg.block_bytes = 64;
  cfg.symbol_bytes = 16;
  cfg.ticks_per_block = 8;
  cfg.deadline_ticks = 20;
  cfg.slack_boost_ticks = 4;  // boost from deadline − 3 on
  cfg.total_blocks = 3;
  StreamSource src(cfg, ep);
  src.advance(0);
  EXPECT_EQ(src.next_change(), 8u);  // block 1's birth
  src.advance(16);
  EXPECT_EQ(src.next_change(), 17u);  // block 0's boost, no births left
  src.advance(17);
  EXPECT_EQ(src.next_change(), 21u);  // block 0's expiry
  src.advance(21);
  EXPECT_EQ(src.next_change(), 25u);  // block 1's boost
  src.advance(100);
  EXPECT_TRUE(src.done());
}

// --- expired-frame accounting ----------------------------------------------

TEST(StreamExpiry, LateFramesCountAsExpiredExactlyOnce) {
  Endpoint ep(push_config(), std::make_unique<store::ContentStore>());
  ep.contents().register_content(
      sink_config(5, 4, 16), std::make_unique<session::LtSinkProtocol>(4, 16));
  ASSERT_TRUE(ep.expire_content(5));
  EXPECT_EQ(ep.stats().contents_expired, 1u);

  wire::Frame frame;
  wire::serialize(ContentId{5},
                  CodedPacket::native(4, 0, Payload::deterministic(16, 3, 0)),
                  frame);
  // Twice: each late frame counts once in expired_frames and nowhere else.
  EXPECT_EQ(ep.handle_frame(0, frame.bytes()), Endpoint::Event::kExpired);
  EXPECT_EQ(ep.handle_frame(0, frame.bytes()), Endpoint::Event::kExpired);
  const session::SessionStats& s = ep.stats();
  EXPECT_EQ(s.expired_frames, 2u);
  EXPECT_EQ(s.foreign_frames, 0u);
  EXPECT_EQ(s.malformed_frames, 0u);
  EXPECT_EQ(s.data_delivered, 0u);
  EXPECT_EQ(s.duplicates_suppressed, 0u);
  EXPECT_EQ(s.frames_received, 2u);

  // A genuinely unknown id is still foreign — the ring only whitelists
  // what actually lived here.
  wire::serialize(ContentId{77},
                  CodedPacket::native(4, 0, Payload::deterministic(16, 3, 0)),
                  frame);
  ep.handle_frame(0, frame.bytes());
  EXPECT_EQ(ep.stats().foreign_frames, 1u);
  EXPECT_EQ(ep.stats().expired_frames, 2u);

  // Re-registering an id that sits in the expired ring revives it.
  ep.contents().register_content(
      sink_config(5, 4, 16), std::make_unique<session::LtSinkProtocol>(4, 16));
  wire::serialize(ContentId{5},
                  CodedPacket::native(4, 1, Payload::deterministic(16, 3, 1)),
                  frame);
  EXPECT_EQ(ep.handle_frame(0, frame.bytes()), Endpoint::Event::kDelivered);
  EXPECT_EQ(ep.stats().expired_frames, 2u);
}

TEST(StreamExpiry, ExpiredFeedbackAndAdvertiseCountOnce) {
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kBinary;
  Endpoint ep(cfg, std::make_unique<store::ContentStore>());
  ep.contents().register_content(
      sink_config(9, 4, 16), std::make_unique<session::LtSinkProtocol>(4, 16));
  ASSERT_TRUE(ep.expire_content(9));

  wire::Frame frame;
  wire::serialize_feedback(ContentId{9}, wire::MessageType::kProceed, 0,
                           frame);
  EXPECT_EQ(ep.handle_frame(0, frame.bytes()), Endpoint::Event::kExpired);
  BitVector coeffs(4);
  coeffs.set(0);
  wire::AdvertiseInfo info;
  info.content = 9;
  info.payload_bytes = 16;
  wire::serialize_advertise(info, coeffs, frame);
  EXPECT_EQ(ep.handle_frame(0, frame.bytes()), Endpoint::Event::kExpired);
  EXPECT_EQ(ep.stats().expired_frames, 2u);
  EXPECT_EQ(ep.stats().foreign_frames, 0u);
}

TEST(StreamExpiry, ExpireCancelsInFlightConversation) {
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kBinary;
  Endpoint sender(cfg, std::make_unique<store::ContentStore>());
  sender.contents().register_content(
      sink_config(3, 4, 16),
      std::make_unique<LtSourceProtocol>(4, 16, 42));
  Rng rng(1);
  ASSERT_TRUE(sender.start_transfer(0, 3, rng));  // advertise in flight

  // Drain the advertise so the tx queue holds nothing for content 3.
  session::PeerId dst = 0;
  wire::Frame frame;
  ASSERT_TRUE(sender.poll_transmit(dst, frame));
  EXPECT_EQ(sender.stats().advertises_sent, 1u);

  ASSERT_TRUE(sender.expire_content(3));
  EXPECT_EQ(sender.stats().transfers_abandoned, 1u);
  EXPECT_EQ(sender.stats().contents_expired, 1u);

  // The receiver's proceed arrives late: consumed as expired, no data out.
  wire::serialize_feedback(ContentId{3}, wire::MessageType::kProceed, 0,
                           frame);
  EXPECT_EQ(sender.handle_frame(0, frame.bytes()), Endpoint::Event::kExpired);
  EXPECT_EQ(sender.stats().data_sent, 0u);
  EXPECT_FALSE(sender.poll_transmit(dst, frame));
  EXPECT_EQ(sender.stats().expired_frames, 1u);
}

TEST(StreamExpiry, ExpireUnknownContentIsFalse) {
  Endpoint ep(push_config(), std::make_unique<store::ContentStore>());
  EXPECT_FALSE(ep.expire_content(12));
  EXPECT_EQ(ep.stats().contents_expired, 0u);
}

// --- expiry churn is arena-allocation-free at steady state -----------------

TEST(StreamExpiry, ChurnHoldsArenaLeaseBalance) {
  const WordArena::Stats before = WordArena::local().stats();
  std::uint64_t fresh_after_warmup = 0;
  {
    Endpoint ep(push_config(), std::make_unique<store::ContentStore>());
    StreamConfig cfg;
    cfg.block_bytes = 128;
    cfg.symbol_bytes = 32;  // k = 4
    cfg.ticks_per_block = 1;
    cfg.deadline_ticks = 4;
    cfg.window = 4;
    cfg.total_blocks = 400;
    cfg.base_overhead = 1.0;
    StreamSource src(cfg, ep);
    Rng rng(7);
    wire::Frame frame;
    session::PeerId dst = 0;
    for (Instant t = 0; !src.done(); ++t) {
      ep.tick(t);
      src.advance(t);
      for (int i = 0; i < 4; ++i) {
        if (!src.push_symbol(0, rng)) break;
      }
      while (ep.poll_transmit(dst, frame)) {
      }
      if (t == 100) {
        fresh_after_warmup = WordArena::local().stats().fresh_blocks;
      }
    }
    // Steady state: hundreds of blocks churned through registration,
    // encoding and expiry after warmup without one fresh arena block.
    EXPECT_GT(fresh_after_warmup, 0u);
    EXPECT_EQ(WordArena::local().stats().fresh_blocks, fresh_after_warmup);
    EXPECT_EQ(src.blocks_retired(), 400u);
    EXPECT_EQ(ep.stats().contents_expired, 400u);
  }
  const WordArena::Stats after = WordArena::local().stats();
  EXPECT_EQ(after.leases - before.leases, after.releases - before.releases);
  EXPECT_EQ(after.live_words, before.live_words);
}

// --- receiver + harness end to end -----------------------------------------

TEST(StreamReceiver, WrongSeedFailsEachBlockOnce) {
  StreamConfig cfg;
  cfg.block_bytes = 512;
  cfg.symbol_bytes = 32;  // k = 16
  cfg.ticks_per_block = 8;
  cfg.deadline_ticks = 32;
  cfg.total_blocks = 4;
  cfg.base_overhead = 3.0;  // decodes, then keeps sending symbols
  Endpoint source(push_config(), std::make_unique<store::ContentStore>());
  StreamSource src(cfg, source);
  StreamConfig wrong = cfg;
  wrong.seed = cfg.seed + 1000;
  Receiver rx(wrong, push_config());
  src.set_on_emit(
      [&rx](std::uint64_t seq, Instant birth) { rx.open_block(seq, birth); });

  Rng rng(3);
  wire::Frame frame;
  session::PeerId dst = 0;
  for (Instant t = 0; !(src.done() && rx.all_finalized()); ++t) {
    ASSERT_LT(t, 1000u);
    source.tick(t);
    src.advance(t);
    for (int i = 0; i < 8 && src.push_symbol(0, rng); ++i) {
    }
    while (source.poll_transmit(dst, frame)) rx.ingest(0, frame.bytes(), t);
    rx.finalize_due(t);
  }
  // Every block decodes to bytes the wrong seed rejects: one failure and
  // one miss per block, however many symbols arrive after the decode.
  const ReceiverStats& s = rx.stream_stats();
  EXPECT_EQ(s.blocks_completed, 0u);
  EXPECT_EQ(s.verify_failures, cfg.total_blocks);
  EXPECT_EQ(s.deadline_misses, cfg.total_blocks);
}

TEST(StreamHarness, ZeroLossStreamCompletesEveryBlockEverywhere) {
  SimStreamConfig cfg;
  cfg.stream.block_bytes = 1024;
  cfg.stream.symbol_bytes = 32;  // k = 32
  cfg.stream.ticks_per_block = 8;
  cfg.stream.deadline_ticks = 32;
  cfg.stream.total_blocks = 8;
  cfg.stream.base_overhead = 1.9;
  cfg.receivers = 2;
  const StreamRunStats r = run_sim_stream(cfg);
  EXPECT_EQ(r.blocks, 8u);
  EXPECT_EQ(r.missed, 0u);
  EXPECT_EQ(r.completed, 16u);  // 8 blocks x 2 receivers
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_TRUE(r.every_receiver_decoded);
  EXPECT_EQ(r.latency_samples, 16u);
  EXPECT_GT(r.latency_p50, 0.0);
  EXPECT_LE(r.latency_p50, r.latency_p99);
  EXPECT_LE(r.latency_p99, r.latency_p999);
  EXPECT_EQ(r.goodput_bytes, 16u * 1024u);
}

TEST(StreamHarness, HeavyLossMissesDeadlinesInsteadOfStalling) {
  SimStreamConfig cfg;
  cfg.stream.block_bytes = 1024;
  cfg.stream.symbol_bytes = 32;
  cfg.stream.ticks_per_block = 8;
  cfg.stream.deadline_ticks = 32;
  cfg.stream.total_blocks = 8;
  cfg.stream.base_overhead = 1.9;
  cfg.channel.loss_rate = 0.9;
  cfg.receivers = 2;
  const StreamRunStats r = run_sim_stream(cfg);  // converges regardless
  EXPECT_GT(r.missed, 0u);
  EXPECT_GT(r.miss_rate(), 0.5);
  EXPECT_EQ(r.completed + r.missed, 16u);
}

TEST(StreamHarness, ReorderAndDuplicationDoNotBreakAccounting) {
  SimStreamConfig cfg;
  cfg.stream.block_bytes = 512;
  cfg.stream.symbol_bytes = 32;  // k = 16
  cfg.stream.ticks_per_block = 8;
  cfg.stream.deadline_ticks = 32;
  cfg.stream.total_blocks = 6;
  cfg.stream.base_overhead = 2.9;
  cfg.channel.loss_rate = 0.1;
  cfg.channel.duplicate_rate = 0.2;
  cfg.channel.reorder_rate = 0.2;
  cfg.receivers = 2;
  const StreamRunStats r = run_sim_stream(cfg);
  EXPECT_EQ(r.completed + r.missed, 12u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(StreamHarness, RegistryCountersEqualRunStats) {
  // The run writes its block totals to its registry once, when it ends:
  // each ltnc_stream_* counter equals its StreamRunStats field.
  telemetry::Registry registry;
  SimStreamConfig cfg;
  cfg.stream.block_bytes = 1024;
  cfg.stream.symbol_bytes = 32;
  cfg.stream.ticks_per_block = 8;
  cfg.stream.deadline_ticks = 32;
  cfg.stream.total_blocks = 8;
  cfg.stream.base_overhead = 1.9;
  cfg.channel.loss_rate = 0.4;
  cfg.receivers = 2;
  cfg.registry = &registry;
  const StreamRunStats r = run_sim_stream(cfg);
  EXPECT_EQ(r.completed + r.missed, 16u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.missed, 0u);
  const telemetry::Snapshot snap = registry.snapshot();
  const auto read = [&snap](std::string_view name) {
    const auto* c = snap.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  EXPECT_EQ(read("ltnc_stream_blocks_completed_total"), r.completed);
  EXPECT_EQ(read("ltnc_stream_deadline_misses_total"), r.missed);
  EXPECT_EQ(read("ltnc_stream_goodput_bytes_total"), r.goodput_bytes);
  EXPECT_EQ(snap.find_histogram("ltnc_stream_block_latency_ticks")->count(),
            r.completed);
}

TEST(StreamHarness, EventEngineStreamsToAFleet) {
  EventStreamConfig cfg;
  cfg.stream.block_bytes = 256;
  cfg.stream.symbol_bytes = 32;  // k = 8
  cfg.stream.ticks_per_block = 8;
  cfg.stream.deadline_ticks = 32;
  cfg.stream.window = 4;
  cfg.stream.total_blocks = 6;
  cfg.stream.base_overhead = 3.0;
  cfg.receivers = 50;
  cfg.loss_rate = 0.05;
  const StreamRunStats r = run_event_stream(cfg);
  EXPECT_EQ(r.completed + r.missed, 6u * 50u);
  EXPECT_TRUE(r.every_receiver_decoded);
  EXPECT_LT(r.miss_rate(), 0.2);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(StreamHarness, UdpLoopbackStreamDecodes) {
  SimStreamConfig cfg;
  cfg.stream.block_bytes = 1024;
  cfg.stream.symbol_bytes = 32;
  // Wall-clock deadlines: generous enough that even a sanitizer-
  // instrumented build (~10× slower) decodes in time — the tight
  // deadline sweeps live in bench/stream_latency, not here.
  cfg.stream.ticks_per_block = 25'000;  // 40 blocks/s
  cfg.stream.deadline_ticks = 500'000;  // 500 ms
  cfg.stream.total_blocks = 6;
  cfg.stream.base_overhead = 1.9;
  cfg.channel.loss_rate = 0.1;
  cfg.channel.reorder_rate = 0.1;
  cfg.receivers = 2;
  cfg.link = net::Link::kUdp;
  const StreamRunStats r = run_sim_stream(cfg);
  EXPECT_TRUE(r.every_receiver_decoded);
  EXPECT_EQ(r.completed + r.missed, 12u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_GT(r.latency_samples, 0u);
}

}  // namespace
}  // namespace ltnc::stream
