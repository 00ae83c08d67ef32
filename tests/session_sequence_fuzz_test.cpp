// Endpoint-level sequence fuzzing (ROADMAP follow-on): drive handle_frame
// with mutated frame *sequences* — reordered, duplicated, replayed and
// cross-content interleaved handshakes — rather than mutated frames (the
// wire fuzzer owns byte-level mutation). Invariants under attack:
//
//   - no crash, no sanitizer report (this file runs in the ASan/UBSan CI
//     job like every other test);
//   - no arena-lease leaks: when every endpoint, channel and scratch
//     buffer is destroyed, WordArena live_words returns to its baseline —
//     a replayed handshake must never strand a leased packet buffer;
//   - no state-machine wedge: after the storm, the same endpoints still
//     run clean conversations to full decode.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::session {
namespace {

constexpr std::size_t kK = 8;
constexpr std::size_t kM = 32;

std::unique_ptr<store::ContentStore> make_two_content_store() {
  auto contents = std::make_unique<store::ContentStore>();
  store::ContentConfig plain;
  plain.id = 1;
  plain.k = kK;
  plain.payload_bytes = kM;
  contents->register_content(plain);
  store::ContentConfig second = plain;
  second.id = 2;
  contents->register_content(second);
  return contents;
}

void seed_full(store::Content& content, std::uint64_t seed) {
  for (std::size_t j = 0; j < content.k(); ++j) {
    content.deliver(CodedPacket::native(
        content.k(), j,
        Payload::deterministic(content.payload_bytes(), seed, j)));
  }
}

TEST(SessionSequenceFuzz, CrossContentInterleavedHandshakes) {
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kBinary;
  Endpoint sender(cfg, make_two_content_store());
  Endpoint receiver(cfg, make_two_content_store());
  seed_full(sender.contents().at(0), 100);
  seed_full(sender.contents().at(1), 200);

  Rng rng(3);
  ASSERT_TRUE(sender.start_transfer(0, 1, rng));
  ASSERT_TRUE(sender.start_transfer(0, 2, rng));

  // Two advertises queued — one per content. Deliver them REVERSED.
  wire::Frame adv1;
  wire::Frame adv2;
  PeerId dst = 0;
  ASSERT_TRUE(sender.poll_transmit(dst, adv1));
  ASSERT_TRUE(sender.poll_transmit(dst, adv2));
  ASSERT_FALSE(sender.has_pending_transmit());
  EXPECT_EQ(receiver.handle_frame(0, adv2.bytes()),
            Endpoint::Event::kProceeding);
  EXPECT_EQ(receiver.handle_frame(0, adv1.bytes()),
            Endpoint::Event::kProceeding);

  // Both proceeds, duplicated and reordered: data must go out exactly
  // once per content, duplicates suppressed per (peer, content).
  wire::Frame go1;
  wire::Frame go2;
  ASSERT_TRUE(receiver.poll_transmit(dst, go1));
  ASSERT_TRUE(receiver.poll_transmit(dst, go2));
  EXPECT_EQ(sender.handle_frame(0, go2.bytes()),
            Endpoint::Event::kProceedReceived);
  EXPECT_EQ(sender.handle_frame(0, go2.bytes()), Endpoint::Event::kNone);
  EXPECT_EQ(sender.handle_frame(0, go1.bytes()),
            Endpoint::Event::kProceedReceived);
  EXPECT_EQ(sender.handle_frame(0, go1.bytes()), Endpoint::Event::kNone);
  EXPECT_EQ(sender.stats().data_sent, 2u);
  EXPECT_EQ(sender.stats().duplicates_suppressed, 2u);

  // The two data frames, again swapped across contents; both deliver.
  wire::Frame data1;
  wire::Frame data2;
  ASSERT_TRUE(sender.poll_transmit(dst, data1));
  ASSERT_TRUE(sender.poll_transmit(dst, data2));
  EXPECT_EQ(receiver.handle_frame(0, data2.bytes()),
            Endpoint::Event::kDelivered);
  EXPECT_EQ(receiver.handle_frame(0, data1.bytes()),
            Endpoint::Event::kDelivered);
  EXPECT_EQ(receiver.stats().data_delivered, 2u);
  EXPECT_EQ(receiver.stats().unsolicited_data, 0u);
  EXPECT_EQ(receiver.stats().foreign_frames, 0u);
}

TEST(SessionSequenceFuzz, ReplayStormLeaksNothingAndNeverWedges) {
  const std::uint64_t live_before = WordArena::local().stats().live_words;
  {
    EndpointConfig cfg;
    cfg.feedback = FeedbackMode::kBinary;
    cfg.response_timeout = 2;
    cfg.max_retries = 3;
    cfg.announce_completion = true;
    Endpoint a(cfg, make_two_content_store());
    Endpoint b(cfg, make_two_content_store());
    seed_full(a.contents().at(0), 100);
    seed_full(a.contents().at(1), 200);

    Rng rng(7);
    wire::Frame frame;
    PeerId dst = 0;

    // Phase 1: record every frame of a few legitimate conversation rounds
    // while also delivering it, so the pool spans the whole vocabulary —
    // advertises, aborts, proceeds, data, acks.
    std::vector<std::vector<std::uint8_t>> pool;
    const auto drain = [&](Endpoint& from, Endpoint& to) {
      while (from.poll_transmit(dst, frame)) {
        pool.emplace_back(frame.bytes().begin(), frame.bytes().end());
        to.handle_frame(0, frame.bytes());
      }
    };
    for (int round = 0; round < 30; ++round) {
      while (const store::Content* c = a.next_push(0)) {
        if (!a.start_transfer(0, c->id(), rng)) break;
      }
      bool moved = true;
      while (moved) {
        const std::uint64_t before =
            a.stats().frames_sent + b.stats().frames_sent;
        drain(a, b);
        drain(b, a);
        moved = a.stats().frames_sent + b.stats().frames_sent != before;
      }
    }
    ASSERT_GT(pool.size(), 20u);

    // Phase 2: the storm. Replay pool frames in random order, duplicated,
    // from shifting peer ids, into both endpoints — every sequence a
    // hostile or confused network could produce from real traffic.
    for (int i = 0; i < 20000; ++i) {
      const auto& bytes = pool[rng.uniform(pool.size())];
      Endpoint& victim = rng.chance(0.5) ? a : b;
      const auto peer = static_cast<PeerId>(rng.uniform(4));
      victim.handle_frame(peer, {bytes.data(), bytes.size()});
      if (rng.chance(0.1)) victim.tick(static_cast<Instant>(i));
      // Outbound reactions are popped (and dropped) so the rings cannot
      // grow without bound — the network eating every answer.
      while (victim.poll_transmit(dst, frame)) {
      }
    }

    // Phase 3: no wedge — the same endpoints still converge cleanly.
    Instant now = 1'000'000;
    while (!b.complete() && now < 1'200'000) {
      ++now;
      while (const store::Content* c = a.next_push(0)) {
        if (!a.start_transfer(0, c->id(), rng)) break;
      }
      drain(a, b);
      drain(b, a);
      a.tick(now);
      b.tick(now);
    }
    EXPECT_TRUE(b.complete()) << "endpoint wedged by the replay storm";
    EXPECT_TRUE(b.contents().at(0).finish_and_verify(100));
    EXPECT_TRUE(b.contents().at(1).finish_and_verify(200));
    // Sanity: the storm was absorbed as protocol events, not errors.
    EXPECT_EQ(a.stats().malformed_frames, 0u);
    EXPECT_EQ(b.stats().malformed_frames, 0u);
  }
  // Every endpoint, frame and pool buffer is gone: the arena must hold no
  // stranded leases (frame buffers, per-convo packets, decode scratch).
  EXPECT_EQ(WordArena::local().stats().live_words, live_before);
}

}  // namespace
}  // namespace ltnc::session
