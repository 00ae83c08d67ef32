// ShardedEndpoint end-to-end over the rings (no sockets): a sharded
// receiver fleet decodes many contents pushed by the I/O thread, the
// completion acks flow back out through the outbound rings, and the whole
// exchange balances its arena leases across every participating thread.
#include "session/sharded.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "session/protocols.hpp"
#include "store/content_store.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::session {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kK = 4;
constexpr std::size_t kM = 32;

/// Receiver-side shard application: every shard registers a sink for
/// every content (a conversation can hash to any shard), completion acks
/// enabled, nothing to pump — a pure downloader.
class SinkApp final : public ShardApp {
 public:
  explicit SinkApp(std::size_t num_contents) : num_contents_(num_contents) {}

  std::unique_ptr<Endpoint> make_endpoint(std::uint32_t /*shard*/) override {
    auto contents = std::make_unique<store::ContentStore>();
    for (std::size_t i = 0; i < num_contents_; ++i) {
      store::ContentConfig cfg;
      cfg.id = static_cast<ContentId>(i + 1);
      cfg.k = kK;
      cfg.payload_bytes = kM;
      contents->register_content(cfg,
                                 std::make_unique<LtSinkProtocol>(kK, kM));
    }
    EndpointConfig cfg;
    cfg.feedback = FeedbackMode::kNone;  // data frames apply directly
    cfg.announce_completion = true;      // kAck back to the data sender
    return std::make_unique<Endpoint>(cfg, std::move(contents));
  }

  bool pump(std::uint32_t /*shard*/, Endpoint& /*endpoint*/) override {
    return false;
  }

 private:
  std::size_t num_contents_;
};

TEST(ShardedEndpoint, DecodesAcrossShardsAndAcksFlowBack) {
  // 16 peers, each pushing its own content (id = peer + 1) as k native
  // packets. The shard hash spreads the 16 conversations over 4 shards;
  // each completion queues a kAck addressed to the pushing peer, which
  // the I/O thread (us) collects off the outbound rings.
  constexpr std::uint32_t kPeers = 16;

  const WordArena::Stats main_before = WordArena::local().stats();
  std::int64_t shard_leases = 0;
  std::int64_t shard_releases = 0;
  std::int64_t shard_live = 0;
  {
    SinkApp app(kPeers);
    ShardedConfig cfg;
    cfg.num_shards = 4;  // each 512-frame ring » total frames: no drops
    ShardedEndpoint sharded(cfg, app);

    wire::Frame frame;
    for (PeerId peer = 0; peer < kPeers; ++peer) {
      const ContentId content = static_cast<ContentId>(peer + 1);
      for (std::size_t i = 0; i < kK; ++i) {
        wire::serialize(content,
                        CodedPacket::native(
                            kK, i,
                            Payload::deterministic(kM, 7 + content, i)),
                        frame);
        ASSERT_TRUE(sharded.route_frame(peer, frame));
      }
    }

    // Collect acks: one distinct (destination peer, content) pair per
    // conversation. Re-announcements may duplicate an ack; dedup.
    std::vector<bool> acked(kPeers, false);
    std::uint32_t distinct = 0;
    wire::Frame ack;
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (distinct < kPeers) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "acks stalled: " << distinct << "/" << kPeers << " after "
          << sharded.frames_processed() << " frames processed";
      bool got = false;
      for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
        PeerId dst = 0;
        while (sharded.poll_transmit(s, dst, ack)) {
          got = true;
          wire::MessageType type{};
          std::uint64_t token = 0;
          ContentId content = 0;
          ASSERT_EQ(wire::deserialize_feedback(ack.bytes(), type, token,
                                               content),
                    wire::DecodeStatus::kOk);
          EXPECT_EQ(type, wire::MessageType::kAck);
          ASSERT_LT(dst, kPeers);
          // The ack goes to the peer that pushed the content, and names
          // that peer's content — conversation affinity held end to end.
          EXPECT_EQ(content, static_cast<ContentId>(dst + 1));
          // The token is the shard's cumulative delivered count at
          // completion time — at least this conversation's k frames.
          EXPECT_GE(token, kK);
          if (!acked[dst]) {
            acked[dst] = true;
            ++distinct;
          }
        }
      }
      if (!got) std::this_thread::yield();
    }

    sharded.stop();
    EXPECT_FALSE(sharded.running());
    sharded.stop();  // idempotent

    EXPECT_EQ(sharded.inbound_drops(), 0u);
    EXPECT_EQ(sharded.frames_processed(), kPeers * kK);

    const SessionStats total = sharded.aggregate_stats();
    EXPECT_EQ(total.data_delivered, kPeers * kK);
    EXPECT_EQ(total.frames_received, kPeers * kK);
    EXPECT_EQ(total.malformed_frames, 0u);
    EXPECT_EQ(total.foreign_frames, 0u);
    EXPECT_GE(total.completions_sent, static_cast<std::uint64_t>(kPeers));

    std::uint64_t frames_in = 0;
    bool some_shard_idle = false;
    for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
      const auto& report = sharded.report(s);
      frames_in += report.frames_in;
      some_shard_idle = some_shard_idle || report.frames_in == 0;
      shard_leases += static_cast<std::int64_t>(report.arena.leases);
      shard_releases += static_cast<std::int64_t>(report.arena.releases);
      shard_live += static_cast<std::int64_t>(report.arena.live_words);
    }
    EXPECT_EQ(frames_in, kPeers * kK);
    // 16 conversations over 4 shards: the hash should not starve — or
    // pile everything onto — one shard badly enough to idle another.
    EXPECT_FALSE(some_shard_idle)
        << "a shard processed nothing; shard_of is likely skewed";
  }  // rings die here, releasing in-slot spares into the main arena

  // Lease balance holds only summed across the fleet: ring frames moved
  // between the I/O thread's arena and the shard arenas by ownership
  // transfer, so per-thread tallies individually skew (and wrap).
  const WordArena::Stats main_after = WordArena::local().stats();
  const std::int64_t total_leases =
      shard_leases +
      static_cast<std::int64_t>(main_after.leases - main_before.leases);
  const std::int64_t total_releases =
      shard_releases +
      static_cast<std::int64_t>(main_after.releases - main_before.releases);
  const std::int64_t total_live =
      shard_live +
      static_cast<std::int64_t>(main_after.live_words -
                                main_before.live_words);
  EXPECT_EQ(total_leases, total_releases);
  EXPECT_EQ(total_live, 0) << "frame storage escaped the fleet";
}

TEST(ShardedEndpoint, UnpeekableFrameRoutesByPeerAndCountsMalformed) {
  // A frame too mangled to peek still reaches *a* shard deterministically
  // (routed by peer alone) so the owning endpoint's hardened decode — not
  // the I/O thread — classifies it.
  SinkApp app(1);
  ShardedConfig cfg;
  cfg.num_shards = 2;
  ShardedEndpoint sharded(cfg, app);

  wire::Frame junk;
  junk.resize(3);
  junk.mutable_bytes()[0] = 0xFF;  // no such protocol version
  junk.mutable_bytes()[1] = 0xFF;
  junk.mutable_bytes()[2] = 0xFF;
  ASSERT_TRUE(sharded.route_frame(5, junk));

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (sharded.frames_processed() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  sharded.stop();
  EXPECT_EQ(sharded.aggregate_stats().malformed_frames, 1u);
  EXPECT_EQ(sharded.inbound_drops(), 0u);
}

TEST(ShardedEndpoint, SingleShardMatchesSingleThreadedSemantics) {
  // num_shards = 1 routes everything to shard 0 — the degenerate fleet
  // must behave exactly like one Endpoint behind a ring.
  SinkApp app(2);
  ShardedConfig cfg;
  cfg.num_shards = 1;
  ShardedEndpoint sharded(cfg, app);

  wire::Frame frame;
  for (ContentId content = 1; content <= 2; ++content) {
    for (std::size_t i = 0; i < kK; ++i) {
      wire::serialize(content,
                      CodedPacket::native(
                          kK, i, Payload::deterministic(kM, 7 + content, i)),
                      frame);
      ASSERT_TRUE(sharded.route_frame(9, frame));
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (sharded.frames_processed() < 2 * kK) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  sharded.stop();
  const SessionStats total = sharded.aggregate_stats();
  EXPECT_EQ(total.data_delivered, 2 * kK);
  EXPECT_GE(total.completions_sent, 2u);
  EXPECT_EQ(sharded.report(0).frames_in, 2 * kK);
}

#if LTNC_TELEMETRY_ENABLED
TEST(ShardedEndpoint, RegistryCountersEqualReportsAfterStop) {
  // The per-shard frame counters read the shards' own tallies, so they
  // are exact at any snapshot, not only after a tick boundary: here no
  // shard ever reaches one, and after stop() every counter still equals
  // its shard's report.
  constexpr std::uint32_t kPeers = 16;
  telemetry::Registry registry;
  SinkApp app(kPeers);
  ShardedConfig cfg;
  cfg.num_shards = 4;
  cfg.iterations_per_tick = std::numeric_limits<std::uint64_t>::max();
  cfg.registry = &registry;
  ShardedEndpoint sharded(cfg, app);

  wire::Frame frame;
  for (PeerId peer = 0; peer < kPeers; ++peer) {
    const ContentId content = static_cast<ContentId>(peer + 1);
    for (std::size_t i = 0; i < kK; ++i) {
      wire::serialize(content,
                      CodedPacket::native(
                          kK, i, Payload::deterministic(kM, 7 + content, i)),
                      frame);
      ASSERT_TRUE(sharded.route_frame(peer, frame));
    }
  }
  // Every conversation completes and acks once: wait for all the acks,
  // so the outbound counters have something to count.
  std::uint32_t acks = 0;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (acks < kPeers) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
      PeerId dst = 0;
      while (sharded.poll_transmit(s, dst, frame)) ++acks;
    }
    std::this_thread::yield();
  }
  sharded.stop();

  const telemetry::Snapshot snap = registry.snapshot();
  const auto read = [&snap](const std::string& name,
                            const std::string& label) {
    for (const auto& c : snap.counters) {
      if (c.name == name && c.label == label) return c.value;
    }
    ADD_FAILURE() << "no series " << name << "{" << label << "}";
    return std::uint64_t{0};
  };
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    const auto& report = sharded.report(s);
    EXPECT_EQ(read("ltnc_shard_frames_in_total", label), report.frames_in);
    EXPECT_EQ(read("ltnc_shard_frames_out_total", label), report.frames_out);
    frames_in += report.frames_in;
    frames_out += report.frames_out;
  }
  EXPECT_EQ(frames_in, kPeers * kK);
  EXPECT_GE(frames_out, kPeers);
  EXPECT_EQ(read("ltnc_shard_inbound_drops_total", ""),
            sharded.inbound_drops());
}
#endif

}  // namespace
}  // namespace ltnc::session
