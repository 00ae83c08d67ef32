// Steady-state allocation audit: once warmed up, the encode / recode /
// decode inner loops must not touch the global heap at all — packet limb
// storage recycles through the WordArena and every codec keeps reusable
// scratch. The test overrides the global allocation functions with
// counting forwards (this is binary-wide but harmless: the counters are
// only inspected here; atomic because threaded tests elsewhere in this
// binary allocate concurrently).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "core/ltnc_codec.hpp"
#include "gf2/gaussian.hpp"
#include "lt/lt_encoder.hpp"
#include "net/sim_channel.hpp"
#include "rlnc/rlnc_codec.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "test_store.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment < sizeof(void*) ? sizeof(void*)
                                                     : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace ltnc {
namespace {

volatile std::uint64_t g_sink = 0;

TEST(SteadyStateAllocation, LtEncodeIsAllocationFree) {
  lt::LtEncoder enc(lt::make_native_payloads(64, 1024, 3));
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const CodedPacket pkt = enc.encode(rng);  // warm arena + scratch
    g_sink = g_sink ^ (pkt.coeffs.words()[0]);
  }
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 2000; ++i) {
    const CodedPacket pkt = enc.encode(rng);
    g_sink = g_sink ^ (pkt.coeffs.words()[0] ^ pkt.payload.words()[0]);
  }
  EXPECT_EQ(g_allocations, before)
      << "LT encode allocated on the steady-state path";
}

TEST(SteadyStateAllocation, RlncRecodeAndReceiveAreAllocationFree) {
  const rlnc::RlncConfig cfg{.k = 32, .payload_bytes = 512, .sparsity = 0};
  rlnc::RlncCodec a(cfg);
  rlnc::RlncCodec b(cfg);
  // Seed a with all natives; bring b to completion through recoded
  // packets; keep exchanging a while to warm every scratch buffer.
  for (std::size_t i = 0; i < cfg.k; ++i) {
    a.receive(CodedPacket::native(
        cfg.k, i, Payload::deterministic(cfg.payload_bytes, 5, i)));
  }
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    auto pkt = a.recode(rng);
    ASSERT_TRUE(pkt.has_value());
    b.receive(std::move(*pkt));
  }
  ASSERT_TRUE(b.complete());

  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    auto pkt = b.recode(rng);
    ASSERT_TRUE(pkt.has_value());
    a.receive(std::move(*pkt));  // full rank: reduces to redundant
    g_sink = g_sink ^ (static_cast<std::uint64_t>(a.rank()));
  }
  EXPECT_EQ(g_allocations, before)
      << "RLNC recode/receive allocated on the steady-state path";
}

TEST(SteadyStateAllocation, GaussianDecodeIsAllocationFreeAfterWarmup) {
  const std::size_t k = 64;
  const std::size_t m = 256;
  lt::LtEncoder enc(lt::make_native_payloads(k, m, 7));
  Rng rng(31);
  std::vector<CodedPacket> stream;
  while (true) {
    // Pre-build a stream that is known to complete a solver.
    gf2::OnlineGaussianSolver probe(k, m);
    stream.clear();
    for (std::size_t i = 0; i < 3 * k && !probe.complete(); ++i) {
      stream.push_back(enc.encode(rng));
      probe.insert(stream.back());
    }
    if (probe.complete()) break;
  }
  // Warm the arena size classes with one full decode.
  {
    gf2::OnlineGaussianSolver warm(k, m);
    for (const auto& pkt : stream) warm.insert(pkt);
    warm.back_substitute();
  }
  gf2::OnlineGaussianSolver solver(k, m);
  const std::uint64_t before = g_allocations;
  for (const auto& pkt : stream) solver.insert(pkt);
  ASSERT_TRUE(solver.complete());
  solver.back_substitute();
  g_sink = g_sink ^ (solver.native_payload(0).words()[0]);
  EXPECT_EQ(g_allocations, before)
      << "online Gaussian decode allocated after construction";
}

TEST(SteadyStateAllocation, LtncRecodeIsAllocationFree) {
  const std::size_t k = 64;
  const std::size_t m = 512;
  core::LtncConfig cfg;
  cfg.k = k;
  cfg.payload_bytes = m;
  core::LtncCodec codec(cfg);
  lt::LtEncoder enc(lt::make_native_payloads(k, m, 9));
  Rng rng(41);
  for (int i = 0; i < 10000 && !codec.complete(); ++i) {
    codec.receive(enc.encode(rng));
  }
  ASSERT_TRUE(codec.complete());
  for (int i = 0; i < 500; ++i) {
    auto pkt = codec.recode(rng);  // warm recode scratch + arena
    if (pkt.has_value()) g_sink = g_sink ^ (pkt->coeffs.words()[0]);
  }
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    auto pkt = codec.recode(rng);
    if (pkt.has_value()) g_sink = g_sink ^ (pkt->coeffs.words()[0]);
  }
  EXPECT_EQ(g_allocations, before)
      << "LTNC recode allocated on the steady-state path";
}

TEST(SteadyStateAllocation, WireRoundTripIsAllocationFree) {
  // encode → serialize → SimChannel → deserialize → decode: the whole
  // data path a deployed node runs per packet. Frame buffers are leased
  // from the arena and the channel ring recycles, so after warmup not a
  // single global allocation may happen per packet.
  const std::size_t k = 256;
  const std::size_t m = 1024;
  lt::LtEncoder enc(lt::make_native_payloads(k, m, 17));
  net::SimChannel channel(net::SimChannelConfig{});
  Rng rng(61);
  wire::Frame tx;
  wire::Frame rx_frame;
  ContentId content = 0;
  CodedPacket rx;
  const auto pump = [&] {
    const CodedPacket pkt = enc.encode(rng);
    wire::serialize(0, pkt, tx);
    ASSERT_TRUE(channel.send(tx.bytes()));
    ASSERT_TRUE(channel.recv(rx_frame));
    ASSERT_EQ(wire::deserialize(rx_frame.bytes(), content, rx),
              wire::DecodeStatus::kOk);
    g_sink = g_sink ^ rx.coeffs.words()[0] ^ rx.payload.words()[0];
  };
  for (int i = 0; i < 500; ++i) pump();  // warm arena, ring and scratch
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 2000; ++i) pump();
  EXPECT_EQ(g_allocations, before)
      << "wire serialize/transport/deserialize allocated at steady state";
}

TEST(SteadyStateAllocation, FeedbackAndCcFramesAreAllocationFree) {
  // The control-plane messages of the feedback channel must recycle the
  // same way the data plane does.
  wire::Frame frame;
  std::vector<std::uint32_t> leaders(64);
  for (std::size_t i = 0; i < leaders.size(); ++i) {
    leaders[i] = static_cast<std::uint32_t>(i % 7);
  }
  std::vector<std::uint32_t> decoded;
  wire::MessageType type{};
  std::uint64_t token = 0;
  ContentId content = 0;
  const auto pump = [&](std::uint64_t seq) {
    wire::serialize_feedback(0, wire::MessageType::kAbort, seq, frame);
    ASSERT_EQ(wire::deserialize_feedback(frame.bytes(), type, token, content),
              wire::DecodeStatus::kOk);
    wire::serialize_cc(0, leaders, frame);
    ASSERT_EQ(wire::deserialize_cc(frame.bytes(), content, decoded),
              wire::DecodeStatus::kOk);
    g_sink = g_sink ^ token ^ decoded.back();
  };
  for (std::uint64_t i = 0; i < 200; ++i) pump(i);
  const std::uint64_t before = g_allocations;
  for (std::uint64_t i = 0; i < 2000; ++i) pump(i);
  EXPECT_EQ(g_allocations, before)
      << "feedback/cc wire frames allocated at steady state";
}

TEST(SteadyStateAllocation, EndpointHandshakeLoopIsAllocationFree) {
  // The session layer's full conversation — offer → advertise →
  // handle_frame → abort/proceed → data → handle_frame — through a
  // SimChannel, endpoint to endpoint. Frames recycle through the transmit
  // ring and the channel ring; per-peer state and packet scratch are
  // reused; nothing may reach the global heap once warm.
  const std::size_t k = 32;
  const std::size_t m = 512;
  session::EndpointConfig cfg;
  cfg.feedback = session::FeedbackMode::kBinary;
  session::ProtocolParams params;
  params.k = k;
  params.payload_bytes = m;
  // Two full-rank RLNC endpoints: every exchange runs the whole
  // handshake and (for the accepted direction) a redundant delivery —
  // the steady state of a saturated node.
  session::Endpoint a(cfg, test::one_content_store(
                              k, m, session::make_node(session::Scheme::kRlnc,
                                                       params)));
  session::Endpoint b(cfg, test::one_content_store(
                              k, m, session::make_node(session::Scheme::kRlnc,
                                                       params)));
  for (std::size_t i = 0; i < k; ++i) {
    const CodedPacket native = CodedPacket::native(
        k, i, Payload::deterministic(m, 5, i));
    a.contents().at(0).deliver(native);
    b.contents().at(0).deliver(native);
  }
  net::SimChannel channel(net::SimChannelConfig{});
  Rng rng(71);
  wire::Frame frame;
  session::PeerId dst = 0;
  const auto pump = [&](session::Endpoint& from, session::Endpoint& to) {
    // Shuttle every pending frame across the channel until the
    // conversation quiesces (advertise → abort here: both are full rank,
    // so every offer is vetoed — handshake plus veto, zero data).
    bool moved = true;
    while (moved) {
      moved = false;
      while (from.poll_transmit(dst, frame)) {
        ASSERT_TRUE(channel.send(frame.bytes()));
        ASSERT_TRUE(channel.recv(frame));
        to.handle_frame(0, frame.bytes());
        moved = true;
      }
      while (to.poll_transmit(dst, frame)) {
        ASSERT_TRUE(channel.send(frame.bytes()));
        ASSERT_TRUE(channel.recv(frame));
        from.handle_frame(0, frame.bytes());
        moved = true;
      }
    }
  };
  const auto exchange = [&] {
    if (a.start_transfer(0, 0, rng)) pump(a, b);
    if (b.start_transfer(0, 0, rng)) pump(b, a);
    g_sink = g_sink ^ a.stats().frames_sent ^ b.stats().aborts_sent;
  };
  for (int i = 0; i < 300; ++i) exchange();  // warm rings + scratch
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 2000; ++i) exchange();
  EXPECT_EQ(g_allocations, before)
      << "endpoint handshake loop allocated at steady state";
}

TEST(SteadyStateAllocation, EndpointDataPathIsAllocationFree) {
  // Feedback-none data plane: offer_packet → poll_transmit → channel →
  // handle_frame → protocol delivery, the loop a deployed UDP node runs
  // per packet.
  const std::size_t k = 64;
  const std::size_t m = 1024;
  session::EndpointConfig cfg;
  cfg.feedback = session::FeedbackMode::kNone;
  session::ProtocolParams params;
  params.k = k;
  params.payload_bytes = m;
  session::Endpoint sender(cfg, test::one_content_store(k, m, nullptr));
  session::Endpoint receiver(
      cfg, test::one_content_store(
               k, m, session::make_node(session::Scheme::kRlnc, params)));
  lt::LtEncoder enc(lt::make_native_payloads(k, m, 17));
  net::SimChannel channel(net::SimChannelConfig{});
  Rng rng(81);
  wire::Frame frame;
  session::PeerId dst = 0;
  const auto pump = [&] {
    sender.offer_packet(0, 0, enc.encode(rng));
    ASSERT_TRUE(sender.poll_transmit(dst, frame));
    ASSERT_TRUE(channel.send(frame.bytes()));
    ASSERT_TRUE(channel.recv(frame));
    receiver.handle_frame(0, frame.bytes());
    g_sink = g_sink ^ receiver.stats().data_delivered;
  };
  for (int i = 0; i < 500; ++i) pump();  // warm arena, rings and decoder
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 2000; ++i) pump();
  EXPECT_EQ(g_allocations, before)
      << "endpoint data path allocated at steady state";
}

TEST(SteadyStateAllocation, MultiContentSwarmLoopIsAllocationFree) {
  // The multi-content data plane: SwarmScheduler pick → per-content emit
  // (RLNC recode + LTNC recode) → content-id framing → SimChannel →
  // handle_frame routing → store delivery. Two saturated endpoints keep
  // exchanging; once warm, not one global allocation per push.
  const auto make_store = [] {
    auto contents = std::make_unique<ltnc::store::ContentStore>();
    ltnc::store::ContentConfig rlnc;
    rlnc.id = 1;
    rlnc.k = 32;
    rlnc.payload_bytes = 512;
    rlnc.scheme = session::Scheme::kRlnc;
    contents->register_content(rlnc);
    ltnc::store::ContentConfig plain;
    plain.id = 2;
    plain.k = 16;
    plain.payload_bytes = 512;
    contents->register_content(plain);
    return contents;
  };
  const auto seed_full = [](ltnc::store::Content& content,
                            std::uint64_t seed) {
    for (std::size_t j = 0; j < content.k(); ++j) {
      content.deliver(CodedPacket::native(
          content.k(), j,
          Payload::deterministic(content.payload_bytes(), seed, j)));
    }
  };
  session::EndpointConfig cfg;
  cfg.feedback = session::FeedbackMode::kNone;  // pure data plane
  session::Endpoint a(cfg, make_store());
  session::Endpoint b(cfg, make_store());
  for (std::size_t i = 0; i < 2; ++i) {
    seed_full(a.contents().at(i), 5 + i);
    seed_full(b.contents().at(i), 5 + i);
  }
  net::SimChannel channel(net::SimChannelConfig{});
  Rng rng(91);
  wire::Frame frame;
  session::PeerId dst = 0;
  const auto pump = [&] {
    // One scheduler-picked push per content per exchange; deliveries
    // reduce to duplicates inside the saturated codecs — the steady
    // state of a fully replicated cache node.
    for (int p = 0; p < 2; ++p) {
      const ltnc::store::Content* content = a.next_push(0);
      ASSERT_NE(content, nullptr);
      ASSERT_TRUE(a.start_transfer(0, content->id(), rng));
    }
    while (a.poll_transmit(dst, frame)) {
      ASSERT_TRUE(channel.send(frame.bytes()));
      ASSERT_TRUE(channel.recv(frame));
      b.handle_frame(0, frame.bytes());
    }
    g_sink = g_sink ^ b.stats().data_delivered ^ b.stats().foreign_frames;
  };
  // Long warmup: the Robust-Soliton spike degree and the rarer LTNC
  // builder shapes must all have been drawn once before the arena and
  // scratch buffers cover every size class.
  for (int i = 0; i < 3000; ++i) pump();
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 2000; ++i) pump();
  EXPECT_EQ(g_allocations, before)
      << "multi-content swarm loop allocated at steady state";
}

TEST(SteadyStateAllocation, BpFullDecodeAllocatesPerVectorNotPerNative) {
  // A whole k = 512 decode from a freshly built decoder. The Tanner graph
  // is one pooled edge array, so the heap is touched only as the
  // decoder's handful of vectors grow — never once per native.
  const std::size_t k = 512;
  const std::size_t m = 64;
  lt::LtEncoder enc(lt::make_native_payloads(k, m, 23));
  Rng rng(101);
  std::vector<CodedPacket> stream;
  for (std::size_t i = 0; i < 3 * k; ++i) stream.push_back(enc.encode(rng));
  const auto decode = [&] {
    lt::BpDecoder decoder(k, m);
    for (const auto& pkt : stream) {
      if (decoder.complete()) break;
      decoder.receive(pkt);
    }
    EXPECT_TRUE(decoder.complete());
    g_sink = g_sink ^ decoder.native_payload(0).words()[0];
  };
  decode();  // warm the arena's size classes
  const std::uint64_t before = g_allocations;
  decode();
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_LE(allocations, 128u)
      << "a k = 512 BP decode made " << allocations << " heap allocations";
}

TEST(SteadyStateAllocation, BpDuplicateReceiveIsAllocationFree) {
  const std::size_t k = 64;
  const std::size_t m = 512;
  lt::BpDecoder decoder(k, m);
  lt::LtEncoder enc(lt::make_native_payloads(k, m, 13));
  Rng rng(51);
  for (int i = 0; i < 10000 && !decoder.complete(); ++i) {
    decoder.receive(enc.encode(rng));
  }
  ASSERT_TRUE(decoder.complete());
  std::vector<CodedPacket> stream;
  for (int i = 0; i < 64; ++i) stream.push_back(enc.encode(rng));
  // Warm: every receive now reduces to a duplicate.
  for (const auto& pkt : stream) decoder.receive(pkt);
  const std::uint64_t before = g_allocations;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& pkt : stream) {
      g_sink = g_sink ^ (static_cast<std::uint64_t>(decoder.receive(pkt)));
    }
  }
  EXPECT_EQ(g_allocations, before)
      << "BP duplicate receive allocated on the steady-state path";
}

}  // namespace
}  // namespace ltnc
