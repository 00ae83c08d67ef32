// Transport layer: SimChannel determinism and fault injection, UDP
// loopback round-trips, wire frames surviving both backends intact, and
// the UdpPipe delivering exactly what a SimChannel delivers.
#include "net/transport.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "net/sim_channel.hpp"
#include "net/udp_pipe.hpp"
#include "net/udp_transport.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::net {
namespace {

wire::Frame make_frame(std::uint8_t fill, std::size_t size) {
  wire::Frame frame(size);
  for (std::size_t i = 0; i < size; ++i) frame.mutable_bytes()[i] = fill;
  return frame;
}

TEST(SimChannel, ReliableConfigDeliversInOrder) {
  SimChannel channel(SimChannelConfig{});
  for (std::uint8_t i = 0; i < 10; ++i) {
    const wire::Frame frame = make_frame(i, 16 + i);
    ASSERT_TRUE(channel.send(frame.bytes()));
  }
  EXPECT_EQ(channel.pending(), 10u);
  wire::Frame out;
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(channel.recv(out));
    EXPECT_EQ(out.size(), 16u + i);
    EXPECT_EQ(out.data()[0], i);
  }
  EXPECT_FALSE(channel.recv(out));
  EXPECT_EQ(channel.stats().delivered, 10u);
}

TEST(SimChannel, LossDropsDeterministically) {
  SimChannelConfig cfg;
  cfg.loss_rate = 0.5;
  cfg.seed = 33;
  const auto run = [&] {
    SimChannel channel(cfg);
    const wire::Frame frame = make_frame(7, 32);
    for (int i = 0; i < 1000; ++i) channel.send(frame.bytes());
    return channel.stats().dropped_loss;
  };
  const std::uint64_t first = run();
  EXPECT_GT(first, 300u);
  EXPECT_LT(first, 700u);
  EXPECT_EQ(first, run()) << "same seed must reproduce the fault schedule";
}

TEST(SimChannel, DuplicationDeliversTwice) {
  SimChannelConfig cfg;
  cfg.duplicate_rate = 1.0;
  SimChannel channel(cfg);
  const wire::Frame frame = make_frame(9, 8);
  ASSERT_TRUE(channel.send(frame.bytes()));
  EXPECT_EQ(channel.pending(), 2u);
  wire::Frame out;
  ASSERT_TRUE(channel.recv(out));
  ASSERT_TRUE(channel.recv(out));
  EXPECT_EQ(out.data()[0], 9);
  EXPECT_EQ(channel.stats().duplicated, 1u);
}

TEST(SimChannel, ReorderingChangesDeliveryOrder) {
  SimChannelConfig cfg;
  cfg.reorder_rate = 1.0;
  cfg.seed = 5;
  SimChannel channel(cfg);
  for (std::uint8_t i = 0; i < 32; ++i) {
    channel.send(make_frame(i, 4).bytes());
  }
  std::vector<std::uint8_t> order;
  wire::Frame out;
  while (channel.recv(out)) order.push_back(out.data()[0]);
  ASSERT_EQ(order.size(), 32u);
  bool shuffled = false;
  for (std::uint8_t i = 0; i < 32; ++i) shuffled |= order[i] != i;
  EXPECT_TRUE(shuffled);
  EXPECT_GT(channel.stats().reordered, 0u);
  // Nothing lost: every frame is still delivered exactly once.
  std::vector<bool> seen(32, false);
  for (const std::uint8_t b : order) seen[b] = true;
  for (std::uint8_t i = 0; i < 32; ++i) EXPECT_TRUE(seen[i]);
}

TEST(SimChannel, MtuRejectsOversizedFrames) {
  SimChannelConfig cfg;
  cfg.mtu = 100;
  SimChannel channel(cfg);
  EXPECT_FALSE(channel.send(make_frame(1, 101).bytes()));
  EXPECT_TRUE(channel.send(make_frame(1, 100).bytes()));
  EXPECT_EQ(channel.stats().dropped_mtu, 1u);
  EXPECT_EQ(channel.pending(), 1u);
}

TEST(SimChannel, OverflowTailDrops) {
  SimChannelConfig cfg;
  cfg.capacity = 4;
  SimChannel channel(cfg);
  for (int i = 0; i < 6; ++i) channel.send(make_frame(1, 4).bytes());
  EXPECT_EQ(channel.pending(), 4u);
  EXPECT_EQ(channel.stats().dropped_overflow, 2u);
}

TEST(SimChannel, CodedPacketsSurviveTheChannel) {
  Rng rng(71);
  SimChannel channel(SimChannelConfig{});
  std::vector<CodedPacket> sent;
  wire::Frame frame;
  for (int i = 0; i < 20; ++i) {
    BitVector coeffs(128);
    for (int d = 0; d < 5; ++d) coeffs.set(rng.uniform(128));
    sent.emplace_back(std::move(coeffs),
                      Payload::deterministic(48, 9, i));
    wire::serialize(0, sent.back(), frame);
    ASSERT_TRUE(channel.send(frame.bytes()));
  }
  wire::Frame rx;
  ContentId content = 0;
  CodedPacket decoded;
  for (const CodedPacket& original : sent) {
    ASSERT_TRUE(channel.recv(rx));
    ASSERT_EQ(wire::deserialize(rx.bytes(), content, decoded),
              wire::DecodeStatus::kOk);
    EXPECT_EQ(decoded.coeffs, original.coeffs);
    EXPECT_EQ(decoded.payload, original.payload);
  }
}

// -- UDP ------------------------------------------------------------------

/// Opens a loopback pair, or returns false when the environment has no
/// usable sockets (sandboxed CI) — the test then skips rather than fails.
bool open_loopback_pair(std::unique_ptr<UdpTransport>& receiver,
                        std::unique_ptr<UdpTransport>& sender) {
  std::string error;
  UdpConfig rx_cfg;
  rx_cfg.bind_address = "127.0.0.1";
  receiver = UdpTransport::open(rx_cfg, &error);
  if (receiver == nullptr) return false;

  UdpConfig tx_cfg;
  tx_cfg.bind_address = "127.0.0.1";
  tx_cfg.peer_address = "127.0.0.1";
  tx_cfg.peer_port = receiver->local_port();
  sender = UdpTransport::open(tx_cfg, &error);
  return sender != nullptr;
}

/// Polls until a datagram arrives (loopback is fast but asynchronous).
bool recv_with_retry(UdpTransport& transport, wire::Frame& out) {
  for (int spin = 0; spin < 100000; ++spin) {
    if (transport.recv(out)) return true;
  }
  return false;
}

TEST(UdpTransport, LoopbackRoundTripsFrames) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  ASSERT_GT(receiver->local_port(), 0);

  const CodedPacket original(BitVector::unit(256, 17),
                             Payload::deterministic(128, 3, 0));
  wire::Frame frame;
  wire::serialize(0, original, frame);
  ASSERT_TRUE(sender->send(frame.bytes()));

  wire::Frame rx;
  ASSERT_TRUE(recv_with_retry(*receiver, rx));
  EXPECT_EQ(rx.size(), frame.size());
  ContentId content = 0;
  CodedPacket decoded;
  ASSERT_EQ(wire::deserialize(rx.bytes(), content, decoded),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(decoded.coeffs, original.coeffs);
  EXPECT_EQ(decoded.payload, original.payload);
}

TEST(UdpTransport, FeedbackFlowsBackToLastSender) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }

  wire::Frame frame;
  wire::serialize_feedback(0, wire::MessageType::kAck, 42, frame);
  ASSERT_TRUE(sender->send(frame.bytes()));
  wire::Frame rx;
  ASSERT_TRUE(recv_with_retry(*receiver, rx));

  // The receiver locks onto whoever spoke and replies with an abort.
  ASSERT_TRUE(receiver->set_peer_to_last_sender());
  wire::serialize_feedback(0, wire::MessageType::kAbort, 43, frame);
  ASSERT_TRUE(receiver->send(frame.bytes()));

  ASSERT_TRUE(recv_with_retry(*sender, rx));
  wire::MessageType type{};
  std::uint64_t token = 0;
  ContentId content = 0;
  ASSERT_EQ(wire::deserialize_feedback(rx.bytes(), type, token, content),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(type, wire::MessageType::kAbort);
  EXPECT_EQ(token, 43u);
}

TEST(UdpTransport, SendWithoutPeerFails) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto transport = UdpTransport::open(cfg, &error);
  if (transport == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  EXPECT_FALSE(transport->has_peer());
  const wire::Frame frame(8);
  EXPECT_FALSE(transport->send(frame.bytes()));
}

TEST(UdpTransport, RejectsBadAddress) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "not-an-address";
  EXPECT_EQ(UdpTransport::open(cfg, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

// -- batched I/O ----------------------------------------------------------

TEST(UdpTransport, BatchRoundTripsAcrossTheLoopback) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  constexpr std::size_t kFrames = 24;

  // One serialized frame per token; the batch speaks (peer, bytes) pairs
  // against the sender's interned registry (the configured peer is 0).
  std::vector<wire::Frame> frames(kFrames);
  std::vector<UdpTransport::TxItem> items(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    wire::serialize_feedback(0, wire::MessageType::kAck, i, frames[i]);
    items[i] = {0, frames[i].bytes()};
  }
  ASSERT_EQ(sender->send_batch(items), kFrames);
  EXPECT_EQ(sender->stats().frames_sent, kFrames);
  if (sender->batching_active()) {
    // The whole fan-out must cost far fewer syscalls than frames — this
    // is the entire point of the batch edge.
    EXPECT_GE(sender->stats().frames_per_send_call(), 8.0);
  }

  // Drain with recv_batch; all datagrams come from one source, which
  // interns to a single peer index.
  std::vector<wire::Frame> rx(32);
  std::vector<UdpTransport::PeerIndex> peers(32);
  std::vector<bool> seen(kFrames, false);
  std::size_t received = 0;
  for (int spin = 0; spin < 100000 && received < kFrames; ++spin) {
    const std::size_t n = receiver->recv_batch(rx, peers);
    for (std::size_t i = 0; i < n; ++i) {
      wire::MessageType type{};
      std::uint64_t token = 0;
      ContentId content = 0;
      ASSERT_EQ(
          wire::deserialize_feedback(rx[i].bytes(), type, token, content),
          wire::DecodeStatus::kOk);
      ASSERT_LT(token, kFrames);
      EXPECT_FALSE(seen[token]) << "duplicate datagram " << token;
      seen[token] = true;
      EXPECT_EQ(peers[i], peers[0]);
      ++received;
    }
  }
  EXPECT_EQ(received, kFrames);
  EXPECT_EQ(receiver->peer_count(), 1u);
  EXPECT_EQ(receiver->stats().frames_received, kFrames);
  if (receiver->batching_active()) {
    // Everything was already queued on the loopback, so the drain takes
    // far fewer recvmmsg calls than frames (idle polls don't count
    // frames, so the ratio only shrinks below this if batching broke).
    EXPECT_LT(receiver->stats().recv_calls,
              receiver->stats().frames_received +
                  receiver->stats().recv_would_block);
  }
}

TEST(UdpTransport, SendBatchSkipsInvalidItemsAndCountsThemFatal) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  const wire::Frame good = make_frame(0xAB, 64);
  const wire::Frame huge = make_frame(0xCD, 70000);  // over any UDP MTU

  const UdpTransport::TxItem items[] = {
      {0, good.bytes()},
      {0, huge.bytes()},                       // over-MTU: skipped
      {UdpTransport::kInvalidPeer, good.bytes()},  // unknown peer: skipped
      {0, good.bytes()},
  };
  EXPECT_EQ(sender->send_batch(items), 2u);
  EXPECT_EQ(sender->stats().frames_sent, 2u);
  EXPECT_EQ(sender->stats().fatal_errors, 2u);

  wire::Frame rx;
  ASSERT_TRUE(recv_with_retry(*receiver, rx));
  EXPECT_EQ(rx.size(), 64u);
  ASSERT_TRUE(recv_with_retry(*receiver, rx));
  EXPECT_EQ(rx.size(), 64u);
}

TEST(UdpTransport, RecvBatchOnIdleSocketCountsWouldBlock) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto transport = UdpTransport::open(cfg, &error);
  if (transport == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  std::vector<wire::Frame> frames(4);
  std::vector<UdpTransport::PeerIndex> peers(4);
  EXPECT_EQ(transport->recv_batch(frames, peers), 0u);
  EXPECT_GE(transport->stats().recv_would_block, 1u);
  EXPECT_EQ(transport->stats().fatal_errors, 0u);
}

TEST(UdpTransport, PeerRegistryInternsStably) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto transport = UdpTransport::open(cfg, &error);
  if (transport == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  const auto a = transport->add_peer("127.0.0.1", 5001);
  const auto b = transport->add_peer("127.0.0.1", 5002);
  ASSERT_NE(a, UdpTransport::kInvalidPeer);
  ASSERT_NE(b, UdpTransport::kInvalidPeer);
  EXPECT_NE(a, b);
  EXPECT_EQ(transport->add_peer("127.0.0.1", 5001), a);
  EXPECT_EQ(transport->peer_count(), 2u);
  EXPECT_EQ(transport->add_peer("not-an-address", 5001),
            UdpTransport::kInvalidPeer);
#if defined(__linux__)
  EXPECT_TRUE(transport->batching_active());
#endif
}

// -- packing --------------------------------------------------------------

/// A serialized data frame of `payload` bytes for content `content`: about
/// 84 bytes at a 64-byte payload, so ~17 share one packed datagram.
wire::Frame data_frame(std::uint32_t serial, std::size_t payload,
                       ContentId content) {
  BitVector coeffs(1024);
  for (std::uint32_t d = 0; d <= serial % 6; ++d) {
    coeffs.set((serial * 131 + d * 17) % 1024);
  }
  wire::Frame frame;
  wire::serialize(content,
                  CodedPacket(std::move(coeffs),
                              Payload::deterministic(payload, 5, serial)),
                  frame);
  return frame;
}

std::vector<std::uint8_t> copy_of(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

/// A plain bound loopback socket, to see datagrams exactly as they cross
/// the wire. Closes on destruction.
struct RawSocket {
  int fd = -1;
  std::uint16_t port = 0;
  RawSocket() {
    fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      fd = -1;
      return;
    }
    port = ntohs(addr.sin_port);
  }
  ~RawSocket() {
    if (fd >= 0) ::close(fd);
  }
  /// The next datagram, or empty when none is pending.
  std::vector<std::uint8_t> next() {
    std::vector<std::uint8_t> buf(65536);
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
    buf.resize(n < 0 ? 0 : static_cast<std::size_t>(n));
    return buf;
  }
};

TEST(UdpTransport, PacksEachPeersFramesInItemOrder) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto sender = UdpTransport::open(cfg, &error);
  std::vector<std::unique_ptr<UdpTransport>> receivers;
  for (int r = 0; r < 2 && sender != nullptr; ++r) {
    receivers.push_back(UdpTransport::open(cfg, &error));
    if (receivers.back() == nullptr) sender.reset();
  }
  RawSocket raw;
  if (sender == nullptr || raw.fd < 0) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  // Peer 0 is a plain socket that sees the datagrams themselves; peers 1
  // and 2 are transports that split them.
  ASSERT_EQ(sender->add_peer("127.0.0.1", raw.port), 0u);
  ASSERT_EQ(sender->add_peer("127.0.0.1", receivers[0]->local_port()), 1u);
  ASSERT_EQ(sender->add_peer("127.0.0.1", receivers[1]->local_port()), 2u);

  // 90 small frames round-robin over the three peers, and for peer 0 two
  // that must go alone: a frame over half a packed datagram, and bytes
  // that are no frame at all.
  constexpr std::uint32_t kSmall = 90;
  std::vector<wire::Frame> frames;
  std::vector<UdpTransport::PeerIndex> dest;
  for (std::uint32_t i = 0; i < kSmall; ++i) {
    if (i == 30) {
      frames.push_back(data_frame(1000, 900, 7));
      dest.push_back(0);
      frames.push_back(make_frame(0xEE, 40));
      dest.push_back(0);
    }
    frames.push_back(data_frame(i, 64, 1 + i % 3));
    dest.push_back(i % 3);
  }
  std::vector<UdpTransport::TxItem> items;
  std::vector<std::vector<std::vector<std::uint8_t>>> expected(3);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    items.push_back({dest[i], frames[i].bytes()});
    expected[dest[i]].push_back(copy_of(frames[i].bytes()));
  }
  ASSERT_EQ(sender->send_batch(items), items.size());
  const UdpStats& tx = sender->stats();
  EXPECT_EQ(tx.frames_sent, items.size());
  EXPECT_EQ(tx.fatal_errors + tx.transient_errors, 0u);
  EXPECT_LE(tx.datagrams_sent * 8, tx.frames_sent) << "packing must pay";
  EXPECT_GT(tx.frames_per_datagram(), 8.0);

  // Peer 0's datagrams: the small frames before the big one packed, the
  // big frame and the raw bytes alone, then the rest packed; every
  // datagram within the limit and split back into whole frames.
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<std::vector<std::uint8_t>> got;
  for (int spin = 0; spin < 100000 && got.size() < expected[0].size();
       ++spin) {
    const std::vector<std::uint8_t> datagram = raw.next();
    if (datagram.empty()) continue;
    datagrams.push_back(datagram);
    const std::size_t count = wire::count_frames(datagram);
    if (count == 0) {
      got.push_back(datagram);
      continue;
    }
    if (count > 1) {
      EXPECT_LE(datagram.size(), UdpTransport::kPackedDatagramBytes);
    }
    std::span<const std::uint8_t> rest(datagram);
    for (std::size_t f = 0; f < count; ++f) {
      std::size_t size = 0;
      ASSERT_EQ(wire::leading_frame_size(rest, size), wire::DecodeStatus::kOk);
      got.push_back(copy_of(rest.first(size)));
      rest = rest.subspan(size);
    }
  }
  EXPECT_EQ(got, expected[0]) << "peer 0's frames in item order";
  ASSERT_GE(datagrams.size(), 4u);
  EXPECT_GT(wire::count_frames(datagrams[0]), 1u);
  EXPECT_EQ(datagrams[1], copy_of(frames[30].bytes())) << "the big frame";
  EXPECT_EQ(datagrams[2], copy_of(frames[31].bytes())) << "the raw bytes";

  // Peers 1 and 2 receive whole frames, in order, from few datagrams.
  for (std::size_t r = 0; r < 2; ++r) {
    std::vector<wire::Frame> rx(64);
    std::vector<UdpTransport::PeerIndex> peers(64);
    std::vector<std::vector<std::uint8_t>> in;
    for (int spin = 0; spin < 100000 && in.size() < expected[r + 1].size();
         ++spin) {
      const std::size_t n = receivers[r]->recv_batch(rx, peers);
      for (std::size_t i = 0; i < n; ++i) in.push_back(copy_of(rx[i].bytes()));
    }
    EXPECT_EQ(in, expected[r + 1]) << "peer " << r + 1;
    const UdpStats& st = receivers[r]->stats();
    EXPECT_EQ(st.frames_received, expected[r + 1].size());
    EXPECT_EQ(st.datagrams_received, 2u) << "30 frames of ~84 B";
  }
}

TEST(UdpTransport, FramesBeyondTheCallersSpanWaitForTheNextCall) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  constexpr std::uint32_t kFrames = 14;  // one packed datagram
  std::vector<wire::Frame> frames;
  std::vector<UdpTransport::TxItem> items;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    frames.push_back(data_frame(i, 64, 3));
  }
  for (const wire::Frame& f : frames) items.push_back({0, f.bytes()});

  // recv_batch with a span of 4: the datagram's other frames come back
  // on the next calls, with no syscall, and wait_readable says so at once.
  ASSERT_EQ(sender->send_batch(items), kFrames);
  ASSERT_EQ(sender->stats().datagrams_sent, 1u);
  ASSERT_TRUE(receiver->wait_readable(1000));
  std::vector<wire::Frame> rx(4);
  std::vector<UdpTransport::PeerIndex> peers(4);
  std::size_t next = 0;
  for (int call = 0; next < kFrames; ++call) {
    if (call > 0) {
      EXPECT_TRUE(receiver->wait_readable(0));
    }
    const std::size_t n = receiver->recv_batch(rx, peers);
    ASSERT_EQ(n, std::min<std::size_t>(4, kFrames - next));
    for (std::size_t i = 0; i < n; ++i, ++next) {
      EXPECT_EQ(copy_of(rx[i].bytes()), copy_of(frames[next].bytes()));
      EXPECT_EQ(peers[i], peers[0]);
    }
  }
  EXPECT_EQ(receiver->stats().recv_calls, 1u);
  EXPECT_EQ(receiver->stats().datagrams_received, 1u);
  EXPECT_EQ(receiver->stats().frames_received, kFrames);
  EXPECT_FALSE(receiver->wait_readable(0));

  // recv() splits the same way, one frame a call; the feedback channel
  // still locks onto the sender.
  ASSERT_EQ(sender->send_batch(items), kFrames);
  wire::Frame out;
  ASSERT_TRUE(recv_with_retry(*receiver, out));
  const std::uint64_t calls = receiver->stats().recv_calls;
  for (std::uint32_t i = 1; i < kFrames; ++i) {
    EXPECT_EQ(copy_of(out.bytes()), copy_of(frames[i - 1].bytes()));
    EXPECT_TRUE(receiver->wait_readable(0));
    ASSERT_TRUE(receiver->recv(out));
  }
  EXPECT_EQ(copy_of(out.bytes()), copy_of(frames[kFrames - 1].bytes()));
  EXPECT_EQ(receiver->stats().datagrams_received, 2u);
  EXPECT_EQ(receiver->stats().recv_calls, calls) << "queued frames: no syscall";
  ASSERT_TRUE(receiver->set_peer_to_last_sender());
  ASSERT_TRUE(receiver->send(frames[0].bytes()));
  ASSERT_TRUE(recv_with_retry(*sender, out));
  EXPECT_EQ(copy_of(out.bytes()), copy_of(frames[0].bytes()));
}

// -- UdpPipe --------------------------------------------------------------

/// Sends `count` frames of varying size, each tagged with its serial, then
/// drains the link — the send-then-drain pattern of the harness loops.
void burst(Transport& link, std::uint32_t& serial, std::size_t count,
           Rng& sizes, std::vector<std::vector<std::uint8_t>>& delivered) {
  for (std::size_t i = 0; i < count; ++i) {
    wire::Frame frame = make_frame(static_cast<std::uint8_t>(serial),
                                   4 + sizes.uniform(1400));
    for (int b = 0; b < 4; ++b) {
      frame.mutable_bytes()[b] = static_cast<std::uint8_t>(serial >> (8 * b));
    }
    ++serial;
    link.send(frame.bytes());
  }
  wire::Frame out;
  while (link.recv(out)) {
    delivered.emplace_back(out.bytes().begin(), out.bytes().end());
  }
}

TEST(UdpPipe, DeliversExactlyWhatTheSimChannelDelivers) {
  SimChannelConfig cfg;
  cfg.loss_rate = 0.2;
  cfg.duplicate_rate = 0.1;
  cfg.reorder_rate = 0.2;
  cfg.seed = 77;
  std::string error;
  std::unique_ptr<UdpPipe> pipe = UdpPipe::open(cfg, &error);
  if (pipe == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment: " << error;
  }
  SimChannel channel(cfg);

  // Bursts up to 200 frames and ~280 KB cross the pipe's 64-datagram,
  // 32 KiB socket window several times per drain.
  std::vector<std::vector<std::uint8_t>> from_sim;
  std::vector<std::vector<std::uint8_t>> from_pipe;
  Rng sim_sizes(5);
  Rng pipe_sizes(5);
  std::uint32_t sim_serial = 0;
  std::uint32_t pipe_serial = 0;
  Rng counts(9);
  for (int round = 0; round < 12; ++round) {
    const std::size_t count = 1 + counts.uniform(200);
    burst(channel, sim_serial, count, sim_sizes, from_sim);
    burst(*pipe, pipe_serial, count, pipe_sizes, from_pipe);
  }
  EXPECT_GT(channel.stats().dropped_loss, 0u);
  EXPECT_GT(channel.stats().duplicated, 0u);
  EXPECT_GT(channel.stats().reordered, 0u);
  EXPECT_EQ(pipe->socket_losses(), 0u);
  ASSERT_EQ(from_pipe.size(), from_sim.size());
  EXPECT_TRUE(from_pipe == from_sim) << "same bytes in the same order";
}

TEST(UdpPipe, OpenLinkPicksTheBackend) {
  SimChannelConfig cfg;
  EXPECT_NE(dynamic_cast<SimChannel*>(open_link(Link::kSim, cfg).get()),
            nullptr);
  std::string error;
  if (UdpPipe::open(cfg, &error) == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment: " << error;
  }
  std::unique_ptr<Transport> link = open_link(Link::kUdp, cfg);
  ASSERT_NE(dynamic_cast<UdpPipe*>(link.get()), nullptr);
  wire::Frame out;
  EXPECT_FALSE(link->recv(out)) << "an idle pipe returns at once";
  ASSERT_TRUE(link->send(make_frame(3, 16).bytes()));
  ASSERT_TRUE(link->recv(out));
  EXPECT_EQ(out.size(), 16u);
  EXPECT_EQ(out.data()[0], 3);
  EXPECT_FALSE(link->recv(out));
}

}  // namespace
}  // namespace ltnc::net
