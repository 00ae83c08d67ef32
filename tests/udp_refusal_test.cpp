// UdpTransport against a kernel that refuses. On Linux the test binary
// links with -Wl,--wrap=sendmmsg,--wrap=recvmmsg (see CMakeLists.txt), so
// a test can make sendmmsg take only so many datagrams and then fail with
// EAGAIN, fail once with a fatal errno, or make either call fail with
// ENOSYS to drive the sendto/recvfrom fallback. With nothing injected the
// wrappers pass straight through, so every other test runs the real
// calls. A loopback socket never refuses with EAGAIN (the device frees a
// datagram's send-buffer charge as it sends it), so these paths are not
// reachable without the wrap.
#if defined(LTNC_WRAP_MMSG)

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/coded_packet.hpp"
#include "net/udp_transport.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace {

/// Datagrams sendmmsg still takes before it refuses with EAGAIN; -1 is
/// no limit.
std::atomic<int> g_send_budget{-1};
/// Errno of the next sendmmsg call, which then sends nothing; 0 is none.
std::atomic<int> g_send_fail_once{0};
std::atomic<bool> g_mmsg_enosys{false};

}  // namespace

extern "C" {
int __real_sendmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags);
int __real_recvmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags,
                    timespec* timeout);

int __wrap_sendmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags) {
  if (g_mmsg_enosys.load()) {
    errno = ENOSYS;
    return -1;
  }
  if (const int err = g_send_fail_once.exchange(0); err != 0) {
    errno = err;
    return -1;
  }
  int budget = g_send_budget.load();
  if (budget < 0) return __real_sendmmsg(fd, msgs, n, flags);
  if (budget == 0) {
    errno = EAGAIN;
    return -1;
  }
  const int sent = __real_sendmmsg(
      fd, msgs, std::min(n, static_cast<unsigned int>(budget)), flags);
  if (sent > 0) g_send_budget.store(budget - sent);
  return sent;
}

int __wrap_recvmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags,
                    timespec* timeout) {
  if (g_mmsg_enosys.load()) {
    errno = ENOSYS;
    return -1;
  }
  return __real_recvmmsg(fd, msgs, n, flags, timeout);
}
}

namespace ltnc::net {
namespace {

/// Puts the wrappers back to pass-through when a test ends.
struct PassThroughOnExit {
  ~PassThroughOnExit() {
    g_send_budget.store(-1);
    g_send_fail_once.store(0);
    g_mmsg_enosys.store(false);
  }
};

bool open_pair(std::unique_ptr<UdpTransport>& receiver,
               std::unique_ptr<UdpTransport>& sender) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  receiver = UdpTransport::open(cfg, &error);
  if (receiver == nullptr) return false;
  sender = UdpTransport::open(cfg, &error);
  return sender != nullptr &&
         sender->add_peer("127.0.0.1", receiver->local_port()) == 0;
}

/// `count` distinct data frames of `payload` bytes each, from `first` on.
std::vector<wire::Frame> frames_from(std::uint32_t first, std::size_t count,
                                     std::size_t payload) {
  std::vector<wire::Frame> frames(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto serial = static_cast<std::uint32_t>(first + i);
    wire::serialize(9,
                    CodedPacket(BitVector::unit(256, serial % 256),
                                Payload::deterministic(payload, 4, serial)),
                    frames[i]);
  }
  return frames;
}

std::vector<UdpTransport::TxItem> items_of(
    const std::vector<wire::Frame>& frames) {
  std::vector<UdpTransport::TxItem> items;
  for (const wire::Frame& f : frames) items.push_back({0, f.bytes()});
  return items;
}

/// Receives `count` frames through recv_batch spans of `span` slots.
std::vector<std::vector<std::uint8_t>> receive(UdpTransport& receiver,
                                               std::size_t count,
                                               std::size_t span) {
  std::vector<wire::Frame> rx(span);
  std::vector<UdpTransport::PeerIndex> peers(span);
  std::vector<std::vector<std::uint8_t>> got;
  for (int spin = 0; spin < 100000 && got.size() < count; ++spin) {
    const std::size_t n = receiver.recv_batch(rx, peers);
    for (std::size_t i = 0; i < n; ++i) {
      got.emplace_back(rx[i].bytes().begin(), rx[i].bytes().end());
    }
  }
  return got;
}

std::vector<std::vector<std::uint8_t>> bytes_of(
    const std::vector<wire::Frame>& frames) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const wire::Frame& f : frames) {
    out.emplace_back(f.bytes().begin(), f.bytes().end());
  }
  return out;
}

TEST(UdpTransport, RefusedDatagramsWaitInOrderAndGoFirst) {
  PassThroughOnExit restore;
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  // 40 frames of ~200 B: 7 to a packed datagram, so 6 datagrams.
  const std::vector<wire::Frame> first = frames_from(0, 40, 180);
  const std::vector<wire::Frame> second = frames_from(40, 5, 180);
  const UdpStats& st = sender->stats();

  // The kernel takes two datagrams, then refuses: the other four wait in
  // the transport, and every item counts as taken.
  g_send_budget.store(2);
  EXPECT_EQ(sender->send_batch(items_of(first)), first.size());
  EXPECT_EQ(st.datagrams_sent, 2u);
  EXPECT_EQ(st.frames_sent, 14u);
  EXPECT_EQ(st.send_would_block, 1u);

  // While it still refuses, no new frame is taken.
  EXPECT_EQ(sender->send_batch(items_of(second)), 0u);
  EXPECT_EQ(st.frames_sent, 14u);

  // Once it takes datagrams again the queue goes first, then the new
  // items; nothing twice, nothing lost, nothing out of order.
  g_send_budget.store(-1);
  EXPECT_EQ(sender->send_batch(items_of(second)), second.size());
  EXPECT_EQ(st.frames_sent, first.size() + second.size());
  EXPECT_EQ(st.fatal_errors + st.transient_errors, 0u);
  std::vector<std::vector<std::uint8_t>> expected = bytes_of(first);
  for (auto& b : bytes_of(second)) expected.push_back(b);
  EXPECT_EQ(receive(*receiver, expected.size(), 64), expected);
  EXPECT_EQ(receiver->stats().frames_received, expected.size());
}

TEST(UdpTransport, AFatalErrorDropsOneCountedDatagramAndQueuesTheRest) {
  PassThroughOnExit restore;
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  const std::vector<wire::Frame> frames = frames_from(0, 40, 180);
  const UdpStats& st = sender->stats();

  // The first datagram (frames 0–6) is dropped and counted; the other
  // five wait, and go on the next call, an empty one.
  g_send_fail_once.store(EMSGSIZE);
  EXPECT_EQ(sender->send_batch(items_of(frames)), 33u);
  EXPECT_EQ(st.fatal_errors, 1u);
  EXPECT_EQ(st.last_errno, EMSGSIZE);
  EXPECT_EQ(st.frames_sent, 0u);
  EXPECT_EQ(sender->send_batch({}), 0u);
  EXPECT_EQ(st.frames_sent, 33u);
  const std::vector<std::vector<std::uint8_t>> all = bytes_of(frames);
  const std::vector<std::vector<std::uint8_t>> rest(all.begin() + 7,
                                                    all.end());
  EXPECT_EQ(receive(*receiver, rest.size(), 64), rest);
}

TEST(UdpTransport, FallbackLoopsPackAndSplitToo) {
  PassThroughOnExit restore;
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  g_mmsg_enosys.store(true);
  // ~74-byte frames, about 20 to a datagram, one sendto each.
  const std::vector<wire::Frame> frames = frames_from(0, 40, 64);
  EXPECT_EQ(sender->send_batch(items_of(frames)), frames.size());
  EXPECT_FALSE(sender->batching_active());
  const UdpStats& tx = sender->stats();
  EXPECT_EQ(tx.frames_sent, frames.size());
  EXPECT_LE(tx.datagrams_sent * 8, tx.frames_sent);
  EXPECT_EQ(tx.send_calls, 1u + tx.datagrams_sent) << "the probe, then sendto";

  // A span of 8 holds part of the first datagram; the rest wait.
  EXPECT_EQ(receive(*receiver, frames.size(), 8), bytes_of(frames));
  EXPECT_FALSE(receiver->batching_active());
  EXPECT_EQ(receiver->stats().datagrams_received, tx.datagrams_sent);
  EXPECT_EQ(receiver->stats().recv_calls, tx.datagrams_sent)
      << "one recvfrom a datagram; queued frames cost none";
  EXPECT_EQ(receiver->stats().frames_received, frames.size());
}

}  // namespace
}  // namespace ltnc::net

#endif  // LTNC_WRAP_MMSG
