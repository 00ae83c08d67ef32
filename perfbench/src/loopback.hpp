// Loopback UDP plumbing shared by the two socket workloads.
//
// Both workloads run every socket from one thread and keep the order of
// events independent of kernel timing: after a batch is sent, the loop
// receives until every datagram the kernel accepted has arrived, instead
// of until the socket reads empty. A datagram that is late is waited for;
// one that never comes (a kernel drop) is given up after kLossWait and
// shows in net.datagrams_lost.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/udp_transport.hpp"
#include "wire/frame.hpp"

namespace perfbench {

using ltnc::net::UdpTransport;
inline constexpr std::size_t kBatch = UdpTransport::kMaxBatch;
inline constexpr std::int64_t kLossWait = 200'000'000;  // ns

inline std::unique_ptr<UdpTransport> open_loopback() {
  ltnc::net::UdpConfig config;
  config.bind_address = "127.0.0.1";
  std::string error;
  auto socket = UdpTransport::open(config, &error);
  if (socket == nullptr) throw std::runtime_error("udp bind failed: " + error);
  return socket;
}

/// Sends every item, resubmitting the tail the kernel refused with
/// EAGAIN. Returns false when a datagram was refused for another reason.
inline bool send_all(UdpTransport& socket,
                     std::span<const UdpTransport::TxItem> items,
                     Tracer& tracer) {
  const std::uint64_t errors_before =
      socket.stats().transient_errors + socket.stats().fatal_errors;
  std::size_t sent = 0;
  while (sent < items.size()) {
    {
      Scope span(tracer, Op::kSendBatch);
      sent += socket.send_batch(items.subspan(sent));
    }
    if (socket.stats().transient_errors + socket.stats().fatal_errors !=
        errors_before) {
      return false;
    }
  }
  return true;
}

/// Receive buffers for one socket.
struct RxBuffers {
  std::array<ltnc::wire::Frame, kBatch> frames;
  std::array<UdpTransport::PeerIndex, kBatch> peers{};
};

/// Receives until `expected` datagrams arrived or kLossWait passed without
/// one, calling on_frame(peer, bytes) for each.
template <class OnFrame>
void receive_exactly(UdpTransport& socket, std::size_t expected, RxBuffers& rx,
                     Tracer& tracer, OnFrame&& on_frame) {
  std::size_t got = 0;
  std::int64_t waiting_since = 0;
  while (got < expected) {
    std::size_t n = 0;
    {
      Scope span(tracer, Op::kRecvBatch);
      n = socket.recv_batch(rx.frames, rx.peers);
    }
    if (n == 0) {
      const std::int64_t now = now_ns();
      if (waiting_since == 0) waiting_since = now;
      if (now - waiting_since > kLossWait) break;
      continue;
    }
    waiting_since = 0;
    got += n;
    for (std::size_t i = 0; i < n; ++i) on_frame(rx.peers[i], rx.frames[i].bytes());
  }
}

/// Socket tallies summed over every socket of a workload.
inline ltnc::net::UdpStats total_stats(
    const std::vector<const UdpTransport*>& sockets) {
  ltnc::net::UdpStats sum;
  for (const UdpTransport* s : sockets) {
    const ltnc::net::UdpStats& st = s->stats();
    sum.send_calls += st.send_calls;
    sum.recv_calls += st.recv_calls;
    sum.frames_sent += st.frames_sent;
    sum.frames_received += st.frames_received;
    sum.bytes_sent += st.bytes_sent;
    sum.bytes_received += st.bytes_received;
    sum.send_would_block += st.send_would_block;
    sum.recv_would_block += st.recv_would_block;
    sum.transient_errors += st.transient_errors;
    sum.fatal_errors += st.fatal_errors;
  }
  return sum;
}

/// The net and wire metrics of a socket workload. `payload_bytes` is the
/// coded-symbol payload carried by the frames, so the rest of every frame
/// is wire overhead.
inline void add_socket_metrics(RepResult& out, const ltnc::net::UdpStats& s,
                               double payload_bytes) {
  out.frames_sent = s.frames_sent;
  out.frames_received = s.frames_received;
  const double frames = static_cast<double>(s.frames_sent);
  out.counts.push_back({"wire.overhead_bytes_per_frame",
                        ratio(static_cast<double>(s.bytes_sent) - payload_bytes, frames),
                        "B/frame"});
  out.measured.push_back({"net.frames_per_send_call", s.frames_per_send_call(), "frame/call"});
  out.measured.push_back({"net.frames_per_recv_call", s.frames_per_recv_call(), "frame/call"});
  out.measured.push_back({"net.empty_recv_share",
                          ratio(static_cast<double>(s.recv_would_block),
                                static_cast<double>(s.recv_calls)),
                          "ratio"});
  out.measured.push_back({"net.would_block", static_cast<double>(s.send_would_block), "count"});
  out.measured.push_back({"net.datagrams_lost",
                          static_cast<double>(s.frames_sent - s.frames_received), "count"});
}

}  // namespace perfbench
