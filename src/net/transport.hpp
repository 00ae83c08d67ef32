// Transport — pluggable frame channel under the wire codec.
//
// A Transport moves whole wire frames, one per send() and one per recv()
// (the codec rejects anything that does not parse back exactly). Two
// backends ship:
//
//   SimChannel  in-process, deterministic loss / reorder / duplication /
//               MTU injection for tests and simulations
//   UdpPipe     a SimChannel's fault schedule carried over a pair of
//               loopback UDP sockets (net/udp_pipe.hpp)
//
// Both are poll-style and single-threaded, matching the rest of the
// library: send() never blocks, recv() returns false when nothing is
// pending, and received frames land in a caller-owned, arena-backed
// wire::Frame so the receive loop is allocation-free at steady state.
// A real network endpoint is a net::UdpTransport, which speaks only its
// peer-indexed batch calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "wire/frame.hpp"

namespace ltnc::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues one frame. Returns false when the transport refuses it
  /// outright (frame larger than the MTU, socket error); a true return
  /// does NOT promise delivery — datagram semantics.
  virtual bool send(std::span<const std::uint8_t> frame) = 0;

  /// Pops the next pending frame into `out` (reusing its capacity).
  /// Returns false when nothing is pending.
  virtual bool recv(wire::Frame& out) = 0;
};

}  // namespace ltnc::net
