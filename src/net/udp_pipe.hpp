// UdpPipe — a SimChannel's fault schedule carried over real loopback
// sockets.
//
// send() feeds a SimChannel, the seeded loss / duplicate / reorder / MTU /
// overflow stage. recv() moves what that channel delivers through a pair
// of loopback UDP sockets, one send_batch at a time (small frames pack
// several to a datagram), and hands the frames out as they arrive. At
// most 64 frames (and about 32 KiB) sit in the socket at once, well
// inside a default receive buffer, and recv() waits for every frame the
// transport took. A loopback keeps datagram order, so the pipe delivers
// exactly the frames, in exactly the order, that a SimChannel with the
// same config delivers: a driver's counts are the same over either link,
// and only its clock differs. (The one exception: an item the fault stage
// delivers that is not one frame but exactly a run of whole frames
// arrives split into them; no driver sends such bytes.)
//
// That holds for a driver that sends and then drains the link, as every
// harness does. One recv() may move up to 64 frames out of the fault
// stage, so a send() between two recv()s of one drain would meet a
// shorter fault queue than a bare SimChannel holds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/sim_channel.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "wire/frame.hpp"

namespace ltnc::net {

/// The link a harness runs its traffic over: a SimChannel, or the same
/// fault schedule over a UdpPipe.
enum class Link : std::uint8_t { kSim, kUdp };

class UdpPipe final : public Transport {
 public:
  /// Opens the socket pair; nullptr with a reason in `error` when no
  /// loopback socket can be bound.
  static std::unique_ptr<UdpPipe> open(const SimChannelConfig& faults,
                                       std::string* error);

  bool send(std::span<const std::uint8_t> frame) override;
  bool recv(wire::Frame& out) override;
  std::size_t mtu() const override { return faults_.mtu(); }

  /// Frames lost between the sockets: dropped by a send error, or never
  /// delivered within a second. 0 on a healthy loopback.
  std::uint64_t socket_losses() const { return socket_losses_; }

  /// The sending socket's tallies: frames, and the datagrams they were
  /// packed into.
  const UdpStats& sender_stats() const { return tx_->stats(); }

 private:
  UdpPipe(const SimChannelConfig& faults, std::unique_ptr<UdpTransport> tx,
          std::unique_ptr<UdpTransport> rx);
  /// Moves the fault stage's next deliveries into the (empty) socket.
  void refill();

  SimChannel faults_;
  std::unique_ptr<UdpTransport> tx_;
  std::unique_ptr<UdpTransport> rx_;
  std::array<wire::Frame, UdpTransport::kMaxBatch> staged_;
  std::size_t in_socket_ = 0;
  std::uint64_t socket_losses_ = 0;
};

/// One unidirectional link with the fault schedule of `faults`. Throws
/// (LTNC_CHECK) when a UDP link cannot open its sockets.
std::unique_ptr<Transport> open_link(Link link,
                                     const SimChannelConfig& faults);

}  // namespace ltnc::net
