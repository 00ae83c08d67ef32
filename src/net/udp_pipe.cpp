#include "net/udp_pipe.hpp"

#include <utility>

#include "common/check.hpp"

namespace ltnc::net {
namespace {

/// Payload bytes one refill may put in the socket (one frame always
/// goes). With per-datagram kernel overhead this stays well inside the
/// common 208 KiB default receive buffer, so nothing the kernel accepts
/// overflows it.
constexpr std::size_t kSocketBytes = 32 * 1024;
/// How long recv() waits for a datagram the kernel accepted. Loopback
/// delivers within the send call, so running out means it was lost.
constexpr int kDeliveryTimeoutMs = 1000;

}  // namespace

UdpPipe::UdpPipe(const SimChannelConfig& faults,
                 std::unique_ptr<UdpTransport> tx,
                 std::unique_ptr<UdpTransport> rx)
    : faults_(faults), tx_(std::move(tx)), rx_(std::move(rx)) {}

std::unique_ptr<UdpPipe> UdpPipe::open(const SimChannelConfig& faults,
                                       std::string* error) {
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  cfg.mtu = faults.mtu;
  auto rx = UdpTransport::open(cfg, error);
  if (rx == nullptr) return nullptr;
  auto tx = UdpTransport::open(cfg, error);
  if (tx == nullptr) return nullptr;
  tx->add_peer("127.0.0.1", rx->local_port());  // peer 0 of every refill
  return std::unique_ptr<UdpPipe>(
      new UdpPipe(faults, std::move(tx), std::move(rx)));
}

bool UdpPipe::send(std::span<const std::uint8_t> frame) {
  return faults_.send(frame);
}

void UdpPipe::refill() {
  std::array<UdpTransport::TxItem, UdpTransport::kMaxBatch> items;
  std::size_t n = 0;
  std::size_t bytes = 0;
  while (n < staged_.size() && bytes < kSocketBytes &&
         faults_.recv(staged_[n])) {
    items[n] = UdpTransport::TxItem{0, staged_[n].bytes()};
    bytes += staged_[n].size();
    ++n;
  }
  if (n == 0) return;
  in_socket_ = tx_->send_batch({items.data(), n});
  socket_losses_ += n - in_socket_;
}

bool UdpPipe::recv(wire::Frame& out) {
  UdpTransport::PeerIndex from = 0;
  for (;;) {
    if (in_socket_ == 0) refill();
    if (in_socket_ == 0) return false;
    if (rx_->recv_batch({&out, 1}, {&from, 1}) == 1) {
      --in_socket_;
      return true;
    }
    tx_->send_batch({});  // datagrams a refusal queued in tx_ go now
    if (!rx_->wait_readable(kDeliveryTimeoutMs)) {
      socket_losses_ += in_socket_;
      in_socket_ = 0;
    }
  }
}

std::unique_ptr<Transport> open_link(Link link,
                                     const SimChannelConfig& faults) {
  if (link == Link::kSim) return std::make_unique<SimChannel>(faults);
  std::string error;
  std::unique_ptr<UdpPipe> pipe = UdpPipe::open(faults, &error);
  LTNC_CHECK_MSG(pipe != nullptr, "udp link: " + error);
  return pipe;
}

}  // namespace ltnc::net
