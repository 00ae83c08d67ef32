#include "net/udp_transport.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace ltnc::net {

namespace {

bool parse_endpoint(const std::string& address, std::uint16_t port,
                    sockaddr_in& out, std::string* error) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &out.sin_addr) != 1) {
    if (error != nullptr) *error = "bad IPv4 address: " + address;
    return false;
  }
  return true;
}

/// Registry key: the (address, port) identity of a sockaddr_in, byte
/// orders preserved (only equality matters).
std::uint64_t peer_key(const sockaddr_in& addr) {
  return (static_cast<std::uint64_t>(addr.sin_addr.s_addr) << 16) |
         addr.sin_port;
}

bool is_would_block(int err) {
  return err == EAGAIN || err == EWOULDBLOCK;
}

/// Per-peer failures a datagram socket shrugs off: an ICMP unreachable
/// bounced back from an earlier send (ECONNREFUSED and the route family),
/// a signal, or a transiently exhausted kernel buffer. One datagram is
/// affected at most; the socket itself is fine.
bool is_transient(int err) {
  return err == ECONNREFUSED || err == EHOSTUNREACH || err == ENETUNREACH ||
         err == EINTR || err == ENOBUFS || err == EPERM;
}

}  // namespace

static_assert(sizeof(sockaddr_in) <= 16,
              "peer address storage must hold a sockaddr_in");

void UdpTransport::count_error(int err) {
  stats_.last_errno = err;
  if (is_transient(err)) {
    ++stats_.transient_errors;
  } else {
    ++stats_.fatal_errors;
  }
}

std::unique_ptr<UdpTransport> UdpTransport::open(const UdpConfig& config,
                                                 std::string* error) {
  std::unique_ptr<UdpTransport> t(new UdpTransport());
  t->mtu_ = config.mtu;
#if defined(__linux__)
  t->use_mmsg_ = true;  // flips off at runtime on ENOSYS
#endif

  t->fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (t->fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return nullptr;
  }

  sockaddr_in bind_addr{};
  if (!parse_endpoint(config.bind_address, config.bind_port, bind_addr,
                      error)) {
    return nullptr;
  }
  if (::bind(t->fd_, reinterpret_cast<const sockaddr*>(&bind_addr),
             sizeof(bind_addr)) != 0) {
    if (error != nullptr) *error = std::string("bind: ") + strerror(errno);
    return nullptr;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(t->fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    if (error != nullptr) {
      *error = std::string("getsockname: ") + strerror(errno);
    }
    return nullptr;
  }
  t->local_port_ = ntohs(bound.sin_port);

  const int fl = ::fcntl(t->fd_, F_GETFL, 0);
  if (fl < 0 || ::fcntl(t->fd_, F_SETFL, fl | O_NONBLOCK) != 0) {
    if (error != nullptr) *error = std::string("fcntl: ") + strerror(errno);
    return nullptr;
  }

  if (!config.peer_address.empty()) {
    sockaddr_in peer{};
    if (!parse_endpoint(config.peer_address, config.peer_port, peer, error)) {
      return nullptr;
    }
    t->default_peer_ = t->intern_peer(&peer);
  }
  return t;
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

UdpTransport::PeerIndex UdpTransport::intern_peer(const void* addr) {
  sockaddr_in in;
  std::memcpy(&in, addr, sizeof(in));
  const auto [it, inserted] = peer_index_.try_emplace(
      peer_key(in), static_cast<PeerIndex>(peer_addrs_.size()));
  if (inserted) {
    std::array<unsigned char, 16> stored{};
    std::memcpy(stored.data(), &in, sizeof(in));
    peer_addrs_.push_back(stored);
  }
  return it->second;
}

UdpTransport::PeerIndex UdpTransport::add_peer(const std::string& address,
                                               std::uint16_t port) {
  sockaddr_in addr{};
  if (!parse_endpoint(address, port, addr, nullptr)) return kInvalidPeer;
  return intern_peer(&addr);
}

bool UdpTransport::send(std::span<const std::uint8_t> frame) {
  if (default_peer_ == kInvalidPeer || frame.size() > mtu_) return false;
  ++stats_.send_calls;
  const ssize_t n = ::sendto(
      fd_, frame.data(), frame.size(), 0,
      reinterpret_cast<const sockaddr*>(peer_addrs_[default_peer_].data()),
      sizeof(sockaddr_in));
  if (n < 0) {
    if (is_would_block(errno)) {
      ++stats_.send_would_block;
    } else {
      count_error(errno);
    }
    return false;
  }
  ++stats_.frames_sent;
  stats_.bytes_sent += static_cast<std::uint64_t>(n);
  return n == static_cast<ssize_t>(frame.size());
}

bool UdpTransport::recv(wire::Frame& out) {
  out.resize(mtu_);
  sockaddr_in from{};
  socklen_t from_len = sizeof(from);
  ++stats_.recv_calls;
  const ssize_t n =
      ::recvfrom(fd_, out.data(), out.capacity(), 0,
                 reinterpret_cast<sockaddr*>(&from), &from_len);
  if (n < 0) {
    out.clear();
    if (is_would_block(errno)) {
      ++stats_.recv_would_block;  // the expected idle path, not an error
    } else {
      count_error(errno);
    }
    return false;
  }
  out.resize(static_cast<std::size_t>(n));
  ++stats_.frames_received;
  stats_.bytes_received += static_cast<std::uint64_t>(n);
  std::memcpy(last_sender_, &from, sizeof(from));
  has_last_sender_ = true;
  return true;
}

bool UdpTransport::set_peer_to_last_sender() {
  if (!has_last_sender_) return false;
  default_peer_ = intern_peer(last_sender_);
  return true;
}

bool UdpTransport::wait_readable(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0 && (pfd.revents & POLLIN) != 0;
}

std::size_t UdpTransport::send_batch_fallback(std::span<const TxItem> items) {
  std::size_t accepted = 0;
  for (const TxItem& item : items) {
    if (item.peer >= peer_addrs_.size() || item.bytes.size() > mtu_) {
      ++stats_.fatal_errors;
      continue;
    }
    ++stats_.send_calls;
    const ssize_t n = ::sendto(
        fd_, item.bytes.data(), item.bytes.size(), 0,
        reinterpret_cast<const sockaddr*>(peer_addrs_[item.peer].data()),
        sizeof(sockaddr_in));
    if (n < 0) {
      if (is_would_block(errno)) {
        ++stats_.send_would_block;
        break;  // socket buffer full — the rest would block too
      }
      count_error(errno);  // transient: this datagram only; keep going
      if (!is_transient(errno)) break;
      continue;
    }
    ++accepted;
    ++stats_.frames_sent;
    stats_.bytes_sent += static_cast<std::uint64_t>(n);
  }
  return accepted;
}

std::size_t UdpTransport::recv_batch_fallback(std::span<wire::Frame> frames,
                                              std::span<PeerIndex> peers) {
  const std::size_t want = std::min(frames.size(), peers.size());
  std::size_t got = 0;
  while (got < want) {
    wire::Frame& frame = frames[got];
    frame.resize(mtu_);
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ++stats_.recv_calls;
    const ssize_t n =
        ::recvfrom(fd_, frame.data(), frame.capacity(), 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      frame.clear();
      if (is_would_block(errno)) {
        ++stats_.recv_would_block;
      } else {
        count_error(errno);
      }
      break;
    }
    frame.resize(static_cast<std::size_t>(n));
    ++stats_.frames_received;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    std::memcpy(last_sender_, &from, sizeof(from));
    has_last_sender_ = true;
    peers[got] = intern_peer(&from);
    ++got;
  }
  return got;
}

#if defined(__linux__)

std::size_t UdpTransport::send_batch_impl(std::span<const TxItem> items) {
  if (!use_mmsg_) return send_batch_fallback(items);
  std::size_t accepted = 0;
  std::size_t offset = 0;
  while (offset < items.size()) {
    mmsghdr msgs[kMaxBatch];
    iovec iovs[kMaxBatch];
    // Map batch slot → item index so skipped (invalid) items cannot
    // misalign the tallies.
    std::size_t item_of[kMaxBatch];
    unsigned int n = 0;
    while (offset < items.size() && n < kMaxBatch) {
      const TxItem& item = items[offset];
      if (item.peer >= peer_addrs_.size() || item.bytes.size() > mtu_) {
        ++stats_.fatal_errors;
        ++offset;
        continue;
      }
      iovs[n] = {const_cast<std::uint8_t*>(item.bytes.data()),
                 item.bytes.size()};
      std::memset(&msgs[n], 0, sizeof(msgs[n]));
      msgs[n].msg_hdr.msg_iov = &iovs[n];
      msgs[n].msg_hdr.msg_iovlen = 1;
      msgs[n].msg_hdr.msg_name =
          const_cast<unsigned char*>(peer_addrs_[item.peer].data());
      msgs[n].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      item_of[n] = offset;
      ++n;
      ++offset;
    }
    unsigned int done = 0;
    while (done < n) {
      ++stats_.send_calls;
      const int sent = ::sendmmsg(fd_, msgs + done, n - done, 0);
      if (sent < 0) {
        if (errno == ENOSYS) {
          use_mmsg_ = false;
          return accepted + send_batch_fallback(items.subspan(item_of[done]));
        }
        if (is_would_block(errno)) {
          ++stats_.send_would_block;
          return accepted;  // socket buffer full — caller retries later
        }
        count_error(errno);
        if (!is_transient(errno)) return accepted;
        ++done;  // transient: skip the failing datagram, keep going
        continue;
      }
      for (int i = 0; i < sent; ++i) {
        ++stats_.frames_sent;
        stats_.bytes_sent += msgs[done + i].msg_len;
      }
      accepted += static_cast<std::size_t>(sent);
      done += static_cast<unsigned int>(sent);
    }
  }
  return accepted;
}

std::size_t UdpTransport::recv_batch_impl(std::span<wire::Frame> frames,
                                     std::span<PeerIndex> peers) {
  if (!use_mmsg_) return recv_batch_fallback(frames, peers);
  const std::size_t want =
      std::min({frames.size(), peers.size(), kMaxBatch});
  if (want == 0) return 0;
  mmsghdr msgs[kMaxBatch];
  iovec iovs[kMaxBatch];
  sockaddr_in addrs[kMaxBatch];
  for (std::size_t i = 0; i < want; ++i) {
    frames[i].resize(mtu_);
    iovs[i] = {frames[i].data(), frames[i].capacity()};
    std::memset(&msgs[i], 0, sizeof(msgs[i]));
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  ++stats_.recv_calls;
  const int got =
      ::recvmmsg(fd_, msgs, static_cast<unsigned int>(want), 0, nullptr);
  if (got < 0) {
    if (errno == ENOSYS) {
      use_mmsg_ = false;
      --stats_.recv_calls;  // the probe never moved a frame
      return recv_batch_fallback(frames, peers);
    }
    if (is_would_block(errno)) {
      ++stats_.recv_would_block;
    } else {
      count_error(errno);
    }
    return 0;
  }
  for (int i = 0; i < got; ++i) {
    frames[i].resize(msgs[i].msg_len);
    ++stats_.frames_received;
    stats_.bytes_received += msgs[i].msg_len;
    peers[i] = intern_peer(&addrs[i]);
  }
  if (got > 0) {
    std::memcpy(last_sender_, &addrs[got - 1], sizeof(sockaddr_in));
    has_last_sender_ = true;
  }
  return static_cast<std::size_t>(got);
}

#else  // POSIX without the mmsg syscalls

std::size_t UdpTransport::send_batch_impl(std::span<const TxItem> items) {
  return send_batch_fallback(items);
}

std::size_t UdpTransport::recv_batch_impl(std::span<wire::Frame> frames,
                                     std::span<PeerIndex> peers) {
  return recv_batch_fallback(frames, peers);
}

#endif

}  // namespace ltnc::net

#else  // non-POSIX stub

namespace ltnc::net {

std::unique_ptr<UdpTransport> UdpTransport::open(const UdpConfig&,
                                                 std::string* error) {
  if (error != nullptr) *error = "UDP transport requires a POSIX platform";
  return nullptr;
}

UdpTransport::~UdpTransport() = default;
bool UdpTransport::send(std::span<const std::uint8_t>) { return false; }
bool UdpTransport::recv(wire::Frame&) { return false; }
bool UdpTransport::set_peer_to_last_sender() { return false; }
bool UdpTransport::wait_readable(int) { return false; }
UdpTransport::PeerIndex UdpTransport::add_peer(const std::string&,
                                               std::uint16_t) {
  return kInvalidPeer;
}
UdpTransport::PeerIndex UdpTransport::intern_peer(const void*) {
  return kInvalidPeer;
}
std::size_t UdpTransport::send_batch_impl(std::span<const TxItem>) { return 0; }
std::size_t UdpTransport::recv_batch_impl(std::span<wire::Frame>,
                                     std::span<PeerIndex>) {
  return 0;
}
std::size_t UdpTransport::send_batch_fallback(std::span<const TxItem>) {
  return 0;
}
std::size_t UdpTransport::recv_batch_fallback(std::span<wire::Frame>,
                                              std::span<PeerIndex>) {
  return 0;
}
void UdpTransport::count_error(int) {}

}  // namespace ltnc::net

#endif
