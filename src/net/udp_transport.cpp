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
#include <utility>

#include "wire/codec.hpp"

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

/// True when `bytes` is exactly one wire frame small enough to share a
/// datagram of `limit` bytes with another.
bool shares_datagram(std::span<const std::uint8_t> bytes, std::size_t limit) {
  std::size_t size = 0;
  return bytes.size() <= limit / 2 &&
         wire::leading_frame_size(bytes, size) == wire::DecodeStatus::kOk &&
         size == bytes.size();
}

/// Frames a received datagram splits into: the frames it carries when it
/// is a packed run of whole frames (at most kPackedDatagramBytes), else 1
/// — it is delivered whole, byte for byte as sent.
std::size_t frame_count(std::span<const std::uint8_t> datagram) {
  if (datagram.size() > UdpTransport::kPackedDatagramBytes) return 1;
  return std::max<std::size_t>(1, wire::count_frames(datagram));
}

/// Calls f(frame) for each of the `count` (from frame_count) frames of a
/// datagram, in order.
template <class F>
void for_each_frame(std::span<const std::uint8_t> datagram, std::size_t count,
                    F&& f) {
  if (count == 1) {
    f(datagram);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t size = 0;
    wire::leading_frame_size(datagram, size);
    f(datagram.first(size));
    datagram = datagram.subspan(size);
  }
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
    Address stored{};
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
  if (!send_queued()) return false;  // behind the frames already queued
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
  ++stats_.datagrams_sent;
  stats_.bytes_sent += static_cast<std::uint64_t>(n);
  return n == static_cast<ssize_t>(frame.size());
}

// -- receive queue -----------------------------------------------------------

UdpTransport::QueuedFrame& UdpTransport::push_frame() {
  if (rx_tail_ == rx_queue_.size()) rx_queue_.emplace_back();
  return rx_queue_[rx_tail_++];
}

const unsigned char* UdpTransport::pop_frame(wire::Frame& out) {
  if (rx_head_ == rx_tail_) return nullptr;
  const QueuedFrame& queued = rx_queue_[rx_head_++];
  // A copy, not a swap: the caller's buffer keeps its MTU capacity and
  // the slot its small one.
  out.assign(queued.frame.bytes());
  std::memcpy(last_sender_, queued.from.data(), sizeof(sockaddr_in));
  has_last_sender_ = true;
  if (rx_head_ == rx_tail_) rx_head_ = rx_tail_ = 0;
  return queued.from.data();
}

std::size_t UdpTransport::keep_first_frame(wire::Frame& frame,
                                           const void* from) {
  const std::size_t count = frame_count(frame.bytes());
  if (count == 1) return 1;
  std::size_t first = 0;
  for_each_frame(frame.bytes(), count,
                 [&](std::span<const std::uint8_t> piece) {
                   if (first == 0) {
                     first = piece.size();  // a frame is never empty
                     return;
                   }
                   QueuedFrame& queued = push_frame();
                   queued.frame.assign(piece);
                   std::memcpy(queued.from.data(), from, sizeof(sockaddr_in));
                 });
  frame.resize(first);
  return count;
}

bool UdpTransport::recv(wire::Frame& out) {
  if (pop_frame(out) != nullptr) return true;
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
  ++stats_.datagrams_received;
  stats_.bytes_received += static_cast<std::uint64_t>(n);
  stats_.frames_received += keep_first_frame(out, &from);
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
  if (frames_queued() != 0) return true;
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0 && (pfd.revents & POLLIN) != 0;
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
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    std::memcpy(last_sender_, &from, sizeof(from));
    has_last_sender_ = true;
    // The datagram's further frames queue, and fill the next slots from
    // there; what does not fit waits for the next call.
    stats_.frames_received += keep_first_frame(frame, &from);
    peers[got++] = intern_peer(&from);
    while (got < want && frames_queued() != 0) {
      peers[got] = intern_peer(pop_frame(frames[got]));
      ++got;
    }
  }
  return got;
}

// -- send path ---------------------------------------------------------------

std::size_t UdpTransport::pack(std::span<const TxItem> items,
                               std::size_t& next, Datagram* out) {
  const std::size_t limit = std::min(kPackedDatagramBytes, mtu_);
  if (open_datagram_.size() < peer_addrs_.size()) {
    open_datagram_.resize(peer_addrs_.size(), 0);
  }
  std::size_t n = 0;
  std::uint32_t buffers = 0;
  for (; next < items.size(); ++next) {
    const TxItem& item = items[next];
    if (item.peer >= peer_addrs_.size() || item.bytes.size() > mtu_) {
      ++stats_.fatal_errors;
      continue;
    }
    std::uint32_t& open = open_datagram_[item.peer];
    if (!shares_datagram(item.bytes, limit)) {
      // Alone, after the peer's open datagram: the peer's later frames
      // start a new one, so its frames keep their order.
      if (n == kMaxBatch) break;
      open = 0;
      out[n++] = {item.peer, 1, 0, item.bytes};
      continue;
    }
    if (open != 0) {
      Datagram& d = out[open - 1];
      wire::Frame& buffer = pack_[d.buffer - 1];
      if (buffer.size() + item.bytes.size() <= limit) {
        buffer.append(item.bytes.data(), item.bytes.size());
        ++d.frames;
        continue;
      }
    }
    if (n == kMaxBatch) break;
    if (pack_.size() == buffers) pack_.emplace_back().reserve(limit);
    pack_[buffers].assign(item.bytes);
    out[n++] = {item.peer, 1, ++buffers, {}};
    open = static_cast<std::uint32_t>(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    open_datagram_[out[i].peer] = 0;
    if (out[i].buffer != 0) out[i].bytes = pack_[out[i].buffer - 1].bytes();
  }
  return n;
}

std::size_t UdpTransport::transmit(const Datagram* dgrams, std::size_t n,
                                   bool& blocked) {
  blocked = false;
  std::size_t done = 0;
  const auto accepted = [this](const Datagram& d, std::size_t bytes) {
    ++stats_.datagrams_sent;
    stats_.frames_sent += d.frames;
    stats_.bytes_sent += bytes;
  };
#if defined(__linux__)
  if (use_mmsg_ && n > 0) {
    mmsghdr msgs[kMaxBatch];
    iovec iovs[kMaxBatch];
    for (std::size_t i = 0; i < n; ++i) {
      iovs[i] = {const_cast<std::uint8_t*>(dgrams[i].bytes.data()),
                 dgrams[i].bytes.size()};
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = peer_addrs_[dgrams[i].peer].data();
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    while (done < n) {
      ++stats_.send_calls;
      const int sent = ::sendmmsg(fd_, msgs + done,
                                  static_cast<unsigned int>(n - done), 0);
      if (sent < 0) {
        const int err = errno;
        if (err == ENOSYS) {
          use_mmsg_ = false;  // the sendto loop below takes the rest
          break;
        }
        if (is_would_block(err)) {
          ++stats_.send_would_block;
          blocked = true;
          return done;
        }
        count_error(err);
        ++done;  // this datagram is dropped, and counted
        if (!is_transient(err)) return done;
        continue;
      }
      for (int i = 0; i < sent; ++i) {
        accepted(dgrams[done + i], msgs[done + i].msg_len);
      }
      done += static_cast<std::size_t>(sent);
    }
  }
#endif
  for (; done < n; ++done) {
    const Datagram& d = dgrams[done];
    ++stats_.send_calls;
    const ssize_t sent = ::sendto(
        fd_, d.bytes.data(), d.bytes.size(), 0,
        reinterpret_cast<const sockaddr*>(peer_addrs_[d.peer].data()),
        sizeof(sockaddr_in));
    if (sent < 0) {
      const int err = errno;
      if (is_would_block(err)) {
        ++stats_.send_would_block;
        blocked = true;
        return done;
      }
      count_error(err);
      if (!is_transient(err)) return done + 1;
      continue;
    }
    accepted(d, static_cast<std::size_t>(sent));
  }
  return done;
}

void UdpTransport::queue_datagrams(const Datagram* dgrams, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    QueuedDatagram& queued = tx_queue_.emplace_back();
    queued.peer = dgrams[i].peer;
    queued.frames = dgrams[i].frames;
    queued.bytes.assign(dgrams[i].bytes);
  }
}

bool UdpTransport::send_queued() {
  while (tx_head_ < tx_queue_.size()) {
    Datagram dgrams[kMaxBatch];
    const std::size_t n = std::min(kMaxBatch, tx_queue_.size() - tx_head_);
    for (std::size_t i = 0; i < n; ++i) {
      const QueuedDatagram& queued = tx_queue_[tx_head_ + i];
      dgrams[i] = {queued.peer, queued.frames, 0, queued.bytes.bytes()};
    }
    bool blocked = false;
    tx_head_ += transmit(dgrams, n, blocked);
    if (blocked) return false;
  }
  tx_queue_.clear();
  tx_head_ = 0;
  return true;
}

std::size_t UdpTransport::send_batch_impl(std::span<const TxItem> items) {
  if (!send_queued()) return 0;
  const std::uint64_t sent_before = stats_.frames_sent;
  std::uint64_t queued = 0;
  std::size_t next = 0;
  while (next < items.size()) {
    Datagram dgrams[kMaxBatch];
    const std::size_t n = pack(items, next, dgrams);
    bool blocked = false;
    const std::size_t done = transmit(dgrams, n, blocked);
    if (done < n) {
      // Refused (or a fatal error): the rest wait, and no item after
      // them is taken.
      queue_datagrams(dgrams + done, n - done);
      for (std::size_t i = done; i < n; ++i) queued += dgrams[i].frames;
      break;
    }
  }
  return static_cast<std::size_t>(stats_.frames_sent - sent_before + queued);
}

std::size_t UdpTransport::recv_batch_impl(std::span<wire::Frame> frames,
                                          std::span<PeerIndex> peers) {
  const std::size_t capacity = std::min(frames.size(), peers.size());
  if (frames_queued() != 0) {
    std::size_t n = 0;
    for (; n < capacity && frames_queued() != 0; ++n) {
      peers[n] = intern_peer(pop_frame(frames[n]));
    }
    return n;
  }
#if defined(__linux__)
  if (use_mmsg_) return recv_mmsg(frames, peers);
#endif
  return recv_batch_fallback(frames, peers);
}

#if defined(__linux__)

std::size_t UdpTransport::recv_mmsg(std::span<wire::Frame> frames,
                                    std::span<PeerIndex> peers) {
  const std::size_t capacity = std::min(frames.size(), peers.size());
  const std::size_t want = std::min(capacity, kMaxBatch);
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
  const auto datagrams = static_cast<std::size_t>(got);
  std::size_t count[kMaxBatch];
  std::size_t in_place = datagrams;  // datagrams before the first packed one
  for (std::size_t d = 0; d < datagrams; ++d) {
    frames[d].resize(msgs[d].msg_len);
    stats_.bytes_received += msgs[d].msg_len;
    count[d] = frame_count(frames[d].bytes());
    stats_.frames_received += count[d];
    peers[d] = intern_peer(&addrs[d]);  // first-sight order
    if (count[d] > 1 && in_place == datagrams) in_place = d;
  }
  stats_.datagrams_received += datagrams;
  if (in_place != 0) {  // a queued frame's sender is set as it pops
    std::memcpy(last_sender_, &addrs[in_place - 1], sizeof(sockaddr_in));
    has_last_sender_ = true;
  }
  // Single-frame datagrams stay where they landed. From the first packed
  // one on, every frame passes through the queue, so frames keep their
  // arrival order, and the span fills from it.
  for (std::size_t d = in_place; d < datagrams; ++d) {
    for_each_frame(frames[d].bytes(), count[d],
                   [&](std::span<const std::uint8_t> frame) {
                     QueuedFrame& queued = push_frame();
                     queued.frame.assign(frame);
                     std::memcpy(queued.from.data(), &addrs[d],
                                 sizeof(sockaddr_in));
                   });
  }
  std::size_t n = in_place;
  for (; n < capacity && frames_queued() != 0; ++n) {
    peers[n] = intern_peer(pop_frame(frames[n]));
  }
  return n;
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
std::size_t UdpTransport::recv_batch_fallback(std::span<wire::Frame>,
                                              std::span<PeerIndex>) {
  return 0;
}
void UdpTransport::count_error(int) {}

}  // namespace ltnc::net

#endif
