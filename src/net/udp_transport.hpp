// UdpTransport — real POSIX UDP sockets under the wire codec.
//
// A datagram carries one or more whole wire frames. The socket is bound,
// set non-blocking, and polled from the protocol loop. Its one surface is
// batched and peer-indexed: recv_batch lands frames in the caller's
// arena-backed wire::Frames and names the PeerIndex each came from, and
// send_batch takes (peer, bytes) pairs, so a receiver answers the
// PeerIndex a frame came from — the abort/ack channel of §III-C over a
// real network.
//
// **Batched I/O.** Each call moves up to kMaxBatch datagrams per
// recvmmsg/sendmmsg syscall on Linux, with a runtime fallback to a
// recvfrom/sendto loop on kernels or platforms without the mmsg calls —
// same semantics, one syscall per datagram, so callers never branch on
// availability. Every distinct remote address is interned to a dense
// PeerIndex (add_peer, or auto-grown on a datagram's first sight), which
// is what the sharded endpoint hashes on; one socket fans out to a whole
// swarm.
//
// **Packing.** send_batch packs the frames bound for one destination, in
// item order, back to back into datagrams of at most kPackedDatagramBytes
// (and never more than UdpConfig::mtu). Two kinds of item go out alone,
// byte for byte: a frame too big to share such a datagram with another
// (over half of it), and bytes that are not exactly one wire frame.
// recv_batch splits a datagram of at most kPackedDatagramBytes that is
// exactly a run of whole frames (wire::count_frames) and delivers any
// other datagram whole. Frames that do not fit the caller's span wait in
// the transport and come back first on the next recv_batch, with no
// syscall; wait_readable() returns true at once while any wait. No byte
// is added on the wire: frames stay byte-identical and the protocol
// version stays 2. A receiver that predates packing rejects a packed
// datagram whole (kTrailingBytes) instead of misreading it. UdpStats
// counts frames and datagrams apart.
//
// **Error discipline.** EAGAIN/EWOULDBLOCK is the *expected* idle result
// of a non-blocking socket and is counted separately (would_block) from
// transient per-peer failures (ECONNREFUSED and friends — a receiver went
// away; counted, skipped, never fatal) and genuinely fatal socket errors
// (counted with the errno preserved in stats().last_errno). The batch
// calls return counts either way — datagram semantics — but the tallies
// let a caller distinguish "link idle" from "link broken".
//
// **A datagram the kernel refuses.** One packed datagram can hold items
// from before and after an item of another datagram, so send_batch cannot
// hand a refused datagram's items back as a tail of `items`. When the
// kernel refuses a datagram with EAGAIN, that datagram and the rest of
// the call's datagrams stay queued in the transport, in order, and count
// as taken; the call takes no further item. A fatal error drops its one
// datagram (counted) and queues the rest the same way. The next
// send_batch (an empty one too) sends the queue first, and takes no new
// frame while the kernel still refuses it. So a frame is never sent
// twice, frames to one destination keep their order, and a frame leaves
// the transport only in a datagram the kernel accepted or in one an error
// dropped and counted (transient_errors, fatal_errors).
//
// Compiled to a stub returning "unsupported" on non-POSIX platforms so
// the library stays portable; everything else in src/net is pure C++.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "wire/frame.hpp"

namespace ltnc::net {

struct UdpConfig {
  std::string bind_address = "0.0.0.0";
  std::uint16_t bind_port = 0;  ///< 0 = ephemeral (see local_port())
  std::size_t mtu = 65507;      ///< max UDP payload over IPv4
};

/// Syscall-level tallies. would_block is the idle path, not an error;
/// transient_errors are per-peer failures (ECONNREFUSED, EHOSTUNREACH,
/// ENETUNREACH, EINTR, ENOBUFS, EPERM) that cost one datagram at most;
/// fatal_errors is everything else (and send_batch items it skips as
/// invalid), with the last errno preserved.
struct UdpStats {
  std::uint64_t send_calls = 0;       ///< syscalls issued (batched count 1)
  std::uint64_t recv_calls = 0;       ///< syscalls; queued frames cost none
  std::uint64_t frames_sent = 0;      ///< frames in accepted datagrams
  std::uint64_t datagrams_sent = 0;   ///< datagrams the kernel accepted
  /// Frames the received datagrams split into, those still queued for a
  /// later call included.
  std::uint64_t frames_received = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_would_block = 0;  ///< EAGAIN on send (socket buffer full)
  std::uint64_t recv_would_block = 0;  ///< EAGAIN on recv (nothing pending)
  std::uint64_t transient_errors = 0;
  std::uint64_t fatal_errors = 0;
  int last_errno = 0;                  ///< of the most recent non-EAGAIN error

  double frames_per_send_call() const {
    return send_calls == 0
               ? 0.0
               : static_cast<double>(frames_sent) /
                     static_cast<double>(send_calls);
  }
  double frames_per_recv_call() const {
    return recv_calls == 0
               ? 0.0
               : static_cast<double>(frames_received) /
                     static_cast<double>(recv_calls);
  }
  UdpStats& operator+=(const UdpStats& o) {
    send_calls += o.send_calls;
    recv_calls += o.recv_calls;
    frames_sent += o.frames_sent;
    datagrams_sent += o.datagrams_sent;
    frames_received += o.frames_received;
    datagrams_received += o.datagrams_received;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    send_would_block += o.send_would_block;
    recv_would_block += o.recv_would_block;
    transient_errors += o.transient_errors;
    fatal_errors += o.fatal_errors;
    if (o.last_errno != 0) last_errno = o.last_errno;
    return *this;
  }

  /// Frames per datagram, one direction at a time: 1 without packing.
  double frames_per_sent_datagram() const {
    return datagrams_sent == 0 ? 0.0
                               : static_cast<double>(frames_sent) /
                                     static_cast<double>(datagrams_sent);
  }
  double frames_per_received_datagram() const {
    return datagrams_received == 0
               ? 0.0
               : static_cast<double>(frames_received) /
                     static_cast<double>(datagrams_received);
  }
};

class UdpTransport final {
 public:
  /// Dense handle for an interned remote address (the sharded endpoint's
  /// session::PeerId), assigned in first-sight order: by add_peer, or by
  /// recv_batch for a source it has not seen.
  using PeerIndex = std::uint32_t;
  static constexpr PeerIndex kInvalidPeer = ~PeerIndex{0};

  /// Largest number of datagrams one recvmmsg/sendmmsg call can move.
  static constexpr std::size_t kMaxBatch = 64;

  /// Largest datagram send_batch packs frames into: a 1,500-byte Ethernet
  /// MTU less the IPv4 (20) and UDP (8) headers, so a packed datagram is
  /// never fragmented on such a path. A frame shares one only when it is
  /// at most half of it (736 bytes).
  static constexpr std::size_t kPackedDatagramBytes = 1472;

  /// Opens and binds the socket. Returns nullptr on failure with a
  /// human-readable reason in `error` (also on non-POSIX builds).
  static std::unique_ptr<UdpTransport> open(const UdpConfig& config,
                                            std::string* error);

  ~UdpTransport();
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // --- batched I/O ----------------------------------------------------------

  /// One outbound frame of a batch: the interned destination plus the
  /// frame bytes (which must stay alive across the call).
  struct TxItem {
    PeerIndex peer = 0;
    std::span<const std::uint8_t> bytes;
  };

  /// Packs the items into datagrams (see the header comment) and sends
  /// them, up to kMaxBatch datagrams per sendmmsg syscall (fallback: a
  /// sendto loop). Returns how many items it took: sent, or queued in the
  /// transport behind a refused datagram. After a refusal it takes no
  /// further item, so with no invalid item the return value counts the
  /// leading items taken and the caller offers the rest again later; it
  /// is 0 while an earlier refusal still stands. Transient per-peer
  /// errors drop that datagram and keep going. Items with an unknown peer
  /// index or over-MTU bytes are skipped and counted fatal. An empty
  /// `items` only retries the queue.
  std::size_t send_batch(std::span<const TxItem> items) {
    const std::size_t n = send_batch_impl(items);
    LTNC_TELEMETRY(
        if (telemetry_ != nullptr &&
            telemetry_->send_batch_frames != nullptr && n > 0) {
          telemetry_->send_batch_frames->record(n);
        });
    return n;
  }

  /// Receives up to min(frames.size(), peers.size()) frames: the queued
  /// ones if any wait (no syscall), else up to kMaxBatch datagrams in one
  /// recvmmsg syscall (fallback: a recvfrom loop that stops once the
  /// frames in hand fill the span), split into frames in arrival order;
  /// what does not fit is queued for the next call. frames[i] is resized
  /// to frame i, and a datagram of one frame lands in place; peers[i] is
  /// the interned source address — first-sight senders are registered
  /// automatically. Returns the count received (0 on idle). Oversized
  /// datagrams are truncated by the kernel and fail frame decoding — the
  /// codec treats them as malformed, which is the right failure mode.
  std::size_t recv_batch(std::span<wire::Frame> frames,
                         std::span<PeerIndex> peers) {
    const std::size_t n = recv_batch_impl(frames, peers);
    LTNC_TELEMETRY(
        if (telemetry_ != nullptr &&
            telemetry_->recv_batch_frames != nullptr && n > 0) {
          telemetry_->recv_batch_frames->record(n);
        });
    return n;
  }

  /// Attaches observer-only batch-size histograms. The bundle must
  /// outlive the transport. No-op under LTNC_TELEMETRY=OFF. The errno-
  /// class tallies stay in stats(); a registry reads them from there
  /// (telemetry::Registry::counter_fn).
  void set_telemetry(const telemetry::TransportInstruments* instruments) {
    telemetry_ = instruments;
  }

  /// True when the mmsg syscalls are compiled in and the kernel accepts
  /// them (flips to false at runtime on ENOSYS — the fallback loop keeps
  /// the same semantics at one syscall per datagram).
  bool batching_active() const { return use_mmsg_; }

  /// Blocks until a frame is pending or `timeout_ms` elapses; true when
  /// one is pending (at once while frames wait in the transport). The
  /// idle wait of a blocking-style driver, instead of spinning on
  /// recv_batch().
  bool wait_readable(int timeout_ms);

  // --- peer registry --------------------------------------------------------

  /// Interns a remote address, returning its stable index (the existing
  /// one if already known); kInvalidPeer on a bad address literal.
  PeerIndex add_peer(const std::string& address, std::uint16_t port);

  std::size_t peer_count() const { return peer_addrs_.size(); }

  /// Port actually bound (resolves an ephemeral bind_port = 0).
  std::uint16_t local_port() const { return local_port_; }

  const UdpStats& stats() const { return stats_; }

 private:
  UdpTransport() = default;

  using Address = std::array<unsigned char, 16>;  ///< a sockaddr_in image

  /// One datagram on its way out: `frames` frames for `peer`, in an
  /// item's own bytes or (buffer != 0) in pack_[buffer - 1].
  struct Datagram {
    PeerIndex peer = 0;
    std::uint32_t frames = 0;
    std::uint32_t buffer = 0;
    std::span<const std::uint8_t> bytes;
  };
  /// A datagram the kernel refused, queued with a copy of its bytes.
  struct QueuedDatagram {
    PeerIndex peer = 0;
    std::uint32_t frames = 0;
    wire::Frame bytes;
  };
  /// A received frame of a packed datagram, on its way to the caller.
  struct QueuedFrame {
    wire::Frame frame;
    PeerIndex from = 0;
  };

  /// Interns a raw sockaddr_in image; returns its dense index.
  PeerIndex intern_peer(const void* addr);
  std::size_t send_batch_impl(std::span<const TxItem> items);
  std::size_t recv_batch_impl(std::span<wire::Frame> frames,
                              std::span<PeerIndex> peers);
  /// One recvmmsg into the span, or (fallback) one recvfrom a datagram
  /// until the frames in hand fill it; then the split: single-frame
  /// datagrams stay where they landed, and from the first packed one on,
  /// every frame passes through the queue. Returns the frames in place.
  std::size_t recv_datagrams(std::span<wire::Frame> frames,
                             std::span<PeerIndex> peers);
  /// Packs items from `next` on into at most kMaxBatch datagrams,
  /// advancing `next` past every item taken or skipped.
  std::size_t pack(std::span<const TxItem> items, std::size_t& next,
                   Datagram* out);
  /// Sends `dgrams` in order; returns how many the kernel accepted or an
  /// error dropped. Stops before a datagram refused with EAGAIN (setting
  /// `blocked`) and after one dropped by a fatal error.
  std::size_t transmit(const Datagram* dgrams, std::size_t n,
                       bool& blocked);
  /// Sends the queued datagrams; false while the kernel still refuses.
  bool send_queued();
  /// Copies `dgrams` to the back of the send queue.
  void queue_datagrams(const Datagram* dgrams, std::size_t n);
  /// Pops the oldest queued frame (one must wait) into `out`; returns
  /// its source.
  PeerIndex pop_frame(wire::Frame& out);
  /// Appends a slot to the receive queue and returns it.
  QueuedFrame& push_frame();
  std::size_t frames_queued() const { return rx_tail_ - rx_head_; }
  /// Classifies a non-EAGAIN errno into the transient/fatal tallies.
  void count_error(int err);

  int fd_ = -1;
  std::size_t mtu_ = 0;
  std::uint16_t local_port_ = 0;
  bool use_mmsg_ = false;
  std::vector<Address> peer_addrs_;
  std::unordered_map<std::uint64_t, PeerIndex> peer_index_;  ///< (ip,port) →
  // Packing state, all leased on first use: a buffer per packed datagram
  // of a send_batch call, each peer's open datagram in it (index + 1,
  // 0 = none), and the datagrams the kernel refused (from tx_head_ on).
  std::vector<wire::Frame> pack_;
  std::vector<std::uint32_t> open_datagram_;
  std::vector<QueuedDatagram> tx_queue_;
  std::size_t tx_head_ = 0;
  // Frames of packed datagrams not yet handed out: [rx_head_, rx_tail_)
  // of rx_queue_, whose slots are reused.
  std::vector<QueuedFrame> rx_queue_;
  std::size_t rx_head_ = 0;
  std::size_t rx_tail_ = 0;
  UdpStats stats_;
  const telemetry::TransportInstruments* telemetry_ = nullptr;
};

}  // namespace ltnc::net
