// UdpTransport — real POSIX UDP sockets under the wire codec.
//
// One frame = one UDP datagram (pyrofling-style simple sockets): the
// socket is bound, set non-blocking, and polled from the protocol loop.
// recv() lands datagrams straight into the caller's arena-backed
// wire::Frame (no intermediate buffer) and remembers the source address,
// so a receiver can lock onto whoever is talking to it and ship feedback
// frames back — the abort/ack channel of §III-C over a real network.
//
// **Batched I/O.** The single-datagram path costs one syscall per frame —
// the dominant per-frame cost once the coding itself is SIMD-cheap. The
// batch surface (recv_batch / send_batch) moves up to kMaxBatch frames
// per recvmmsg/sendmmsg syscall on Linux, with a runtime fallback to a
// recvfrom/sendto loop on kernels or platforms without the mmsg calls —
// same semantics, one syscall per frame, so callers never branch on
// availability. Batch calls speak the transport's peer registry: every
// distinct source address is interned to a dense PeerIndex (auto-grown on
// first sight), which is what the sharded endpoint hashes on; send_batch
// takes (peer, bytes) pairs so one socket fans out to a whole swarm.
//
// **Error discipline.** EAGAIN/EWOULDBLOCK is the *expected* idle result
// of a non-blocking socket and is counted separately (would_block) from
// transient per-peer failures (ECONNREFUSED and friends — a receiver went
// away; counted, skipped, never fatal) and genuinely fatal socket errors
// (counted with the errno preserved in stats().last_errno). send()/recv()
// report false for all three — datagram semantics — but the tallies let a
// caller distinguish "link idle" from "link broken".
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

#include "net/transport.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ltnc::net {

struct UdpConfig {
  std::string bind_address = "0.0.0.0";
  std::uint16_t bind_port = 0;  ///< 0 = ephemeral (see local_port())
  std::string peer_address;     ///< empty = receive-only until a peer is set
  std::uint16_t peer_port = 0;
  std::size_t mtu = 65507;  ///< max UDP payload over IPv4
};

/// Syscall-level tallies. would_block is the idle path, not an error;
/// transient_errors are per-peer failures (ECONNREFUSED, EHOSTUNREACH,
/// ENETUNREACH, EINTR, ENOBUFS, EPERM) that cost one datagram at most;
/// fatal_errors is everything else, with the last errno preserved.
struct UdpStats {
  std::uint64_t send_calls = 0;       ///< syscalls issued (batched count 1)
  std::uint64_t recv_calls = 0;
  std::uint64_t frames_sent = 0;      ///< datagrams the kernel accepted
  std::uint64_t frames_received = 0;
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
};

class UdpTransport final : public Transport {
 public:
  /// Dense handle for an interned remote address (the sharded endpoint's
  /// session::PeerId). Index 0 is the configured peer when UdpConfig
  /// named one; further indices are assigned in first-sight order.
  using PeerIndex = std::uint32_t;
  static constexpr PeerIndex kInvalidPeer = ~PeerIndex{0};

  /// Largest number of datagrams one recvmmsg/sendmmsg call can move.
  static constexpr std::size_t kMaxBatch = 64;

  /// Opens and binds the socket. Returns nullptr on failure with a
  /// human-readable reason in `error` (also on non-POSIX builds).
  static std::unique_ptr<UdpTransport> open(const UdpConfig& config,
                                            std::string* error);

  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Sends one datagram to the default peer. False when no peer is set,
  /// the frame exceeds the MTU, or the kernel refuses (see stats() for
  /// which way it refused).
  bool send(std::span<const std::uint8_t> frame) override;

  /// Non-blocking receive; false when no datagram is pending. Oversized
  /// datagrams are truncated by the kernel and will fail frame decoding —
  /// the codec treats them as malformed, which is the right failure mode.
  bool recv(wire::Frame& out) override;

  std::size_t mtu() const override { return mtu_; }

  // --- batched I/O ----------------------------------------------------------

  /// One outbound datagram of a batch: the interned destination plus the
  /// frame bytes (which must stay alive across the call).
  struct TxItem {
    PeerIndex peer = 0;
    std::span<const std::uint8_t> bytes;
  };

  /// Sends up to min(items.size(), kMaxBatch) datagrams in one sendmmsg
  /// syscall (fallback: a sendto loop). Returns the number the kernel
  /// accepted, stopping early on EAGAIN (retry the rest later); transient
  /// per-peer errors skip that datagram and keep going. Items with an
  /// unknown peer index or over-MTU bytes are skipped and counted fatal.
  std::size_t send_batch(std::span<const TxItem> items) {
    const std::size_t n = send_batch_impl(items);
    LTNC_TELEMETRY(
        if (telemetry_ != nullptr) {
          if (telemetry_->send_batch_frames != nullptr && n > 0) {
            telemetry_->send_batch_frames->record(n);
          }
          flush_error_telemetry();
        });
    return n;
  }

  /// Receives up to min(frames.size(), peers.size(), kMaxBatch) datagrams
  /// in one recvmmsg syscall (fallback: a recvfrom loop). frames[i] is
  /// resized to datagram i; peers[i] is the interned source address —
  /// first-sight senders are registered automatically. Returns the count
  /// received (0 on idle).
  std::size_t recv_batch(std::span<wire::Frame> frames,
                         std::span<PeerIndex> peers) {
    const std::size_t n = recv_batch_impl(frames, peers);
    LTNC_TELEMETRY(
        if (telemetry_ != nullptr) {
          if (telemetry_->recv_batch_frames != nullptr && n > 0) {
            telemetry_->recv_batch_frames->record(n);
          }
          flush_error_telemetry();
        });
    return n;
  }

  /// Attaches observer-only instruments (batch-size histograms, errno-
  /// class counters — flushed as deltas off UdpStats at batch-call
  /// granularity). The bundle must outlive the transport. No-op under
  /// LTNC_TELEMETRY=OFF.
  void set_telemetry(const telemetry::TransportInstruments* instruments) {
    telemetry_ = instruments;
  }

  /// True when the mmsg syscalls are compiled in and the kernel accepts
  /// them (flips to false at runtime on ENOSYS — the fallback loop keeps
  /// the same semantics at one syscall per frame).
  bool batching_active() const { return use_mmsg_; }

  /// Blocks until a datagram is pending or `timeout_ms` elapses; true
  /// when one is pending. The idle wait of a blocking-style driver,
  /// instead of spinning on recv().
  bool wait_readable(int timeout_ms);

  // --- peer registry --------------------------------------------------------

  /// Interns a remote address, returning its stable index (the existing
  /// one if already known); kInvalidPeer on a bad address literal.
  PeerIndex add_peer(const std::string& address, std::uint16_t port);

  std::size_t peer_count() const { return peer_addrs_.size(); }

  /// Port actually bound (resolves an ephemeral bind_port = 0).
  std::uint16_t local_port() const { return local_port_; }

  bool has_peer() const { return default_peer_ != kInvalidPeer; }

  /// Redirects send() at the source of the most recently received
  /// datagram — how a receiver acquires its feedback channel.
  bool set_peer_to_last_sender();

  const UdpStats& stats() const { return stats_; }

 private:
  UdpTransport() = default;

  /// Interns a raw sockaddr_in image; returns its dense index.
  PeerIndex intern_peer(const void* addr);
  std::size_t send_batch_impl(std::span<const TxItem> items);
  std::size_t recv_batch_impl(std::span<wire::Frame> frames,
                              std::span<PeerIndex> peers);
  std::size_t send_batch_fallback(std::span<const TxItem> items);
  std::size_t recv_batch_fallback(std::span<wire::Frame> frames,
                                  std::span<PeerIndex> peers);
  /// Classifies a non-EAGAIN errno into the transient/fatal tallies.
  void count_error(int err);

#if LTNC_TELEMETRY_ENABLED
  /// Mirrors UdpStats error tallies into the registry counters as
  /// deltas, so the syscall paths stay untouched by instrumentation.
  void flush_error_telemetry() {
    const std::uint64_t wb = stats_.send_would_block + stats_.recv_would_block;
    if (telemetry_->would_block != nullptr && wb > flushed_would_block_) {
      telemetry_->would_block->add(wb - flushed_would_block_);
      flushed_would_block_ = wb;
    }
    if (telemetry_->transient_errors != nullptr &&
        stats_.transient_errors > flushed_transient_) {
      telemetry_->transient_errors->add(stats_.transient_errors -
                                        flushed_transient_);
      flushed_transient_ = stats_.transient_errors;
    }
    if (telemetry_->fatal_errors != nullptr &&
        stats_.fatal_errors > flushed_fatal_) {
      telemetry_->fatal_errors->add(stats_.fatal_errors - flushed_fatal_);
      flushed_fatal_ = stats_.fatal_errors;
    }
  }
#endif

  int fd_ = -1;
  std::size_t mtu_ = 0;
  std::uint16_t local_port_ = 0;
  bool use_mmsg_ = false;
  PeerIndex default_peer_ = kInvalidPeer;
  bool has_last_sender_ = false;
  // sockaddr_in storage without leaking <netinet/in.h> into the header.
  alignas(8) unsigned char last_sender_[16] = {};
  std::vector<std::array<unsigned char, 16>> peer_addrs_;
  std::unordered_map<std::uint64_t, PeerIndex> peer_index_;  ///< (ip,port) →
  UdpStats stats_;
  const telemetry::TransportInstruments* telemetry_ = nullptr;
  std::uint64_t flushed_would_block_ = 0;
  std::uint64_t flushed_transient_ = 0;
  std::uint64_t flushed_fatal_ = 0;
};

}  // namespace ltnc::net
