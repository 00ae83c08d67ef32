// stream::Receiver — the deadline-scored decoding side of a live stream.
//
// Wraps a session::Endpoint whose ContentStore holds one LtSinkProtocol
// per live block, sliding in lockstep with the source's window:
//
//   open_block(seq, birth)   register block seq; its deadline starts
//   ingest(peer, bytes, now) feed one raw datagram; on the delivery that
//                            completes a block before its deadline, the
//                            decoded natives are verified and the
//                            completion latency (now − birth) recorded
//   finalize_due(now)        every block whose deadline passed resolves
//                            to exactly one outcome — completed (already
//                            recorded) or missed — and its content is
//                            expired, so later symbols for it count as
//                            expired_frames in SessionStats, not foreign
//
// Block counts (completed, missed, goodput) stay in ReceiverStats; only
// completion latency goes to a telemetry Histogram, which may be shared
// across a receiver fleet (it is atomic) or stay null.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "session/endpoint.hpp"
#include "stream/stream_source.hpp"
#include "telemetry/metrics.hpp"

namespace ltnc::stream {

struct ReceiverStats {
  std::uint64_t blocks_opened = 0;
  std::uint64_t blocks_completed = 0;  ///< decoded + verified in time
  std::uint64_t deadline_misses = 0;
  std::uint64_t verify_failures = 0;  ///< blocks decoded to wrong bytes
                                      ///< (counted as misses, never as
                                      ///< completions)
  std::uint64_t goodput_bytes = 0;    ///< bytes of blocks completed in time
  std::uint64_t blocks_finalized = 0;
};

class Receiver {
 public:
  /// `config` mirrors the source's stream shape (k, symbol size,
  /// deadline, verification seed). `endpoint_config`'s feedback mode is
  /// the stream's choice (kNone for pure push); its k/payload fields are
  /// ignored — blocks carry their own dimensions. `latency`, when set,
  /// records each completed block's birth → decode time.
  Receiver(const StreamConfig& config,
           const session::EndpointConfig& endpoint_config,
           telemetry::Histogram* latency = nullptr);

  /// Opens block `seq`'s decode window (idempotent). Blocks the schedule
  /// says exist must be opened even if every symbol of them is lost —
  /// that is exactly the case the miss counter must see.
  void open_block(std::uint64_t seq, Instant birth);

  /// Feeds one raw datagram. Completion checks run only on delivery
  /// events, and a block's decode is verified at most once.
  session::Endpoint::Event ingest(session::PeerId peer,
                                  std::span<const std::uint8_t> bytes,
                                  Instant now);

  /// Resolves every open block whose deadline has passed: missed unless
  /// already completed; either way the content is expired from the
  /// endpoint (the receiver side of the sliding window).
  void finalize_due(Instant now);
  /// Event-engine variant: resolve exactly block `seq` (no-op when the
  /// block was never opened or already finalized).
  void finalize_block(std::uint64_t seq, Instant now);

  session::Endpoint& endpoint() { return ep_; }
  const session::Endpoint& endpoint() const { return ep_; }
  const ReceiverStats& stream_stats() const { return stats_; }
  std::size_t open_blocks() const { return live_.size(); }
  bool all_finalized() const {
    return cfg_.total_blocks != 0 &&
           stats_.blocks_finalized >= cfg_.total_blocks;
  }

 private:
  struct Block {
    std::uint64_t seq = 0;
    Instant birth = 0;
    Instant deadline = 0;
    bool completed = false;
    /// The decode was checked once; a failed check is never repeated.
    bool verified = false;
  };

  Block* find(std::uint64_t seq);
  void complete_block(Block& block, Instant now);
  void finalize_at(std::size_t index, Instant now);

  StreamConfig cfg_;
  session::Endpoint ep_;
  telemetry::Histogram* latency_;
  ReceiverStats stats_;
  std::vector<Block> live_;  ///< open order (front = oldest)
};

}  // namespace ltnc::stream
