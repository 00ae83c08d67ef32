// StreamSource — the sliding-window block lifecycle of a live sender.
//
// A live source (game capture, sensor burst, video encoder) produces a
// byte stream that is chunked into fixed-size blocks, each LT-encoded
// independently and only worth delivering before its deadline:
//
//    advance(now)                      push_symbol(peer)
//    ┌─ emit: register block seq as    ┌─ Endpoint::next_push consults
//    │  content id seq+1 (a fresh      │  the DeadlinePolicy (EDF over
//    │  LtSourceProtocol) and track    │  rarest-first) and charges the
//    │  its deadline + budget          │  block's redundancy budget
//    └─ expire: past-deadline blocks   └─ start_transfer emits one fresh
//       leave the store; in-flight        LT symbol toward `peer`
//       conversations are cancelled
//
// Block seq occupies content id seq+1 (id 0 stays the default content;
// stream ids are never reused, so late frames always resolve against the
// endpoint's expired ring, not a recycled block). The per-block push
// budget is k·(1+ε)/(1−losŝ) symbols — the LT overhead ε padded by the
// measured loss rate — rescaled every advance() so a shrinking deadline
// slack can boost redundancy for blocks that are almost out of time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "lt/lt_encoder.hpp"
#include "session/endpoint.hpp"
#include "session/protocols.hpp"
#include "stream/deadline_policy.hpp"

namespace ltnc::stream {

struct StreamConfig {
  /// Bytes per block; k = block_bytes / symbol_bytes natives per block.
  std::size_t block_bytes = 4096;
  std::size_t symbol_bytes = 256;
  /// Emission cadence: one block every this many ticks (1/fps in the
  /// harness's tick domain — µs for the UDP path).
  Instant ticks_per_block = 8;
  /// Decode deadline, relative to a block's emission instant.
  Instant deadline_ticks = 64;
  /// Cap on simultaneously live blocks; emitting past it force-expires
  /// the oldest (the window always slides, even against a stuck link).
  std::size_t window = 16;
  /// Blocks to emit; 0 = endless (the harnesses always bound it).
  std::uint64_t total_blocks = 0;
  /// LT budget overhead ε: a block may consume k·(1+ε)/(1−losŝ) pushes.
  double base_overhead = 0.9;
  /// Measured channel loss estimate feeding the budget (see
  /// set_loss_estimate — the harness's feedback path).
  double loss_estimate = 0.0;
  /// When a block's remaining slack drops below this many ticks, its
  /// budget is boosted by kSlackBoost — spend extra redundancy only on
  /// blocks that are almost out of time. 0 disables the boost.
  Instant slack_boost_ticks = 0;
  /// Receivers sharing one unicast source; budgets scale by this so each
  /// receiver still sees a full symbol budget.
  std::size_t fanout = 1;
  std::uint64_t seed = 1;

  std::size_t k() const { return block_bytes / symbol_bytes; }
};

/// Share by which a block's budget grows once its slack drops below
/// StreamConfig::slack_boost_ticks.
inline constexpr double kSlackBoost = 0.5;

/// Per-block symbol budget: k·(1+ε) padded by the loss estimate (clamped
/// to 95 % — a fully dead channel must not demand infinity).
std::uint32_t redundancy_budget(std::size_t k, double base_overhead,
                                double loss_estimate);

/// The protocol behind one live block at the source: a textbook LT
/// encoder over the block's natives. Emits forever (rateless), consumes
/// nothing (a live source never receives), rejects every advertise.
class LtSourceProtocol final : public session::NodeProtocol {
 public:
  LtSourceProtocol(std::size_t k, std::size_t payload_bytes,
                   std::uint64_t content_seed);

  void deliver(const CodedPacket& packet) override { (void)packet; }
  bool would_reject(const BitVector& coeffs) const override {
    (void)coeffs;
    return true;
  }
  std::optional<CodedPacket> emit(Rng& rng) override {
    return encoder_.encode(rng);
  }
  bool can_emit() const override { return true; }
  std::size_t useful_packets() const override { return encoder_.k(); }
  bool complete() const override { return true; }
  bool finish_and_verify(std::uint64_t content_seed) override {
    (void)content_seed;
    return true;
  }
  OpCounters decode_ops() const override { return OpCounters{}; }
  OpCounters recode_ops() const override { return encoder_.ops(); }

 private:
  lt::LtEncoder encoder_;
};

class StreamSource {
 public:
  /// `endpoint` is the source's session endpoint (typically
  /// FeedbackMode::kNone over an empty ContentStore); the source installs
  /// its DeadlinePolicy on the endpoint's scheduler and registers/expires
  /// block contents in its store. Must outlive the source.
  StreamSource(const StreamConfig& config, session::Endpoint& endpoint);
  ~StreamSource();

  StreamSource(const StreamSource&) = delete;
  StreamSource& operator=(const StreamSource&) = delete;

  static ContentId id_of(std::uint64_t seq) { return seq + 1; }
  static std::uint64_t seq_of(ContentId id) { return id - 1; }
  /// Emission instant of block `seq` — the latency anchor receivers
  /// measure against.
  Instant birth_of(std::uint64_t seq) const {
    return static_cast<Instant>(seq) * cfg_.ticks_per_block;
  }
  /// Per-block content seed — what the receiver's finish_and_verify
  /// checks decoded natives against.
  std::uint64_t content_seed_of(std::uint64_t seq) const {
    return cfg_.seed + seq;
  }

  /// Advances stream time: emits every block whose birth has come
  /// (invoking `on_emit`), expires every block whose deadline has passed,
  /// and rescales live budgets against the current loss estimate and
  /// remaining slack. `now` must not decrease.
  void advance(Instant now);

  /// Pushes one fresh symbol toward `peer`, block chosen by the deadline
  /// policy through Endpoint::next_push. False when every live block's
  /// budget is spent (or nothing is live).
  bool push_symbol(session::PeerId peer, Rng& rng);

  /// Earliest instant after the last advance() at which advance() emits,
  /// expires or boosts a block — what a wall-clock driver sleeps until
  /// once push_symbol() runs dry. Receivers with the same config finalize
  /// a block at its expiry instant.
  Instant next_change() const;

  /// Hook invoked on each block emission (before any symbol of it can be
  /// pushed) — how harnesses open receiver-side windows and stamp birth
  /// tables. Cold path: once per block.
  void set_on_emit(std::function<void(std::uint64_t seq, Instant birth)> fn) {
    on_emit_ = std::move(fn);
  }

  /// Feeds back the measured channel loss (the harness's out-of-band
  /// estimator); budgets rescale on the next advance().
  void set_loss_estimate(double loss) { cfg_.loss_estimate = loss; }

  const StreamConfig& config() const { return cfg_; }
  DeadlinePolicy& policy() { return policy_; }
  const DeadlinePolicy& policy() const { return policy_; }
  std::uint64_t blocks_emitted() const { return next_seq_; }
  std::uint64_t blocks_retired() const { return blocks_retired_; }
  std::size_t live_blocks() const { return live_.size(); }
  bool done() const {
    return cfg_.total_blocks != 0 && next_seq_ >= cfg_.total_blocks &&
           live_.empty();
  }

 private:
  struct Live {
    std::uint64_t seq = 0;
    Instant birth = 0;
  };

  void emit_block(Instant now);
  void retire_block(std::size_t live_index);

  StreamConfig cfg_;
  session::Endpoint& ep_;
  DeadlinePolicy policy_;
  std::function<void(std::uint64_t, Instant)> on_emit_;
  std::vector<Live> live_;  ///< emission order (front = oldest)
  std::uint64_t next_seq_ = 0;
  std::uint64_t blocks_retired_ = 0;
  Instant now_ = 0;
};

}  // namespace ltnc::stream
