// Per-node protocol adapters for the three schemes under evaluation
// (paper §IV-A): LTNC, RLNC and WC behind one interface, so everything
// above them — the sans-I/O session Endpoint, the epidemic simulator, the
// examples — is scheme-agnostic.
//
// This is the public protocol surface of the library (promoted out of
// dissemination/, which now only hosts the simulation harness): a
// NodeProtocol answers the questions the session conversation asks —
// would you reject this advertised vector? what do you push next? are you
// complete? — while the Endpoint (session/endpoint.hpp) owns the wire
// conversation itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/ltnc_codec.hpp"
#include "lt/bp_decoder.hpp"
#include "rlnc/rlnc_codec.hpp"
#include "wc/wc_node.hpp"

namespace ltnc::session {

enum class Scheme { kLtnc, kRlnc, kWc };

const char* scheme_name(Scheme scheme);

/// Parses "ltnc" / "rlnc" / "wc" (the names the CLI tools accept).
/// Returns false and leaves `out` untouched on anything else.
bool scheme_from_string(std::string_view name, Scheme& out);

/// How a receiver talks back during a transfer (paper §III-C):
///   kNone    push blindly; the receiver discards junk after paying for it
///   kBinary  the receiver aborts redundant transfers after the advertise
///   kSmart   the receiver ships its cc array; the sender constructs for it
enum class FeedbackMode { kNone, kBinary, kSmart };

/// Parses "none" / "binary" / "smart". Returns false on anything else.
bool feedback_from_string(std::string_view name, FeedbackMode& out);

class NodeProtocol {
 public:
  virtual ~NodeProtocol() = default;

  /// Full reception of a packet (payload included).
  virtual void deliver(const CodedPacket& packet) = 0;

  /// Binary feedback: would the node refuse this advertised code vector?
  virtual bool would_reject(const BitVector& coeffs) const = 0;

  /// Fresh packet to push, or nullopt if the node has nothing to say.
  virtual std::optional<CodedPacket> emit(Rng& rng) = 0;

  /// Variant used when a full feedback channel ships the receiver's cc
  /// array to the sender (LTNC smart construction §III-C.2; other schemes
  /// fall back to emit()).
  virtual std::optional<CodedPacket> emit_for(
      const std::vector<std::uint32_t>& receiver_cc, Rng& rng) {
    (void)receiver_cc;
    return emit(rng);
  }

  /// The cc array a receiver would ship over a full feedback channel
  /// (empty when the scheme has none).
  virtual const std::vector<std::uint32_t>* component_leaders() const {
    return nullptr;
  }

  /// Aggressiveness gate: may this node start pushing?
  virtual bool can_emit() const = 0;

  /// Progress: packets worth of useful information held (k = complete).
  virtual std::size_t useful_packets() const = 0;
  virtual bool complete() const = 0;

  /// Finalises decoding (RLNC back-substitution) and verifies every native
  /// against the expected deterministic content. Returns true on success.
  virtual bool finish_and_verify(std::uint64_t content_seed) = 0;

  virtual OpCounters decode_ops() const = 0;
  virtual OpCounters recode_ops() const = 0;
};

struct ProtocolParams {
  std::size_t k = 0;
  std::size_t payload_bytes = 0;
  /// Fraction of k a node must hold before it starts recoding
  /// (paper: ~1 % for LTNC; WC and RLNC push without delay).
  double aggressiveness = 0.01;
  core::LtncConfig ltnc{};   ///< k/payload_bytes filled in by the factory
  rlnc::RlncConfig rlnc{};
  wc::WcConfig wc{};
};

std::unique_ptr<NodeProtocol> make_node(Scheme scheme,
                                        const ProtocolParams& params);

// --- concrete adapters (exposed for unit tests) ---------------------------

class LtncProtocol final : public NodeProtocol {
 public:
  explicit LtncProtocol(const ProtocolParams& params);
  void deliver(const CodedPacket& packet) override;
  bool would_reject(const BitVector& coeffs) const override;
  std::optional<CodedPacket> emit(Rng& rng) override;
  std::optional<CodedPacket> emit_for(
      const std::vector<std::uint32_t>& receiver_cc, Rng& rng) override;
  const std::vector<std::uint32_t>* component_leaders() const override;
  bool can_emit() const override;
  std::size_t useful_packets() const override;
  bool complete() const override { return codec_.complete(); }
  bool finish_and_verify(std::uint64_t content_seed) override;
  OpCounters decode_ops() const override { return codec_.decode_ops(); }
  OpCounters recode_ops() const override { return codec_.recode_ops(); }

  const core::LtncCodec& codec() const { return codec_; }

 private:
  std::size_t threshold_;
  core::LtncCodec codec_;
};

class RlncProtocol final : public NodeProtocol {
 public:
  explicit RlncProtocol(const ProtocolParams& params);
  void deliver(const CodedPacket& packet) override;
  bool would_reject(const BitVector& coeffs) const override;
  std::optional<CodedPacket> emit(Rng& rng) override;
  bool can_emit() const override;
  std::size_t useful_packets() const override { return codec_.rank(); }
  bool complete() const override { return codec_.complete(); }
  bool finish_and_verify(std::uint64_t content_seed) override;
  OpCounters decode_ops() const override { return codec_.decode_ops(); }
  OpCounters recode_ops() const override { return codec_.recode_ops(); }

  const rlnc::RlncCodec& codec() const { return codec_; }

 private:
  std::size_t threshold_;
  rlnc::RlncCodec codec_;
};

class WcProtocol final : public NodeProtocol {
 public:
  explicit WcProtocol(const ProtocolParams& params);
  void deliver(const CodedPacket& packet) override;
  bool would_reject(const BitVector& coeffs) const override;
  std::optional<CodedPacket> emit(Rng& rng) override;
  bool can_emit() const override;
  std::size_t useful_packets() const override { return node_.received_count(); }
  bool complete() const override { return node_.complete(); }
  bool finish_and_verify(std::uint64_t content_seed) override;
  OpCounters decode_ops() const override { return node_.ops(); }
  OpCounters recode_ops() const override { return OpCounters{}; }

  const wc::WcNode& node() const { return node_; }

 private:
  std::size_t payload_bytes_;
  wc::WcNode node_;
};

/// A pure receiver: belief-propagation LT decoding with no recoding and
/// no pushes — the protocol a file-transfer sink or sensor gateway runs.
/// would_reject() is the §III-C control-only check (zero residual degree
/// after stripping decoded natives), so a binary feedback channel works
/// against plain-LT senders too.
class LtSinkProtocol final : public NodeProtocol {
 public:
  LtSinkProtocol(std::size_t k, std::size_t payload_bytes);
  void deliver(const CodedPacket& packet) override;
  bool would_reject(const BitVector& coeffs) const override;
  std::optional<CodedPacket> emit(Rng& rng) override;
  bool can_emit() const override { return false; }
  std::size_t useful_packets() const override {
    return decoder_.decoded_count() + decoder_.stored_count();
  }
  bool complete() const override { return decoder_.complete(); }
  bool finish_and_verify(std::uint64_t content_seed) override;
  OpCounters decode_ops() const override { return decoder_.ops(); }
  OpCounters recode_ops() const override { return OpCounters{}; }

  const lt::BpDecoder& decoder() const { return decoder_; }

 private:
  lt::BpDecoder decoder_;
};

}  // namespace ltnc::session
