#include "session/protocols.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace ltnc::session {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kLtnc:
      return "LTNC";
    case Scheme::kRlnc:
      return "RLNC";
    case Scheme::kWc:
      return "WC";
  }
  return "?";
}

bool scheme_from_string(std::string_view name, Scheme& out) {
  if (name == "ltnc" || name == "LTNC") {
    out = Scheme::kLtnc;
  } else if (name == "rlnc" || name == "RLNC") {
    out = Scheme::kRlnc;
  } else if (name == "wc" || name == "WC") {
    out = Scheme::kWc;
  } else {
    return false;
  }
  return true;
}

bool feedback_from_string(std::string_view name, FeedbackMode& out) {
  if (name == "none") {
    out = FeedbackMode::kNone;
  } else if (name == "binary") {
    out = FeedbackMode::kBinary;
  } else if (name == "smart") {
    out = FeedbackMode::kSmart;
  } else {
    return false;
  }
  return true;
}

namespace {

std::size_t aggressiveness_threshold(const ProtocolParams& params) {
  const double raw =
      params.aggressiveness * static_cast<double>(params.k);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(raw)));
}

}  // namespace

// --- LTNC -----------------------------------------------------------------

LtncProtocol::LtncProtocol(const ProtocolParams& params)
    : threshold_(aggressiveness_threshold(params)),
      codec_([&] {
        core::LtncConfig cfg = params.ltnc;
        cfg.k = params.k;
        cfg.payload_bytes = params.payload_bytes;
        return cfg;
      }()) {}

void LtncProtocol::deliver(const CodedPacket& packet) {
  codec_.receive(packet);
}

bool LtncProtocol::would_reject(const BitVector& coeffs) const {
  return codec_.would_reject(coeffs);
}

std::optional<CodedPacket> LtncProtocol::emit(Rng& rng) {
  return codec_.recode(rng);
}

std::optional<CodedPacket> LtncProtocol::emit_for(
    const std::vector<std::uint32_t>& receiver_cc, Rng& rng) {
  return codec_.recode_for(receiver_cc, rng);
}

const std::vector<std::uint32_t>* LtncProtocol::component_leaders() const {
  return &codec_.component_leaders();
}

bool LtncProtocol::can_emit() const {
  return useful_packets() >= threshold_;
}

std::size_t LtncProtocol::useful_packets() const {
  // Decoded natives plus stored (still-encoded) packets approximate the
  // information the node can recode from.
  return codec_.decoded_count() + codec_.stored_count();
}

bool LtncProtocol::finish_and_verify(std::uint64_t content_seed) {
  if (!codec_.complete()) return false;
  for (std::size_t i = 0; i < codec_.k(); ++i) {
    if (codec_.native_payload(static_cast<NativeIndex>(i)) !=
        Payload::deterministic(codec_.payload_bytes(), content_seed, i)) {
      return false;
    }
  }
  return true;
}

// --- RLNC -------------------------------------------------------------------

RlncProtocol::RlncProtocol(const ProtocolParams& params)
    : threshold_(1),  // paper: "in WC and RLNC, recoding can be done
                      // without delay"
      codec_([&] {
        rlnc::RlncConfig cfg = params.rlnc;
        cfg.k = params.k;
        cfg.payload_bytes = params.payload_bytes;
        return cfg;
      }()) {}

void RlncProtocol::deliver(const CodedPacket& packet) {
  codec_.receive(packet);
}

bool RlncProtocol::would_reject(const BitVector& coeffs) const {
  return codec_.would_reject(coeffs);
}

std::optional<CodedPacket> RlncProtocol::emit(Rng& rng) {
  return codec_.recode(rng);
}

bool RlncProtocol::can_emit() const { return codec_.rank() >= threshold_; }

bool RlncProtocol::finish_and_verify(std::uint64_t content_seed) {
  if (!codec_.complete()) return false;
  for (std::size_t i = 0; i < codec_.k(); ++i) {
    if (codec_.native_payload(i) !=
        Payload::deterministic(codec_.payload_bytes(), content_seed, i)) {
      return false;
    }
  }
  return true;
}

// --- WC ---------------------------------------------------------------------

WcProtocol::WcProtocol(const ProtocolParams& params)
    : payload_bytes_(params.payload_bytes),
      node_([&] {
        wc::WcConfig cfg = params.wc;
        cfg.k = params.k;
        cfg.payload_bytes = params.payload_bytes;
        return cfg;
      }()) {}

void WcProtocol::deliver(const CodedPacket& packet) { node_.receive(packet); }

bool WcProtocol::would_reject(const BitVector& coeffs) const {
  return node_.would_reject(coeffs);
}

std::optional<CodedPacket> WcProtocol::emit(Rng& rng) {
  return node_.emit(rng);
}

bool WcProtocol::can_emit() const { return node_.buffered() > 0; }

bool WcProtocol::finish_and_verify(std::uint64_t content_seed) {
  if (!node_.complete()) return false;
  for (std::size_t i = 0; i < node_.k(); ++i) {
    if (node_.native_payload(i) !=
        Payload::deterministic(payload_bytes_, content_seed, i)) {
      return false;
    }
  }
  return true;
}

// --- LT sink ----------------------------------------------------------------

LtSinkProtocol::LtSinkProtocol(std::size_t k, std::size_t payload_bytes)
    : decoder_(k, payload_bytes) {}

void LtSinkProtocol::deliver(const CodedPacket& packet) {
  decoder_.receive(packet);
}

bool LtSinkProtocol::would_reject(const BitVector& coeffs) const {
  return decoder_.residual_degree(coeffs) == 0;
}

std::optional<CodedPacket> LtSinkProtocol::emit(Rng& rng) {
  (void)rng;
  return std::nullopt;  // a sink never pushes
}

bool LtSinkProtocol::finish_and_verify(std::uint64_t content_seed) {
  if (!decoder_.complete()) return false;
  for (std::size_t i = 0; i < decoder_.k(); ++i) {
    if (decoder_.native_payload(static_cast<NativeIndex>(i)) !=
        Payload::deterministic(decoder_.payload_bytes(), content_seed, i)) {
      return false;
    }
  }
  return true;
}

// --- factory ----------------------------------------------------------------

std::unique_ptr<NodeProtocol> make_node(Scheme scheme,
                                        const ProtocolParams& params) {
  LTNC_CHECK_MSG(params.k > 0, "k must be positive");
  switch (scheme) {
    case Scheme::kLtnc:
      return std::make_unique<LtncProtocol>(params);
    case Scheme::kRlnc:
      return std::make_unique<RlncProtocol>(params);
    case Scheme::kWc:
      return std::make_unique<WcProtocol>(params);
  }
  LTNC_CHECK_MSG(false, "unknown scheme");
  return nullptr;
}

}  // namespace ltnc::session
