// Source behaviours (paper §IV-A: "the source periodically injects
// encoded packets in the network").
//
// The source holds all k natives, so each scheme's source is the textbook
// encoder: LT encoding for LTNC (Robust Soliton is exact at the source),
// dense random GF(2) combinations for RLNC, round-robin natives for WC.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"
#include "session/protocols.hpp"

namespace ltnc::dissem {

class Source {
 public:
  virtual ~Source() = default;
  virtual CodedPacket next(Rng& rng) = 0;
};

class LtSource final : public Source {
 public:
  LtSource(std::vector<Payload> natives, lt::RobustSolitonParams params);
  CodedPacket next(Rng& rng) override { return encoder_.encode(rng); }
  const lt::LtEncoder& encoder() const { return encoder_; }

 private:
  lt::LtEncoder encoder_;
};

class RlncSource final : public Source {
 public:
  explicit RlncSource(std::vector<Payload> natives);
  CodedPacket next(Rng& rng) override;

 private:
  std::vector<Payload> natives_;
  std::size_t payload_bytes_;
};

class WcSource final : public Source {
 public:
  explicit WcSource(std::vector<Payload> natives);
  CodedPacket next(Rng& rng) override;

 private:
  std::vector<Payload> natives_;
  std::size_t next_ = 0;
};

/// Builds the scheme's source over the canonical deterministic content.
std::unique_ptr<Source> make_source(session::Scheme scheme, std::size_t k,
                                    std::size_t payload_bytes,
                                    std::uint64_t content_seed,
                                    const lt::RobustSolitonParams& soliton);

}  // namespace ltnc::dissem
