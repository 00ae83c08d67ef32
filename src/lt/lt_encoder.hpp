// Source-side LT encoder.
//
// The source holds all k native packets, so it can produce textbook LT
// codes: draw a degree d from the Robust Soliton distribution, choose d
// distinct natives uniformly at random, and XOR them (paper §II). The
// challenge LTNC solves — producing such packets from *partial* encoded
// state — lives in src/core; this encoder is both the source behaviour and
// the ground truth the recoder is measured against.
#pragma once

#include <cstddef>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "lt/soliton.hpp"

namespace ltnc::lt {

class LtEncoder {
 public:
  /// Takes ownership of the k native payloads (all the same size).
  LtEncoder(std::vector<Payload> natives, RobustSolitonParams params = {});

  std::size_t k() const { return natives_.size(); }
  std::size_t payload_bytes() const { return payload_bytes_; }
  const RobustSoliton& distribution() const { return soliton_; }

  /// Produces one fresh LT-encoded packet.
  CodedPacket encode(Rng& rng);

  /// Produces a packet with a caller-chosen degree (used by tests and by
  /// the degree-controlled benchmarks).
  CodedPacket encode_with_degree(Rng& rng, std::size_t degree);

  const Payload& native(std::size_t i) const { return natives_[i]; }

  const OpCounters& ops() const { return ops_; }

 private:
  std::vector<Payload> natives_;
  std::size_t payload_bytes_;
  RobustSoliton soliton_;
  OpCounters ops_;
  // Reusable per-encode scratch: the selected native indices, a
  // generation-stamped membership array (replacing a per-call hash set in
  // Floyd's sampling), and the source pointers for the payload fold.
  std::vector<std::size_t> chosen_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t generation_ = 0;
  std::vector<const Payload*> sources_;
};

/// Convenience: the canonical deterministic content for a (seed, k, m) run.
std::vector<Payload> make_native_payloads(std::size_t k, std::size_t bytes,
                                          std::uint64_t seed);

}  // namespace ltnc::lt
