// CodedPacket: an encoded packet as transmitted on the wire.
//
// Following the paper (§II), an encoded packet is a GF(2) linear
// combination of native packets; the code vector (a k-bit bitmap) travels
// in the packet header and the m-byte payload follows. The degree of a
// packet is the popcount of its code vector.
#pragma once

#include <cstddef>
#include <utility>

#include "common/bitvector.hpp"
#include "common/payload.hpp"

namespace ltnc {

struct CodedPacket {
  BitVector coeffs;  ///< code vector over the k native packets
  Payload payload;   ///< XOR of the referenced native payloads

  CodedPacket() = default;
  CodedPacket(BitVector c, Payload p)
      : coeffs(std::move(c)), payload(std::move(p)) {}

  /// Builds the degree-1 packet carrying native packet `index`.
  static CodedPacket native(std::size_t k, std::size_t index, Payload p) {
    return CodedPacket(BitVector::unit(k, index), std::move(p));
  }

  std::size_t degree() const { return coeffs.popcount(); }
  std::size_t code_length() const { return coeffs.size(); }

  /// GF(2) addition of another packet; returns {control word-ops, data
  /// word-ops} so the two planes can be charged separately.
  std::pair<std::size_t, std::size_t> xor_with(const CodedPacket& other) {
    const std::size_t control = coeffs.xor_with(other.coeffs);
    const std::size_t data = payload.xor_with(other.payload);
    return {control, data};
  }
};

}  // namespace ltnc
