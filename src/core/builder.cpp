#include "core/builder.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace ltnc::core {

PacketBuilder::PacketBuilder(const lt::BpDecoder& store,
                             const DegreeIndex& index)
    : store_(store), index_(index) {}

std::size_t PacketBuilder::try_add(CodedPacket& z, std::size_t dz,
                                   std::size_t target, PacketId id,
                                   OpCounters& ops) const {
  const BitVector& coeffs = store_.packet_coeffs(id);
  const std::size_t combined = z.coeffs.popcount_xor(coeffs);
  ops.control_word_ops += z.coeffs.word_count();
  // Algorithm 1, line 11: accept iff d(z) < d(z ⊕ y) ≤ d.
  if (dz < combined && combined <= target) {
    ops.control_word_ops += z.coeffs.xor_with(coeffs);
    ops.data_word_ops += z.payload.xor_with(store_.packet_payload(id));
    return combined;
  }
  return dz;
}

std::optional<CodedPacket> PacketBuilder::build(std::size_t target, Rng& rng,
                                                OpCounters& ops) {
  LTNC_CHECK_MSG(target >= 1, "target degree must be positive");
  const std::size_t k = store_.k();
  CodedPacket z{BitVector(k), Payload(store_.payload_bytes())};
  std::size_t dz = 0;

  std::vector<PacketId>& scratch = bucket_scratch_;
  for (std::size_t degree = std::min(target, index_.max_degree());
       dz < target && degree >= 2; --degree) {
    // Examine this bucket's packets in random order, at most once each
    // (Algorithm 1 pops candidates at random from S[i]).
    scratch.assign(index_.bucket(degree).begin(),
                   index_.bucket(degree).end());
    for (std::size_t t = 0; t < scratch.size() && dz < target; ++t) {
      const std::size_t j = t + rng.uniform(scratch.size() - t);
      std::swap(scratch[t], scratch[j]);
      const PacketId id = scratch[t];
      ops.control_steps += 1;
      dz = try_add(z, dz, target, id, ops);
    }
  }

  // Degree-1 resources: decoded natives (S[1] in the paper's notation).
  const auto& decoded = store_.decoded_order();
  if (dz < target && !decoded.empty()) {
    std::vector<NativeIndex>& natives = native_scratch_;
    natives.assign(decoded.begin(), decoded.end());
    for (std::size_t t = 0; t < natives.size() && dz < target; ++t) {
      const std::size_t j = t + rng.uniform(natives.size() - t);
      std::swap(natives[t], natives[j]);
      const NativeIndex x = natives[t];
      ops.control_steps += 1;
      // Adding native x raises the degree iff x is absent from z.
      if (!z.coeffs.test(x)) {
        z.coeffs.set(x);
        ops.data_word_ops += z.payload.xor_with(store_.native_payload(x));
        ++dz;
      }
    }
  }

  ++stats_.builds;
  if (dz == 0) return std::nullopt;
  if (dz == target) ++stats_.reached_target;
  stats_.relative_deviation.add(
      static_cast<double>(target - dz) / static_cast<double>(target));
  return z;
}

}  // namespace ltnc::core
