#include "lt/lt_encoder.hpp"

#include "common/check.hpp"

namespace ltnc::lt {

LtEncoder::LtEncoder(std::vector<Payload> natives,
                     RobustSolitonParams params)
    : natives_(std::move(natives)),
      payload_bytes_(natives_.empty() ? 0 : natives_[0].size_bytes()),
      soliton_(natives_.size(), params),
      stamp_(natives_.size(), 0) {
  LTNC_CHECK_MSG(!natives_.empty(), "encoder needs at least one native");
  for (const auto& n : natives_) {
    LTNC_CHECK_MSG(n.size_bytes() == payload_bytes_,
                   "all natives must have the same size");
  }
  chosen_.reserve(natives_.size());
  sources_.reserve(natives_.size());
}

CodedPacket LtEncoder::encode(Rng& rng) {
  return encode_with_degree(rng, soliton_.sample(rng));
}

CodedPacket LtEncoder::encode_with_degree(Rng& rng, std::size_t degree) {
  const std::size_t k = natives_.size();
  LTNC_CHECK_MSG(degree >= 1 && degree <= k, "degree out of range");
  ++ops_.invocations;

  // Floyd's algorithm: uniform d-subset of [0, k) in O(d) time. Membership
  // is tracked by a generation-stamped array so repeated encodes allocate
  // nothing.
  const std::uint64_t gen = ++generation_;
  chosen_.clear();
  for (std::size_t j = k - degree; j < k; ++j) {
    const std::size_t t = rng.uniform(j + 1);
    const std::size_t pick = (stamp_[t] == gen) ? j : t;
    stamp_[pick] = gen;
    chosen_.push_back(pick);
  }

  // One multi-source fold over the payload instead of one full XOR pass
  // per chosen native.
  CodedPacket pkt{BitVector(k), Payload(payload_bytes_)};
  sources_.clear();
  for (std::size_t i : chosen_) {
    pkt.coeffs.set(i);
    ops_.control_steps += 1;
    sources_.push_back(&natives_[i]);
  }
  ops_.data_word_ops += pkt.payload.xor_accumulate(sources_.data(),
                                                   sources_.size());
  return pkt;
}

std::vector<Payload> make_native_payloads(std::size_t k, std::size_t bytes,
                                          std::uint64_t seed) {
  std::vector<Payload> natives;
  natives.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    natives.push_back(Payload::deterministic(bytes, seed, i));
  }
  return natives;
}

}  // namespace ltnc::lt
