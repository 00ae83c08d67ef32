#include "core/ltnc_codec.hpp"

#include <utility>

#include "common/check.hpp"

namespace ltnc::core {

LtncCodec::LtncCodec(const LtncConfig& config)
    : cfg_(config),
      soliton_(config.k, config.soliton),
      decoder_(config.k, config.payload_bytes, this),
      index_(config.k),
      coverage_(config.k,
                // Rescan: enumerate live stored packets containing a native.
                [this](NativeIndex x,
                       const std::function<void(std::size_t)>& visit) {
                  decoder_.for_each_packet_containing(x, [&](PacketId id) {
                    visit(decoder_.packet_degree(id));
                  });
                }),
      components_(config.k, config.payload_bytes,
                  [this](NativeIndex x) -> const Payload& {
                    return decoder_.native_payload(x);
                  }),
      occurrences_(config.k),
      redundancy_(config.k, components_),
      picker_(soliton_, index_, coverage_, config.enable_reachability_bounds),
      builder_(decoder_, index_),
      refiner_(components_, occurrences_),
      smart_(decoder_, components_) {
  LTNC_CHECK_MSG(config.k > 0, "k must be positive");
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

lt::ReceiveResult LtncCodec::receive(const CodedPacket& packet) {
  ++stats_.receives;
  const lt::ReceiveResult result = decoder_.receive(packet);
  switch (result) {
    case lt::ReceiveResult::kDuplicate:
      ++stats_.duplicates;
      break;
    case lt::ReceiveResult::kRejectedRedundant:
      ++stats_.redundant_rejected;
      break;
    case lt::ReceiveResult::kDecodedNative:
      ++stats_.decoded_on_arrival;
      break;
    case lt::ReceiveResult::kStored:
      ++stats_.stored;
      break;
  }
  return result;
}

bool LtncCodec::would_reject(const BitVector& coeffs) const {
  // Pure control-plane evaluation of an advertised code vector, exactly
  // what the receiver runs before allowing the payload transfer (§IV-A).
  auto& ops = decoder_.ops();
  const std::size_t residual = decoder_.residual_degree(coeffs);
  const_cast<OpCounters&>(ops).control_word_ops += coeffs.word_count();
  if (residual == 0) return true;  // nothing new in it
  if (!cfg_.enable_redundancy_detection || residual > 3) return false;
  BitVector reduced = coeffs;
  reduced.subtract(decoder_.decoded_mask());
  return redundancy_.is_redundant(reduced);
}

// ---------------------------------------------------------------------------
// StoreObserver callbacks (fired by the BP decoder)
// ---------------------------------------------------------------------------

bool LtncCodec::should_drop(PacketId id, const BitVector& coeffs,
                            std::size_t degree) {
  (void)degree;
  if (!cfg_.enable_redundancy_detection) return false;
  const bool redundant = redundancy_.is_redundant(coeffs);
  if (redundant && id != kInvalidPacket) ++stats_.dropped_during_decode;
  return redundant;
}

void LtncCodec::merge_components(const BitVector& coeffs,
                                 const Payload& payload) {
  // A degree-2 packet x ⊕ x' became available: connect its endpoints
  // (paper Fig. 5 — triggered on reception and on BP reduction alike).
  const std::size_t a = coeffs.first_set();
  const std::size_t b = coeffs.next_set(a + 1);
  LTNC_DCHECK(b != BitVector::npos);
  components_.add_edge(static_cast<NativeIndex>(a),
                       static_cast<NativeIndex>(b), payload,
                       decoder_.mutable_ops());
}

void LtncCodec::on_stored(PacketId id, const BitVector& coeffs,
                          std::size_t degree, const Payload& payload) {
  index_.insert(id, degree);
  coverage_.on_packet_added(coeffs, degree);
  redundancy_.on_stored(id, coeffs, degree);
  if (degree == 2) merge_components(coeffs, payload);
}

void LtncCodec::on_degree_changed(PacketId id, const BitVector& coeffs,
                                  std::size_t old_degree,
                                  std::size_t new_degree) {
  index_.change(id, old_degree, new_degree);
  coverage_.on_packet_degree_changed(coeffs, old_degree, new_degree);
  redundancy_.on_degree_changed(id, coeffs, old_degree, new_degree);
  // Only a degree-2 packet's payload is needed; reading it folds the
  // natives BP has decoded since the packet arrived.
  if (new_degree == 2) merge_components(coeffs, decoder_.packet_payload(id));
}

void LtncCodec::on_removed(PacketId id, const BitVector& coeffs,
                           std::size_t degree) {
  if (degree >= 1) index_.remove(id, degree);
  coverage_.on_packet_removed(coeffs, degree);
  redundancy_.on_removed(id);
}

void LtncCodec::on_native_decoded(NativeIndex index, const Payload& value) {
  (void)value;
  components_.mark_decoded(index, occurrences_.count(index));
  coverage_.on_native_decoded(index);
}

// ---------------------------------------------------------------------------
// Recode path
// ---------------------------------------------------------------------------

std::optional<CodedPacket> LtncCodec::recode(Rng& rng) {
  ++stats_.recodes;
  ++recode_ops_.invocations;
  const auto degree = picker_.pick(rng);
  if (!degree.has_value()) {
    ++stats_.recode_failures;
    return std::nullopt;
  }
  auto packet = builder_.build(*degree, rng, recode_ops_);
  if (!packet.has_value()) {
    ++stats_.recode_failures;
    return std::nullopt;
  }
  if (cfg_.enable_refinement) {
    stats_.substitutions += refiner_.refine(*packet, recode_ops_);
  }
  occurrences_.on_sent(packet->coeffs);
  return packet;
}

std::optional<CodedPacket> LtncCodec::recode_for(
    const std::vector<std::uint32_t>& receiver_cc, Rng& rng) {
  ++recode_ops_.invocations;
  const auto degree = picker_.pick(rng);
  if (!degree.has_value()) {
    ++stats_.recodes;
    ++stats_.recode_failures;
    return std::nullopt;
  }
  // §III-C.2: smart construction only for degrees 1 and 2.
  if (*degree == 1) {
    auto pkt = smart_.construct_degree1(receiver_cc, rng, recode_ops_);
    if (pkt.has_value()) {
      ++stats_.recodes;
      ++stats_.smart_degree1;
      occurrences_.on_sent(pkt->coeffs);
      return pkt;
    }
  } else if (*degree == 2) {
    auto pkt = smart_.construct_degree2(receiver_cc, rng, recode_ops_);
    if (pkt.has_value()) {
      ++stats_.recodes;
      ++stats_.smart_degree2;
      occurrences_.on_sent(pkt->coeffs);
      return pkt;
    }
  }
  // Fall back to plain recoding (the receiver may still abort it).
  --recode_ops_.invocations;  // recode() will re-charge the invocation
  return recode(rng);
}

}  // namespace ltnc::core
