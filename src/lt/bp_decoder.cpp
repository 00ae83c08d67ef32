#include "lt/bp_decoder.hpp"

#include <utility>

#include "common/check.hpp"

namespace ltnc::lt {

BpDecoder::BpDecoder(std::size_t k, std::size_t payload_bytes,
                     StoreObserver* observer)
    : k_(k),
      payload_bytes_(payload_bytes),
      observer_(observer),
      decoded_mask_(k),
      decoded_values_(k, Payload(0)),
      adjacency_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
}

const Payload& BpDecoder::native_payload(NativeIndex i) const {
  LTNC_CHECK_MSG(i < k_, "native index out of range");
  LTNC_CHECK_MSG(decoded_mask_.test(i), "native not decoded");
  return decoded_values_[i];
}

const BitVector& BpDecoder::packet_coeffs(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  return slots_[id].coeffs;
}

const Payload& BpDecoder::packet_payload(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  const Slot& slot = slots_[id];
  ops_.data_word_ops += fold(slot);
  return slot.payload;
}

std::size_t BpDecoder::packet_degree(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  return slots_[id].degree;
}

std::uint32_t BpDecoder::new_edge(std::uint32_t id) {
  std::uint32_t e = free_edge_;
  if (e != kNoEdge) {
    free_edge_ = edges_[e].next;
  } else {
    e = static_cast<std::uint32_t>(edges_.size());
    edges_.emplace_back();
  }
  edges_[e] = Edge{id, kNoEdge};
  return e;
}

void BpDecoder::free_edge(std::uint32_t e) const {
  edges_[e].next = free_edge_;
  free_edge_ = e;
}

void BpDecoder::release_pending(const Slot& slot) const {
  if (slot.pending == kNoEdge) return;
  edges_[slot.pending_tail].next = free_edge_;
  free_edge_ = slot.pending;
  slot.pending = kNoEdge;
  slot.pending_tail = kNoEdge;
}

std::uint32_t BpDecoder::next_visit_stamp() const {
  if (++visit_stamp_ == 0) {  // wrapped: clear every stale stamp once
    for (const Slot& slot : slots_) slot.visited = 0;
    visit_stamp_ = 1;
  }
  return visit_stamp_;
}

std::size_t BpDecoder::fold(const Slot& slot) const {
  if (slot.pending == kNoEdge) return 0;
  fold_sources_.clear();
  for (std::uint32_t e = slot.pending; e != kNoEdge; e = edges_[e].next) {
    fold_sources_.push_back(&decoded_values_[edges_[e].id]);
  }
  release_pending(slot);
  return slot.payload.xor_accumulate(fold_sources_.data(),
                                     fold_sources_.size());
}

bool BpDecoder::folds_to_zero(const Slot& slot) const {
  fold(slot);  // uncharged: release builds never read an absorbed payload
  return slot.payload.is_zero();
}

void BpDecoder::reduce_by_decoded(BitVector& coeffs) {
  // Strip every decoded native from the vector — the paper's rule that a
  // decoded native is immediately propagated into arriving packets. The
  // payload contributions are collected for one batched fold, done only if
  // the packet is kept.
  reduce_sources_.clear();
  coeffs.for_each_set([&](std::size_t i) {
    ops_.control_steps += 1;
    if (decoded_mask_.test(i)) {
      coeffs.flip(i);
      reduce_sources_.push_back(&decoded_values_[i]);
    }
  });
}

ReceiveResult BpDecoder::receive(const CodedPacket& packet) {
  LTNC_CHECK_MSG(packet.coeffs.size() == k_, "code vector width mismatch");
  LTNC_CHECK_MSG(packet.payload.size_bytes() == payload_bytes_,
                 "payload size mismatch");
  ++ops_.invocations;

  BitVector coeffs = packet.coeffs;
  ops_.control_word_ops += coeffs.word_count();  // header copy/scan
  reduce_by_decoded(coeffs);

  const std::size_t degree = coeffs.popcount();
  ops_.control_word_ops += coeffs.word_count();
  if (degree == 0) return ReceiveResult::kDuplicate;

  if (degree >= 2 && degree <= 3 && observer_ != nullptr &&
      observer_->should_drop(kInvalidPacket, coeffs, degree)) {
    return ReceiveResult::kRejectedRedundant;
  }

  // Kept: only now is the payload copied and reduced.
  Payload payload = packet.payload;
  if (!reduce_sources_.empty()) {
    ops_.data_word_ops += payload.xor_accumulate(reduce_sources_.data(),
                                                 reduce_sources_.size());
  }

  if (degree == 1) {
    const std::size_t i = coeffs.first_set();
    decode_native(static_cast<NativeIndex>(i), std::move(payload));
    process_ripple();
    if (complete()) release_graph();
    return ReceiveResult::kDecodedNative;
  }

  // Store the packet in the Tanner graph.
  PacketId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<PacketId>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[id];
  slot.coeffs = std::move(coeffs);
  slot.payload = std::move(payload);
  slot.degree = static_cast<std::uint32_t>(degree);
  ++stored_count_;
  slot.coeffs.for_each_set([&](std::size_t i) {
    const std::uint32_t e = new_edge(id);
    EdgeList& list = adjacency_[i];
    if (list.tail == kNoEdge) {
      list.head = e;
    } else {
      edges_[list.tail].next = e;
    }
    list.tail = e;
    ops_.control_steps += 1;
  });
  if (observer_ != nullptr) {
    observer_->on_stored(id, slot.coeffs, degree, slot.payload);
  }
  return ReceiveResult::kStored;
}

void BpDecoder::decode_native(NativeIndex i, Payload value) {
  LTNC_CHECK_MSG(!decoded_mask_.test(i), "native decoded twice");
  decoded_mask_.set(i);
  decoded_values_[i] = std::move(value);
  decoded_order_.push_back(i);
  if (observer_ != nullptr) {
    observer_->on_native_decoded(i, decoded_values_[i]);
  }

  // Propagate along the native's edges in store order. Each live packet
  // loses the native from its code vector at once; its payload only
  // queues the native on its pending list. decode_native never re-enters
  // itself (ripples are deferred to process_ripple) and nothing stores a
  // packet meanwhile, so the detached list is walked undisturbed.
  std::uint32_t e = adjacency_[i].head;
  adjacency_[i] = EdgeList{};
  while (e != kNoEdge) {
    const std::uint32_t next = edges_[e].next;
    const PacketId id = edges_[e].id;
    ops_.control_steps += 1;
    // A packet is reduced at the first edge naming its slot, which may be
    // a stale edge left by the slot's previous packet; later edges then
    // find bit i clear. This order is part of every golden trajectory.
    if (!packet_alive(id) || !slots_[id].coeffs.test(i)) {
      free_edge(e);  // stale, or its packet was reduced at an earlier edge
      e = next;
      continue;
    }
    Slot& slot = slots_[id];
    const std::size_t old_degree = slot.degree;
    slot.coeffs.flip(i);
    edges_[e] = Edge{i, slot.pending};
    if (slot.pending == kNoEdge) slot.pending_tail = e;
    slot.pending = e;
    slot.degree = static_cast<std::uint32_t>(old_degree - 1);
    e = next;

    if (slot.degree == 0) {
      // Fully absorbed: the packet was dependent on decoded natives.
      LTNC_DCHECK(folds_to_zero(slot));
      retire_slot(id, old_degree);
      continue;
    }
    // §III-C.1: re-test redundancy when a packet's degree drops into the
    // detectable range — dropping it now avoids useless XORs later.
    if (slot.degree >= 2 && slot.degree <= 3 && observer_ != nullptr &&
        observer_->should_drop(id, slot.coeffs, slot.degree)) {
      retire_slot(id, old_degree);
      continue;
    }
    if (observer_ != nullptr) {
      observer_->on_degree_changed(id, slot.coeffs, old_degree, slot.degree);
    }
    if (slot.degree == 1) ripple_.push_back(id);
  }
}

void BpDecoder::process_ripple() {
  while (!ripple_.empty()) {
    const PacketId id = ripple_.back();
    ripple_.pop_back();
    ops_.control_steps += 1;
    if (!packet_alive(id) || slots_[id].degree != 1) continue;
    Slot& slot = slots_[id];
    const std::size_t i = slot.coeffs.first_set();
    LTNC_DCHECK(i != BitVector::npos);
    ops_.data_word_ops += fold(slot);
    Payload value = std::move(slot.payload);
    retire_slot(id, 1);
    if (!decoded_mask_.test(i)) {
      decode_native(static_cast<NativeIndex>(i), std::move(value));
    }
  }
}

void BpDecoder::release_graph() {
  // Every stored packet was absorbed by the last decoded natives and no
  // packet can be stored again, so the slots and the edge pool are dead.
  LTNC_DCHECK(stored_count_ == 0);
  slots_ = std::vector<Slot>();
  free_list_ = std::vector<PacketId>();
  ripple_ = std::vector<PacketId>();
  edges_ = std::vector<Edge>();
  free_edge_ = kNoEdge;
}

void BpDecoder::remove_packet(PacketId id) {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  retire_slot(id, slots_[id].degree);
}

void BpDecoder::retire_slot(PacketId id, std::size_t registered_degree) {
  Slot& slot = slots_[id];
  slot.degree = 0;  // dead: invisible to traversals from observer callbacks
  --stored_count_;
  if (observer_ != nullptr) {
    observer_->on_removed(id, slot.coeffs, registered_degree);
  }
  release_pending(slot);
  slot.coeffs = BitVector();
  slot.payload = Payload();
  free_list_.push_back(id);
}

}  // namespace ltnc::lt
