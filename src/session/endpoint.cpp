#include "session/endpoint.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "wire/codec.hpp"

namespace ltnc::session {

namespace {

#if LTNC_TELEMETRY_ENABLED
// Call sites live inside LTNC_TELEMETRY(), so these helpers (and all
// instrument state) vanish from the hot paths in a telemetry-off build.
constexpr Instant kNeverDelivered = ~Instant{0};

void trace_event(const telemetry::SessionInstruments* t,
                 telemetry::TracePoint point, Instant now,
                 std::uint64_t detail) {
  if (t != nullptr && t->recorder != nullptr) {
    t->recorder->record(point, now, t->actor, detail);
  }
}
#endif

}  // namespace

Endpoint::Endpoint(const EndpointConfig& config,
                   std::unique_ptr<store::ContentStore> contents)
    : cfg_(config), store_(std::move(contents)) {
  LTNC_CHECK_MSG(store_ != nullptr, "endpoint needs a content store");
}

bool Endpoint::can_push() const {
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).can_emit()) return true;
  }
  return false;
}

// --- sparse peer table -----------------------------------------------------
//
// Linear-probed power-of-two hash (SplitMix64 finalizer — PeerIds are
// often sequential, so the raw id is a terrible bucket key) mapping a
// PeerId to its slot in the dense first-contact-order `peers_` vector.
// Deletion uses backward-shift so probe chains never accumulate
// tombstones across a long reclaim-heavy run.

namespace {

std::size_t hash_peer(PeerId peer) {
  std::uint64_t x = static_cast<std::uint64_t>(peer) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

}  // namespace

std::uint32_t Endpoint::find_slot(PeerId peer) const {
  if (slot_of_.empty()) return kNoSlot;
  std::size_t i = hash_peer(peer) & index_mask_;
  while (slot_of_[i] != kNoSlot) {
    if (peers_[slot_of_[i]].id == peer) return slot_of_[i];
    i = (i + 1) & index_mask_;
  }
  return kNoSlot;
}

Endpoint::Peer* Endpoint::find_peer(PeerId peer) {
  const std::uint32_t slot = find_slot(peer);
  return slot == kNoSlot ? nullptr : &peers_[slot];
}

void Endpoint::index_insert(PeerId peer, std::uint32_t slot) {
  std::size_t i = hash_peer(peer) & index_mask_;
  while (slot_of_[i] != kNoSlot) i = (i + 1) & index_mask_;
  slot_of_[i] = slot;
}

void Endpoint::index_erase(PeerId peer) {
  std::size_t i = hash_peer(peer) & index_mask_;
  while (true) {
    if (slot_of_[i] == kNoSlot) return;  // not indexed
    if (peers_[slot_of_[i]].id == peer) break;
    i = (i + 1) & index_mask_;
  }
  // Backward shift: pull every displaced successor whose home bucket lies
  // at or before the hole, keeping all probe chains gap-free.
  std::size_t hole = i;
  std::size_t j = (hole + 1) & index_mask_;
  while (slot_of_[j] != kNoSlot) {
    const std::size_t home = hash_peer(peers_[slot_of_[j]].id) & index_mask_;
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      slot_of_[hole] = slot_of_[j];
      hole = j;
    }
    j = (j + 1) & index_mask_;
  }
  slot_of_[hole] = kNoSlot;
}

void Endpoint::index_rebind(PeerId peer, std::uint32_t from,
                            std::uint32_t to) {
  // `peer` is indexed, and its probe chain from home is gap-free, so the
  // bucket holding `from` is always reachable.
  std::size_t i = hash_peer(peer) & index_mask_;
  while (slot_of_[i] != from) i = (i + 1) & index_mask_;
  slot_of_[i] = to;
}

void Endpoint::rehash_index(std::size_t buckets) {
  slot_of_.assign(buckets, kNoSlot);
  index_mask_ = buckets - 1;
  for (std::uint32_t slot = 0; slot < peers_.size(); ++slot) {
    index_insert(peers_[slot].id, slot);
  }
}

Endpoint::Peer& Endpoint::peer_state(PeerId peer) {
  if (Peer* p = find_peer(peer)) return *p;
  // Grow at 3/4 load so probe chains stay short.
  if (slot_of_.empty() || (peers_.size() + 1) * 4 > slot_of_.size() * 3) {
    rehash_index(std::max<std::size_t>(16, slot_of_.size() * 2));
  }
  const auto slot = static_cast<std::uint32_t>(peers_.size());
  peers_.emplace_back();
  peers_.back().id = peer;
  index_insert(peer, slot);
  return peers_.back();
}

void Endpoint::remove_peer_slot(std::uint32_t slot) {
  index_erase(peers_[slot].id);
  const auto last = static_cast<std::uint32_t>(peers_.size() - 1);
  if (slot != last) {
    // Swap-remove, then repoint the moved peer's index bucket at its new
    // slot (first-contact order is a courtesy, not a contract — nothing
    // keyed on it survives a reclaim).
    peers_[slot] = std::move(peers_[last]);
    index_rebind(peers_[slot].id, last, slot);
  }
  peers_.pop_back();
}

bool Endpoint::reclaim_idle_convo(PeerId peer, ContentId content) {
  const std::uint32_t slot = find_slot(peer);
  if (slot == kNoSlot) return false;
  Peer& p = peers_[slot];
  for (std::size_t i = 0; i < p.convos.size(); ++i) {
    Convo& cv = p.convos[i];
    if (cv.content != content) continue;
    if (cv.out.state != Outbound::State::kIdle || cv.in.awaiting_data ||
        cv.cc_fresh || cv.peer_done) {
      return false;  // live state — the slot stays
    }
    if (i + 1 != p.convos.size()) cv = std::move(p.convos.back());
    p.convos.pop_back();
    if (p.convos.empty()) remove_peer_slot(slot);
    return true;
  }
  return false;
}

bool Endpoint::expire_content(ContentId content) {
  const std::size_t index = store_->index_of(content);
  if (index >= store_->size()) return false;
  // Cancel every (peer, content) conversation. A transfer still awaiting
  // its abort/proceed is abandoned — the deadline-miss drop path — and
  // its pending payload lease goes back to the arena via close_outbound.
  for (std::uint32_t slot = 0; slot < peers_.size();) {
    Peer& p = peers_[slot];
    bool peer_removed = false;
    for (std::size_t i = 0; i < p.convos.size(); ++i) {
      Convo& cv = p.convos[i];
      if (cv.content != content) continue;
      if (cv.out.state == Outbound::State::kAwaitFeedback) {
        ++stats_.transfers_abandoned;
      }
      close_outbound(cv.out);
      if (i + 1 != p.convos.size()) cv = std::move(p.convos.back());
      p.convos.pop_back();
      if (p.convos.empty()) {
        remove_peer_slot(slot);
        peer_removed = true;
      }
      break;  // at most one convo per (peer, content)
    }
    // remove_peer_slot swap-moved a different peer into `slot`; revisit it.
    if (!peer_removed) ++slot;
  }
  // Side tables are index-parallel to the store; erase in lockstep so the
  // surviving contents keep their announce/latency state.
  if (index < announces_.size()) {
    announces_.erase(announces_.begin() + static_cast<std::ptrdiff_t>(index));
  }
  if (index < first_delivery_.size()) {
    first_delivery_.erase(first_delivery_.begin() +
                          static_cast<std::ptrdiff_t>(index));
  }
  if (index < completion_recorded_.size()) {
    completion_recorded_.erase(completion_recorded_.begin() +
                               static_cast<std::ptrdiff_t>(index));
  }
  store_->remove(content);
  note_expired(content);
  ++stats_.contents_expired;
  return true;
}

void Endpoint::note_expired(ContentId content) {
  if (cfg_.expired_ring == 0) return;  // ring disabled by config
  if (expired_ring_.size() < cfg_.expired_ring) {
    expired_ring_.push_back(content);
    expired_next_ = expired_ring_.size() % cfg_.expired_ring;
    return;
  }
  expired_ring_[expired_next_] = content;
  expired_next_ = (expired_next_ + 1) % cfg_.expired_ring;
}

bool Endpoint::recently_expired(ContentId content) const {
  for (const ContentId id : expired_ring_) {
    if (id == content) return true;
  }
  return false;
}

Endpoint::Convo& Endpoint::convo(PeerId peer, ContentId content) {
  Peer& p = peer_state(peer);
  for (Convo& cv : p.convos) {
    if (cv.content == content) return cv;
  }
  p.convos.emplace_back();
  p.convos.back().content = content;
  return p.convos.back();
}

Endpoint::Convo* Endpoint::find_convo(PeerId peer, ContentId content) {
  Peer* p = find_peer(peer);
  if (p == nullptr) return nullptr;
  for (Convo& cv : p->convos) {
    if (cv.content == content) return &cv;
  }
  return nullptr;
}

const Endpoint::Convo* Endpoint::find_convo(PeerId peer,
                                            ContentId content) const {
  return const_cast<Endpoint*>(this)->find_convo(peer, content);
}

void Endpoint::close_outbound(Outbound& out) {
  out.state = Outbound::State::kIdle;
  out.packet = CodedPacket();  // hand the limb leases back to the arena
}

// --- transmit queue --------------------------------------------------------

wire::Frame& Endpoint::push_slot(PeerId peer) {
  if (tx_size_ == tx_ring_.size()) {
    // Cold path: unroll the ring so index order matches queue order, then
    // double the slot count. Warm buffers in existing slots survive.
    std::rotate(tx_ring_.begin(),
                tx_ring_.begin() + static_cast<std::ptrdiff_t>(tx_head_),
                tx_ring_.end());
    tx_head_ = 0;
    tx_ring_.resize(std::max<std::size_t>(4, tx_ring_.size() * 2));
  }
  TxSlot& slot = tx_ring_[(tx_head_ + tx_size_) % tx_ring_.size()];
  ++tx_size_;
  slot.peer = peer;
  return slot.frame;
}

bool Endpoint::poll_transmit(PeerId& peer, wire::Frame& out) {
  if (tx_size_ == 0) return false;
  TxSlot& slot = tx_ring_[tx_head_];
  peer = slot.peer;
  // Swap rather than copy: the caller gets the queued frame, the drained
  // slot banks the caller's warmed capacity for the next queue_* call.
  std::swap(out, slot.frame);
  tx_head_ = (tx_head_ + 1) % tx_ring_.size();
  --tx_size_;
  ++stats_.frames_sent;
  stats_.bytes_sent += out.size();
  return true;
}

void Endpoint::queue_advertise(PeerId peer, ContentId content,
                               const Outbound& out) {
  wire::AdvertiseInfo info;
  info.content = content;
  info.payload_bytes = out.packet.payload.size_bytes();
  wire::serialize_advertise(info, out.packet.coeffs, push_slot(peer));
}

void Endpoint::queue_data(PeerId peer, ContentId content,
                          const CodedPacket& packet) {
  wire::serialize(content, packet, push_slot(peer));
}

void Endpoint::queue_feedback(PeerId peer, ContentId content,
                              wire::MessageType type, std::uint64_t token) {
  wire::serialize_feedback(content, type, token, push_slot(peer));
}

void Endpoint::queue_cc(PeerId peer, ContentId content,
                        const std::vector<std::uint32_t>& leaders) {
  wire::serialize_cc(content, leaders, push_slot(peer));
}

// --- application surface ---------------------------------------------------

bool Endpoint::start_transfer(PeerId peer, ContentId content, Rng& rng) {
  store::Content* c = store_->find(content);
  NodeProtocol* protocol = c == nullptr ? nullptr : c->protocol();
  if (protocol == nullptr) return false;
  std::optional<CodedPacket> packet;
  Convo* cv =
      cfg_.feedback == FeedbackMode::kSmart ? &convo(peer, content) : nullptr;
  if (cv != nullptr && cv->cc_fresh) {
    cv->cc_fresh = false;  // one construction per shipped cc array
    packet = protocol->emit_for(cv->cc, rng);
  } else {
    packet = protocol->emit(rng);
  }
  if (!packet.has_value()) return false;
  begin_offer(peer, content, *packet);
  return true;
}

const store::Content* Endpoint::next_push(PeerId peer) {
  const std::size_t n = store_->size();
  if (n == 0) return nullptr;
  if (eligible_.size() < n) eligible_.resize(n);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    eligible_[i] = 0;
    store::Content& c = store_->at(i);
    if (!c.can_emit()) continue;
    const Convo* cv = find_convo(peer, c.id());
    if (cv != nullptr && (cv->peer_done ||
                          cv->out.state == Outbound::State::kAwaitFeedback)) {
      continue;  // the peer is done with it, or a transfer is in flight
    }
    eligible_[i] = 1;
    any = true;
  }
  if (!any) return nullptr;
  const std::size_t pick =
      scheduler_.pick(*store_, {eligible_.data(), eligible_.size()});
  if (pick == store::SwarmScheduler::kNone) return nullptr;
  ++stats_.swarm_pushes;
  return &store_->at(pick);
}

void Endpoint::offer_packet(PeerId peer, ContentId content,
                            const CodedPacket& packet) {
  begin_offer(peer, content, packet);
}

void Endpoint::begin_offer(PeerId peer, ContentId content,
                           const CodedPacket& packet) {
  ++stats_.offers;
  if (cfg_.feedback == FeedbackMode::kNone) {
    // No handshake: the payload goes out directly, fire and forget. The
    // conversation slot still exists (created once, cold) so the peer's
    // eventual completion kAck for this content has a home — inbound
    // feedback only ever binds to conversations we opened ourselves.
    [[maybe_unused]] Convo& direct = convo(peer, content);
    LTNC_TELEMETRY(if (!direct.ever_offered) {
      direct.ever_offered = true;
      direct.first_offer_at = now_;
    });
    queue_data(peer, content, packet);
    ++stats_.data_sent;
    LTNC_TELEMETRY(trace_event(telemetry_, telemetry::TracePoint::kPayloadSent,
                               now_, content));
    return;
  }
  Convo& cv = convo(peer, content);
  LTNC_TELEMETRY(if (!cv.ever_offered) {
    cv.ever_offered = true;
    cv.first_offer_at = now_;
  });
  if (cv.out.state == Outbound::State::kAwaitFeedback) {
    ++stats_.transfers_abandoned;  // superseded by the fresher offer
  }
  cv.out.packet = packet;
  cv.out.state = Outbound::State::kAwaitFeedback;
  cv.out.retries = 0;
  cv.out.deadline = now_ + cfg_.response_timeout;
  cv.out.offered_at = now_;
  queue_advertise(peer, content, cv.out);
  ++stats_.advertises_sent;
  LTNC_TELEMETRY(trace_event(telemetry_, telemetry::TracePoint::kAdvertiseSent,
                             now_, content));
}

bool Endpoint::announce_cc(PeerId peer, ContentId content) {
  store::Content* c = store_->find(content);
  if (c == nullptr || c->protocol() == nullptr) return false;
  const std::vector<std::uint32_t>* leaders =
      c->protocol()->component_leaders();
  if (leaders == nullptr) return false;
  queue_cc(peer, content, *leaders);
  ++stats_.cc_sent;
  return true;
}

bool Endpoint::overhear(ContentId content, const CodedPacket& packet) {
  store::Content* c = store_->find(content);
  // would_reject is true for a seeder-only content, so deliver always
  // finds a protocol.
  if (c == nullptr || c->would_reject(packet.coeffs)) return false;
  c->deliver(packet);
  ++stats_.overheard;
  return true;
}

bool Endpoint::awaiting_feedback(PeerId peer, ContentId content) const {
  const Convo* cv = find_convo(peer, content);
  return cv != nullptr && cv->out.state == Outbound::State::kAwaitFeedback;
}

bool Endpoint::peer_completed(PeerId peer, ContentId content) const {
  const Convo* cv = find_convo(peer, content);
  return cv != nullptr && cv->peer_done;
}

bool Endpoint::peer_completed_all(PeerId peer) const {
  if (store_->size() == 0) return false;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (!peer_completed(peer, store_->at(i).id())) return false;
  }
  return true;
}

void Endpoint::set_feedback_token(std::uint64_t token) {
  pending_token_ = token;
}

std::uint64_t Endpoint::next_feedback_token() {
  if (pending_token_.has_value()) {
    const std::uint64_t token = *pending_token_;
    pending_token_.reset();
    return token;
  }
  return conversation_counter_++;
}

// --- frame intake ----------------------------------------------------------

Endpoint::Event Endpoint::handle_frame(PeerId peer,
                                       std::span<const std::uint8_t> bytes) {
  ++stats_.frames_received;
  stats_.bytes_received += bytes.size();
  wire::MessageType type{};
  if (wire::peek_type(bytes, type) != wire::DecodeStatus::kOk) {
    ++stats_.malformed_frames;
    return Event::kMalformed;
  }
  switch (type) {
    case wire::MessageType::kAdvertise:
      return on_advertise(peer, bytes);
    case wire::MessageType::kCodedPacket:
      return on_data(peer, bytes);
    case wire::MessageType::kAbort:
    case wire::MessageType::kAck:
    case wire::MessageType::kProceed: {
      std::uint64_t token = 0;
      ContentId content = 0;
      if (wire::deserialize_feedback(bytes, type, token, content) !=
          wire::DecodeStatus::kOk) {
        ++stats_.malformed_frames;
        return Event::kMalformed;
      }
      return on_feedback(peer, content, type);
    }
    case wire::MessageType::kCcArray:
      return on_cc(peer, bytes);
  }
  ++stats_.foreign_frames;
  return Event::kNone;
}

Endpoint::Event Endpoint::on_advertise(PeerId peer,
                                       std::span<const std::uint8_t> bytes) {
  if (wire::deserialize_advertise(bytes, rx_coeffs_, rx_adv_) !=
      wire::DecodeStatus::kOk) {
    ++stats_.malformed_frames;
    return Event::kMalformed;
  }
  store::Content* c = store_->find(rx_adv_.content);
  if (c == nullptr || rx_coeffs_.size() != c->k() ||
      rx_adv_.payload_bytes != c->payload_bytes()) {
    if (c == nullptr && recently_expired(rx_adv_.content)) {
      ++stats_.expired_frames;  // late offer for a block past its window
      return Event::kExpired;
    }
    ++stats_.foreign_frames;
    return Event::kNone;
  }
  ++stats_.advertises_received;
  LTNC_TELEMETRY(trace_event(telemetry_, telemetry::TracePoint::kAdvertiseRecv,
                             now_, rx_adv_.content));
  Convo& cv = convo(peer, rx_adv_.content);
  if (cv.in.awaiting_data && cv.in.coeffs == rx_coeffs_) {
    // Replay of an advertise we already answered (our proceed was lost,
    // or the frame was duplicated in flight). Note it, then fall through
    // to a full re-evaluation: the vector may have turned redundant since
    // the first answer, and the veto must always reflect current state —
    // the conversation is simply re-armed, never opened twice.
    ++stats_.duplicates_suppressed;
  }
  // A receiver-less content (pure seeder) can never consume a payload:
  // vetoing up front beats inviting a data frame it would drop as
  // foreign.
  const bool reject = cfg_.feedback != FeedbackMode::kNone &&
                      c->would_reject(rx_coeffs_);
  const std::uint64_t token = next_feedback_token();
  if (reject) {
    cv.in.awaiting_data = false;  // any stale conversation dies with the veto
    queue_feedback(peer, rx_adv_.content, wire::MessageType::kAbort, token);
    ++stats_.aborts_sent;
    LTNC_TELEMETRY(trace_event(telemetry_, telemetry::TracePoint::kAbortSent,
                               now_, rx_adv_.content));
    return Event::kAborted;
  }
  // A fresh advertise supersedes whatever this (peer, content) had in
  // flight.
  cv.in.coeffs = rx_coeffs_;
  cv.in.awaiting_data = true;
  cv.in.deadline = now_ + cfg_.response_timeout;
  queue_feedback(peer, rx_adv_.content, wire::MessageType::kProceed, token);
  ++stats_.proceeds_sent;
  LTNC_TELEMETRY(trace_event(telemetry_, telemetry::TracePoint::kProceedSent,
                             now_, rx_adv_.content));
  return Event::kProceeding;
}

Endpoint::Event Endpoint::on_data(PeerId peer,
                                  std::span<const std::uint8_t> bytes) {
  ContentId content = 0;
  if (wire::deserialize(bytes, content, rx_packet_) !=
      wire::DecodeStatus::kOk) {
    ++stats_.malformed_frames;
    return Event::kMalformed;
  }
  const std::size_t index = store_->index_of(content);
  store::Content* c = index < store_->size() ? &store_->at(index) : nullptr;
  if (c == nullptr || c->protocol() == nullptr ||
      rx_packet_.coeffs.size() != c->k() ||
      rx_packet_.payload.size_bytes() != c->payload_bytes()) {
    if (c == nullptr && recently_expired(content)) {
      ++stats_.expired_frames;  // late payload for a block past its window
      return Event::kExpired;
    }
    ++stats_.foreign_frames;
    return Event::kNone;
  }
  Convo& cv = convo(peer, content);
  if (cv.in.awaiting_data && cv.in.coeffs == rx_packet_.coeffs) {
    cv.in.awaiting_data = false;  // the conversation closes on delivery
  } else if (cfg_.feedback != FeedbackMode::kNone) {
    // Data with no matching advertise: a reordered or replayed frame.
    // Deliver anyway — the protocol's own redundancy detection is the
    // authority on usefulness, and rateless payloads are always safe.
    ++stats_.unsolicited_data;
  }
  c->deliver(rx_packet_);
  ++stats_.data_delivered;
  LTNC_TELEMETRY(
      trace_event(telemetry_, telemetry::TracePoint::kPayloadDelivered, now_,
                  content);
      if (telemetry_ != nullptr && telemetry_->completion_ticks != nullptr) {
        // First payload anchors the content's completion-latency sample;
        // the sample is recorded exactly once, at the completing delivery.
        if (first_delivery_.size() < store_->size()) {
          first_delivery_.resize(store_->size(), kNeverDelivered);
          completion_recorded_.resize(store_->size(), 0);
        }
        if (first_delivery_[index] == kNeverDelivered) {
          first_delivery_[index] = now_;
        }
        if (completion_recorded_[index] == 0 && c->complete()) {
          completion_recorded_[index] = 1;
          telemetry_->completion_ticks->record(
              now_ - first_delivery_[index]);
          trace_event(telemetry_, telemetry::TracePoint::kComplete, now_,
                      content);
        }
      });
  maybe_announce_completion(index, *c, peer);
  return Event::kDelivered;
}

Endpoint::Event Endpoint::on_feedback(PeerId peer, ContentId content,
                                      wire::MessageType type) {
  // Feedback binds only to conversations this endpoint opened (every
  // offer creates the slot). Never allocate convo state off an inbound
  // content id: a stray or forged frame sweeping the 2^64 id space must
  // not grow per-peer memory — the open-port hardening rule.
  Convo* cv = find_convo(peer, content);
  if (cv == nullptr) {
    if (recently_expired(content)) {
      // Feedback for a conversation expire_content tore down: the
      // answer raced the expiry, exactly one counter takes it.
      ++stats_.expired_frames;
      return Event::kExpired;
    }
    if (type == wire::MessageType::kAck) {
      ++stats_.completions_received;
      ++stats_.foreign_frames;  // ack for a conversation we never had
    } else {
      ++stats_.duplicates_suppressed;  // stale answer to a closed transfer
    }
    return Event::kNone;
  }
  switch (type) {
    case wire::MessageType::kAbort:
      if (cv->out.state != Outbound::State::kAwaitFeedback) {
        ++stats_.duplicates_suppressed;  // stale veto of a closed transfer
        return Event::kNone;
      }
      LTNC_TELEMETRY(
          if (telemetry_ != nullptr && telemetry_->handshake_ticks != nullptr) {
            telemetry_->handshake_ticks->record(now_ - cv->out.offered_at);
          } trace_event(telemetry_, telemetry::TracePoint::kAbortRecv, now_,
                        content));
      close_outbound(cv->out);
      ++stats_.aborts_received;
      return Event::kAbortReceived;
    case wire::MessageType::kProceed:
      if (cv->out.state != Outbound::State::kAwaitFeedback) {
        ++stats_.duplicates_suppressed;  // duplicate go-ahead: data already
        return Event::kNone;             // went out exactly once
      }
      ++stats_.proceeds_received;
      LTNC_TELEMETRY(
          if (telemetry_ != nullptr && telemetry_->handshake_ticks != nullptr) {
            telemetry_->handshake_ticks->record(now_ - cv->out.offered_at);
          } trace_event(telemetry_, telemetry::TracePoint::kProceedRecv, now_,
                        content);
          trace_event(telemetry_, telemetry::TracePoint::kPayloadSent, now_,
                      content));
      queue_data(peer, content, cv->out.packet);
      ++stats_.data_sent;
      close_outbound(cv->out);
      return Event::kProceedReceived;
    case wire::MessageType::kAck:
      ++stats_.completions_received;
      if (cv->peer_done) {
        ++stats_.duplicates_suppressed;
        return Event::kNone;
      }
      LTNC_TELEMETRY(
          trace_event(telemetry_, telemetry::TracePoint::kAckRecv, now_,
                      content);
          // Sender-side completion latency: first offer to this peer →
          // its completion ack (the receiver-side twin is recorded in
          // on_data when the local decode finishes).
          if (telemetry_ != nullptr && telemetry_->completion_ticks != nullptr &&
              cv->ever_offered) {
            telemetry_->completion_ticks->record(now_ - cv->first_offer_at);
          });
      cv->peer_done = true;
      return Event::kAckReceived;
    default:
      break;
  }
  ++stats_.foreign_frames;
  return Event::kNone;
}

Endpoint::Event Endpoint::on_cc(PeerId peer,
                                std::span<const std::uint8_t> bytes) {
  ContentId content = 0;
  if (wire::deserialize_cc(bytes, content, rx_cc_) !=
      wire::DecodeStatus::kOk) {
    ++stats_.malformed_frames;
    return Event::kMalformed;
  }
  // Validate the content before touching convo state — an unknown or
  // mismatched cc must not allocate a (peer, content) slot (see
  // on_feedback). A stale fresh-flag for the slot, if any, dies too.
  const store::Content* c = store_->find(content);
  if (c == nullptr || rx_cc_.size() != c->k()) {
    if (Convo* cv = find_convo(peer, content)) cv->cc_fresh = false;
    if (c == nullptr && recently_expired(content)) {
      ++stats_.expired_frames;
      return Event::kExpired;
    }
    ++stats_.foreign_frames;
    return Event::kNone;
  }
  Convo& cv = convo(peer, content);
  std::swap(cv.cc, rx_cc_);  // banks the old buffer as the next scratch
  cv.cc_fresh = true;
  ++stats_.cc_received;
  return Event::kCcReceived;
}

// --- timers ----------------------------------------------------------------

void Endpoint::maybe_announce_completion(std::size_t content_index,
                                         store::Content& content,
                                         PeerId data_peer) {
  if (!cfg_.announce_completion) return;
  if (announces_.size() < store_->size()) announces_.resize(store_->size());
  Announce& a = announces_[content_index];
  if (a.queued || !content.complete()) return;
  a.queued = true;
  a.peer = data_peer;
  a.count = 1;
  a.deadline = now_ + cfg_.response_timeout;
  queue_feedback(a.peer, content.id(), wire::MessageType::kAck,
                 stats_.data_delivered);
  ++stats_.completions_sent;
  LTNC_TELEMETRY(trace_event(telemetry_, telemetry::TracePoint::kAckSent,
                             now_, content.id()));
}

void Endpoint::tick(Instant now) {
  now_ = now;
  for (Peer& p : peers_) {
    for (Convo& cv : p.convos) {
      if (cv.out.state == Outbound::State::kAwaitFeedback &&
          now >= cv.out.deadline) {
        if (cv.out.retries < cfg_.max_retries) {
          ++cv.out.retries;
          cv.out.deadline = now + cfg_.response_timeout;
          queue_advertise(p.id, cv.content, cv.out);
          ++stats_.advertise_retransmits;
          LTNC_TELEMETRY(trace_event(telemetry_,
                                     telemetry::TracePoint::kRetransmit, now,
                                     cv.content));
        } else {
          close_outbound(cv.out);
          ++stats_.transfers_abandoned;
        }
      }
      if (cv.in.awaiting_data && now >= cv.in.deadline) {
        cv.in.awaiting_data = false;  // the payload never came
        ++stats_.timeouts;
      }
    }
  }
  for (std::size_t i = 0; i < announces_.size(); ++i) {
    Announce& a = announces_[i];
    if (a.queued && a.count <= cfg_.max_retries && now >= a.deadline) {
      ++a.count;
      a.deadline = now + cfg_.response_timeout;
      queue_feedback(a.peer, store_->at(i).id(), wire::MessageType::kAck,
                     stats_.data_delivered);
      ++stats_.completions_sent;
    }
  }
}

}  // namespace ltnc::session
