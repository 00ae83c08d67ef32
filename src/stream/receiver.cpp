#include "stream/receiver.hpp"

#include <memory>

#include "common/check.hpp"
#include "wire/codec.hpp"

namespace ltnc::stream {

Receiver::Receiver(const StreamConfig& config,
                   const session::EndpointConfig& endpoint_config,
                   telemetry::Histogram* latency)
    : cfg_(config),
      ep_(endpoint_config, std::make_unique<store::ContentStore>()),
      latency_(latency) {}

Receiver::Block* Receiver::find(std::uint64_t seq) {
  for (Block& b : live_) {
    if (b.seq == seq) return &b;
  }
  return nullptr;
}

void Receiver::open_block(std::uint64_t seq, Instant birth) {
  if (find(seq) != nullptr) return;
  store::ContentConfig cc;
  cc.id = StreamSource::id_of(seq);
  cc.k = cfg_.k();
  cc.payload_bytes = cfg_.symbol_bytes;
  ep_.contents().register_content(
      cc, std::make_unique<session::LtSinkProtocol>(cfg_.k(),
                                                    cfg_.symbol_bytes));
  live_.push_back(Block{seq, birth, birth + cfg_.deadline_ticks, false});
  ++stats_.blocks_opened;
}

session::Endpoint::Event Receiver::ingest(session::PeerId peer,
                                          std::span<const std::uint8_t> bytes,
                                          Instant now) {
  // Peek the content id before the frame is consumed so a delivery event
  // can be attributed to its block without re-parsing.
  ContentId content = 0;
  const bool peeked =
      wire::peek_content(bytes, content) == wire::DecodeStatus::kOk;
  const session::Endpoint::Event event = ep_.handle_frame(peer, bytes);
  if (event == session::Endpoint::Event::kDelivered && peeked &&
      content != 0) {
    if (Block* block = find(StreamSource::seq_of(content))) {
      if (!block->verified && now <= block->deadline) {
        const store::Content* c = ep_.contents().find(content);
        if (c != nullptr && c->complete()) complete_block(*block, now);
      }
    }
  }
  return event;
}

void Receiver::complete_block(Block& block, Instant now) {
  // Verify the decode end-to-end before scoring it: a block that decoded
  // to the wrong bytes is a miss with extra steps.
  store::Content* c = ep_.contents().find(StreamSource::id_of(block.seq));
  LTNC_DCHECK(c != nullptr);
  const std::uint64_t content_seed = cfg_.seed + block.seq;
  block.verified = true;
  if (!c->finish_and_verify(content_seed)) {
    ++stats_.verify_failures;
    return;  // stays incomplete; the deadline sweep scores the miss
  }
  block.completed = true;
  ++stats_.blocks_completed;
  stats_.goodput_bytes += cfg_.block_bytes;
  if (latency_ != nullptr) latency_->record(now - block.birth);
}

void Receiver::finalize_at(std::size_t index, Instant now) {
  Block& block = live_[index];
  if (!block.completed) {
    ++stats_.deadline_misses;
  }
  ep_.expire_content(StreamSource::id_of(block.seq));
  live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(index));
  ++stats_.blocks_finalized;
  (void)now;
}

void Receiver::finalize_due(Instant now) {
  for (std::size_t i = 0; i < live_.size();) {
    if (now > live_[i].deadline) {
      finalize_at(i, now);
    } else {
      ++i;
    }
  }
}

void Receiver::finalize_block(std::uint64_t seq, Instant now) {
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].seq == seq) {
      finalize_at(i, now);
      return;
    }
  }
}

}  // namespace ltnc::stream
