#include "stream/stream_source.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace ltnc::stream {

std::uint32_t redundancy_budget(std::size_t k, double base_overhead,
                                double loss_estimate) {
  const double survival =
      std::max(0.05, 1.0 - std::clamp(loss_estimate, 0.0, 1.0));
  const double budget =
      static_cast<double>(k) * (1.0 + base_overhead) / survival;
  return static_cast<std::uint32_t>(std::ceil(budget));
}

LtSourceProtocol::LtSourceProtocol(std::size_t k, std::size_t payload_bytes,
                                   std::uint64_t content_seed)
    : encoder_(lt::make_native_payloads(k, payload_bytes, content_seed)) {}

StreamSource::StreamSource(const StreamConfig& config,
                           session::Endpoint& endpoint)
    : cfg_(config), ep_(endpoint) {
  LTNC_CHECK_MSG(cfg_.symbol_bytes > 0, "stream needs a symbol size");
  LTNC_CHECK_MSG(cfg_.block_bytes % cfg_.symbol_bytes == 0,
                 "symbol size must divide the block size");
  LTNC_CHECK_MSG(cfg_.k() >= 2, "a block needs at least two symbols");
  LTNC_CHECK_MSG(cfg_.ticks_per_block > 0, "stream needs a block cadence");
  LTNC_CHECK_MSG(cfg_.window > 0, "stream needs a nonzero window");
  LTNC_CHECK_MSG(cfg_.fanout > 0, "stream needs a nonzero fanout");
  ep_.scheduler().set_policy(&policy_);
}

StreamSource::~StreamSource() {
  // The policy dies with this object; never leave the endpoint's
  // scheduler pointing at freed memory.
  if (ep_.scheduler().policy() == &policy_) {
    ep_.scheduler().set_policy(nullptr);
  }
}

void StreamSource::emit_block(Instant now) {
  const std::uint64_t seq = next_seq_++;
  const Instant birth = birth_of(seq);
  store::ContentConfig cc;
  cc.id = id_of(seq);
  cc.k = cfg_.k();
  cc.payload_bytes = cfg_.symbol_bytes;
  ep_.contents().register_content(
      cc, std::make_unique<LtSourceProtocol>(cfg_.k(), cfg_.symbol_bytes,
                                             content_seed_of(seq)));
  const std::uint32_t budget =
      redundancy_budget(cfg_.k(), cfg_.base_overhead, cfg_.loss_estimate) *
      static_cast<std::uint32_t>(cfg_.fanout);
  policy_.track(cc.id, birth + cfg_.deadline_ticks, budget);
  live_.push_back(Live{seq, birth});
  if (on_emit_) on_emit_(seq, birth);
  (void)now;
}

void StreamSource::retire_block(std::size_t live_index) {
  const ContentId id = id_of(live_[live_index].seq);
  policy_.untrack(id);
  ep_.expire_content(id);
  live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(live_index));
  ++blocks_retired_;
}

void StreamSource::advance(Instant now) {
  LTNC_CHECK_MSG(now >= now_, "stream time must not decrease");
  now_ = now;
  policy_.set_now(now);
  // Expire every block whose deadline passed — late symbols are wasted
  // and the window must slide regardless of delivery outcomes.
  for (std::size_t i = 0; i < live_.size();) {
    if (now > live_[i].birth + cfg_.deadline_ticks) {
      retire_block(i);
    } else {
      ++i;
    }
  }
  // Emit every block whose birth has come, force-expiring the oldest
  // when the window is full.
  while ((cfg_.total_blocks == 0 || next_seq_ < cfg_.total_blocks) &&
         birth_of(next_seq_) <= now) {
    if (live_.size() >= cfg_.window) retire_block(0);
    emit_block(now);
  }
  // Rescale live budgets: the loss estimate may have moved, and blocks
  // whose slack dropped below the boost threshold get their extra
  // redundancy allowance.
  const std::uint32_t base =
      redundancy_budget(cfg_.k(), cfg_.base_overhead, cfg_.loss_estimate) *
      static_cast<std::uint32_t>(cfg_.fanout);
  for (const Live& block : live_) {
    const Instant deadline = block.birth + cfg_.deadline_ticks;
    std::uint32_t budget = base;
    if (cfg_.slack_boost_ticks > 0 && deadline >= now &&
        deadline - now < cfg_.slack_boost_ticks) {
      budget = static_cast<std::uint32_t>(
          std::ceil(static_cast<double>(budget) * (1.0 + kSlackBoost)));
    }
    policy_.set_budget(id_of(block.seq), budget);
  }
}

Instant StreamSource::next_change() const {
  Instant next = std::numeric_limits<Instant>::max();
  if (cfg_.total_blocks == 0 || next_seq_ < cfg_.total_blocks) {
    next = birth_of(next_seq_);
  }
  for (const Live& block : live_) {
    const Instant deadline = block.birth + cfg_.deadline_ticks;
    next = std::min(next, deadline + 1);
    if (cfg_.slack_boost_ticks > 0 &&
        deadline >= now_ + cfg_.slack_boost_ticks) {
      next = std::min(next, deadline - cfg_.slack_boost_ticks + 1);
    }
  }
  return next;
}

bool StreamSource::push_symbol(session::PeerId peer, Rng& rng) {
  const store::Content* pick = ep_.next_push(peer);
  if (pick == nullptr) return false;
  const ContentId id = pick->id();
  if (!ep_.start_transfer(peer, id, rng)) return false;
  policy_.on_push(id);
  return true;
}

}  // namespace ltnc::stream
