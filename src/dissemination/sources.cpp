#include "dissemination/sources.hpp"

#include <utility>

#include "common/check.hpp"

namespace ltnc::dissem {

LtSource::LtSource(std::vector<Payload> natives,
                   lt::RobustSolitonParams params)
    : encoder_(std::move(natives), params) {}

RlncSource::RlncSource(std::vector<Payload> natives)
    : natives_(std::move(natives)),
      payload_bytes_(natives_.empty() ? 0 : natives_[0].size_bytes()) {
  LTNC_CHECK_MSG(!natives_.empty(), "source needs content");
}

CodedPacket RlncSource::next(Rng& rng) {
  // Dense random combination: each native participates with probability
  // 1/2 — the standard (and optimal) random linear source over GF(2).
  const std::size_t k = natives_.size();
  CodedPacket pkt{BitVector(k), Payload(payload_bytes_)};
  bool any = false;
  for (std::size_t i = 0; i < k; ++i) {
    if ((rng.next() & 1ULL) != 0) {
      pkt.coeffs.set(i);
      pkt.payload.xor_with(natives_[i]);
      any = true;
    }
  }
  if (!any) {  // all-zero draw (probability 2^-k): send a random native
    const std::size_t i = rng.uniform(k);
    pkt.coeffs.set(i);
    pkt.payload.xor_with(natives_[i]);
  }
  return pkt;
}

WcSource::WcSource(std::vector<Payload> natives)
    : natives_(std::move(natives)) {
  LTNC_CHECK_MSG(!natives_.empty(), "source needs content");
}

CodedPacket WcSource::next(Rng& rng) {
  (void)rng;
  // Round-robin keeps the source's injection coupon-collector-free, which
  // is the strongest reasonable uncoded baseline.
  const std::size_t i = next_;
  next_ = (next_ + 1) % natives_.size();
  return CodedPacket::native(natives_.size(), i, natives_[i]);
}

std::unique_ptr<Source> make_source(session::Scheme scheme, std::size_t k,
                                    std::size_t payload_bytes,
                                    std::uint64_t content_seed,
                                    const lt::RobustSolitonParams& soliton) {
  auto natives = lt::make_native_payloads(k, payload_bytes, content_seed);
  switch (scheme) {
    case session::Scheme::kLtnc:
      return std::make_unique<LtSource>(std::move(natives), soliton);
    case session::Scheme::kRlnc:
      return std::make_unique<RlncSource>(std::move(natives));
    case session::Scheme::kWc:
      return std::make_unique<WcSource>(std::move(natives));
  }
  LTNC_CHECK_MSG(false, "unknown scheme");
  return nullptr;
}

}  // namespace ltnc::dissem
