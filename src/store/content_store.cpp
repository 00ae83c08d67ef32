#include "store/content_store.hpp"

#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "store/chunker.hpp"

namespace ltnc::store {

ContentId derive_content_id(std::size_t k, std::size_t payload_bytes,
                            std::uint64_t content_seed, std::uint32_t salt) {
  // One FNV-1a implementation serves the whole identity scheme: hash the
  // three little-endian u64 fields with the same hash_bytes the chunker
  // fingerprints file contents with. A nonzero salt appends a fourth
  // field; salt 0 hashes the original 24-byte image so every id minted
  // before the salt existed stays bit-identical.
  std::uint8_t image[32];
  const auto put = [&image](std::size_t at, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      image[at + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(v >> (8 * b));
    }
  };
  put(0, k);
  put(8, payload_bytes);
  put(16, content_seed);
  std::size_t image_bytes = 24;
  if (salt != 0) {
    put(24, static_cast<std::uint64_t>(salt));
    image_bytes = 32;
  }
  const std::uint64_t h = hash_bytes({image, image_bytes});
  // Fold to 14 bits so the id's wire varint never exceeds 2 bytes, and
  // keep 0 reserved for the default single-content session.
  const ContentId id = (h ^ (h >> 14) ^ (h >> 28) ^ (h >> 42)) & 0x3FFF;
  return id == 0 ? ContentId{0x3FFF} : id;
}

// --- Content ----------------------------------------------------------------

Content::Content(const ContentConfig& config,
                 std::unique_ptr<session::NodeProtocol> protocol)
    : cfg_(config), protocol_(std::move(protocol)) {
  LTNC_CHECK_MSG(cfg_.k > 0, "content needs a code length");
  LTNC_CHECK_MSG(cfg_.payload_bytes > 0, "content needs a payload size");
}

bool Content::can_emit() const {
  return protocol_ != nullptr && protocol_->can_emit();
}

bool Content::complete() const {
  return protocol_ != nullptr && protocol_->complete();
}

bool Content::would_reject(const BitVector& coeffs) const {
  // A seeder-only content vetoes everything rather than inviting a
  // payload it would drop.
  return protocol_ == nullptr || protocol_->would_reject(coeffs);
}

void Content::deliver(const CodedPacket& packet) {
  LTNC_CHECK_MSG(protocol_ != nullptr, "seeder-only content cannot absorb");
  protocol_->deliver(packet);
}

double Content::fill_fraction() const {
  const std::size_t held =
      protocol_ != nullptr ? protocol_->useful_packets() : 0;
  if (held >= cfg_.k) return 1.0;
  return static_cast<double>(held) / static_cast<double>(cfg_.k);
}

bool Content::finish_and_verify(std::uint64_t content_seed) {
  return protocol_ != nullptr && protocol_->finish_and_verify(content_seed);
}

// --- ContentStore -----------------------------------------------------------

Content& ContentStore::register_content(const ContentConfig& config) {
  session::ProtocolParams params;
  params.k = config.k;
  params.payload_bytes = config.payload_bytes;
  params.aggressiveness = config.aggressiveness;
  params.ltnc = config.ltnc;
  params.rlnc = config.rlnc;
  params.wc = config.wc;
  return register_content(config,
                          session::make_node(config.scheme, params));
}

Content& ContentStore::register_content(
    const ContentConfig& config,
    std::unique_ptr<session::NodeProtocol> protocol) {
  LTNC_CHECK_MSG(find(config.id) == nullptr, "duplicate content id");
  contents_.push_back(
      std::make_unique<Content>(config, std::move(protocol)));
  return *contents_.back();
}

bool ContentStore::remove(ContentId id) {
  const std::size_t index = index_of(id);
  if (index >= contents_.size()) return false;
  contents_.erase(contents_.begin() + static_cast<std::ptrdiff_t>(index));
  return true;
}

Content* ContentStore::find(ContentId id) {
  for (const auto& content : contents_) {
    if (content->id() == id) return content.get();
  }
  return nullptr;
}

const Content* ContentStore::find(ContentId id) const {
  return const_cast<ContentStore*>(this)->find(id);
}

std::size_t ContentStore::index_of(ContentId id) const {
  for (std::size_t i = 0; i < contents_.size(); ++i) {
    if (contents_[i]->id() == id) return i;
  }
  return contents_.size();
}

bool ContentStore::all_complete() const {
  bool any = false;
  for (const auto& content : contents_) {
    if (!content->has_receiver()) continue;
    any = true;
    if (!content->complete()) return false;
  }
  return any;
}

}  // namespace ltnc::store
