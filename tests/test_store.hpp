// The one helper tests use to build a store holding a single content.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "common/types.hpp"
#include "session/protocols.hpp"
#include "store/content_store.hpp"

namespace ltnc::test {

/// A store holding content `id`: k blocks of `payload_bytes` over
/// `protocol`, or a seeder-only entry (dimensions pinned, no decode
/// state) when `protocol` is null.
inline std::unique_ptr<store::ContentStore> one_content_store(
    std::size_t k, std::size_t payload_bytes,
    std::unique_ptr<session::NodeProtocol> protocol, ContentId id = 0) {
  auto contents = std::make_unique<store::ContentStore>();
  store::ContentConfig cfg;
  cfg.id = id;
  cfg.k = k;
  cfg.payload_bytes = payload_bytes;
  contents->register_content(cfg, std::move(protocol));
  return contents;
}

}  // namespace ltnc::test
