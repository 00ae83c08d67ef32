// Chunker — bytes ⇄ native blocks, shared by every file-shaped workload.
//
// The examples each used to hand-roll the same three steps — split a byte
// stream into fixed-size blocks, pad the tail, rebuild and verify on the
// far side. This is the one copy: chunk_bytes() produces the native
// Payloads a content registers with, assemble_bytes() inverts it from any
// block source (a BP decoder, an LTNC codec, a test vector), and
// hash_bytes() is the FNV-1a fingerprint the transfer examples verify
// against. file_content_config() bundles the metadata into the
// ContentConfig + id that both ends of a transfer derive identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/payload.hpp"
#include "store/content_store.hpp"

namespace ltnc::store {

/// Splits `bytes` into ceil(size / block_bytes) blocks of exactly
/// `block_bytes` each, the last one zero-padded. An empty input still
/// yields one (all-zero) block so every file registers a valid content.
std::vector<Payload> chunk_bytes(std::span<const std::uint8_t> bytes,
                                 std::size_t block_bytes);

/// Number of blocks chunk_bytes() would produce.
std::size_t chunk_count(std::size_t size_bytes, std::size_t block_bytes);

/// Rebuilds the original `size_bytes` from consecutive blocks. `block(i)`
/// must return the i-th decoded block (0 ≤ i < chunk_count); padding past
/// the original size is discarded.
template <typename BlockFn>
std::vector<std::uint8_t> assemble_bytes(std::size_t size_bytes,
                                         std::size_t block_bytes,
                                         BlockFn&& block) {
  std::vector<std::uint8_t> out(size_bytes);
  std::size_t off = 0;
  for (std::size_t i = 0; off < size_bytes; ++i) {
    const Payload& p = block(i);
    const std::size_t take = std::min(block_bytes, size_bytes - off);
    for (std::size_t b = 0; b < take; ++b) out[off + b] = p.byte(b);
    off += take;
  }
  return out;
}

/// FNV-1a 64 over the raw bytes — the end-to-end fingerprint the
/// multi-file transfer modes verify.
std::uint64_t hash_bytes(std::span<const std::uint8_t> bytes);

/// Metadata both ends of a file transfer derive from (name, size, block
/// size) alone — the registration record of one file-backed content.
struct FileContent {
  std::string name;
  std::uint64_t size_bytes = 0;
  std::uint64_t hash = 0;       ///< hash_bytes of the original content
  ContentId id = 0;
  std::size_t blocks = 0;       ///< k of the registered content
  std::size_t block_bytes = 0;
};

/// The store registration for a file-backed content: k = chunk count,
/// id = derive_content_id over (k, block_bytes, content hash ⊕ name
/// hash) — both ends compute the same id from the same file without
/// coordination, and identical bytes under two names stay two contents.
ContentConfig file_content_config(const FileContent& file);

/// Builds the FileContent record for raw bytes (chunk → hash → id).
FileContent describe_file(std::string name,
                          std::span<const std::uint8_t> bytes,
                          std::size_t block_bytes);

}  // namespace ltnc::store
