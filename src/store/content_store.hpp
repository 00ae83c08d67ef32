// ContentStore — the multi-tenant coding state of one node.
//
// The paper's protocol moves exactly one content per node; a production
// node is an edge cache serving many contents over the same links. The
// store owns N registered contents, each keyed by a compact ContentId and
// holding a per-content NodeProtocol (LTNC / RLNC / WC / LT sink).
// Everything above the codecs — the session Endpoint, the epidemic
// simulator, the UDP examples — looks contents up here by the id that
// rides the v2 wire frames.
//
// Generations (paper §I: each is an independent LTNC instance) need no
// shape of their own: a file of K blocks split into G generations
// registers G contents of K/G blocks, and the SwarmScheduler's
// rarest-first pick is then the rarest-generation-first pick.
//
// Ids are caller-assigned (examples use 1..N; the default single-content
// session uses 0, which costs zero wire bytes) or derived from the
// content's identity via derive_content_id, which folds a 64-bit FNV-1a
// of (k, payload bytes, seed) into 14 bits so the id varint never exceeds
// 2 bytes on the wire — both ends of a transfer derive the same id from
// the same metadata without coordination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/types.hpp"
#include "session/protocols.hpp"

namespace ltnc::store {

/// Deterministic compact id for a content: FNV-1a over the dimensions and
/// the content seed, folded to 14 bits (varint ≤ 2 bytes). The 14-bit
/// space birthday-collides around 150 contents — far below a realistic
/// edge-cache catalog — so callers registering at catalog scale must go
/// through a collision-detecting path: `salt` perturbs the hash image
/// (salt 0 reproduces the historical id exactly, so existing transfers
/// and golden fixtures are untouched), and cache::Catalog walks salts
/// until the id is unused. Both ends of a transfer
/// derive the same id from the same (k, bytes, seed, salt) metadata.
ContentId derive_content_id(std::size_t k, std::size_t payload_bytes,
                            std::uint64_t content_seed,
                            std::uint32_t salt = 0);

struct ContentConfig {
  ContentId id = 0;
  /// Code length of one packet: the content's block count.
  std::size_t k = 0;
  std::size_t payload_bytes = 0;
  session::Scheme scheme = session::Scheme::kLtnc;
  /// Fraction of k a node must hold before it starts recoding.
  double aggressiveness = 0.01;
  core::LtncConfig ltnc{};
  rlnc::RlncConfig rlnc{};
  wc::WcConfig wc{};
};

/// One registered content: id, dimensions, and the decode/recode state
/// behind them. A Content may also be protocol-less (dimensions only) —
/// the shape of a pure seeder that advertises externally encoded packets
/// but can never absorb one.
class Content {
 public:
  /// Content over an explicit protocol (nullptr = seeder-only).
  Content(const ContentConfig& config,
          std::unique_ptr<session::NodeProtocol> protocol);

  ContentId id() const { return cfg_.id; }
  std::size_t k() const { return cfg_.k; }
  std::size_t payload_bytes() const { return cfg_.payload_bytes; }

  session::NodeProtocol* protocol() { return protocol_.get(); }
  const session::NodeProtocol* protocol() const { return protocol_.get(); }

  /// Can this content absorb payloads? (False for seeder-only contents.)
  bool has_receiver() const { return protocol_ != nullptr; }
  /// Can this content emit recoded packets?
  bool can_emit() const;
  bool complete() const;
  /// Binary feedback: would this content refuse the advertised vector?
  /// (Seeder-only contents refuse everything — they cannot consume.)
  bool would_reject(const BitVector& coeffs) const;
  /// Full reception of a packet.
  void deliver(const CodedPacket& packet);

  /// Fraction of the content held locally, in [0, 1] — the scheduler's
  /// rarity proxy (a content this node barely holds is one the swarm has
  /// barely replicated, from this node's vantage point).
  double fill_fraction() const;

  /// Verifies every decoded block against the canonical deterministic
  /// content for `content_seed` (RLNC pays its back-substitution here).
  bool finish_and_verify(std::uint64_t content_seed);

 private:
  ContentConfig cfg_;
  std::unique_ptr<session::NodeProtocol> protocol_;
};

class ContentStore {
 public:
  ContentStore() = default;
  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  /// Builds and registers the content's coding state (the config's scheme
  /// protocol).
  Content& register_content(const ContentConfig& config);
  /// Registers a content over a caller-built protocol (nullptr for a
  /// seeder-only entry that pins dimensions without decode state).
  Content& register_content(const ContentConfig& config,
                            std::unique_ptr<session::NodeProtocol> protocol);

  /// Unregisters the content with wire id `id`, destroying its coding
  /// state (and releasing its arena-leased payload storage with it) —
  /// the streaming workload's sliding window registers and expires a
  /// content per block. Later contents shift down one index, so callers
  /// keeping side tables parallel to the store must erase the same index
  /// in lockstep (the session Endpoint does). Returns false when the id
  /// was not registered.
  bool remove(ContentId id);

  /// Lookup by wire id; nullptr when unregistered (the session layer
  /// counts such frames as foreign). Linear scan — a node serves few
  /// enough contents that this beats a map, and it never allocates.
  Content* find(ContentId id);
  const Content* find(ContentId id) const;
  /// Index of the content with wire id `id`, or size() when absent —
  /// for callers keeping per-content side tables parallel to the store.
  std::size_t index_of(ContentId id) const;

  std::size_t size() const { return contents_.size(); }
  Content& at(std::size_t index) { return *contents_[index]; }
  const Content& at(std::size_t index) const { return *contents_[index]; }

  /// All contents with decode state are complete (and there is at least
  /// one — a store of pure seeder entries is never "complete").
  bool all_complete() const;

 private:
  std::vector<std::unique_ptr<Content>> contents_;
};

}  // namespace ltnc::store
