// cache::EdgeCache — a partial cache of rateless-coded symbols.
//
// The edge-caching setting (PAPERS.md, "Caching at the Edge with LT
// Codes") inverts the usual whole-object cache: because any k(1+ε)
// distinct LT symbols decode the content, an edge node need not hold all
// of a content to be useful. It stores a popularity-weighted *fraction*
// of each content's coded symbols under a byte-capacity budget, serves
// whatever it holds, and lets the user's BP decoder complete the union
// with symbols fetched from the source over the backhaul. Cache value is
// therefore continuous — every stored symbol offloads one backhaul
// symbol — instead of the all-or-nothing of an uncoded cache.
//
// The cache tracks, per announced content, the stored symbol set plus a
// fill-time shadow BP decoder that (a) rejects non-innovative symbols at
// admission — a cache slot spent on a redundant symbol offloads nothing —
// and (b) certifies when the stored set alone is decode-complete. At that
// point the entry is *sealed*: the shadow decoder is freed (fill state is
// transient; the steady-state cache holds only the symbols) and the entry
// can serve a full hit with no source fallback at all.
//
// Three admission/eviction policies, mirroring store::PushPolicy's
// pluggable-strategy shape one layer up:
//
//   kLru         reactive: admit everything that fits, evict the entry
//                whose last request is oldest.
//   kLfu         reactive: evict the least-requested entry (ties broken
//                by recency).
//   kPopularity  proactive: plan() waterfills per-content symbol quotas
//                proportional to popularity weight (the paper's
//                popularity-weighted placement, normally computed off-peak);
//                admission never exceeds quota and never evicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/types.hpp"
#include "lt/bp_decoder.hpp"

namespace ltnc::cache {

enum class Policy : std::uint8_t { kLru, kLfu, kPopularity };

const char* policy_name(Policy policy);
std::optional<Policy> policy_from_string(std::string_view name);

struct EdgeCacheConfig {
  /// Byte budget over stored symbols, each charged the exact size of the
  /// frame that serves it (wire::serialized_size with the entry's content
  /// id), so the budget and the backhaul accounting can never drift.
  std::size_t capacity_bytes = 1 << 20;
  Policy policy = Policy::kLru;
};

struct CacheStats {
  std::uint64_t requests = 0;            ///< begin_request() calls
  std::uint64_t requests_with_symbols = 0;
  std::uint64_t admitted = 0;            ///< symbols stored
  std::uint64_t rejected_unknown = 0;    ///< content never announced
  std::uint64_t rejected_full = 0;       ///< sealed or at quota
  std::uint64_t rejected_capacity = 0;   ///< no victim could make room
  std::uint64_t rejected_duplicate = 0;  ///< non-innovative vs shadow
  std::uint64_t evicted_entries = 0;
  std::uint64_t evicted_symbols = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t trimmed_entries = 0;     ///< dropped by a plan() re-quota
};

class EdgeCache {
 public:
  explicit EdgeCache(const EdgeCacheConfig& config);
  EdgeCache(const EdgeCache&) = delete;
  EdgeCache& operator=(const EdgeCache&) = delete;

  // --- catalog surface ------------------------------------------------
  /// Makes `id` cacheable with the given dimensions and popularity
  /// weight. Idempotent on the id (re-announcing updates the weight).
  void announce(ContentId id, std::size_t k, std::size_t payload_bytes,
                double weight);
  /// Drops the entry (symbols included) — content churn replaced it.
  bool forget(ContentId id);
  void set_weight(ContentId id, double weight);
  /// Recomputes per-content symbol quotas. Under kPopularity this is the
  /// placement step: a single waterfill pass in descending weight order
  /// hands each content min(full cap, its capacity share), re-spreading
  /// what the head leaves unused to the tail; entries holding more than
  /// their new quota are dropped for refill. Under kLru/kLfu every quota
  /// is the full cap and eviction does the allocating.
  void plan();

  // --- fill / admission -----------------------------------------------
  /// Would admit() consider a symbol for `id` right now? (Announced, not
  /// sealed, below quota.) The fill loop's termination test and the
  /// protocol hook's binary-feedback veto.
  bool wants_symbols(ContentId id) const;
  /// Offers one coded symbol. Returns true iff stored; rejections are
  /// itemised in stats(). kLru/kLfu may evict other entries to make room.
  bool admit(ContentId id, const CodedPacket& symbol);

  // --- serving --------------------------------------------------------
  /// Accounting for one user request: bumps the entry's recency and
  /// frequency (the LRU/LFU signals) and returns how many symbols the
  /// cache can serve. Returns 0 for unknown contents.
  std::size_t begin_request(ContentId id);
  /// Next stored symbol for `id`, round-robin over the entry (so a serve
  /// longer than the entry retransmits from the start — simple ARQ under
  /// loss). Returns nullptr when nothing is stored. The pointer is valid
  /// until the next admit/evict touching this entry.
  const CodedPacket* next_symbol(ContentId id);
  /// The stored set (nullptr when the id is unknown).
  const std::vector<CodedPacket>* symbols(ContentId id) const;
  /// Is the stored set alone decode-complete (entry sealed)?
  bool decodable(ContentId id) const;

  std::size_t symbols_held(ContentId id) const;
  std::size_t quota(ContentId id) const;

  // --- capacity -------------------------------------------------------
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t capacity_bytes() const { return cfg_.capacity_bytes; }
  std::size_t entries() const { return entries_.size(); }
  /// Per-content stored-symbol cap: 2k. Sealing usually happens earlier
  /// — the shadow decoder stops the fill the moment the set is decodable
  /// — so this only bounds pathological BP stalls on unlucky degree
  /// sequences.
  static std::size_t full_symbol_cap(std::size_t k) { return 2 * k; }
  /// Planning estimate of one symbol's wire cost (header + dense code
  /// vector + payload). Accounting always uses the exact frame size.
  static std::size_t symbol_cost_estimate(std::size_t k,
                                          std::size_t payload_bytes);

  const CacheStats& stats() const { return stats_; }
  const EdgeCacheConfig& config() const { return cfg_; }

 private:
  struct Entry {
    ContentId id = 0;
    std::size_t k = 0;
    std::size_t payload_bytes = 0;
    double weight = 1.0;
    std::vector<CodedPacket> stored;
    std::size_t bytes = 0;
    std::size_t quota = 0;
    std::size_t cursor = 0;       ///< round-robin serve position
    std::uint64_t last_used = 0;  ///< logical clock of last request
    std::uint64_t uses = 0;
    bool sealed = false;
    /// Live only while filling; freed on seal or eviction.
    std::unique_ptr<lt::BpDecoder> shadow;
  };

  Entry* find(ContentId id);
  const Entry* find(ContentId id) const;
  /// Evicts whole entries per policy until `need` more bytes fit;
  /// `protect` is the entry being admitted into. False when no victim
  /// remains (or the policy is kPopularity, which never evicts).
  bool make_room(std::size_t need, ContentId protect);
  Entry* pick_victim(ContentId protect);
  void drop_symbols(Entry& entry, bool count_eviction);
  /// Swaps a just-completed entry's coded set for the k decoded natives
  /// — the minimal certified representation (never larger than the set
  /// that produced it, so no capacity check is needed).
  void canonicalize(Entry& entry);

  EdgeCacheConfig cfg_;
  std::vector<Entry> entries_;
  std::size_t bytes_used_ = 0;
  std::uint64_t clock_ = 0;  ///< logical request clock for LRU recency
  CacheStats stats_;
};

}  // namespace ltnc::cache
