#include "cache/edge_cache.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "wire/codec.hpp"

namespace ltnc::cache {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kLru:
      return "lru";
    case Policy::kLfu:
      return "lfu";
    case Policy::kPopularity:
      return "popularity";
  }
  return "?";
}

std::optional<Policy> policy_from_string(std::string_view name) {
  if (name == "lru") return Policy::kLru;
  if (name == "lfu") return Policy::kLfu;
  if (name == "popularity") return Policy::kPopularity;
  return std::nullopt;
}

EdgeCache::EdgeCache(const EdgeCacheConfig& config) : cfg_(config) {}

std::size_t EdgeCache::symbol_cost_estimate(std::size_t k,
                                            std::size_t payload_bytes) {
  return payload_bytes + (k + 7) / 8 + 8;
}

EdgeCache::Entry* EdgeCache::find(ContentId id) {
  for (Entry& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

const EdgeCache::Entry* EdgeCache::find(ContentId id) const {
  return const_cast<EdgeCache*>(this)->find(id);
}

void EdgeCache::announce(ContentId id, std::size_t k,
                         std::size_t payload_bytes, double weight) {
  LTNC_CHECK_MSG(k > 0 && payload_bytes > 0, "cache entry needs dimensions");
  if (Entry* e = find(id)) {
    e->weight = weight;
    return;
  }
  Entry e;
  e.id = id;
  e.k = k;
  e.payload_bytes = payload_bytes;
  e.weight = weight;
  e.quota = full_symbol_cap(k);
  entries_.push_back(std::move(e));
}

bool EdgeCache::forget(ContentId id) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id != id) continue;
    bytes_used_ -= entries_[i].bytes;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

void EdgeCache::set_weight(ContentId id, double weight) {
  if (Entry* e = find(id)) e->weight = weight;
}

void EdgeCache::plan() {
  if (cfg_.policy != Policy::kPopularity) {
    for (Entry& e : entries_) e.quota = full_symbol_cap(e.k);
    return;
  }
  // Waterfill in descending weight order: each content takes
  // min(full cap, its proportional share of what is still unallocated),
  // so bytes the head cannot use (its cap is k-bounded) flow to the tail
  // instead of being stranded.
  std::vector<std::size_t> order(entries_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> weights(entries_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    weights[i] = std::max(entries_[i].weight, 0.0);
    total += weights[i];
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return entries_[a].id < entries_[b].id;  // deterministic tie-break
  });
  double remaining = static_cast<double>(cfg_.capacity_bytes);
  double remaining_weight = total;
  for (const std::size_t i : order) {
    Entry& e = entries_[i];
    if (e.sealed && static_cast<double>(e.bytes) <= remaining) {
      // A sealed set is certified and its exact cost is known — charge
      // actual bytes, not the estimate, so the estimate-vs-wire slack
      // flows to entries that still want symbols (replanning converges
      // toward a fully used budget).
      e.quota = e.stored.size();
      remaining -= static_cast<double>(e.bytes);
      remaining_weight -= weights[i];
      continue;
    }
    const auto cost = static_cast<double>(
        symbol_cost_estimate(e.k, e.payload_bytes));
    // A full allocation is placed in systematic form (k natives seal by
    // construction), so quota beyond k buys nothing under this policy —
    // the LT overhead slack of full_symbol_cap() is for reactive fills.
    std::size_t give = 0;
    if (remaining_weight > 0.0 && remaining > 0.0) {
      const double share = remaining * (weights[i] / remaining_weight);
      give = std::min(e.k, static_cast<std::size_t>(share / cost));
    }
    e.quota = give;
    remaining -= static_cast<double>(give) * cost;
    remaining_weight -= weights[i];
  }
  // Residual sweep: proportional shares leave budget stranded whenever
  // the head hits its k-bounded cap (its share exceeds what it can use).
  // Hand the leftover out head-first to entries still below cap, so at
  // ample capacity every entry reaches a decodable allocation instead of
  // the tail being frozen at its proportional fraction.
  for (const std::size_t i : order) {
    Entry& e = entries_[i];
    if (remaining <= 0.0) break;
    const std::size_t cap = e.k;
    if (e.sealed || e.quota >= cap) continue;
    const auto cost = static_cast<double>(
        symbol_cost_estimate(e.k, e.payload_bytes));
    const std::size_t extra =
        std::min(cap - e.quota, static_cast<std::size_t>(remaining / cost));
    e.quota += extra;
    remaining -= static_cast<double>(extra) * cost;
  }
  for (Entry& e : entries_) {
    if (e.stored.size() > e.quota) {
      // Shrunk below what is already stored: dropping a symbol subset
      // would leave an uncertified remainder (the shadow decoder only
      // certifies the set it grew with), so drop the whole entry and let
      // the placement loop refill to the new quota.
      drop_symbols(e, false);
      ++stats_.trimmed_entries;
    } else if (!e.sealed && !e.stored.empty() && e.quota >= e.k) {
      // Promoted from a partial fraction to a full allocation: topping
      // the coded prefix up to quota k cannot seal in general (BP needs
      // overhead beyond k), so restart the fill in systematic form.
      drop_symbols(e, false);
    }
  }
}

bool EdgeCache::wants_symbols(ContentId id) const {
  const Entry* e = find(id);
  return e != nullptr && !e->sealed && e->stored.size() < e->quota;
}

bool EdgeCache::admit(ContentId id, const CodedPacket& symbol) {
  Entry* e = find(id);
  if (e == nullptr) {
    ++stats_.rejected_unknown;
    return false;
  }
  if (e->sealed || e->stored.size() >= e->quota) {
    ++stats_.rejected_full;
    return false;
  }
  const std::size_t cost = wire::serialized_size(id, symbol);
  if (bytes_used_ + cost > cfg_.capacity_bytes &&
      !make_room(cost, id)) {
    ++stats_.rejected_capacity;
    return false;
  }
  if (e->shadow == nullptr) {
    e->shadow = std::make_unique<lt::BpDecoder>(e->k, e->payload_bytes);
    // Rebuild fill state over the already-stored set (an evicted entry
    // being re-admitted reactively after its shadow was freed).
    for (const CodedPacket& s : e->stored) e->shadow->receive(s);
  }
  if (e->shadow->receive(symbol) == lt::ReceiveResult::kDuplicate) {
    ++stats_.rejected_duplicate;
    return false;
  }
  e->stored.push_back(symbol);
  e->bytes += cost;
  bytes_used_ += cost;
  ++stats_.admitted;
  if (e->shadow->complete()) canonicalize(*e);
  return true;
}

void EdgeCache::canonicalize(Entry& entry) {
  std::vector<CodedPacket> natives;
  natives.reserve(entry.k);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < entry.k; ++i) {
    natives.push_back(
        CodedPacket::native(entry.k, i, entry.shadow->native_payload(i)));
    bytes += wire::serialized_size(entry.id, natives.back());
  }
  LTNC_DCHECK(bytes <= entry.bytes);
  bytes_used_ -= entry.bytes;
  bytes_used_ += bytes;
  entry.stored = std::move(natives);
  entry.bytes = bytes;
  entry.cursor = 0;
  entry.sealed = true;
  entry.shadow.reset();
}

std::size_t EdgeCache::begin_request(ContentId id) {
  ++stats_.requests;
  Entry* e = find(id);
  if (e == nullptr) return 0;
  e->last_used = ++clock_;
  ++e->uses;
  if (!e->stored.empty()) ++stats_.requests_with_symbols;
  return e->stored.size();
}

const CodedPacket* EdgeCache::next_symbol(ContentId id) {
  Entry* e = find(id);
  if (e == nullptr || e->stored.empty()) return nullptr;
  if (e->cursor >= e->stored.size()) e->cursor = 0;
  return &e->stored[e->cursor++];
}

const std::vector<CodedPacket>* EdgeCache::symbols(ContentId id) const {
  const Entry* e = find(id);
  return e != nullptr ? &e->stored : nullptr;
}

bool EdgeCache::decodable(ContentId id) const {
  const Entry* e = find(id);
  return e != nullptr && e->sealed;
}

std::size_t EdgeCache::symbols_held(ContentId id) const {
  const Entry* e = find(id);
  return e != nullptr ? e->stored.size() : 0;
}

std::size_t EdgeCache::quota(ContentId id) const {
  const Entry* e = find(id);
  return e != nullptr ? e->quota : 0;
}

bool EdgeCache::make_room(std::size_t need, ContentId protect) {
  if (cfg_.policy == Policy::kPopularity) return false;
  while (bytes_used_ + need > cfg_.capacity_bytes) {
    Entry* victim = pick_victim(protect);
    if (victim == nullptr) return false;
    drop_symbols(*victim, true);
  }
  return true;
}

EdgeCache::Entry* EdgeCache::pick_victim(ContentId protect) {
  Entry* best = nullptr;
  for (Entry& e : entries_) {
    if (e.id == protect || e.stored.empty()) continue;
    if (best == nullptr) {
      best = &e;
      continue;
    }
    if (cfg_.policy == Policy::kLfu) {
      if (e.uses < best->uses ||
          (e.uses == best->uses && e.last_used < best->last_used)) {
        best = &e;
      }
    } else {  // kLru
      if (e.last_used < best->last_used) best = &e;
    }
  }
  return best;
}

void EdgeCache::drop_symbols(Entry& entry, bool count_eviction) {
  if (count_eviction && !entry.stored.empty()) {
    ++stats_.evicted_entries;
    stats_.evicted_symbols += entry.stored.size();
    stats_.evicted_bytes += entry.bytes;
  }
  bytes_used_ -= entry.bytes;
  entry.stored.clear();
  entry.bytes = 0;
  entry.cursor = 0;
  entry.sealed = false;
  entry.shadow.reset();
}

}  // namespace ltnc::cache
