#include "core/components.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace ltnc::core {

ComponentTracker::ComponentTracker(std::size_t k, std::size_t payload_bytes,
                                   DecodedLookup decoded_value)
    : k_(k),
      payload_bytes_(payload_bytes),
      decoded_value_(std::move(decoded_value)),
      leader_(k),
      size_(k, 1),
      undecoded_(k, 1),
      next_member_(k),
      parent_(k, -1),
      edge_payload_(k, Payload(0)),
      heaps_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
  for (std::size_t x = 0; x < k; ++x) {
    leader_[x] = static_cast<std::uint32_t>(x) + 1;  // singleton components
    next_member_[x] = static_cast<NativeIndex>(x);
    heaps_[x].push_back(HeapEntry{0, static_cast<NativeIndex>(x)});
  }
}

void ComponentTracker::heap_push(Heap& heap, HeapEntry e) {
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return a.occurrences > b.occurrences;
                 });
}

ComponentTracker::HeapEntry ComponentTracker::heap_pop(Heap& heap) {
  std::pop_heap(heap.begin(), heap.end(),
                [](const HeapEntry& a, const HeapEntry& b) {
                  return a.occurrences > b.occurrences;
                });
  HeapEntry e = heap.back();
  heap.pop_back();
  return e;
}

ComponentTracker::Heap& ComponentTracker::heap_for_leader(
    std::uint32_t leader) const {
  return leader == 0 ? decoded_heap_ : heaps_[leader - 1];
}

std::pair<NativeIndex, Payload> ComponentTracker::root_and_payload(
    NativeIndex x, OpCounters& ops) const {
  // First pass: collect the path x → root (reusable scratch — path
  // compression keeps it short, steady state keeps it allocation-free).
  std::vector<NativeIndex>& chain = chain_scratch_;
  chain.clear();
  NativeIndex v = x;
  while (parent_[v] >= 0) {
    chain.push_back(v);
    v = static_cast<NativeIndex>(parent_[v]);
    ops.control_steps += 1;
  }
  const NativeIndex root = v;
  // Second pass, nearest-to-root first: accumulate each node's payload to
  // the root and re-parent it directly onto the root (path compression).
  Payload cum(payload_bytes_);
  for (std::size_t idx = chain.size(); idx-- > 0;) {
    const NativeIndex node = chain[idx];
    ops.data_word_ops += cum.xor_with(edge_payload_[node]);
    parent_[node] = static_cast<std::int32_t>(root);
    edge_payload_[node] = cum;
  }
  return {root, std::move(cum)};
}

void ComponentTracker::add_edge(NativeIndex a, NativeIndex b,
                                const Payload& xor_payload, OpCounters& ops) {
  LTNC_CHECK_MSG(a < k_ && b < k_ && a != b, "invalid edge endpoints");
  LTNC_CHECK_MSG(leader_[a] != 0 && leader_[b] != 0,
                 "degree-2 edges must connect undecoded natives");
  auto [ra, pa] = root_and_payload(a, ops);
  auto [rb, pb] = root_and_payload(b, ops);
  if (ra == rb) return;  // already connected — nothing new to learn

  // Union by size: keep the larger tree's root.
  if (size_[ra] < size_[rb]) {
    std::swap(ra, rb);
    std::swap(pa, pb);
  }
  // Attach rb under ra. payload(rb ⊕ ra) = payload(b ⊕ rb) ⊕ payload(a ⊕ b)
  //                                        ⊕ payload(a ⊕ ra).
  Payload edge = std::move(pb);
  ops.data_word_ops += edge.xor_with(xor_payload);
  ops.data_word_ops += edge.xor_with(pa);
  parent_[rb] = static_cast<std::int32_t>(ra);
  edge_payload_[rb] = std::move(edge);
  size_[ra] += size_[rb];
  undecoded_[ra] += undecoded_[rb];
  std::swap(next_member_[ra], next_member_[rb]);  // splice the two cycles

  // Relabel the absorbed component and merge its heap (small-to-large).
  const std::uint32_t old_leader = rb + 1;
  const std::uint32_t new_leader = ra + 1;
  Heap& loser = heaps_[rb];
  Heap& winner = heaps_[ra];
  for (const HeapEntry& e : loser) {
    ops.control_steps += 1;
    if (leader_[e.native] == old_leader) {
      leader_[e.native] = new_leader;
      heap_push(winner, e);
    }
    // Entries whose leader moved on (e.g. decoded) are simply dropped.
  }
  loser.clear();
  loser.shrink_to_fit();
}

void ComponentTracker::mark_decoded(NativeIndex x,
                                    std::uint64_t current_occurrences) {
  LTNC_CHECK_MSG(x < k_, "native index out of range");
  LTNC_CHECK_MSG(leader_[x] != 0, "native decoded twice");
  const NativeIndex root = leader_[x] - 1;
  LTNC_DCHECK(parent_[root] < 0);
  leader_[x] = 0;
  heap_push(decoded_heap_, HeapEntry{current_occurrences, x});
  // The stale entry in the old component's heap is discarded lazily, or
  // with the whole heap once the component's last member decodes.
  if (--undecoded_[root] == 0) release_component(root);
}

void ComponentTracker::release_component(NativeIndex root) {
  NativeIndex m = root;
  do {
    edge_payload_[m] = Payload(0);
    m = next_member_[m];
  } while (m != root);
  heaps_[root].clear();
  heaps_[root].shrink_to_fit();
}

Payload ComponentTracker::materialize(NativeIndex a, NativeIndex b,
                                      OpCounters& ops) const {
  LTNC_CHECK_MSG(connected(a, b), "materialize requires connected natives");
  LTNC_CHECK_MSG(a != b, "materialize of identical natives");
  if (leader_[a] == 0) {
    // Both decoded: x ⊕ x' straight from decoded values.
    Payload p = decoded_value_(a);
    ops.data_word_ops += p.xor_with(decoded_value_(b));
    return p;
  }
  auto [ra, pa] = root_and_payload(a, ops);
  auto [rb, pb] = root_and_payload(b, ops);
  LTNC_DCHECK(ra == rb);
  ops.data_word_ops += pa.xor_with(pb);
  return std::move(pa);
}

std::optional<NativeIndex> ComponentTracker::pick_substitute(
    NativeIndex x, const std::vector<std::uint64_t>& occurrences,
    const BitVector& excluded, std::uint64_t occurrence_limit,
    OpCounters& ops) const {
  const std::uint32_t root = leader_[x];
  Heap& heap = heap_for_leader(root);

  // Entries popped because they are excluded (typically: already part of
  // the packet being refined) — pushed back before returning. Reusable
  // member so refine loops don't allocate.
  Heap& parked = parked_scratch_;
  parked.clear();
  std::optional<NativeIndex> result;
  while (!heap.empty()) {
    ops.control_steps += 1;
    const HeapEntry top = heap.front();
    if (leader_[top.native] != root) {
      heap_pop(heap);  // native moved to another component (e.g. decoded)
      continue;
    }
    if (top.occurrences != occurrences[top.native]) {
      // Stale count: occurrence counts only grow, so re-inserting with the
      // current count restores heap order.
      HeapEntry e = heap_pop(heap);
      e.occurrences = occurrences[e.native];
      heap_push(heap, e);
      continue;
    }
    if (top.occurrences >= occurrence_limit) break;  // min ≥ limit: give up
    if (top.native == x || excluded.test(top.native)) {
      parked.push_back(heap_pop(heap));
      continue;
    }
    result = top.native;
    break;
  }
  for (const HeapEntry& e : parked) heap_push(heap, e);
  return result;
}

std::vector<NativeIndex> ComponentTracker::members_of(NativeIndex x) const {
  std::vector<NativeIndex> out;
  for (std::size_t i = 0; i < k_; ++i) {
    if (leader_[i] == leader_[x]) out.push_back(static_cast<NativeIndex>(i));
  }
  return out;
}

}  // namespace ltnc::core
