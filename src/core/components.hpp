// Connected components of native packets (paper Table I, Fig. 5).
//
// Two natives x, x' are equivalent (x ∼ x') when x ⊕ x' can be generated
// using only decoded natives and available degree-2 packets. The paper
// stores a leader-based representation cc(·): cc(x) = 0 when x is decoded,
// and cc(x) = cc(x') iff x ∼ x'. We extend it with:
//   * a spanning forest whose edges carry the payload of the degree-2
//     packet that connected them, so the substitution packet x ⊕ x' can be
//     *materialised* (the refinement step needs its bytes, not just its
//     existence) — with path compression so repeated queries stay cheap;
//   * one lazy min-occurrence heap per component, so the refinement step's
//     "least frequent equivalent native" query is O(log k) amortised
//     (occurrence counts only grow, so stale heap entries are simply
//     re-inserted with their current count when popped).
// Once every member of a component is decoded, nothing reads its forest
// or its heap again (decoded natives materialise from decoded values and
// are picked from the decoded component's heap), so both are freed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"
#include "common/op_counters.hpp"
#include "common/payload.hpp"
#include "common/types.hpp"

namespace ltnc::core {

class ComponentTracker {
 public:
  /// decoded_value(x) must return the decoded payload of native x; it is
  /// only called for natives previously passed to mark_decoded().
  using DecodedLookup = std::function<const Payload&(NativeIndex)>;

  ComponentTracker(std::size_t k, std::size_t payload_bytes,
                   DecodedLookup decoded_value);

  /// A degree-2 packet a ⊕ b became available (received, or a stored packet
  /// reduced to degree 2 by belief propagation). Both endpoints must be
  /// undecoded. No-op if already connected.
  void add_edge(NativeIndex a, NativeIndex b, const Payload& xor_payload,
                OpCounters& ops);

  /// Native x was decoded: cc(x) becomes 0 and x joins the decoded
  /// component, whose pairs materialise directly from decoded values.
  void mark_decoded(NativeIndex x, std::uint64_t current_occurrences);

  /// Leader-based representation: 0 = decoded, otherwise root native + 1.
  std::uint32_t cc(NativeIndex x) const { return leader_[x]; }
  bool connected(NativeIndex a, NativeIndex b) const {
    return leader_[a] == leader_[b];
  }
  bool is_decoded(NativeIndex x) const { return leader_[x] == 0; }

  /// The full cc array — what the feedback channel ships to the sender for
  /// the smart construction algorithm (§III-C.2).
  const std::vector<std::uint32_t>& leaders() const { return leader_; }

  /// Payload of a ⊕ b. Requires connected(a, b). Logically const: path
  /// compression only reorganises the cached spanning forest.
  Payload materialize(NativeIndex a, NativeIndex b, OpCounters& ops) const;

  /// Least-occurring native x' with x' ∼ x, occurrences(x') <
  /// occurrence_limit, and excluded.test(x') == false (excluded is the
  /// packet being refined, which always contains x itself). Returns nullopt
  /// when no such native exists. Logically const: only refreshes stale
  /// heap entries.
  std::optional<NativeIndex> pick_substitute(
      NativeIndex x, const std::vector<std::uint64_t>& occurrences,
      const BitVector& excluded, std::uint64_t occurrence_limit,
      OpCounters& ops) const;

  /// Members of x's component, for tests (O(k) scan).
  std::vector<NativeIndex> members_of(NativeIndex x) const;

 private:
  struct HeapEntry {
    std::uint64_t occurrences;
    NativeIndex native;
  };
  /// Binary min-heap over HeapEntry ordered by occurrence count.
  using Heap = std::vector<HeapEntry>;

  static void heap_push(Heap& heap, HeapEntry e);
  static HeapEntry heap_pop(Heap& heap);

  /// Root of x's tree plus the payload of x ⊕ root, with two-pass path
  /// compression.
  std::pair<NativeIndex, Payload> root_and_payload(NativeIndex x,
                                                   OpCounters& ops) const;

  Heap& heap_for_leader(std::uint32_t leader) const;

  /// Frees the forest payloads and the heap of the component rooted at
  /// `root`, whose members are all decoded.
  void release_component(NativeIndex root);

  std::size_t k_;
  std::size_t payload_bytes_;
  DecodedLookup decoded_value_;

  std::vector<std::uint32_t> leader_;  ///< 0 = decoded, else root + 1
  std::vector<std::uint32_t> size_;    ///< live member count, valid at roots
  std::vector<std::uint32_t> undecoded_;  ///< undecoded members, at roots
  std::vector<NativeIndex> next_member_;  ///< circular list of each component
  // The spanning forest and the per-component heaps are amortisation
  // caches: queries reorganise them (path compression, lazy heap refresh)
  // without changing any observable state, hence mutable.
  mutable std::vector<std::int32_t> parent_;   ///< forest; −1 at roots
  mutable std::vector<Payload> edge_payload_;  ///< payload of (x ⊕ parent[x])
  mutable std::vector<Heap> heaps_;            ///< per root native
  mutable Heap decoded_heap_;                  ///< component 0
  mutable std::vector<NativeIndex> chain_scratch_;  ///< root_and_payload path
  mutable Heap parked_scratch_;  ///< pick_substitute exclusion parking
};

}  // namespace ltnc::core
