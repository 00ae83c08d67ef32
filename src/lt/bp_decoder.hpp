// Belief-propagation decoder over a Tanner graph (paper §II, Fig. 1).
//
// Encoded packets are nodes on one side of a bipartite graph, natives on
// the other; an edge means the native participates in the packet's XOR.
// Whenever a packet's degree reaches 1 its single remaining native is
// decoded and its value propagated along the native's edges, which may
// ripple further. Decoding cost is O(m·k·log k) — the 99 % saving over
// RLNC's Gaussian reduction that motivates LTNC.
//
// The graph lives in one pooled edge array. Each undecoded native owns a
// FIFO list of edge nodes naming the packets that hold it; decoding the
// native flips its bit in those packets and moves each node onto the
// packet's pending list. A stored payload is brought up to date — every
// pending native XORed in by one batched pass — only when it is read: by
// the degree-1 ripple or through packet_payload(). Packets absorbed or
// dropped before that never pay for their payload.
//
// The decoder exposes a StoreObserver so LTNC (src/core) can mirror the
// packet store into its recoding structures (degree index, connected
// components, coverage, redundancy sets) and veto storage of packets its
// redundancy detector recognises (§III-C.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/types.hpp"

namespace ltnc::lt {

/// Callbacks fired by BpDecoder as its packet store evolves. All references
/// are valid only for the duration of the call. Default implementations do
/// nothing, so plain-LT users can ignore this entirely.
class StoreObserver {
 public:
  virtual ~StoreObserver() = default;

  /// Consulted (a) before storing a freshly received packet (id ==
  /// kInvalidPacket) and (b) when a stored packet's degree drops to
  /// `degree` ∈ [2,3] during decoding. Return true to reject/remove it —
  /// this is where LTNC plugs in Algorithm 3.
  virtual bool should_drop(PacketId id, const BitVector& coeffs,
                           std::size_t degree) {
    (void)id;
    (void)coeffs;
    (void)degree;
    return false;
  }

  /// A packet entered the store with the given (already reduced) degree ≥ 2.
  virtual void on_stored(PacketId id, const BitVector& coeffs,
                         std::size_t degree, const Payload& payload) {
    (void)id;
    (void)coeffs;
    (void)degree;
    (void)payload;
  }

  /// A stored packet was reduced from `old_degree` to `new_degree` =
  /// old_degree − 1 (coeffs are the reduced values). The reduced payload
  /// is folded only when read, through BpDecoder::packet_payload(id).
  virtual void on_degree_changed(PacketId id, const BitVector& coeffs,
                                 std::size_t old_degree,
                                 std::size_t new_degree) {
    (void)id;
    (void)coeffs;
    (void)old_degree;
    (void)new_degree;
  }

  /// A stored packet left the store. `degree` is the degree the observer
  /// last saw for it (i.e. the bucket it must be deregistered from).
  virtual void on_removed(PacketId id, const BitVector& coeffs,
                          std::size_t degree) {
    (void)id;
    (void)coeffs;
    (void)degree;
  }

  /// Native `index` was decoded with the given value.
  virtual void on_native_decoded(NativeIndex index, const Payload& value) {
    (void)index;
    (void)value;
  }
};

enum class ReceiveResult {
  kDuplicate,          ///< reduced to zero by already-decoded natives
  kRejectedRedundant,  ///< vetoed by the observer's redundancy detector
  kDecodedNative,      ///< reduced to degree 1: decoded (and rippled)
  kStored,             ///< stored in the Tanner graph at degree ≥ 2
};

class BpDecoder {
 public:
  BpDecoder(std::size_t k, std::size_t payload_bytes,
            StoreObserver* observer = nullptr);

  std::size_t k() const { return k_; }
  std::size_t payload_bytes() const { return payload_bytes_; }

  /// Processes one incoming packet: reduce by decoded natives, consult the
  /// observer's redundancy veto (degree ≤ 3), then store or decode+ripple.
  ReceiveResult receive(const CodedPacket& packet);

  std::size_t decoded_count() const { return decoded_order_.size(); }
  bool complete() const { return decoded_count() == k_; }
  bool is_decoded(NativeIndex i) const { return decoded_mask_.test(i); }
  const Payload& native_payload(NativeIndex i) const;
  /// Natives in the order they were decoded.
  const std::vector<NativeIndex>& decoded_order() const {
    return decoded_order_;
  }
  /// Bitmask of decoded natives (used to pre-reduce advertised vectors).
  const BitVector& decoded_mask() const { return decoded_mask_; }

  /// Degree an advertised code vector would have after stripping decoded
  /// natives — the control-only evaluation a feedback channel performs.
  std::size_t residual_degree(const BitVector& coeffs) const {
    return coeffs.popcount_and_not(decoded_mask_);
  }

  // --- Packet-store introspection (for the LTNC recoding structures) ---
  std::size_t stored_count() const { return stored_count_; }
  bool packet_alive(PacketId id) const {
    return id < slots_.size() && slots_[id].degree != 0;
  }
  const BitVector& packet_coeffs(PacketId id) const;
  /// The packet's reduced payload. Folds the natives decoded since it was
  /// last read (charged to ops().data_word_ops), so the reference is valid
  /// until the next call that changes the store.
  const Payload& packet_payload(PacketId id) const;
  std::size_t packet_degree(PacketId id) const;

  /// Invokes fn(PacketId) once for every live stored packet containing
  /// native x. fn must not call for_each_packet_containing itself.
  template <typename Fn>
  void for_each_packet_containing(NativeIndex x, Fn&& fn) const {
    // A retired packet's edges stay on its undecoded natives' lists, so a
    // reused slot can be named by several edges; the visit stamp lets only
    // the first through.
    const std::uint32_t stamp = next_visit_stamp();
    for (std::uint32_t e = adjacency_[x].head; e != kNoEdge;
         e = edges_[e].next) {
      const PacketId id = edges_[e].id;
      if (!packet_alive(id) || !slots_[id].coeffs.test(x)) continue;
      if (slots_[id].visited == stamp) continue;
      slots_[id].visited = stamp;
      fn(id);
    }
  }

  /// Invokes fn(PacketId) for every live stored packet.
  template <typename Fn>
  void for_each_packet(Fn&& fn) const {
    for (PacketId id = 0; id < slots_.size(); ++id) {
      if (slots_[id].degree != 0) fn(id);
    }
  }

  /// Removes a stored packet (external policy decision, e.g. ablations).
  void remove_packet(PacketId id);

  const OpCounters& ops() const { return ops_; }
  OpCounters& mutable_ops() { return ops_; }

 private:
  static constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

  /// A node of the pooled edge array. On an undecoded native's list it
  /// names a packet holding that native; once the native is decoded it
  /// moves onto the packet's pending list and names the native. Free
  /// nodes are chained through `next` from free_edge_.
  struct Edge {
    std::uint32_t id;    ///< PacketId on a native's list, else NativeIndex
    std::uint32_t next;  ///< next node on the same list, or kNoEdge
  };
  /// One native's edge list, in store order.
  struct EdgeList {
    std::uint32_t head = kNoEdge;
    std::uint32_t tail = kNoEdge;
  };
  struct Slot {
    BitVector coeffs;
    // Folding on read and the traversal stamp change these behind the
    // const accessors without changing the packet's value, hence mutable.
    mutable Payload payload;  ///< lacks the natives on the pending list
    mutable std::uint32_t pending = kNoEdge;       ///< decoded, not folded
    mutable std::uint32_t pending_tail = kNoEdge;  ///< its last node
    mutable std::uint32_t visited = 0;  ///< stamp of the last traversal
    /// A stored packet always keeps at least one native, so 0 marks a
    /// free slot.
    std::uint32_t degree = 0;
  };

  /// Strips decoded natives from an arriving code vector, collecting their
  /// values in reduce_sources_; charges control ops.
  void reduce_by_decoded(BitVector& coeffs);
  /// Marks native decoded, notifies, reduces every packet containing it.
  void decode_native(NativeIndex i, Payload value);
  /// Drains the ripple queue (degree-1 packets) to a fixpoint.
  void process_ripple();
  /// Removes a packet: marks it dead first (so observer callbacks never see
  /// it as live), fires on_removed with `registered_degree` — the degree
  /// the observer last saw for it — then recycles the slot.
  void retire_slot(PacketId id, std::size_t registered_degree);
  /// XORs every pending native into the slot's payload in one pass and
  /// recycles the pending nodes. Returns the data word ops it did.
  std::size_t fold(const Slot& slot) const;
  /// Debug check for an absorbed packet: its folded payload is zero.
  bool folds_to_zero(const Slot& slot) const;
  /// Frees the packet store and the edge pool once decoding is complete.
  void release_graph();
  /// Returns the slot's pending nodes to the free list in one splice.
  void release_pending(const Slot& slot) const;
  std::uint32_t new_edge(std::uint32_t id);
  void free_edge(std::uint32_t e) const;
  /// A stamp no slot carries yet, for one for_each_packet_containing.
  std::uint32_t next_visit_stamp() const;

  std::size_t k_;
  std::size_t payload_bytes_;
  StoreObserver* observer_;  ///< not owned; may be null

  BitVector decoded_mask_;
  std::vector<Payload> decoded_values_;
  std::vector<NativeIndex> decoded_order_;

  std::vector<Slot> slots_;
  std::vector<PacketId> free_list_;
  std::size_t stored_count_ = 0;
  std::vector<EdgeList> adjacency_;  ///< native -> its packets' edge nodes
  std::vector<PacketId> ripple_;
  /// Reusable scratch: decoded values stripped from the arriving packet.
  std::vector<const Payload*> reduce_sources_;

  // Reading a payload folds it (recycling edge nodes and charging ops_),
  // and a traversal advances the visit stamp: both happen behind const
  // accessors without changing anything a caller can observe.
  mutable std::vector<Edge> edges_;
  mutable std::uint32_t free_edge_ = kNoEdge;
  mutable std::uint32_t visit_stamp_ = 0;
  /// Reusable scratch: pending natives' values for one batched fold.
  mutable std::vector<const Payload*> fold_sources_;
  mutable OpCounters ops_;
};

}  // namespace ltnc::lt
