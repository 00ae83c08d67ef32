// Building an encoded packet of a given degree (paper §III-B.2, Alg. 1).
//
// Finding a subset of held packets whose XOR has exactly the target degree
// is a subset-sum variant (NP-complete, harder still because of
// collisions). LTNC is greedy instead: walk the degree index from the
// target degree downward; within each bucket examine packets in random
// order; add a packet iff it strictly raises the working degree without
// overshooting. Decoded natives act as the degree-1 bucket. The paper
// reports reaching the target 95 % of the time with a 0.2 % mean relative
// deviation — statistics this class records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/degree_index.hpp"
#include "lt/bp_decoder.hpp"

namespace ltnc::core {

struct BuildStats {
  std::uint64_t builds = 0;
  std::uint64_t reached_target = 0;
  RunningStats relative_deviation;  ///< (target − achieved) / target

  double target_rate() const {
    return builds == 0 ? 0.0
                       : static_cast<double>(reached_target) /
                             static_cast<double>(builds);
  }
};

class PacketBuilder {
 public:
  /// `store` supplies packet contents by id; `index` supplies the id
  /// buckets by degree.
  PacketBuilder(const lt::BpDecoder& store, const DegreeIndex& index);

  /// Greedily assembles a fresh packet of degree ≤ target (Algorithm 1).
  /// Returns nullopt only when nothing at all could be combined.
  std::optional<CodedPacket> build(std::size_t target, Rng& rng,
                                   OpCounters& ops);

  const BuildStats& stats() const { return stats_; }

 private:
  /// Tries z ⊕= stored packet `id` under Algorithm 1's acceptance rule;
  /// returns the updated degree of z. The candidate's payload is read only
  /// once it is accepted.
  std::size_t try_add(CodedPacket& z, std::size_t dz, std::size_t target,
                      PacketId id, OpCounters& ops) const;

  const lt::BpDecoder& store_;
  const DegreeIndex& index_;
  BuildStats stats_;
  // Reusable per-build scratch: bucket candidates and degree-1 natives.
  std::vector<PacketId> bucket_scratch_;
  std::vector<NativeIndex> native_scratch_;
};

}  // namespace ltnc::core
