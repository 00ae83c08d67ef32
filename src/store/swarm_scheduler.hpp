// SwarmScheduler — which content does a node push next?
//
// One endpoint serving N contents has to decide, every time it gets a
// push slot toward a peer, which content that slot should carry. The
// policy here is rarest-first with a round-robin fallback, the classic
// swarm heuristic adapted to what a coded node can actually observe:
//
//   rarest-first   among the eligible contents, pick the one this node
//                  holds the smallest fraction of (Content::fill_fraction)
//                  — locally scarce contents are the ones the swarm has
//                  replicated least from this vantage point, so pushing
//                  them first evens out availability. A file split into
//                  generations registers one content per generation, so
//                  this pick is also rarest-generation-first.
//   round-robin    ties (the common steady state of a seeder holding
//                  every content at 100 %) rotate through a cursor, so no
//                  content starves and interleaving is deterministic.
//
// Eligibility is the caller's: the session Endpoint masks out contents
// that cannot emit yet, whose conversation to that peer is still awaiting
// feedback, or that the peer has already acked complete.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "store/content_store.hpp"

namespace ltnc::store {

/// Replaceable pick strategy. The default (policy-less) scheduler is
/// rarest-first; a workload with stronger ordering constraints — the
/// streaming subsystem's earliest-deadline-first — installs a policy and
/// receives every pick decision instead. The shared `cursor` is the
/// scheduler's round-robin state, handed through so a policy's tie-break
/// composes with the default rotation discipline.
class PushPolicy {
 public:
  virtual ~PushPolicy() = default;
  /// Same contract as SwarmScheduler::pick. Must not allocate: this sits
  /// on the per-push hot path.
  virtual std::size_t pick(const ContentStore& store,
                           std::span<const std::uint8_t> eligible,
                           std::size_t& cursor) = 0;
};

class SwarmScheduler {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Picks the next content index from `store`: lowest fill_fraction
  /// among indices with a nonzero byte in `eligible` (sized store.size()),
  /// near-ties resolved round-robin from the internal cursor. Returns
  /// kNone when nothing is eligible. Never allocates. When a policy is
  /// installed it makes the decision instead.
  std::size_t pick(const ContentStore& store,
                   std::span<const std::uint8_t> eligible);

  /// Installs (or clears, with nullptr) a pick policy. Not owned; must
  /// outlive the scheduler or be cleared before it goes.
  void set_policy(PushPolicy* policy) { policy_ = policy; }
  PushPolicy* policy() const { return policy_; }

 private:
  PushPolicy* policy_ = nullptr;
  std::size_t cursor_ = 0;
};

}  // namespace ltnc::store
