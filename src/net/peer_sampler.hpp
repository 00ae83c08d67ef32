// Peer sampling service (paper §IV-A).
//
// "Packets are pushed to nodes picked uniformly at random in the network,
// using an underlying peer sampling service (e.g. [23]). The set of nodes
// to which a node pushes packets is renewed periodically in a gossip
// fashion. The underlying overlay is therefore dynamic."
//
// UniformSampler models the service's ideal behaviour (fresh uniform peer
// per push); GossipViewSampler models the mechanism itself — bounded
// partial views refreshed by periodic exchanges — so experiments can check
// that LTNC's behaviour does not depend on the idealisation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ltnc::net {

class PeerSampler {
 public:
  virtual ~PeerSampler() = default;

  /// Returns a peer for `self` to push to (never `self` itself).
  virtual NodeId sample(Rng& rng, NodeId self) = 0;

  /// Called once per gossip period (view renewal hooks).
  virtual void tick(Rng& rng) { (void)rng; }
};

/// Ideal peer sampling: every push goes to a fresh uniform peer.
class UniformSampler final : public PeerSampler {
 public:
  explicit UniformSampler(std::size_t num_nodes);
  NodeId sample(Rng& rng, NodeId self) override;

 private:
  std::size_t num_nodes_;
};

/// Partial-view gossip sampling: each node holds `view_size` peers; every
/// period each node replaces kRenewal random view slots with fresh
/// uniform peers (a compact stand-in for view shuffling à la [23]).
class GossipViewSampler final : public PeerSampler {
 public:
  GossipViewSampler(std::size_t num_nodes, std::size_t view_size, Rng& rng);
  NodeId sample(Rng& rng, NodeId self) override;
  void tick(Rng& rng) override;

  const std::vector<NodeId>& view_of(NodeId node) const {
    return views_[node];
  }

 private:
  NodeId random_other(Rng& rng, NodeId self) const;

  /// View slots each node refreshes per period.
  static constexpr std::size_t kRenewal = 4;

  std::size_t num_nodes_;
  std::vector<std::vector<NodeId>> views_;
};

struct PeerSamplerConfig {
  enum class Kind { kUniform, kGossipView };
  Kind kind = Kind::kUniform;
  std::size_t view_size = 20;
};

std::unique_ptr<PeerSampler> make_sampler(const PeerSamplerConfig& config,
                                          std::size_t num_nodes, Rng& rng);

}  // namespace ltnc::net
