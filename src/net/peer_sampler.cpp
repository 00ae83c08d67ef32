#include "net/peer_sampler.hpp"

#include "common/check.hpp"

namespace ltnc::net {

UniformSampler::UniformSampler(std::size_t num_nodes)
    : num_nodes_(num_nodes) {
  LTNC_CHECK_MSG(num_nodes >= 2, "need at least two nodes to gossip");
}

NodeId UniformSampler::sample(Rng& rng, NodeId self) {
  // Uniform over all nodes except self: draw in [0, N−1) and skip self.
  const std::uint64_t r = rng.uniform(num_nodes_ - 1);
  const auto candidate = static_cast<NodeId>(r);
  return candidate >= self ? candidate + 1 : candidate;
}

GossipViewSampler::GossipViewSampler(std::size_t num_nodes,
                                     std::size_t view_size, Rng& rng)
    : num_nodes_(num_nodes), views_(num_nodes) {
  LTNC_CHECK_MSG(num_nodes >= 2, "need at least two nodes to gossip");
  LTNC_CHECK_MSG(view_size >= 1, "view size must be positive");
  for (NodeId n = 0; n < num_nodes; ++n) {
    views_[n].reserve(view_size);
    for (std::size_t i = 0; i < view_size; ++i) {
      views_[n].push_back(random_other(rng, n));
    }
  }
}

NodeId GossipViewSampler::random_other(Rng& rng, NodeId self) const {
  const std::uint64_t r = rng.uniform(num_nodes_ - 1);
  const auto candidate = static_cast<NodeId>(r);
  return candidate >= self ? candidate + 1 : candidate;
}

NodeId GossipViewSampler::sample(Rng& rng, NodeId self) {
  const auto& view = views_[self];
  return view[rng.uniform(view.size())];
}

void GossipViewSampler::tick(Rng& rng) {
  // Each period every node refreshes kRenewal random slots — the overlay
  // stays connected while constantly churning, as in gossip-based peer
  // sampling.
  for (NodeId n = 0; n < num_nodes_; ++n) {
    auto& view = views_[n];
    for (std::size_t i = 0; i < kRenewal && i < view.size(); ++i) {
      view[rng.uniform(view.size())] = random_other(rng, n);
    }
  }
}

std::unique_ptr<PeerSampler> make_sampler(const PeerSamplerConfig& config,
                                          std::size_t num_nodes, Rng& rng) {
  switch (config.kind) {
    case PeerSamplerConfig::Kind::kGossipView:
      return std::make_unique<GossipViewSampler>(num_nodes, config.view_size,
                                                 rng);
    case PeerSamplerConfig::Kind::kUniform:
    default:
      return std::make_unique<UniformSampler>(num_nodes);
  }
}

}  // namespace ltnc::net
