#include "dissemination/sim_core.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "wire/codec.hpp"

namespace ltnc::dissem {

using session::Endpoint;

double SimResult::mean_completion() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t r : completion_round) {
    if (r <= rounds_run) {
      sum += static_cast<double>(r);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double SimResult::overhead() const {
  double extra = 0.0;
  std::size_t n = 0;
  for (std::size_t node = 0; node < completion_round.size(); ++node) {
    if (completion_round[node] > rounds_run) continue;  // never completed
    const double receptions =
        static_cast<double>(payload_receptions[node]);
    extra += receptions / static_cast<double>(config.k) - 1.0;
    ++n;
  }
  return n == 0 ? 0.0 : extra / static_cast<double>(n);
}

session::EndpointConfig SimCore::endpoint_config() const {
  session::EndpointConfig ec;
  ec.feedback = cfg_.feedback;
  // The harness shuttles every conversation to completion synchronously
  // and never calls tick(), so the endpoint timers are idle here — the
  // paper's setting assumes a reliable feedback exchange.
  return ec;
}

std::unique_ptr<Endpoint> SimCore::make_endpoint() const {
  // One protocol instance per content, multiplexed over a single endpoint
  // via its ContentStore + SwarmScheduler (one content in the paper's
  // setting).
  auto contents = std::make_unique<store::ContentStore>();
  for (std::size_t c = 0; c < cfg_.num_contents; ++c) {
    store::ContentConfig cc;
    cc.id = c;
    cc.k = cfg_.k;
    cc.payload_bytes = cfg_.payload_bytes;
    cc.scheme = scheme_;
    cc.aggressiveness = cfg_.aggressiveness;
    cc.ltnc = cfg_.ltnc;
    cc.rlnc = cfg_.rlnc;
    cc.wc = cfg_.wc;
    contents->register_content(cc);
  }
  return std::make_unique<Endpoint>(endpoint_config(), std::move(contents));
}

SimCore::SimCore(session::Scheme scheme, const SimConfig& config)
    : scheme_(scheme),
      cfg_(config),
      rng_(config.seed) {
  LTNC_CHECK_MSG(config.num_nodes >= 2, "need at least two nodes");
  LTNC_CHECK_MSG(config.k >= 1, "k must be positive");
  LTNC_CHECK_MSG(config.num_contents >= 1, "need at least one content");
  LTNC_CHECK_MSG(config.num_contents <= config.num_nodes,
                 "every content needs a non-empty source subset");

  sources_.reserve(cfg_.num_contents);
  for (std::size_t c = 0; c < cfg_.num_contents; ++c) {
    sources_.push_back(make_source(scheme, cfg_.k, cfg_.payload_bytes,
                                   cfg_.content_seed + c, cfg_.ltnc.soliton));
  }
  traffic_per_content_.resize(cfg_.num_contents);
  source_endpoint_ = std::make_unique<Endpoint>(
      endpoint_config(), std::make_unique<store::ContentStore>());

  // The fleet starts as pure flyweights; a probe endpoint answers the one
  // question a driver may ask about a blank node without touching it.
  endpoints_.resize(cfg_.num_nodes);
  blank_can_push_ = make_endpoint()->can_push();

  sampler_ = net::make_sampler(cfg_.sampler, cfg_.num_nodes, rng_);

  schedule_.resize(cfg_.num_nodes);
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) schedule_[n] = n;

  completion_round_.assign(cfg_.num_nodes, cfg_.max_rounds + 1);
  payload_receptions_.assign(cfg_.num_nodes, 0);
}

Endpoint& SimCore::endpoint(NodeId id) {
  if (endpoints_[id] == nullptr) {
    endpoints_[id] = make_endpoint();
    ++materialized_count_;
  }
  return *endpoints_[id];
}

void SimCore::route_frame(Endpoint& from, NodeId expected_dst) {
  session::PeerId dst = 0;
  LTNC_CHECK_MSG(from.poll_transmit(dst, frame_),
                 "conversation expected an outbound frame");
  LTNC_CHECK_MSG(dst == expected_dst, "frame addressed to the wrong peer");
}

bool SimCore::run_transfer(Endpoint& sender, NodeId sender_peer,
                           NodeId target, ContentId content) {
  Endpoint& receiver = endpoint(target);
  net::TrafficStats& per_content = traffic_per_content_[content];
  ++traffic_.attempts;
  ++per_content.attempts;
  const std::uint64_t seq = transfer_seq_++;

  if (cfg_.feedback == session::FeedbackMode::kNone) {
    // No handshake: one data frame, whose header span is always paid and
    // whose payload span pays only if it survives the lossy hop.
    route_frame(sender, target);
    traffic_.header_bytes += frame_.size() - cfg_.payload_bytes;
    per_content.header_bytes += frame_.size() - cfg_.payload_bytes;
    if (cfg_.loss_rate > 0.0 && rng_.chance(cfg_.loss_rate)) {
      ++traffic_.lost;
      ++per_content.lost;
      reclaim_after_transfer(sender, sender_peer, target, content);
      return false;
    }
  } else {
    // The advertise travels first and is always paid for; it is
    // byte-identical to the data frame minus the payload span.
    route_frame(sender, target);
    traffic_.header_bytes += frame_.size();
    per_content.header_bytes += frame_.size();
    // The receiver's veto (or go-ahead) answers under the harness's
    // global transfer sequence, so feedback frames carry the same tokens
    // (and sizes) the pre-session simulator emitted.
    receiver.set_feedback_token(seq);
    const Endpoint::Event verdict =
        receiver.handle_frame(sender_peer, frame_.bytes());
    if (verdict == Endpoint::Event::kAborted) {
      route_frame(receiver, sender_peer);
      traffic_.control_bytes += frame_.size();
      per_content.control_bytes += frame_.size();
      ++traffic_.aborted;
      ++per_content.aborted;
      const Endpoint::Event closed =
          sender.handle_frame(target, frame_.bytes());
      LTNC_CHECK_MSG(closed == Endpoint::Event::kAbortReceived,
                     "abort did not close the transfer");
      reclaim_after_transfer(sender, sender_peer, target, content);
      return false;
    }
    LTNC_CHECK_MSG(verdict == Endpoint::Event::kProceeding,
                   "advertise expected abort or proceed");
    // The go-ahead is routed but charges nothing: it models the
    // "silence means proceed" of the paper's reliable feedback channel.
    route_frame(receiver, sender_peer);
    const Endpoint::Event go = sender.handle_frame(target, frame_.bytes());
    LTNC_CHECK_MSG(go == Endpoint::Event::kProceedReceived,
                   "proceed did not release the payload");
    route_frame(sender, target);  // the data frame
    if (cfg_.loss_rate > 0.0 && rng_.chance(cfg_.loss_rate)) {
      ++traffic_.lost;
      ++per_content.lost;
      reclaim_after_transfer(sender, sender_peer, target, content);
      return false;
    }
  }

  traffic_.payload_bytes += cfg_.payload_bytes;
  per_content.payload_bytes += cfg_.payload_bytes;
  ++traffic_.payload_transfers;
  ++per_content.payload_transfers;
  ++payload_receptions_[target];
  const Endpoint::Event delivered =
      receiver.handle_frame(sender_peer, frame_.bytes());
  LTNC_CHECK_MSG(delivered == Endpoint::Event::kDelivered,
                 "wire round-trip failed in simulation");
  after_transfer(target);
  if (observer_ != nullptr) observer_->on_payload(target);
  deliver_overhears(target);
  reclaim_after_transfer(sender, sender_peer, target, content);
  return true;
}

void SimCore::reclaim_after_transfer(Endpoint& sender, NodeId sender_peer,
                                     NodeId target, ContentId content) {
  // Once a conversation settles, neither side needs its slot. Only slots
  // with no live state are taken (an ack'd completion or an unconsumed cc
  // cache survives), so behavior is unchanged — this bounds the source
  // endpoint's table at O(in-flight) instead of O(every node ever pushed
  // to).
  sender.reclaim_idle_convo(target, content);
  if (endpoints_[target] != nullptr) {
    endpoints_[target]->reclaim_idle_convo(sender_peer, content);
  }
}

void SimCore::after_transfer(NodeId target) {
  if (completion_round_[target] > cfg_.max_rounds &&
      endpoints_[target]->complete()) {
    completion_round_[target] = round_;
    ++complete_count_;
    LTNC_TELEMETRY(
        if (completion_rounds_ != nullptr) {
          completion_rounds_->record(round_);
        } if (trace_recorder_ != nullptr) {
          trace_recorder_->record(telemetry::TracePoint::kComplete, round_,
                                  target);
        });
  }
}

void SimCore::deliver_overhears(NodeId target) {
  // Wireless broadcast medium: bystanders snoop the data frame for free
  // and keep it when it is innovative for them (COPE-style, §III-C.2).
  if (cfg_.overhear_count == 0) return;
  ContentId content = 0;
  LTNC_CHECK_MSG(wire::deserialize(frame_.bytes(), content, rx_packet_) ==
                     wire::DecodeStatus::kOk,
                 "overhear deserialize failed");
  for (std::size_t o = 0; o < cfg_.overhear_count; ++o) {
    const auto bystander =
        static_cast<NodeId>(rng_.uniform(cfg_.num_nodes));
    if (bystander == target) continue;
    if (endpoint(bystander).overhear(content, rx_packet_)) {
      ++overheard_useful_;
      ++payload_receptions_[bystander];
      after_transfer(bystander);
      if (observer_ != nullptr) observer_->on_payload(bystander);
    }
  }
}

bool SimCore::node_push(NodeId sender) {
  // The aggressiveness gate is RNG-free, so a node that fails it is
  // skippable without perturbing the trajectory — the property the event
  // engine's active-set tracking is built on.
  if (!node_can_push(sender)) return false;
  Endpoint& ep = endpoint(sender);

  const NodeId target = sampler_->sample(rng_, sender);
  // The scheduler picks which content this push slot carries —
  // rarest-first over the node's store, which degenerates to "content 0"
  // in single-content mode (no RNG is consumed either way, so the paper's
  // single-content runs stay bit-for-bit reproducible).
  const store::Content* content = ep.next_push(target);
  if (content == nullptr) return false;
  const ContentId cid = content->id();
  if (cfg_.feedback == session::FeedbackMode::kSmart) {
    // Full feedback channel: the receiver ships its cc array first, as a
    // measured kCcArray frame the sender caches before constructing.
    Endpoint& receiver = endpoint(target);
    if (receiver.announce_cc(sender, cid)) {
      route_frame(receiver, sender);
      traffic_.feedback_bytes += frame_.size();
      traffic_per_content_[cid].feedback_bytes += frame_.size();
      const Endpoint::Event cached = ep.handle_frame(target, frame_.bytes());
      LTNC_CHECK_MSG(cached == Endpoint::Event::kCcReceived,
                     "cc-array round-trip failed in simulation");
    }
  }
  if (!ep.start_transfer(target, cid, rng_)) return false;
  return run_transfer(ep, sender, target, cid);
}

void SimCore::maybe_churn() {
  if (cfg_.churn_rate <= 0.0 || !rng_.chance(cfg_.churn_rate)) return;
  // A random node crashes and is replaced by a blank one (same id, fresh
  // state — here: back to a flyweight, the cheapest possible blank). If
  // it had completed, the completion count must roll back.
  const auto victim = static_cast<NodeId>(rng_.uniform(cfg_.num_nodes));
  if (completion_round_[victim] <= cfg_.max_rounds) {
    --complete_count_;
    completion_round_[victim] = cfg_.max_rounds + 1;
  }
  payload_receptions_[victim] = 0;
  if (endpoints_[victim] != nullptr) {
    endpoints_[victim].reset();
    --materialized_count_;
  }
  ++churned_count_;
  LTNC_TELEMETRY(
      if (trace_recorder_ != nullptr) {
        trace_recorder_->record(telemetry::TracePoint::kChurn, round_, victim);
      });
}

void SimCore::inject_sources() {
  // Source injection: the source endpoint offers externally encoded
  // packets and runs the same handshake every node runs. Content c's
  // injections land only on its disjoint source subset {n : n % M == c};
  // M = 1 reduces to the paper's single uniform source, same RNG draws.
  const std::size_t m = cfg_.num_contents;
  for (ContentId c = 0; c < m; ++c) {
    const std::size_t subset_size =
        (cfg_.num_nodes - static_cast<std::size_t>(c) + m - 1) / m;
    for (std::size_t i = 0; i < cfg_.source_pushes_per_round; ++i) {
      const auto target = static_cast<NodeId>(
          static_cast<std::size_t>(c) + m * rng_.uniform(subset_size));
      const CodedPacket packet = sources_[c]->next(rng_);
      LTNC_TELEMETRY(
          if (trace_recorder_ != nullptr) {
            trace_recorder_->record(telemetry::TracePoint::kSourceInject,
                                    round_, target, c);
          });
      source_endpoint_->offer_packet(target, c, packet);
      run_transfer(*source_endpoint_, source_peer_id(), target, c);
    }
  }
}

void SimCore::shuffle_schedule() {
  for (std::size_t t = 0; t + 1 < schedule_.size(); ++t) {
    const std::size_t j = t + rng_.uniform(schedule_.size() - t);
    std::swap(schedule_[t], schedule_[j]);
  }
}

void SimCore::record_trace_point() {
  convergence_trace_.push_back(static_cast<double>(complete_count_) /
                               static_cast<double>(cfg_.num_nodes));
}

SimResult SimCore::finalise() {
  SimResult result;
  result.scheme = scheme_;
  result.config = cfg_;
  result.rounds_run = round_;
  result.nodes_complete = complete_count_;
  result.nodes_churned = churned_count_;
  result.all_complete = all_complete();
  result.completion_round = completion_round_;
  result.convergence_trace = convergence_trace_;
  result.payload_receptions = payload_receptions_;
  result.traffic = traffic_;
  result.per_content = traffic_per_content_;
  result.overheard_useful = overheard_useful_;

  // Flyweights contribute nothing to any sum below (a blank endpoint's
  // stats are all zero), so skipping them is byte-identical to the old
  // everyone-materialized aggregation.
  for (const auto& endpoint : endpoints_) {
    if (endpoint == nullptr) continue;
    auto& contents = endpoint->contents();
    for (std::size_t i = 0; i < contents.size(); ++i) {
      store::Content& content = contents.at(i);
      session::NodeProtocol* node = content.protocol();
      if (node == nullptr) continue;
      if (cfg_.verify_payloads && node->complete()) {
        // RLNC pays its back-substitution here, so decode costs include
        // it. Content c's ground truth is seeded with content_seed + c.
        result.payloads_verified &=
            node->finish_and_verify(cfg_.content_seed + content.id());
      }
      result.decode_ops += node->decode_ops();
      result.recode_ops += node->recode_ops();
    }
    result.sessions += endpoint->stats();
  }

  if (scheme_ == session::Scheme::kLtnc) {
    for (const auto& endpoint : endpoints_) {
      if (endpoint == nullptr) continue;
      const auto& contents = endpoint->contents();
      for (std::size_t ci = 0; ci < contents.size(); ++ci) {
      const auto& proto = static_cast<const session::LtncProtocol&>(
          *contents.at(ci).protocol());
      const auto& codec = proto.codec();
      const auto& s = codec.stats();
      result.ltnc_stats.receives += s.receives;
      result.ltnc_stats.duplicates += s.duplicates;
      result.ltnc_stats.redundant_rejected += s.redundant_rejected;
      result.ltnc_stats.decoded_on_arrival += s.decoded_on_arrival;
      result.ltnc_stats.stored += s.stored;
      result.ltnc_stats.dropped_during_decode += s.dropped_during_decode;
      result.ltnc_stats.recodes += s.recodes;
      result.ltnc_stats.recode_failures += s.recode_failures;
      result.ltnc_stats.smart_degree1 += s.smart_degree1;
      result.ltnc_stats.smart_degree2 += s.smart_degree2;
      result.ltnc_stats.substitutions += s.substitutions;

      const auto& d = codec.degree_stats();
      result.ltnc_degree_stats.picks += d.picks;
      result.ltnc_degree_stats.first_accepted += d.first_accepted;
      result.ltnc_degree_stats.retries_total += d.retries_total;
      result.ltnc_degree_stats.exhausted += d.exhausted;

      const auto& b = codec.build_stats();
      result.ltnc_build_stats.builds += b.builds;
      result.ltnc_build_stats.reached_target += b.reached_target;
      result.ltnc_build_stats.relative_deviation.merge(b.relative_deviation);

      result.ltnc_redundancy_checks += codec.redundancy().checks();
      result.ltnc_redundancy_hits += codec.redundancy().hits();
      }
    }
    // Occurrence balance is a system-wide property (the paper reports one
    // relative-σ number): aggregate the counts over all senders (and, in
    // multi-content mode, all contents — the index space is per content).
    std::vector<std::uint64_t> total_occurrences(cfg_.k, 0);
    for (const auto& endpoint : endpoints_) {
      if (endpoint == nullptr) continue;
      const auto& contents = endpoint->contents();
      for (std::size_t ci = 0; ci < contents.size(); ++ci) {
        const auto& proto = static_cast<const session::LtncProtocol&>(
            *contents.at(ci).protocol());
        const auto& counts = proto.codec().occurrences().counts();
        for (std::size_t i = 0; i < cfg_.k; ++i) {
          total_occurrences[i] += counts[i];
        }
      }
    }
    RunningStats occ;
    for (std::uint64_t c : total_occurrences) {
      occ.add(static_cast<double>(c));
    }
    result.ltnc_occurrence_rel_stddev = occ.relative_stddev();
  }
  return result;
}

}  // namespace ltnc::dissem
