// SimCore — the fleet machinery shared by both simulation drivers.
//
// The paper's §IV-A harness has two halves. The *what*: a fleet of
// session endpoints, per-content sources, the peer sampler, frame
// routing, fault injection and the traffic ledger. The *when*: a driver that
// decides which node acts next — the lockstep EpidemicSimulation
// (every node, every round) or the discrete-event EventSimulation (only
// nodes with scheduled work). SimCore is the *what*, decomposed into
// primitives that consume RNG draws in exactly the order the original
// monolithic step() did:
//
//   advance_round();            // ++round
//   tick_sampler();             // sampler maintenance draw(s)
//   maybe_churn();              // churn_rate chance, one victim draw
//   inject_sources();           // source pushes, subset-target draws
//   shuffle_schedule();         // Fisher-Yates over the node visit order
//   node_push(n); ...           // per-node gossip pushes
//   record_trace_point();       // fig7a convergence sample
//
// Any driver composing these in this order reproduces the pre-refactor
// TrafficStats ledger byte-for-byte (pinned by session_equivalence_test
// and the event engine's compat suite).
//
// Flyweight fleet: endpoints_[i] stays null until node i first touches
// protocol state (receives a frame, overhears a packet, or pushes).
// Endpoint construction draws no RNG, so lazy materialization is
// invisible to the trajectory — a million-node fleet pays ~8 bytes per
// never-contacted node instead of a full Endpoint + protocol stack.
// Whether a *blank* node would push is a property of the config, not the
// node (every blank protocol is identical), probed once at construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dissemination/sources.hpp"
#include "net/peer_sampler.hpp"
#include "net/traffic.hpp"
#include "session/endpoint.hpp"
#include "session/protocols.hpp"
#include "wire/frame.hpp"

namespace ltnc::dissem {

struct SimConfig {
  std::size_t num_nodes = 128;
  std::size_t k = 256;
  std::size_t payload_bytes = 64;
  std::uint64_t seed = 1;
  /// Deterministic content seed (native i = Payload::deterministic(seed)).
  std::uint64_t content_seed = 42;
  /// Multi-content mode: M contents (wire ids 0..M−1, content c seeded
  /// with content_seed + c) disseminate concurrently over the same
  /// endpoints. Content c's source injections target the disjoint node
  /// subset {n : n % M == c}; gossip then mixes every content across the
  /// whole swarm via each endpoint's SwarmScheduler. 1 = the paper's
  /// single-content protocol, bit-for-bit.
  std::size_t num_contents = 1;
  /// Fraction of k a node must hold before recoding starts (LTNC ≈ 1 %).
  double aggressiveness = 0.01;
  /// Packets the source injects per gossip period.
  std::size_t source_pushes_per_round = 4;
  /// Packets each eligible node pushes per gossip period.
  std::size_t node_pushes_per_round = 1;
  session::FeedbackMode feedback = session::FeedbackMode::kBinary;
  /// Probability that a payload transfer is lost in flight (failure
  /// injection; the header/abort exchange is assumed reliable, as with
  /// TCP connection setup in the paper's setting).
  double loss_rate = 0.0;
  /// Per-round probability that one random node crashes and is replaced
  /// by a blank node (churn injection). The replacement keeps the NodeId
  /// but loses all coding state — like a rebooted sensor or a fresh peer
  /// joining under the dynamic overlay of §IV-A.
  double churn_rate = 0.0;
  /// Wireless broadcast medium: every payload transfer is overheard by
  /// this many random bystanders, who keep it if innovative for them
  /// (§III-C.2 points at COPE-style snooping; §VI calls the broadcast
  /// medium "especially attractive"). 0 = wired unicast (paper's §IV).
  std::size_t overhear_count = 0;
  net::PeerSamplerConfig sampler{};
  std::size_t max_rounds = 200000;
  /// Stop early once every node is complete (always sensible; switchable
  /// for soak tests).
  bool stop_when_complete = true;
  /// Verify decoded content against the deterministic ground truth at the
  /// end (includes RLNC's final back-substitution in its decode cost).
  bool verify_payloads = true;
  core::LtncConfig ltnc{};
  rlnc::RlncConfig rlnc{};
  wc::WcConfig wc{};
};

struct SimResult {
  session::Scheme scheme{};
  SimConfig config{};
  std::size_t rounds_run = 0;
  std::size_t nodes_complete = 0;
  std::size_t nodes_churned = 0;
  bool all_complete = false;
  bool payloads_verified = true;

  /// Round at which each node completed (max_rounds + 1 when it did not).
  std::vector<std::size_t> completion_round;
  /// Fraction of complete nodes at the end of each round (Fig. 7a).
  std::vector<double> convergence_trace;
  /// Payload receptions per node (accepted transfers).
  std::vector<std::uint64_t> payload_receptions;

  net::TrafficStats traffic;
  /// Per-content ledger breakdown (index = content id). Size num_contents;
  /// sums to `traffic` field-for-field.
  std::vector<net::TrafficStats> per_content;
  /// Session-layer event counters summed over the node endpoints (the
  /// source endpoint excluded) — advertises, vetoes, duplicates, ….
  session::SessionStats sessions;
  std::uint64_t overheard_useful = 0;  ///< snooped packets kept by bystanders
  OpCounters decode_ops;  ///< summed over nodes
  OpCounters recode_ops;  ///< summed over nodes

  // Scheme-specific snapshots (populated for LTNC runs).
  core::LtncStats ltnc_stats{};
  core::DegreePickStats ltnc_degree_stats{};
  core::BuildStats ltnc_build_stats{};
  double ltnc_occurrence_rel_stddev = 0.0;
  std::uint64_t ltnc_redundancy_checks = 0;
  std::uint64_t ltnc_redundancy_hits = 0;

  /// Mean completion round over completed nodes.
  double mean_completion() const;
  /// Mean payload receptions beyond the k strictly necessary, relative to
  /// k — the paper's communication overhead (Fig. 7c). Counted over
  /// completed nodes.
  double overhead() const;
};

/// Driver hook into node-state transitions. The event engine uses it to
/// re-arm a node's push event the moment a delivery or kept overhear may
/// have lifted it past the aggressiveness threshold.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// `node` just absorbed a payload (accepted transfer or overhear).
  virtual void on_payload(NodeId node) = 0;
};

class SimCore {
 public:
  SimCore(session::Scheme scheme, const SimConfig& config);

  const SimConfig& config() const { return cfg_; }
  session::Scheme scheme() const { return scheme_; }
  Rng& rng() { return rng_; }

  // --- fleet access (flyweight-aware) --------------------------------------

  /// The node's endpoint, materializing a blank one on first touch
  /// (RNG-free, so laziness never perturbs the trajectory).
  session::Endpoint& endpoint(NodeId id);
  /// Null while the node is still a flyweight.
  const session::Endpoint* peek_endpoint(NodeId id) const {
    return endpoints_[id].get();
  }
  bool materialized(NodeId id) const { return endpoints_[id] != nullptr; }
  std::size_t materialized_count() const { return materialized_count_; }
  /// Would a still-blank node pass the aggressiveness gate? (Probed once:
  /// all blank protocols are identical.)
  bool blank_can_push() const { return blank_can_push_; }
  /// can_push() without materializing — the event engine's activation
  /// predicate.
  bool node_can_push(NodeId id) const {
    return endpoints_[id] == nullptr ? blank_can_push_
                                     : endpoints_[id]->can_push();
  }
  session::Endpoint& source_endpoint() { return *source_endpoint_; }
  /// The source's PeerId as the nodes see it: one past the last node id.
  NodeId source_peer_id() const {
    return static_cast<NodeId>(cfg_.num_nodes);
  }

  // --- the round primitives (RNG draw order is the contract) ---------------

  void advance_round() { ++round_; }
  void tick_sampler() { sampler_->tick(rng_); }
  /// One churn_rate coin flip; on success one random node is wiped back
  /// to a blank flyweight (same id, no state) and the completion ledger
  /// rolls back.
  void maybe_churn();
  /// Source injection: every content offers source_pushes_per_round
  /// packets to its subset and runs the full conversation for each.
  void inject_sources();
  /// Fisher-Yates reshuffle of the node visit order (n−1 draws).
  void shuffle_schedule();
  const std::vector<NodeId>& schedule() const { return schedule_; }
  /// One gossip push by `sender` if it passes the aggressiveness gate:
  /// sample a target, pick a content, run the conversation. Returns true
  /// if a payload was delivered. Draws nothing when the gate fails.
  bool node_push(NodeId sender);
  /// Appends the fig7a convergence sample for the current round.
  void record_trace_point();

  std::size_t round() const { return round_; }
  std::size_t complete_count() const { return complete_count_; }
  bool all_complete() const { return complete_count_ == cfg_.num_nodes; }

  // --- driver knobs --------------------------------------------------------

  void set_observer(SimObserver* observer) { observer_ = observer; }
  /// Observer-only instruments: a completion-round histogram (one sample
  /// per node, at the round it completes) and a flight recorder for
  /// churn / source-inject / completion protocol events (ts = round
  /// number — simulations trace in virtual time). Draws no RNG, so the
  /// trajectory is untouched; either pointer may stay null.
  void set_telemetry(telemetry::Histogram* completion_rounds,
                     telemetry::FlightRecorder* recorder) {
    completion_rounds_ = completion_rounds;
    trace_recorder_ = recorder;
  }

  /// Aggregates the fleet into a SimResult (consumes nothing; callable
  /// once at the end of a run).
  SimResult finalise();

 private:
  bool run_transfer(session::Endpoint& sender, NodeId sender_peer,
                    NodeId target, ContentId content);
  /// Pops `from`'s next outbound frame into frame_; it must be addressed
  /// to `expected_dst`.
  void route_frame(session::Endpoint& from, NodeId expected_dst);
  void after_transfer(NodeId target);
  void deliver_overhears(NodeId target);
  void reclaim_after_transfer(session::Endpoint& sender, NodeId sender_peer,
                              NodeId target, ContentId content);
  session::EndpointConfig endpoint_config() const;
  std::unique_ptr<session::Endpoint> make_endpoint() const;

  session::Scheme scheme_;
  SimConfig cfg_;
  Rng rng_;
  /// One textbook encoder per content (index = content id).
  std::vector<std::unique_ptr<Source>> sources_;
  /// The source's session endpoint: over an empty store, it offers the
  /// packets the sources encode and runs the same handshake as everyone
  /// else.
  std::unique_ptr<session::Endpoint> source_endpoint_;
  /// Flyweight fleet: null until first touch.
  std::vector<std::unique_ptr<session::Endpoint>> endpoints_;
  std::unique_ptr<net::PeerSampler> sampler_;
  std::vector<NodeId> schedule_;  ///< node visit order, reshuffled per round

  /// The frame in flight: the sender's poll_transmit writes it, and the
  /// receiver's handle_frame reads it. Fault injection stays with the
  /// harness, which owns the global RNG: the paper's loss model drops
  /// payload frames after the (reliable) feedback exchange, not
  /// uniformly.
  wire::Frame frame_;
  CodedPacket rx_packet_;  ///< overhear scratch (deserialized data frame)
  std::uint64_t transfer_seq_ = 0;
  std::vector<net::TrafficStats> traffic_per_content_;

  std::size_t round_ = 0;
  std::size_t complete_count_ = 0;
  std::size_t churned_count_ = 0;
  std::size_t materialized_count_ = 0;
  bool blank_can_push_ = false;
  SimObserver* observer_ = nullptr;
  telemetry::Histogram* completion_rounds_ = nullptr;
  telemetry::FlightRecorder* trace_recorder_ = nullptr;
  std::uint64_t overheard_useful_ = 0;
  std::vector<std::size_t> completion_round_;
  std::vector<std::uint64_t> payload_receptions_;
  std::vector<double> convergence_trace_;
  net::TrafficStats traffic_;
};

}  // namespace ltnc::dissem
