// Discrete-event dissemination engine — SimCore driven through a timer
// wheel instead of the lockstep round loop.
//
// The lockstep driver (simulation.hpp) touches every node every round:
// O(n) per round even when almost every node is idle — blank nodes below
// the aggressiveness threshold at the start, completed-and-quiet nodes at
// the end. At n = 10⁶ that dead weight dominates. This engine keys work
// on *next-action times*: each unit of work is an event in a hierarchical
// TimerWheel, and only nodes with a pending event pay CPU.
//
// Time is sub-tick phased: tick t = round·4 + phase, with phases
//   kChurn  (0)  advance_round, sampler tick, churn coin flip
//   kSource (1)  source injections
//   kPush   (2)  node gossip pushes
//   kTrace  (3)  fig7a convergence sample, next-round bootstrap
// so a whole gossip period occupies four wheel ticks and every event of a
// phase drains FIFO before the next phase begins — exactly the lockstep
// ordering, expressed as a schedule.
//
// Two modes:
//
//   kCompat  reproduces the lockstep trajectory *byte for byte* (same
//            TrafficStats, same completion rounds, same everything) for
//            any config. Each round's push phase enqueues one event per
//            node in the freshly shuffled visit order; eligibility is
//            re-checked when the event fires, just as the lockstep loop
//            re-checks it per visit. Same RNG draws in the same order.
//
//   kScale   the O(active) engine for 10⁵–10⁶ nodes. No per-round
//            shuffle (saves n−1 RNG draws and an O(n) sweep); instead
//            every *eligible* node owns one self-rescheduling push event,
//            armed the moment a payload lifts it past the aggressiveness
//            gate (SimObserver::on_payload) and disarmed when it fires
//            while ineligible. Statistically equivalent dissemination,
//            different draw sequence — golden comparisons use kCompat.
//            Scale runs keep the default UniformSampler (its tick is
//            free; a gossip-view sampler would put the O(n) back).
//
// Flyweight fleet economics (see sim_core.hpp): nodes stay ~8-byte
// flyweights until first contact, so peak RSS follows the contacted set,
// not n. SimCore reclaims each settled conversation's slots in every
// mode, so the source endpoint's peer table stays O(in-flight) too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "dissemination/sim_core.hpp"
#include "dissemination/timer_wheel.hpp"

namespace ltnc::dissem {

enum class EngineMode {
  kCompat,  ///< lockstep-identical trajectory (small n, golden tests)
  kScale,   ///< active-set scheduling (large n, statistical equivalence)
};

class EventSimulation final : private SimObserver {
 public:
  EventSimulation(session::Scheme scheme, const SimConfig& config,
                  EngineMode mode = EngineMode::kScale);

  /// Runs to completion (or max_rounds) and returns the collected result.
  SimResult run();

  /// Processes one full gossip period (all four phases). No-op once the
  /// run has finished.
  void step();

  EngineMode mode() const { return mode_; }
  bool finished() const { return done_; }
  std::size_t round() const { return core_.round(); }
  std::size_t nodes_complete() const { return core_.complete_count(); }
  bool all_complete() const { return core_.all_complete(); }
  /// Wheel events fired so far (the engine's unit of work).
  std::uint64_t events_processed() const { return events_processed_; }
  /// Push events currently armed (kScale's active set; n·P in kCompat
  /// during the push phase).
  std::size_t armed_pushes() const { return armed_pushes_; }
  /// Events currently scheduled on the wheel (occupancy gauge source).
  std::size_t wheel_size() const { return wheel_.size(); }
  SimCore& core() { return core_; }
  const SimCore& core() const { return core_; }

  /// Flight-recorder hook for the engine's own transitions: kArm when a
  /// payload lifts a node past the aggressiveness gate, kDisarm when
  /// churn knocks it back (kScale only; ts = wheel tick). Observer-only;
  /// pair with core().set_telemetry() for the fleet-level events.
  void set_telemetry(telemetry::FlightRecorder* recorder) {
    trace_recorder_ = recorder;
  }

 private:
  // Sub-tick phases within a round's four wheel ticks.
  static constexpr std::uint64_t kChurn = 0;
  static constexpr std::uint64_t kSource = 1;
  static constexpr std::uint64_t kPush = 2;
  static constexpr std::uint64_t kTrace = 3;

  struct Event {
    enum class Kind : std::uint8_t {
      kRound,    ///< advance_round + sampler tick + churn coin
      kSource,   ///< source injections
      kShuffle,  ///< (kCompat) shuffle, then enqueue the round's pushes
      kPush,     ///< one node's gossip push
      kTrace,    ///< convergence sample + next-round bootstrap
    };
    Kind kind;
    NodeId node = 0;  ///< kPush only
  };

  static std::uint64_t tick_of(std::size_t round, std::uint64_t phase) {
    return static_cast<std::uint64_t>(round) * 4 + phase;
  }

  void schedule_round(std::size_t round);
  void dispatch(const Event& event);
  void fire_push(NodeId node);
  void on_payload(NodeId node) override;

  SimCore core_;
  EngineMode mode_;
  TimerWheel<Event> wheel_;
  /// kScale: node → push event armed? Prevents duplicate events per node.
  std::vector<bool> push_armed_;
  std::size_t armed_pushes_ = 0;
  std::uint64_t events_processed_ = 0;
  bool done_ = false;
  telemetry::FlightRecorder* trace_recorder_ = nullptr;
};

/// Convenience: configure + run in one call.
SimResult run_event_simulation(session::Scheme scheme, const SimConfig& config,
                               EngineMode mode = EngineMode::kScale);

}  // namespace ltnc::dissem
