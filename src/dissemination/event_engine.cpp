#include "dissemination/event_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "telemetry/flight_recorder.hpp"

namespace ltnc::dissem {

EventSimulation::EventSimulation(session::Scheme scheme,
                                 const SimConfig& config, EngineMode mode)
    : core_(scheme, config), mode_(mode) {
  if (mode_ == EngineMode::kScale) {
    push_armed_.assign(config.num_nodes, false);
    core_.set_observer(this);
    if (core_.blank_can_push()) {
      // Zero-threshold configs: every blank node already passes the
      // aggressiveness gate, so the whole fleet starts armed.
      for (std::size_t n = 0; n < config.num_nodes; ++n) {
        push_armed_[n] = true;
        ++armed_pushes_;
        wheel_.schedule(tick_of(1, kPush),
                        Event{Event::Kind::kPush, static_cast<NodeId>(n)});
      }
    }
  }
  schedule_round(1);
}

void EventSimulation::schedule_round(std::size_t round) {
  wheel_.schedule(tick_of(round, kChurn), Event{Event::Kind::kRound});
  wheel_.schedule(tick_of(round, kSource), Event{Event::Kind::kSource});
  if (mode_ == EngineMode::kCompat) {
    // The shuffle event enqueues the round's per-node pushes at its own
    // tick; same-tick FIFO drains them right after, in shuffle order.
    wheel_.schedule(tick_of(round, kPush), Event{Event::Kind::kShuffle});
  }
  wheel_.schedule(tick_of(round, kTrace), Event{Event::Kind::kTrace});
}

void EventSimulation::dispatch(const Event& event) {
  switch (event.kind) {
    case Event::Kind::kRound:
      core_.advance_round();
      core_.tick_sampler();
      core_.maybe_churn();
      break;
    case Event::Kind::kSource:
      core_.inject_sources();
      break;
    case Event::Kind::kShuffle: {
      core_.shuffle_schedule();
      const std::uint64_t t = tick_of(core_.round(), kPush);
      const std::size_t passes = core_.config().node_pushes_per_round;
      for (std::size_t p = 0; p < passes; ++p) {
        for (const NodeId sender : core_.schedule()) {
          wheel_.schedule(t, Event{Event::Kind::kPush, sender});
          ++armed_pushes_;
        }
      }
      break;
    }
    case Event::Kind::kPush:
      fire_push(event.node);
      break;
    case Event::Kind::kTrace: {
      core_.record_trace_point();
      const SimConfig& cfg = core_.config();
      if ((cfg.stop_when_complete && core_.all_complete()) ||
          core_.round() >= cfg.max_rounds) {
        done_ = true;
      } else {
        schedule_round(core_.round() + 1);
      }
      break;
    }
  }
}

void EventSimulation::fire_push(NodeId node) {
  if (mode_ == EngineMode::kCompat) {
    // One event per lockstep visit; node_push re-checks eligibility just
    // as the lockstep loop does, drawing nothing when the gate fails.
    --armed_pushes_;
    core_.node_push(node);
    return;
  }
  if (!core_.node_can_push(node)) {
    // Disarm (churn knocked the node back below the threshold — the only
    // way eligibility regresses). on_payload re-arms it later.
    push_armed_[node] = false;
    --armed_pushes_;
    LTNC_TELEMETRY(
        if (trace_recorder_ != nullptr) {
          trace_recorder_->record(telemetry::TracePoint::kDisarm,
                                  wheel_.now(), node);
        });
    return;
  }
  const std::size_t passes = core_.config().node_pushes_per_round;
  for (std::size_t p = 0; p < passes; ++p) core_.node_push(node);
  // Self-reschedule for the next round's push phase.
  wheel_.schedule(wheel_.now() + 4, Event{Event::Kind::kPush, node});
}

void EventSimulation::on_payload(NodeId node) {
  // Only installed as observer in kScale. A payload is the only thing
  // that can lift a node past the aggressiveness gate — arm it the first
  // time it qualifies.
  if (push_armed_[node] || !core_.node_can_push(node)) return;
  push_armed_[node] = true;
  ++armed_pushes_;
  LTNC_TELEMETRY(
      if (trace_recorder_ != nullptr) {
        trace_recorder_->record(telemetry::TracePoint::kArm, wheel_.now(),
                                node);
      });
  // Source-phase activations join this round's push tick (the lockstep
  // schedule visits them too). Push-phase activations wait for the next
  // round: arming them at the current tick would let infection chains
  // cascade through the whole swarm inside one round, which lockstep's
  // one-visit-per-pass schedule forbids.
  const std::uint64_t this_push = tick_of(core_.round(), kPush);
  const std::uint64_t t =
      wheel_.now() < this_push ? this_push : this_push + 4;
  wheel_.schedule(t, Event{Event::Kind::kPush, node});
}

void EventSimulation::step() {
  if (done_) return;
  while (std::optional<Event> event = wheel_.pop_next()) {
    ++events_processed_;
    const bool round_ends = event->kind == Event::Kind::kTrace;
    dispatch(*event);
    if (round_ends || done_) return;
  }
  // The wheel drained without a trace event — cannot happen while rounds
  // self-perpetuate, but stopping beats spinning.
  done_ = true;
}

SimResult EventSimulation::run() {
  while (!done_) step();
  return core_.finalise();
}

SimResult run_event_simulation(session::Scheme scheme, const SimConfig& config,
                               EngineMode mode) {
  EventSimulation sim(scheme, config, mode);
  return sim.run();
}

}  // namespace ltnc::dissem
