// Epidemic dissemination simulation (paper §IV-A) — the lockstep driver
// over SimCore.
//
// A content of k native packets is pushed from one source to N nodes.
// Time advances in gossip periods; each period the source injects a few
// encoded packets to random nodes, then every node past its aggressiveness
// threshold recodes one fresh packet and pushes it to a peer drawn from
// the peer sampling service.
//
// The protocol conversation itself — advertise the code vector, collect
// abort/proceed (binary feedback) or a cc array (smart feedback), then
// move the payload — lives in session::Endpoint; the fleet machinery
// (sources, sampler, frame routing, fault injection, traffic ledger) lives
// in SimCore. This driver is the paper's original schedule: every round,
// every node, in a freshly shuffled order. The discrete-event driver
// (event_engine.hpp) composes the same SimCore primitives through a timer
// wheel instead, so only nodes with pending work pay CPU.
//
// Ledger conventions (unchanged from the pre-session implementation, so a
// fixed seed reproduces the same TrafficStats byte for byte):
//   header_bytes   the kAdvertise frame of every attempt — byte-identical
//                  to the data frame minus its payload span. Charged even
//                  in FeedbackMode::kNone, where the "advertise" is just
//                  the header prefix of the single data frame.
//   control_bytes  kAbort frames (binary feedback vetoes)
//   payload_bytes  delivered payload spans; the accepted transfer's data
//                  frame repeats the advertised header, which is not
//                  re-charged (the paper's setting runs transfers over a
//                  connection, where the header travels once)
//   feedback_bytes kCcArray frames (smart feedback)
//   kProceed       charged nothing: it models the "silence means proceed"
//                  of a reliable feedback channel
//
// The simulation is deterministic for a given seed, and collects the exact
// series the paper plots: the convergence trace (Fig. 7a), the completion
// time (Fig. 7b), the communication overhead (Fig. 7c) and the per-plane
// operation counts behind Fig. 8.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "dissemination/sim_core.hpp"
#include "session/protocols.hpp"

namespace ltnc::dissem {

class EpidemicSimulation {
 public:
  EpidemicSimulation(session::Scheme scheme, const SimConfig& config)
      : core_(scheme, config) {}

  /// Runs to completion (or max_rounds) and returns the collected result.
  SimResult run();

  /// Runs a single gossip period (exposed for incremental tests).
  void step();

  std::size_t round() const { return core_.round(); }
  std::size_t nodes_complete() const { return core_.complete_count(); }
  bool all_complete() const { return core_.all_complete(); }
  /// True when run() would stop: converged (with stop_when_complete) or
  /// out of rounds. Lets external drivers step() + observe incrementally.
  bool finished() const {
    const SimConfig& cfg = core_.config();
    return core_.round() >= cfg.max_rounds ||
           (cfg.stop_when_complete && core_.all_complete());
  }
  SimCore& core() { return core_; }
  const SimCore& core() const { return core_; }

 private:
  SimCore core_;
};

/// Convenience: configure + run in one call.
SimResult run_simulation(session::Scheme scheme, const SimConfig& config);

}  // namespace ltnc::dissem
