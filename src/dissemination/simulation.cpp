#include "dissemination/simulation.hpp"

namespace ltnc::dissem {

void EpidemicSimulation::step() {
  // The primitive order is SimCore's RNG contract — see sim_core.hpp.
  core_.advance_round();
  core_.tick_sampler();
  core_.maybe_churn();
  core_.inject_sources();
  core_.shuffle_schedule();
  for (std::size_t p = 0; p < core_.config().node_pushes_per_round; ++p) {
    for (const NodeId sender : core_.schedule()) core_.node_push(sender);
  }
  core_.record_trace_point();
}

SimResult EpidemicSimulation::run() {
  while (!finished()) step();
  return core_.finalise();
}

SimResult run_simulation(session::Scheme scheme, const SimConfig& config) {
  EpidemicSimulation sim(scheme, config);
  return sim.run();
}

}  // namespace ltnc::dissem
