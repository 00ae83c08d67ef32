// Ablation — Robust Soliton parameters (c, δ).
//
// The paper fixes "the optimal value" of the degree distribution but does
// not publish its (c, δ); LT deployments tune them per code length. This
// sweep shows how much of LTNC's communication overhead and completion
// time is parameter tuning rather than algorithm — context for comparing
// our Fig. 7b/7c absolute numbers against the paper's.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ltnc;
  using session::Scheme;
  const auto args = bench::Args::parse(argc, argv);

  dissem::SimConfig cfg;
  cfg.num_nodes = args.nodes != 0 ? args.nodes : 128;
  cfg.k = args.k != 0 ? args.k : (args.full ? 2048 : 512);
  cfg.payload_bytes = 64;
  cfg.seed = args.seed;
  cfg.max_rounds = 200 * cfg.k;
  const std::size_t runs = args.runs != 0 ? args.runs : 3;

  bench::print_header("Ablation: Robust Soliton parameters (c, delta)",
                      "N = " + std::to_string(cfg.num_nodes) +
                          ", k = " + std::to_string(cfg.k) +
                          ", runs = " + std::to_string(runs));

  TextTable table({"c", "delta", "mean degree", "overhead %",
                   "mean completion", "converged"});
  for (const double c : {0.03, 0.1, 0.3}) {
    for (const double delta : {0.05, 0.5}) {
      dissem::SimConfig sweep = cfg;
      sweep.ltnc.soliton.c = c;
      sweep.ltnc.soliton.delta = delta;
      const lt::RobustSoliton rs(sweep.k, sweep.ltnc.soliton);
      const auto mc =
          metrics::run_monte_carlo(Scheme::kLtnc, sweep, runs);
      table.add_row({TextTable::num(c, 2), TextTable::num(delta, 2),
                     TextTable::num(rs.mean_degree(), 2),
                     TextTable::num(100 * mc.overhead.mean(), 1),
                     TextTable::num(mc.mean_completion.mean(), 1),
                     std::to_string(mc.runs_fully_converged) + "/" +
                         std::to_string(mc.runs)});
    }
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nlower c / higher delta -> lighter distribution tail, "
               "cheaper packets, but a weaker ripple; the sweet spot "
               "shifts with k.\n";
  return 0;
}
