// Ablation — §III-B.3 refinement on/off.
//
// Refinement substitutes over-represented natives with rare equivalents so
// the native-degree distribution approaches the Dirac belief propagation
// needs. Without it the occurrence spread grows and decoding needs more
// packets (higher overhead, slower convergence).
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
  cfg.max_rounds = 120 * cfg.k;
  const std::size_t runs = args.runs != 0 ? args.runs : 3;

  bench::print_header("Ablation: refinement (Algorithm 2)",
                      "N = " + std::to_string(cfg.num_nodes) +
                          ", k = " + std::to_string(cfg.k) +
                          ", runs = " + std::to_string(runs));

  const auto on = metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs);
  dissem::SimConfig off_cfg = cfg;
  off_cfg.ltnc.enable_refinement = false;
  const auto off = metrics::run_monte_carlo(Scheme::kLtnc, off_cfg, runs);

  TextTable table({"metric", "refinement ON", "refinement OFF"});
  table.add_row({"occurrence relative stddev %",
                 TextTable::num(100 * on.occurrence_rel_stddev, 2),
                 TextTable::num(100 * off.occurrence_rel_stddev, 2)});
  table.add_row({"communication overhead %",
                 TextTable::num(100 * on.overhead.mean(), 1),
                 TextTable::num(100 * off.overhead.mean(), 1)});
  table.add_row({"mean completion round",
                 TextTable::num(on.mean_completion.mean(), 1),
                 TextTable::num(off.mean_completion.mean(), 1)});
  table.add_row({"recode ctrl ops / node",
                 TextTable::num(on.recode_control_per_node, 0),
                 TextTable::num(off.recode_control_per_node, 0)});
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nexpected: ON keeps the occurrence spread near-flat at the "
               "price of extra recode work.\n";
  return 0;
}
