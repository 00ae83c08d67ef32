// Ablation — §III-C.1 redundancy detection on/off.
//
// The paper reports the mechanism "decreases by 31 % the number of
// redundant encoded packets inserted in the data structure upon
// reception". With the binary feedback channel the same detector also
// aborts transfers, so turning it off shows up in overhead, wasted
// payload bytes and stored-packet bloat.
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

  bench::print_header("Ablation: redundancy detection (Algorithm 3)",
                      "N = " + std::to_string(cfg.num_nodes) +
                          ", k = " + std::to_string(cfg.k) +
                          ", runs = " + std::to_string(runs));

  const auto on = metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs);
  dissem::SimConfig off_cfg = cfg;
  off_cfg.ltnc.enable_redundancy_detection = false;
  const auto off = metrics::run_monte_carlo(Scheme::kLtnc, off_cfg, runs);

  TextTable table({"metric", "detector ON", "detector OFF"});
  table.add_row({"communication overhead %",
                 TextTable::num(100 * on.overhead.mean(), 1),
                 TextTable::num(100 * off.overhead.mean(), 1)});
  table.add_row({"abort rate %", TextTable::num(100 * on.abort_rate.mean(), 1),
                 TextTable::num(100 * off.abort_rate.mean(), 1)});
  table.add_row({"mean completion round",
                 TextTable::num(on.mean_completion.mean(), 1),
                 TextTable::num(off.mean_completion.mean(), 1)});
  table.add_row({"decode ctrl ops / node",
                 TextTable::num(on.decode_control_per_node, 0),
                 TextTable::num(off.decode_control_per_node, 0)});
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const double reduction =
      off.overhead.mean() > 0.0
          ? 100.0 * (1.0 - on.overhead.mean() / off.overhead.mean())
          : 0.0;
  std::cout << "\nredundant payload insertions removed by the detector: "
            << TextTable::num(reduction, 1) << "% (paper: 31%)\n";
  return 0;
}
