// Figure 7a — "Convergence": proportion of nodes that decoded all k native
// packets as a function of time (gossip periods), for WC / LTNC / RLNC.
//
// Paper scale: N = 1000 nodes, k = 2048, m = 256 KB, 25 Monte-Carlo runs.
// Default here: N = 200, k = 512, 3 runs (--full restores paper scale).
// Expected shape: RLNC fastest, LTNC close behind, WC far slower — the
// benefit of coding is preserved.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ltnc;
  using session::Scheme;
  const auto args = bench::Args::parse(argc, argv);

  dissem::SimConfig cfg;
  cfg.num_nodes = args.nodes != 0 ? args.nodes : (args.full ? 1000 : 200);
  cfg.k = args.k != 0 ? args.k : (args.full ? 2048 : 512);
  cfg.payload_bytes = 64;
  cfg.seed = args.seed;
  cfg.max_rounds = 80 * cfg.k;
  const std::size_t runs = args.runs != 0 ? args.runs : (args.full ? 25 : 3);

  bench::print_header(
      "Figure 7a: convergence (fraction of complete nodes vs gossip period)",
      "N = " + std::to_string(cfg.num_nodes) + ", k = " + std::to_string(cfg.k) +
          ", m = " + std::to_string(cfg.payload_bytes) + " B (sim), runs = " +
          std::to_string(runs) +
          (args.full ? " [paper scale]" : " [default scale; --full for paper]"));

  const auto wc = metrics::run_monte_carlo(Scheme::kWc, cfg, runs);
  const auto ltnc = metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs);
  const auto rlnc = metrics::run_monte_carlo(Scheme::kRlnc, cfg, runs);

  // Sample the traces on a common grid of ~24 rows.
  std::size_t longest = std::max(
      {wc.convergence_trace.size(), ltnc.convergence_trace.size(),
       rlnc.convergence_trace.size()});
  if (longest == 0) longest = 1;
  const std::size_t step = std::max<std::size_t>(1, longest / 24);

  auto at = [](const std::vector<double>& trace, std::size_t i) {
    if (trace.empty()) return 0.0;
    return i < trace.size() ? trace[i] : trace.back();
  };

  TextTable table({"time", "WC %", "LTNC %", "RLNC %"});
  for (std::size_t i = 0; i < longest + step; i += step) {
    const std::size_t t = std::min(i, longest - 1);
    table.add_row({TextTable::integer(static_cast<long long>(t + 1)),
                   TextTable::num(100 * at(wc.convergence_trace, t), 1),
                   TextTable::num(100 * at(ltnc.convergence_trace, t), 1),
                   TextTable::num(100 * at(rlnc.convergence_trace, t), 1)});
    if (t + 1 >= longest) break;
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  TextTable summary(
      {"scheme", "mean completion", "rounds to all-complete", "verified"});
  auto row = [&](const char* name, const metrics::MonteCarloResult& r) {
    summary.add_row({name, TextTable::num(r.mean_completion.mean(), 1),
                     TextTable::num(r.rounds_to_finish.mean(), 1),
                     r.payloads_verified ? "yes" : "NO"});
  };
  row("WC", wc);
  row("LTNC", ltnc);
  row("RLNC", rlnc);
  std::cout << "\n";
  summary.print(std::cout);
  std::cout << "\npaper shape: RLNC fastest, LTNC slightly behind (~ +30% at "
               "k=2048), WC far slower.\n";
  return 0;
}
