// Figure 7c — "Overhead": communication overhead (%) as a function of the
// code length k.
//
// Overhead = payload receptions beyond the k each node strictly needs,
// relative to k, averaged over completed nodes. WC and RLNC have *zero*
// overhead by construction — their redundancy detection is exact, so the
// binary feedback channel aborts every useless transfer — which the bench
// verifies rather than assumes. LTNC's detector only sees degree ≤ 3, so
// some non-innovative payloads are paid for (paper: ~20 % at k = 2048,
// decreasing with k).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ltnc;
  using session::Scheme;
  const auto args = bench::Args::parse(argc, argv);

  const std::size_t nodes = args.nodes != 0 ? args.nodes
                            : (args.full ? 1000 : 128);
  const std::size_t runs = args.runs != 0 ? args.runs : (args.full ? 25 : 3);
  std::vector<std::size_t> ks = args.full
                                    ? std::vector<std::size_t>{512, 1024,
                                                               2048, 4096}
                                    : std::vector<std::size_t>{128, 256, 512,
                                                               1024};
  if (args.k != 0) ks = {args.k};

  bench::print_header(
      "Figure 7c: communication overhead vs code length",
      "N = " + std::to_string(nodes) + ", runs = " + std::to_string(runs) +
          (args.full ? " [paper scale]" : " [default scale; --full for paper]"));

  TextTable table({"k", "LTNC overhead %", "WC %", "RLNC %",
                   "LTNC abort rate %"});
  for (const std::size_t k : ks) {
    dissem::SimConfig cfg;
    cfg.num_nodes = nodes;
    cfg.k = k;
    cfg.payload_bytes = 64;
    cfg.seed = args.seed;
    cfg.max_rounds = 120 * k;

    const auto ltnc = metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs);
    const auto wc = metrics::run_monte_carlo(Scheme::kWc, cfg, runs);
    const auto rlnc = metrics::run_monte_carlo(Scheme::kRlnc, cfg, runs);
    table.add_row({TextTable::integer(static_cast<long long>(k)),
                   TextTable::num(100 * ltnc.overhead.mean(), 1),
                   TextTable::num(100 * wc.overhead.mean(), 2),
                   TextTable::num(100 * rlnc.overhead.mean(), 2),
                   TextTable::num(100 * ltnc.abort_rate.mean(), 1)});
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\npaper shape: LTNC ~20% at k = 2048, decreasing with k; "
               "WC and RLNC exactly 0.\n";
  return 0;
}
