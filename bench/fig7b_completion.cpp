// Figure 7b — "Average time to complete" as a function of the code length
// k, for WC / LTNC / RLNC.
//
// Paper sweep: k ∈ {512 … 4096} at N = 1000, 25 runs. Default here:
// k ∈ {128, 256, 512, 1024} at N = 128, 3 runs. Expected shape: all grow
// ~linearly in k; WC ≫ LTNC ≳ RLNC, and LTNC's relative gap to RLNC
// narrows as k grows.
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
      "Figure 7b: average time to complete vs code length",
      "N = " + std::to_string(nodes) + ", runs = " + std::to_string(runs) +
          (args.full ? " [paper scale]" : " [default scale; --full for paper]"));

  TextTable table({"k", "WC", "LTNC", "RLNC", "LTNC/RLNC"});
  for (const std::size_t k : ks) {
    dissem::SimConfig cfg;
    cfg.num_nodes = nodes;
    cfg.k = k;
    cfg.payload_bytes = 64;
    cfg.seed = args.seed;
    cfg.max_rounds = 120 * k;

    const auto wc = metrics::run_monte_carlo(Scheme::kWc, cfg, runs);
    const auto ltnc = metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs);
    const auto rlnc = metrics::run_monte_carlo(Scheme::kRlnc, cfg, runs);
    table.add_row(
        {TextTable::integer(static_cast<long long>(k)),
         TextTable::num(wc.mean_completion.mean(), 1),
         TextTable::num(ltnc.mean_completion.mean(), 1),
         TextTable::num(rlnc.mean_completion.mean(), 1),
         TextTable::num(
             ltnc.mean_completion.mean() /
                 (rlnc.mean_completion.mean() > 0
                      ? rlnc.mean_completion.mean()
                      : 1.0),
             3)});
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\npaper shape: WC slowest by far; LTNC within ~1.3x of RLNC, "
               "ratio shrinking with k.\n";
  return 0;
}
