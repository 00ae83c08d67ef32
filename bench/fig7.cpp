// Figure 7 — LTNC against WC and RLNC over push gossip, all three panels:
//   7a  convergence: fraction of nodes that decoded all k natives per
//       gossip period, at one code length
//   7b  average time to complete vs code length k
//   7c  communication overhead vs code length k
// 7b and 7c print different columns of one sweep of the three schemes
// over k; 7a runs at its own scale and round cap (80·k, not 120·k).
//
// Paper scale (--full): N = 1000, 25 Monte-Carlo runs, 7a at k = 2048,
// 7b/7c over k ∈ {512 … 4096}. Default: 3 runs, 7a at N = 200, k = 512,
// 7b/7c at N = 128 over k ∈ {128 … 1024}.
//
// Overhead is payload receptions beyond the k each node strictly needs,
// relative to k, averaged over completed nodes. WC and RLNC have *zero*
// overhead by construction — their redundancy detection is exact, so the
// binary feedback channel aborts every useless transfer — which the bench
// verifies rather than assumes. LTNC's detector only sees degree ≤ 3, so
// some non-innovative payloads are paid for.
//
// Exits 1 if any run fails payload verification.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"

namespace {

using namespace ltnc;
using session::Scheme;

/// One Monte-Carlo sweep of each scheme at one configuration.
struct Sweep {
  metrics::MonteCarloResult wc;
  metrics::MonteCarloResult ltnc;
  metrics::MonteCarloResult rlnc;

  Sweep(const dissem::SimConfig& cfg, std::size_t runs)
      : wc(metrics::run_monte_carlo(Scheme::kWc, cfg, runs)),
        ltnc(metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs)),
        rlnc(metrics::run_monte_carlo(Scheme::kRlnc, cfg, runs)) {}

  bool verified() const {
    return wc.payloads_verified && ltnc.payloads_verified &&
           rlnc.payloads_verified;
  }
};

dissem::SimConfig config(std::size_t nodes, std::size_t k,
                         std::size_t rounds_per_block, std::uint64_t seed) {
  dissem::SimConfig cfg;
  cfg.num_nodes = nodes;
  cfg.k = k;
  cfg.payload_bytes = 64;
  cfg.seed = seed;
  cfg.max_rounds = rounds_per_block * k;
  return cfg;
}

/// 7a: the mean convergence traces sampled on a common grid of ~24 rows,
/// then each scheme's completion summary.
void print_convergence(const Sweep& s, bool csv) {
  std::size_t longest =
      std::max({s.wc.convergence_trace.size(), s.ltnc.convergence_trace.size(),
                s.rlnc.convergence_trace.size()});
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
                   TextTable::num(100 * at(s.wc.convergence_trace, t), 1),
                   TextTable::num(100 * at(s.ltnc.convergence_trace, t), 1),
                   TextTable::num(100 * at(s.rlnc.convergence_trace, t), 1)});
    if (t + 1 >= longest) break;
  }
  bench::print_table(table, csv);

  TextTable summary(
      {"scheme", "mean completion", "rounds to all-complete", "verified"});
  auto row = [&](const char* name, const metrics::MonteCarloResult& r) {
    summary.add_row({name, TextTable::num(r.mean_completion.mean(), 1),
                     TextTable::num(r.rounds_to_finish.mean(), 1),
                     r.payloads_verified ? "yes" : "NO"});
  };
  row("WC", s.wc);
  row("LTNC", s.ltnc);
  row("RLNC", s.rlnc);
  std::cout << "\n";
  summary.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const std::size_t runs = args.runs != 0 ? args.runs : (args.full ? 25 : 3);
  const std::string scale =
      "runs = " + std::to_string(runs) +
      (args.full ? " [paper scale]" : " [default scale; --full for paper]");

  const dissem::SimConfig cfg7a =
      config(args.nodes != 0 ? args.nodes : (args.full ? 1000 : 200),
             args.k != 0 ? args.k : (args.full ? 2048 : 512), 80, args.seed);
  bench::print_header(
      "Figure 7a: convergence (fraction of complete nodes vs gossip period)",
      "N = " + std::to_string(cfg7a.num_nodes) +
          ", k = " + std::to_string(cfg7a.k) + ", m = " +
          std::to_string(cfg7a.payload_bytes) + " B (sim), " + scale);
  const Sweep convergence(cfg7a, runs);
  print_convergence(convergence, args.csv);
  std::cout << "\npaper shape: RLNC fastest, LTNC slightly behind (~ +30% at "
               "k=2048), WC far slower.\n";
  bool verified = convergence.verified();

  const std::size_t nodes =
      args.nodes != 0 ? args.nodes : (args.full ? 1000 : 128);
  std::vector<std::size_t> ks =
      args.full ? std::vector<std::size_t>{512, 1024, 2048, 4096}
                : std::vector<std::size_t>{128, 256, 512, 1024};
  if (args.k != 0) ks = {args.k};
  const std::string scale_bc = "N = " + std::to_string(nodes) + ", " + scale;

  bench::print_header("Figure 7b: average time to complete vs code length",
                      scale_bc);
  TextTable completion({"k", "WC", "LTNC", "RLNC", "LTNC/RLNC"});
  TextTable overhead(
      {"k", "LTNC overhead %", "WC %", "RLNC %", "LTNC abort rate %"});
  for (const std::size_t k : ks) {
    const Sweep s(config(nodes, k, 120, args.seed), runs);
    verified = verified && s.verified();
    const double rlnc = s.rlnc.mean_completion.mean();
    completion.add_row({TextTable::integer(static_cast<long long>(k)),
                        TextTable::num(s.wc.mean_completion.mean(), 1),
                        TextTable::num(s.ltnc.mean_completion.mean(), 1),
                        TextTable::num(rlnc, 1),
                        TextTable::num(s.ltnc.mean_completion.mean() /
                                           (rlnc > 0 ? rlnc : 1.0),
                                       3)});
    overhead.add_row({TextTable::integer(static_cast<long long>(k)),
                      TextTable::num(100 * s.ltnc.overhead.mean(), 1),
                      TextTable::num(100 * s.wc.overhead.mean(), 2),
                      TextTable::num(100 * s.rlnc.overhead.mean(), 2),
                      TextTable::num(100 * s.ltnc.abort_rate.mean(), 1)});
  }
  bench::print_table(completion, args.csv);
  std::cout << "\npaper shape: WC slowest by far; LTNC within ~1.3x of RLNC, "
               "ratio shrinking with k.\n";

  bench::print_header("Figure 7c: communication overhead vs code length",
                      scale_bc);
  bench::print_table(overhead, args.csv);
  std::cout << "\npaper shape: LTNC ~20% at k = 2048, decreasing with k; "
               "WC and RLNC exactly 0.\n";

  if (!verified) {
    std::cerr << "fig7: a run failed payload verification\n";
    return 1;
  }
  return 0;
}
