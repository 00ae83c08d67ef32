// LTNC's recoding machinery (paper §III): the statistics the paper
// reports inline, each mechanism switched off in turn, and the Robust
// Soliton parameters.
//
// In-text statistics, against the values the paper reports:
//   §III-B.1  first degree accepted 99.9 %, avg 1.02 retries otherwise
//   §III-B.2  target degree reached 95 %, mean relative deviation 0.2 %
//   §III-B.3  relative σ of native-packet occurrences 0.1 %
//   §III-C.1  redundancy detection removes 31 % of redundant insertions
//             (measured as payload overhead: useless packets that crossed
//             the wire and landed in the data structures)
//
// Ablations (LtncConfig::enable_*), each ON against OFF:
//   §III-B.1  reachability bounds discard degree draws the node cannot
//             build; without them builds fall short of their targets
//   §III-B.3  refinement swaps over-represented natives for rare ones,
//             flattening the occurrence spread belief propagation needs
//   §III-C.1  redundancy detection; with the binary feedback channel it
//             also aborts transfers, so OFF shows up as overhead
//
// Robust Soliton (c, δ): the paper fixes "the optimal value" but does not
// publish it, so the sweep shows how much of LTNC's overhead and
// completion time is parameter tuning rather than algorithm.
//
// Scale: N = 128, k = 512, 3 runs; --full raises k to 2048 everywhere
// and runs the in-text table at the paper's N = 1000 and 25 runs. Tables
// that ask for the same configuration and run count read one sweep: the
// in-text table shares the ablations' ON run and detector-OFF run unless
// --full gives it its own scale.
//
// Exits 1 if any run fails payload verification.
#include <initializer_list>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"

namespace {

using namespace ltnc;
using metrics::MonteCarloResult;

/// One row of an ON/OFF table: its name, its value in a result, and its
/// printed precision.
struct Metric {
  const char* name;
  double (*of)(const MonteCarloResult&);
  int precision;
};

const Metric kOverhead{
    "communication overhead %",
    [](const MonteCarloResult& r) { return 100 * r.overhead.mean(); }, 1};
const Metric kCompletion{
    "mean completion round",
    [](const MonteCarloResult& r) { return r.mean_completion.mean(); }, 1};

void print_on_off(const bench::Args& args, const std::string& title,
                  const std::string& scale, const std::string& mechanism,
                  const MonteCarloResult& on, const MonteCarloResult& off,
                  std::initializer_list<Metric> metrics) {
  bench::print_header(title, scale);
  TextTable table({"metric", mechanism + " ON", mechanism + " OFF"});
  for (const Metric& m : metrics) {
    table.add_row({m.name, TextTable::num(m.of(on), m.precision),
                   TextTable::num(m.of(off), m.precision)});
  }
  bench::print_table(table, args.csv);
}

dissem::SimConfig without(dissem::SimConfig cfg,
                          bool core::LtncConfig::*mechanism) {
  cfg.ltnc.*mechanism = false;
  return cfg;
}

/// Percent of the detector-OFF overhead that the detector removes.
double reduction_pct(const MonteCarloResult& on, const MonteCarloResult& off) {
  return off.overhead.mean() > 0.0
             ? 100.0 * (1.0 - on.overhead.mean() / off.overhead.mean())
             : 0.0;
}

void print_intext(const bench::Args& args, const dissem::SimConfig& cfg,
                  std::size_t runs, const MonteCarloResult& ltnc,
                  const MonteCarloResult& no_detector) {
  bench::print_header(
      "In-text statistics of LTNC's recoding machinery (paper §III)",
      "N = " + std::to_string(cfg.num_nodes) +
          ", k = " + std::to_string(cfg.k) + ", runs = " +
          std::to_string(runs) +
          (args.full ? " [paper scale]" : " [default scale; --full for paper]"));
  TextTable table({"statistic", "paper", "measured"});
  table.add_row({"first degree accepted", "99.9%",
                 TextTable::num(100 * ltnc.degree_first_accept_rate, 2) + "%"});
  table.add_row({"avg draws when retried", "1.02 retries",
                 TextTable::num(ltnc.degree_mean_retries, 2) + " retries"});
  table.add_row({"build reaches target degree", "95%",
                 TextTable::num(100 * ltnc.build_target_rate, 1) + "%"});
  table.add_row({"mean relative degree deviation", "0.2%",
                 TextTable::num(100 * ltnc.build_mean_relative_deviation, 2) +
                     "%"});
  table.add_row({"occurrence relative stddev", "0.1%",
                 TextTable::num(100 * ltnc.occurrence_rel_stddev, 2) + "%"});
  table.add_row({"redundant insertions removed", "31%",
                 TextTable::num(reduction_pct(ltnc, no_detector), 1) + "%"});
  bench::print_table(table, args.csv);
  std::cout << "\nnote: paper values were measured at N = 1000, k = 2048, "
               "25 runs; small scales inflate the variance statistics.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  bool verified = true;
  auto ltnc = [&](const dissem::SimConfig& cfg, std::size_t runs) {
    MonteCarloResult r =
        metrics::run_monte_carlo(session::Scheme::kLtnc, cfg, runs);
    verified = verified && r.payloads_verified;
    return r;
  };

  dissem::SimConfig cfg;
  cfg.num_nodes = args.nodes != 0 ? args.nodes : 128;
  cfg.k = args.k != 0 ? args.k : (args.full ? 2048 : 512);
  cfg.payload_bytes = 64;
  cfg.seed = args.seed;
  cfg.max_rounds = 120 * cfg.k;
  const std::size_t runs = args.runs != 0 ? args.runs : 3;
  const std::string scale = "N = " + std::to_string(cfg.num_nodes) +
                            ", k = " + std::to_string(cfg.k) +
                            ", runs = " + std::to_string(runs);

  const MonteCarloResult on = ltnc(cfg, runs);
  const MonteCarloResult no_detector =
      ltnc(without(cfg, &core::LtncConfig::enable_redundancy_detection), runs);

  dissem::SimConfig paper = cfg;
  paper.num_nodes = args.nodes != 0 ? args.nodes : (args.full ? 1000 : 128);
  const std::size_t paper_runs =
      args.runs != 0 ? args.runs : (args.full ? 25 : 3);
  if (paper.num_nodes == cfg.num_nodes && paper_runs == runs) {
    print_intext(args, paper, paper_runs, on, no_detector);
  } else {
    print_intext(
        args, paper, paper_runs, ltnc(paper, paper_runs),
        ltnc(without(paper, &core::LtncConfig::enable_redundancy_detection),
             paper_runs));
  }

  print_on_off(
      args, "Ablation: degree reachability bounds (§III-B.1)", scale,
      "bounds", on,
      ltnc(without(cfg, &core::LtncConfig::enable_reachability_bounds), runs),
      {{"build reaches target %",
        [](const MonteCarloResult& r) { return 100 * r.build_target_rate; },
        1},
       {"mean relative degree deviation %",
        [](const MonteCarloResult& r) {
          return 100 * r.build_mean_relative_deviation;
        },
        2},
       kOverhead, kCompletion});
  std::cout << "\nexpected: OFF accepts unreachable degrees, so builds fall "
               "short of their targets far more often.\n";

  print_on_off(
      args, "Ablation: refinement (Algorithm 2)", scale, "refinement", on,
      ltnc(without(cfg, &core::LtncConfig::enable_refinement), runs),
      {{"occurrence relative stddev %",
        [](const MonteCarloResult& r) { return 100 * r.occurrence_rel_stddev; },
        2},
       kOverhead, kCompletion,
       {"recode ctrl ops / node",
        [](const MonteCarloResult& r) { return r.recode_control_per_node; },
        0}});
  std::cout << "\nexpected: ON keeps the occurrence spread near-flat at the "
               "price of extra recode work.\n";

  print_on_off(
      args, "Ablation: redundancy detection (Algorithm 3)", scale, "detector",
      on, no_detector,
      {kOverhead,
       {"abort rate %",
        [](const MonteCarloResult& r) { return 100 * r.abort_rate.mean(); }, 1},
       kCompletion,
       {"decode ctrl ops / node",
        [](const MonteCarloResult& r) { return r.decode_control_per_node; },
        0}});
  std::cout << "\nredundant payload insertions removed by the detector: "
            << TextTable::num(reduction_pct(on, no_detector), 1)
            << "% (paper: 31%)\n";

  bench::print_header("Ablation: Robust Soliton parameters (c, delta)", scale);
  TextTable soliton({"c", "delta", "mean degree", "overhead %",
                     "mean completion", "converged"});
  for (const double c : {0.03, 0.1, 0.3}) {
    for (const double delta : {0.05, 0.5}) {
      dissem::SimConfig sweep = cfg;
      sweep.max_rounds = 200 * sweep.k;
      sweep.ltnc.soliton.c = c;
      sweep.ltnc.soliton.delta = delta;
      const lt::RobustSoliton rs(sweep.k, sweep.ltnc.soliton);
      const MonteCarloResult mc = ltnc(sweep, runs);
      soliton.add_row({TextTable::num(c, 2), TextTable::num(delta, 2),
                       TextTable::num(rs.mean_degree(), 2),
                       TextTable::num(100 * mc.overhead.mean(), 1),
                       TextTable::num(mc.mean_completion.mean(), 1),
                       std::to_string(mc.runs_fully_converged) + "/" +
                           std::to_string(mc.runs)});
    }
  }
  bench::print_table(soliton, args.csv);
  std::cout << "\nlower c / higher delta -> lighter distribution tail, "
               "cheaper packets, but a weaker ripple; the sweet spot "
               "shifts with k.\n";

  if (!verified) {
    std::cerr << "ablate: a run failed payload verification\n";
    return 1;
  }
  return 0;
}
