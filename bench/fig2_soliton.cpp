// Figure 2 — "Robust Soliton: optimal distribution of degrees for encoded
// packets": regenerates the distribution the paper plots (log-log, k =
// 2048) plus the summary statistics LT coding depends on.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "lt/soliton.hpp"

int main(int argc, char** argv) {
  using namespace ltnc;
  const auto args = bench::Args::parse(argc, argv);
  const std::size_t k = args.k != 0 ? args.k : 2048;
  const lt::RobustSolitonParams params{};
  const lt::RobustSoliton rs(k, params);
  const auto ideal = lt::ideal_soliton_weights(k);

  bench::print_header(
      "Figure 2: Robust Soliton degree distribution",
      "k = " + std::to_string(k) + ", c = " + TextTable::num(params.c, 2) +
          ", delta = " + TextTable::num(params.delta, 2) +
          ", spike R = " + TextTable::num(rs.ripple(), 1));

  TextTable table({"degree", "ideal rho(d)", "robust mu(d)"});
  auto sci = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", v);
    return std::string(buf);
  };
  // Log-spaced degrees as on the paper's log-log axes, plus the spike
  // neighbourhood.
  const auto spike =
      static_cast<std::size_t>(static_cast<double>(k) / rs.ripple());
  std::vector<std::size_t> degrees{1, 2, 3, 4, 5, 8, 10, 16, 32, 64, 100};
  for (std::size_t d : {spike - 1, spike, spike + 1, 100 + spike}) {
    if (d >= 1 && d <= k) degrees.push_back(d);
  }
  degrees.push_back(1000);
  degrees.push_back(k);
  std::sort(degrees.begin(), degrees.end());
  degrees.erase(std::unique(degrees.begin(), degrees.end()), degrees.end());
  for (std::size_t d : degrees) {
    if (d < 1 || d > k) continue;
    table.add_row({TextTable::integer(static_cast<long long>(d)),
                   sci(ideal[d - 1]), sci(rs.probability(d))});
  }
  bench::print_table(table, args.csv);

  double mass12 = rs.probability(1) + rs.probability(2);
  std::cout << "\nmass at degree 1-2: " << TextTable::num(100 * mass12, 1)
            << "% (paper: 'more than 50% of degree 1 or 2' incl. degree 3: "
            << TextTable::num(100 * (mass12 + rs.probability(3)), 1)
            << "%)\n";
  std::cout << "mean degree: " << TextTable::num(rs.mean_degree(), 2)
            << " (Theta(log k), log k = "
            << TextTable::num(std::log(static_cast<double>(k)), 2) << ")\n";
  return 0;
}
