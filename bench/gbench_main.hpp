// The google-benchmark main of the benches that keep a BENCH_*.json
// baseline (micro_primitives, wire_codec, fig8_cpu). Kept apart from
// bench_util.hpp, which the plain-main figure benches include.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

namespace ltnc::bench {

/// Runs every registered benchmark and returns the exit code. Unless
/// --benchmark_out is given, an unfiltered run also writes google-
/// benchmark JSON to `baseline_file`, so each full run leaves a baseline
/// to diff against; a --benchmark_filter run does not, since its partial
/// file would replace the committed baseline.
inline int run_benchmarks(int argc, char** argv, const char* baseline_file) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag only — "--benchmark_out_format" alone must not suppress
    // the default baseline file.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) filtered = true;
  }
  std::string out_flag = std::string("--benchmark_out=") + baseline_file;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out && !filtered) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ltnc::bench
