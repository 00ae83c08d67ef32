// live_stream — a real low-latency stream over UDP loopback.
//
// One sender chunks a synthetic live feed into fixed-size blocks at
// --fps, LT-encodes each block, and pushes symbols to N receivers under
// an earliest-deadline-first budget; each receiver decodes, verifies and
// scores every block against its --deadline-ms. Completion latencies
// land in a telemetry registry (p50/p99/p999 printed at the end;
// --prom writes the Prometheus exposition, --trace the sender endpoint's
// Chrome trace).
//
//   ./build/examples/live_stream [receivers] [blocks]
//       [--block-bytes N] [--symbol-bytes N] [--fps N] [--deadline-ms N]
//       [--loss P] [--adaptive] [--overhead E] [--seed S]
//       [--prom FILE] [--trace FILE]
//
// Exits nonzero unless every receiver decoded at least one block — the
// CI smoke contract.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "stream/harness.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

int main(int argc, char** argv) {
  std::size_t receivers = 2;
  std::uint64_t blocks = 50;
  std::size_t block_bytes = 4096;
  std::size_t symbol_bytes = 64;
  std::uint64_t fps = 100;
  std::uint64_t deadline_ms = 50;
  double loss = 0.0;
  bool adaptive = false;
  double overhead = 1.9;
  std::uint64_t seed = 1;
  std::string prom_path;
  std::string trace_path;

  std::size_t positional = 0;
  auto flag_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = nullptr;
    if (arg == "--block-bytes") {
      if ((v = flag_value(i)) == nullptr) return 2;
      block_bytes = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--symbol-bytes") {
      if ((v = flag_value(i)) == nullptr) return 2;
      symbol_bytes = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--fps") {
      if ((v = flag_value(i)) == nullptr) return 2;
      fps = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--deadline-ms") {
      if ((v = flag_value(i)) == nullptr) return 2;
      deadline_ms = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--loss") {
      if ((v = flag_value(i)) == nullptr) return 2;
      loss = std::atof(v);
    } else if (arg == "--adaptive") {
      adaptive = true;
    } else if (arg == "--overhead") {
      if ((v = flag_value(i)) == nullptr) return 2;
      overhead = std::atof(v);
    } else if (arg == "--seed") {
      if ((v = flag_value(i)) == nullptr) return 2;
      seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--prom") {
      if ((v = flag_value(i)) == nullptr) return 2;
      prom_path = v;
    } else if (arg == "--trace") {
      if ((v = flag_value(i)) == nullptr) return 2;
      trace_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: live_stream [receivers] [blocks] [--block-bytes N]"
                   " [--symbol-bytes N] [--fps N] [--deadline-ms N]"
                   " [--loss P] [--adaptive] [--overhead E] [--seed S]"
                   " [--prom FILE] [--trace FILE]\n";
      return 0;
    } else if (positional == 0) {
      receivers = static_cast<std::size_t>(std::atoll(argv[i]));
      ++positional;
    } else {
      blocks = static_cast<std::uint64_t>(std::atoll(argv[i]));
      ++positional;
    }
  }
  if (receivers == 0 || blocks == 0 || fps == 0 || symbol_bytes == 0 ||
      block_bytes % symbol_bytes != 0) {
    std::cerr << "live_stream: bad shape (need receivers > 0, blocks > 0, "
                 "fps > 0, symbol-bytes dividing block-bytes)\n";
    return 2;
  }

  ltnc::telemetry::Registry registry;
  ltnc::telemetry::FlightRecorder recorder(8192);
  ltnc::stream::SimStreamConfig cfg;
  cfg.stream.block_bytes = block_bytes;
  cfg.stream.symbol_bytes = symbol_bytes;
  cfg.stream.ticks_per_block = 1'000'000 / fps;  // µs between blocks
  cfg.stream.deadline_ticks = deadline_ms * 1'000;
  cfg.stream.total_blocks = blocks;
  cfg.stream.base_overhead = overhead;
  cfg.stream.seed = seed;
  cfg.channel.loss_rate = loss;
  cfg.channel.seed = seed;
  cfg.receivers = receivers;
  cfg.adaptive_budget = adaptive;
  cfg.seed = seed;
  cfg.registry = &registry;
  if (!trace_path.empty()) cfg.recorder = &recorder;
  cfg.link = ltnc::net::Link::kUdp;

  std::cout << "live_stream: " << receivers << " receiver(s), " << blocks
            << " block(s) of " << block_bytes << " B (k=" << cfg.stream.k()
            << ") at " << fps << " fps, deadline " << deadline_ms
            << " ms, loss " << loss << (adaptive ? " (adaptive)" : "")
            << "\n";
  const ltnc::stream::StreamRunStats r = run_sim_stream(cfg);

  const std::uint64_t finalized = r.completed + r.missed;
  std::cout << "  blocks completed  " << r.completed << "/" << finalized
            << "  (miss rate " << r.miss_rate() << ")\n"
            << "  latency µs        p50 " << r.latency_p50 << "  p99 "
            << r.latency_p99 << "  p999 " << r.latency_p999 << "\n"
            << "  goodput           " << r.goodput_bytes << " B over "
            << r.duration_ticks << " µs\n"
            << "  source frames     " << r.source_frames << "  (late/expired "
            << r.expired_frames << ")\n"
            << "  udp datagrams     " << r.link_tx.datagrams_sent << " for "
            << r.link_tx.frames_sent << " frames  ("
            << r.link_tx.frames_per_sent_datagram() << " frames/datagram)\n";

  if (!prom_path.empty()) {
    std::ofstream out(prom_path, std::ios::trunc);
    if (!out) {
      std::cerr << "live_stream: cannot open " << prom_path << "\n";
      return 2;
    }
    ltnc::telemetry::render_prometheus(out, registry.snapshot());
    std::cout << "  prometheus -> " << prom_path << "\n";
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::trunc);
    if (!out) {
      std::cerr << "live_stream: cannot open " << trace_path << "\n";
      return 2;
    }
    recorder.dump_chrome_trace(out);
    std::cout << "  trace -> " << trace_path << "\n";
  }

  if (!r.every_receiver_decoded) {
    std::cerr << "live_stream: FAIL — a receiver decoded no blocks\n";
    return 1;
  }
  if (r.verify_failures != 0) {
    std::cerr << "live_stream: FAIL — " << r.verify_failures
              << " verify failure(s)\n";
    return 1;
  }
  std::cout << "live_stream: OK\n";
  return 0;
}
