// Command-line driver for the epidemic dissemination simulator — the tool
// a downstream user reaches for to explore the design space without
// writing code: any scheme, any scale, feedback modes, loss, churn and
// wireless overhearing, with a one-screen result summary.
//
//   ./build/examples/epidemic_sim --scheme=ltnc --nodes=200 --k=512
//   ./build/examples/epidemic_sim --scheme=rlnc --loss=0.2 --churn=0.05
//   ./build/examples/epidemic_sim --scheme=ltnc --feedback=smart
//   ./build/examples/epidemic_sim --scheme=wc --overhear=3 --trace
//   ./build/examples/epidemic_sim --engine=event --stats-period=500
//       --prom=/tmp/ltnc.prom --trace=/tmp/trace.json
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "common/table.hpp"
#include "dissemination/event_engine.hpp"
#include "dissemination/simulation.hpp"
#include "metrics/emitter.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ltnc;
using session::FeedbackMode;
using session::Scheme;

[[noreturn]] void usage() {
  std::cout <<
      "epidemic_sim — push-gossip dissemination simulator (LTNC paper)\n"
      "  --scheme=ltnc|rlnc|wc     coding scheme            [ltnc]\n"
      "  --nodes=N                 network size             [200]\n"
      "  --k=K                     native packets           [512]\n"
      "  --m=BYTES                 payload bytes            [64]\n"
      "  --seed=S                  RNG seed                 [1]\n"
      "  --aggressiveness=F        recode threshold (of k)  [0.01]\n"
      "  --feedback=none|binary|smart                       [binary]\n"
      "  --loss=P                  payload loss probability [0]\n"
      "  --churn=P                 node crash prob / round  [0]\n"
      "  --overhear=N              wireless bystanders      [0]\n"
      "  --sampler=uniform|gossip  peer sampling service    [uniform]\n"
      "  --max-rounds=R            safety cap               [120*k]\n"
      "  --engine=lockstep|event|compat  driver             [lockstep]\n"
      "      lockstep: the paper's every-node-every-round loop\n"
      "      event:    discrete-event engine, active nodes only (big N)\n"
      "      compat:   event engine pinned to the lockstep trajectory\n"
      "  --metrics=FILE            per-run record (.json or .csv)\n"
      "  --trace                   print the convergence trace\n"
      "  --stats-period=MS         live telemetry dump every MS wall-clock\n"
      "                            ms (Prometheus text on stdout)\n"
      "  --prom=FILE               rewrite FILE with the exposition at\n"
      "                            every dump (and once at exit)\n"
      "  --trace=FILE              dump the flight recorder (protocol\n"
      "                            events) as Chrome trace_event JSON\n";
  std::exit(0);
}

/// Live-telemetry plumbing shared by both engines: the registry, the
/// gauges the driver refreshes before each dump, and the dump itself.
struct LiveStats {
  std::uint64_t period_ms = 0;
  std::string prom_path;
  telemetry::Registry registry;
  telemetry::Gauge* round_gauge = nullptr;
  telemetry::Gauge* complete_gauge = nullptr;
  telemetry::Gauge* armed_gauge = nullptr;             // event engine only
  telemetry::Gauge* wheel_gauge = nullptr;             // event engine only
  std::chrono::steady_clock::time_point last_dump;
  std::chrono::steady_clock::time_point last_rate;
  std::uint64_t events_at_rate = 0;

  void init() {
    round_gauge = &registry.gauge("ltnc_sim_round");
    complete_gauge = &registry.gauge("ltnc_sim_nodes_complete");
    last_dump = last_rate = std::chrono::steady_clock::now();
  }

  void dump(std::uint64_t events_processed, std::size_t armed,
            std::size_t wheel, std::size_t round, std::size_t complete) {
    round_gauge->set(static_cast<std::int64_t>(round));
    complete_gauge->set(static_cast<std::int64_t>(complete));
    if (armed_gauge != nullptr) {
      armed_gauge->set(static_cast<std::int64_t>(armed));
      wheel_gauge->set(static_cast<std::int64_t>(wheel));
    }
    const auto now = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now - last_rate).count();
    const double rate =
        dt > 0 ? static_cast<double>(events_processed - events_at_rate) / dt
               : 0.0;
    last_rate = now;
    events_at_rate = events_processed;
    const telemetry::Snapshot snap = registry.snapshot();
    std::cout << "# --- telemetry round=" << round << " complete=" << complete;
    if (armed_gauge != nullptr) {
      std::cout << " events_per_sec=" << static_cast<std::uint64_t>(rate);
    }
    std::cout << " ---\n";
    telemetry::render_prometheus(std::cout, snap);
    if (!prom_path.empty()) {
      std::ofstream out(prom_path, std::ios::trunc);
      if (out) telemetry::render_prometheus(out, snap);
    }
  }

  bool due() {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_dump < std::chrono::milliseconds(period_ms)) return false;
    last_dump = now;
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  dissem::SimConfig cfg;
  cfg.num_nodes = 200;
  cfg.k = 512;
  cfg.payload_bytes = 64;
  Scheme scheme = Scheme::kLtnc;
  bool trace = false;
  std::size_t max_rounds = 0;
  std::string engine = "lockstep";
  std::string metrics_path;
  std::string trace_path;
  LiveStats live;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto val = [&](std::string_view p) {
      return std::string(arg.substr(p.size()));
    };
    if (arg.rfind("--scheme=", 0) == 0) {
      if (!session::scheme_from_string(val("--scheme="), scheme)) usage();
    } else if (arg.rfind("--nodes=", 0) == 0) {
      cfg.num_nodes = std::stoul(val("--nodes="));
    } else if (arg.rfind("--k=", 0) == 0) {
      cfg.k = std::stoul(val("--k="));
    } else if (arg.rfind("--m=", 0) == 0) {
      cfg.payload_bytes = std::stoul(val("--m="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      cfg.seed = std::stoull(val("--seed="));
    } else if (arg.rfind("--aggressiveness=", 0) == 0) {
      cfg.aggressiveness = std::stod(val("--aggressiveness="));
    } else if (arg.rfind("--feedback=", 0) == 0) {
      if (!session::feedback_from_string(val("--feedback="), cfg.feedback)) {
        usage();
      }
    } else if (arg.rfind("--loss=", 0) == 0) {
      cfg.loss_rate = std::stod(val("--loss="));
    } else if (arg.rfind("--churn=", 0) == 0) {
      cfg.churn_rate = std::stod(val("--churn="));
    } else if (arg.rfind("--overhear=", 0) == 0) {
      cfg.overhear_count = std::stoul(val("--overhear="));
    } else if (arg.rfind("--sampler=", 0) == 0) {
      cfg.sampler.kind = val("--sampler=") == "gossip"
                             ? net::PeerSamplerConfig::Kind::kGossipView
                             : net::PeerSamplerConfig::Kind::kUniform;
    } else if (arg.rfind("--max-rounds=", 0) == 0) {
      max_rounds = std::stoul(val("--max-rounds="));
    } else if (arg.rfind("--engine=", 0) == 0) {
      engine = val("--engine=");
      if (engine != "lockstep" && engine != "event" && engine != "compat") {
        usage();
      }
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = val("--metrics=");
    } else if (arg.rfind("--stats-period=", 0) == 0) {
      live.period_ms = std::stoull(val("--stats-period="));
    } else if (arg.rfind("--prom=", 0) == 0) {
      live.prom_path = val("--prom=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = val("--trace=");
    } else if (arg == "--trace") {
      trace = true;
    } else {
      usage();
    }
  }
  cfg.max_rounds = max_rounds != 0 ? max_rounds : 120 * cfg.k;

  std::cout << "scheme=" << session::scheme_name(scheme)
            << " N=" << cfg.num_nodes << " k=" << cfg.k
            << " m=" << cfg.payload_bytes << " seed=" << cfg.seed
            << " engine=" << engine << "\n";
#if !LTNC_TELEMETRY_ENABLED
  if (!trace_path.empty()) {
    std::cout << "note: built with LTNC_TELEMETRY=OFF — the flight "
                 "recorder records nothing; the trace file will be empty\n";
  }
#endif

  live.init();
  telemetry::FlightRecorder recorder(trace_path.empty() ? 8 : 1 << 16);
  telemetry::Histogram& completion_hist =
      live.registry.histogram("ltnc_sim_completion_rounds");

  // Telemetry attach + step loop instead of run(): identical trajectory
  // (run() is exactly `while (!finished()) step()`), but the driver gets a
  // wall-clock hook between rounds for the periodic dump.
  auto drive = [&](auto& sim) -> dissem::SimResult {
    sim.core().set_telemetry(&completion_hist,
                             trace_path.empty() ? nullptr : &recorder);
    if constexpr (requires { sim.set_telemetry(&recorder); }) {
      if (!trace_path.empty()) sim.set_telemetry(&recorder);
      live.registry.counter_fn("ltnc_sim_events_total", {},
                               [&sim] { return sim.events_processed(); });
      live.armed_gauge = &live.registry.gauge("ltnc_sim_armed_pushes");
      live.wheel_gauge = &live.registry.gauge("ltnc_sim_wheel_occupancy");
    }
    while (!sim.finished()) {
      sim.step();
      if (live.period_ms != 0 && live.due()) {
        if constexpr (requires { sim.events_processed(); }) {
          live.dump(sim.events_processed(), sim.armed_pushes(),
                    sim.wheel_size(), sim.round(), sim.nodes_complete());
        } else {
          live.dump(0, 0, 0, sim.round(), sim.nodes_complete());
        }
      }
    }
    std::uint64_t events = 0;  // the lockstep engine counts no events
    if constexpr (requires { sim.events_processed(); }) {
      events = sim.events_processed();
    }
    dissem::SimResult result = sim.core().finalise();
    if (live.period_ms != 0 || !live.prom_path.empty()) {
      // Final dump so short runs still produce one exposition (and the
      // --prom file reflects the finished state), taken while `sim`,
      // whose event count the registry reads, still lives.
      live.dump(events, 0, 0, result.rounds_run,
                result.all_complete ? cfg.num_nodes : 0);
    }
    return result;
  };

  dissem::SimResult res;
  if (engine == "lockstep") {
    dissem::EpidemicSimulation sim(scheme, cfg);
    res = drive(sim);
  } else {
    dissem::EventSimulation sim(scheme, cfg,
                                engine == "compat" ? dissem::EngineMode::kCompat
                                                   : dissem::EngineMode::kScale);
    res = drive(sim);
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << trace_path << "\n";
      return 1;
    }
    recorder.dump_chrome_trace(out);
    std::cout << "flight recorder: " << recorder.size() << " events ("
              << recorder.dropped() << " overwritten) -> " << trace_path
              << "\n";
  }

  if (!metrics_path.empty()) {
    metrics::RunRecord record = metrics::sim_run_record(res);
    record.set("engine", engine);
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot open " << metrics_path << "\n";
      return 1;
    }
    if (metrics_path.size() >= 4 &&
        metrics_path.compare(metrics_path.size() - 4, 4, ".csv") == 0) {
      metrics::write_csv(out, {record});
    } else {
      metrics::write_json(out, {record});
    }
  }

  if (trace) {
    TextTable t({"round", "complete %"});
    const std::size_t step =
        std::max<std::size_t>(1, res.convergence_trace.size() / 20);
    for (std::size_t i = 0; i < res.convergence_trace.size(); i += step) {
      t.add_row({TextTable::integer(static_cast<long long>(i + 1)),
                 TextTable::num(100 * res.convergence_trace[i], 1)});
    }
    t.print(std::cout);
  }

  TextTable summary({"metric", "value"});
  summary.add_row({"all nodes complete", res.all_complete ? "yes" : "NO"});
  summary.add_row({"rounds run",
                   TextTable::integer(static_cast<long long>(res.rounds_run))});
  summary.add_row({"mean completion round",
                   TextTable::num(res.mean_completion(), 1)});
  summary.add_row({"communication overhead",
                   TextTable::num(100 * res.overhead(), 1) + "%"});
  summary.add_row({"transfers attempted / aborted / lost",
                   TextTable::integer(static_cast<long long>(
                       res.traffic.attempts)) + " / " +
                       TextTable::integer(static_cast<long long>(
                           res.traffic.aborted)) + " / " +
                       TextTable::integer(static_cast<long long>(
                           res.traffic.lost))});
  summary.add_row({"payload bytes on the wire",
                   TextTable::integer(static_cast<long long>(
                       res.traffic.payload_bytes))});
  summary.add_row({"session advertises / vetoes (endpoints)",
                   TextTable::integer(static_cast<long long>(
                       res.sessions.advertises_received)) + " / " +
                       TextTable::integer(static_cast<long long>(
                           res.sessions.aborts_sent))});
  summary.add_row({"nodes churned",
                   TextTable::integer(static_cast<long long>(
                       res.nodes_churned))});
  summary.add_row({"useful overheard packets",
                   TextTable::integer(static_cast<long long>(
                       res.overheard_useful))});
  summary.add_row(
      {"decode control ops (total)",
       TextTable::integer(static_cast<long long>(
           res.decode_ops.control_total()))});
  summary.add_row(
      {"recode control ops (total)",
       TextTable::integer(static_cast<long long>(
           res.recode_ops.control_total()))});
  summary.add_row({"payloads verified",
                   res.payloads_verified ? "yes" : "NO"});
  summary.print(std::cout);
  return res.all_complete && res.payloads_verified ? 0 : 1;
}
