// Edge-cache capacity sweep: hit rate, source offload and backhaul bytes
// versus cache capacity, as a fraction of the catalog's working set.
//
//   section "event"   timer-wheel driver, 10^4 users (10^5 with --full),
//                     Zipf(1.0) over 256 contents, k=32, 64-B symbols —
//                     the scale curve
//   section "udp"     the sim driver's loop over loopback UdpPipes at a
//                     coarse capacity grid — the wire-truth curve
//   section "sim"     one SimChannel row under loss (full frame path)
//   section "policy"  LRU and LFU reactive-warming rows at half the
//                     working set (no proactive fill)
//
// The popularity placement is nested by construction (same per-content
// fill stream at every capacity), so the event and udp curves must be
// monotone: hit rate and offload non-decreasing in capacity, backhaul
// non-increasing, and the catalog head fully served at capacity >= the
// working set. The bench asserts this and exits nonzero on violation —
// the CI smoke run turns a placement regression into a red build.
//
// Writes BENCH_cache.json (one flat array; bench/diff_bench.py globs
// it). Flags: --full --seed=S --out=FILE --users=N
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "cache/harness.hpp"
#include "metrics/emitter.hpp"

namespace {

using ltnc::cache::CacheRunStats;
using ltnc::cache::CacheScenario;
using ltnc::cache::Policy;
using ltnc::metrics::RunRecord;

/// The catalog shape shared by every section: Zipf(1.0) over 256
/// contents of k=32 symbols, 64 B each — small enough that the event
/// driver holds 10^5 users in RAM, large enough that capacity choices
/// matter.
CacheScenario base_scenario(std::uint64_t seed) {
  CacheScenario s;
  s.catalog.contents = 256;
  s.catalog.alpha = 1.0;
  s.catalog.k = 32;
  s.catalog.symbol_bytes = 64;
  s.catalog.seed = seed;
  s.cache.policy = Policy::kPopularity;
  s.requests_per_user = 4;
  s.seed = seed;
  return s;
}

RunRecord cache_record(const std::string& section, const std::string& policy,
                       double capacity_frac, const CacheScenario& sc,
                       const CacheRunStats& r, double seconds) {
  RunRecord rec;
  rec.set("section", section);
  rec.set("policy", policy);
  rec.set("capacity_frac", capacity_frac);
  rec.set("capacity_bytes", static_cast<std::uint64_t>(sc.cache.capacity_bytes));
  rec.set("contents", static_cast<std::uint64_t>(sc.catalog.contents));
  rec.set("alpha", sc.catalog.alpha);
  rec.set("k", static_cast<std::uint64_t>(sc.catalog.k));
  rec.set("symbol_bytes", static_cast<std::uint64_t>(sc.catalog.symbol_bytes));
  rec.set("users", static_cast<std::uint64_t>(r.users));
  rec.set("requests", r.requests);
  rec.set("completed", r.completed);
  rec.set("failed", r.failed);
  rec.set("verify_failures", r.verify_failures);
  rec.set("full_hits", r.full_hits);
  rec.set("partial_hits", r.partial_hits);
  rec.set("misses", r.misses);
  rec.set("hit_rate", r.hit_rate());
  rec.set("full_hit_rate", r.full_hit_rate());
  rec.set("head_hit_rate", r.head_hit_rate());
  rec.set("offload", r.offload());
  rec.set("symbols_from_edge", r.symbols_from_edge);
  rec.set("symbols_from_source", r.symbols_from_source);
  rec.set("edge_bytes", r.edge_bytes);
  rec.set("backhaul_bytes", r.backhaul_bytes);
  rec.set("fill_bytes", r.fill_bytes);
  rec.set("evicted_entries", r.evicted_entries);
  rec.set("replacements", r.replacements);
  rec.set("cache_bytes_used", r.cache_bytes_used);
  rec.set("latency_p50", r.latency_p50);
  rec.set("latency_p99", r.latency_p99);
  rec.set("latency_samples", r.latency_samples);
  rec.set("seconds", seconds);
  return rec;
}

struct CurvePoint {
  double frac = 0.0;
  double hit = 0.0;
  double offload = 0.0;
  std::uint64_t backhaul = 0;
};

/// Asserts the capacity curve's shape; returns false (and complains on
/// stderr) when the placement lost its nesting property.
bool check_monotone(const std::string& section,
                    const std::vector<CurvePoint>& curve) {
  bool ok = true;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const CurvePoint& a = curve[i - 1];
    const CurvePoint& b = curve[i];
    if (b.hit + 1e-12 < a.hit) {
      std::cerr << section << ": hit rate fell " << a.hit << " -> " << b.hit
                << " between frac " << a.frac << " and " << b.frac << "\n";
      ok = false;
    }
    if (b.offload + 1e-12 < a.offload) {
      std::cerr << section << ": offload fell " << a.offload << " -> "
                << b.offload << " between frac " << a.frac << " and "
                << b.frac << "\n";
      ok = false;
    }
    if (b.backhaul > a.backhaul) {
      std::cerr << section << ": backhaul rose " << a.backhaul << " -> "
                << b.backhaul << " between frac " << a.frac << " and "
                << b.frac << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_cache.json";
  std::size_t users_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(
          std::atoll(std::string(arg.substr(7)).c_str()));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--users=", 0) == 0) {
      users_override = static_cast<std::size_t>(
          std::atoll(std::string(arg.substr(8)).c_str()));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --full --seed=S --out=FILE --users=N\n";
      return 0;
    }
  }

  std::vector<RunRecord> records;
  bool curves_ok = true;
  double head_at_ws = -1.0;

  const std::size_t ws = ltnc::cache::working_set_bytes(
      base_scenario(seed).catalog, base_scenario(seed).cache);
  std::cerr << "edge_cache: working set = " << ws << " bytes\n";

  // --- event-engine capacity sweep -----------------------------------------
  const std::size_t event_users =
      users_override != 0 ? users_override : (full ? 100'000 : 10'000);
  const std::vector<double> fracs{0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.25};
  std::cerr << "edge_cache: event sweep (" << event_users << " users)\n";
  std::vector<CurvePoint> event_curve;
  for (const double frac : fracs) {
    CacheScenario sc = base_scenario(seed);
    sc.users = event_users;
    sc.cache.capacity_bytes =
        static_cast<std::size_t>(static_cast<double>(ws) * frac);
    const auto start = std::chrono::steady_clock::now();
    const CacheRunStats r = run_event_cache(sc);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::cerr << "  event frac=" << frac << ": hit=" << r.hit_rate()
              << " offload=" << r.offload() << " backhaul=" << r.backhaul_bytes
              << " (" << seconds << "s)\n";
    event_curve.push_back({frac, r.hit_rate(), r.offload(), r.backhaul_bytes});
    if (frac == 1.0) head_at_ws = r.head_hit_rate();
    records.push_back(
        cache_record("event", "popularity", frac, sc, r, seconds));
  }
  curves_ok = check_monotone("event", event_curve) && curves_ok;

  // --- UDP loopback coarse sweep -------------------------------------------
  const std::vector<double> udp_fracs{0.0, 0.5, 1.25};
  std::cerr << "edge_cache: udp sweep\n";
  std::vector<CurvePoint> udp_curve;
  for (const double frac : udp_fracs) {
    ltnc::cache::SimCacheConfig cfg;
    cfg.scenario = base_scenario(seed);
    cfg.scenario.users = 8;
    cfg.scenario.cache.capacity_bytes =
        static_cast<std::size_t>(static_cast<double>(ws) * frac);
    cfg.link = ltnc::net::Link::kUdp;
    const auto start = std::chrono::steady_clock::now();
    const CacheRunStats r = run_sim_cache(cfg);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::cerr << "  udp frac=" << frac << ": hit=" << r.hit_rate()
              << " offload=" << r.offload() << " backhaul=" << r.backhaul_bytes
              << " (" << seconds << "s)\n";
    udp_curve.push_back({frac, r.hit_rate(), r.offload(), r.backhaul_bytes});
    records.push_back(
        cache_record("udp", "popularity", frac, cfg.scenario, r, seconds));
  }
  curves_ok = check_monotone("udp", udp_curve) && curves_ok;

  // --- SimChannel row under loss (full frame path) -------------------------
  {
    ltnc::cache::SimCacheConfig cfg;
    cfg.scenario = base_scenario(seed);
    cfg.scenario.users = 16;
    cfg.scenario.loss_rate = 0.05;
    cfg.scenario.cache.capacity_bytes = ws;
    const auto start = std::chrono::steady_clock::now();
    const CacheRunStats r = run_sim_cache(cfg);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::cerr << "  sim loss=0.05: hit=" << r.hit_rate()
              << " completed=" << r.completed << "/" << r.requests << " ("
              << seconds << "s)\n";
    records.push_back(
        cache_record("sim", "popularity", 1.0, cfg.scenario, r, seconds));
  }

  // --- reactive policies at half the working set ---------------------------
  for (const Policy policy : {Policy::kLru, Policy::kLfu}) {
    CacheScenario sc = base_scenario(seed);
    sc.users = full ? 10'000 : 2'000;
    sc.cache.policy = policy;
    sc.cache.capacity_bytes = ws / 2;
    const auto start = std::chrono::steady_clock::now();
    const CacheRunStats r = run_event_cache(sc);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::cerr << "  policy " << ltnc::cache::policy_name(policy)
              << ": hit=" << r.hit_rate() << " evicted=" << r.evicted_entries
              << " (" << seconds << "s)\n";
    records.push_back(cache_record("policy", ltnc::cache::policy_name(policy),
                                   0.5, sc, r, seconds));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  ltnc::metrics::write_json(out, records);
  std::cout << "wrote " << out_path << "\n";

  if (!curves_ok) {
    std::cerr << "edge_cache: capacity curves are not monotone\n";
    return 1;
  }
  if (head_at_ws < 0.9) {
    std::cerr << "edge_cache: head hit rate " << head_at_ws
              << " < 0.9 at capacity = working set\n";
    return 1;
  }
  return 0;
}
