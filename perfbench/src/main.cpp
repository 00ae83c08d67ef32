// ltnc_perfbench — runs one benchmark workload for a fixed time and prints
// every metric it measured as one JSON line (perfbench/run.py selects what
// it reports, and reports 0 for the layers a workload does not call).
//
//   ltnc_perfbench --workload udp_swarm|gossip_ltnc|udp_stream --seed N
//                  --seconds S --trace 0|1 [--short] [--spans FILE]
//                  [--verify-seed-offset X]
//
// The workload is repeated with identical inputs: timings are medians
// over the untraced repetitions, counts must match exactly across every
// repetition (a mismatch is a determinism failure and exits non-zero).
// With --trace 1 the repetitions alternate untraced / traced, so the
// traced run also reports its own overhead against the untraced ones.
// Any verification failure or stall exits non-zero without a result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string spans_path;
  std::uint64_t verify_seed_offset = 0;
};

struct Workload {
  const char* name;
  RepResult (*run)(const WorkloadOptions&, Tracer&);
};

constexpr Workload kWorkloads[] = {
    {"udp_swarm", &run_udp_swarm},
    {"gossip_ltnc", &run_gossip_ltnc},
    {"udp_stream", &run_udp_stream},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ltnc_perfbench: %s\nusage: ltnc_perfbench --workload "
               "udp_swarm|gossip_ltnc|udp_stream --seed N --seconds S --trace 0|1 "
               "[--short] [--spans FILE] [--verify-seed-offset X]\n",
               why);
  std::exit(64);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--short") {
      a.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string_view(value) == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else if (flag == "--verify-seed-offset") {
      a.verify_seed_offset = std::strtoull(value, nullptr, 10);
    } else {
      usage("unknown flag");
    }
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double op_mean_us(const RepResult& rep, Op op) {
  const OpTotals& t = rep.ops[static_cast<std::size_t>(op)];
  return t.calls == 0 ? 0.0 : t.total_ns / static_cast<double>(t.calls) * 1e-3;
}

double layer_self_share(const RepResult& rep, std::string_view layer) {
  double self_ns = 0.0;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (layer == op_layer(static_cast<Op>(i))) self_ns += rep.ops[i].self_ns;
  }
  return ratio(self_ns, rep.timed_s * 1e9);
}

double goodput(const RepResult& r) { return ratio(r.verified_bytes, r.timed_s) * 1e-6; }

double tail_of(const RepResult& r) {
  return percentile(r.completion_ms, tail_percentile(r.completion_ms.size()));
}

template <class F>
double median_of(const std::vector<const RepResult*>& reps, F&& f) {
  std::vector<double> v;
  for (const RepResult* r : reps) v.push_back(f(*r));
  return median(v);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ltnc_perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "index\tlayer\top\tstart_ns\tend_ns\tparent\trequest\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%s\t%lld\t%lld\t%d\t%llu\n", i, op_layer(s.op),
                 op_name(s.op), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(f);
}

/// A JSON number with `digits` significant digits; null when not finite
/// (a repetition whose tail is a missed block).
std::string number(double value, int digits = 6) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  return buf;
}

void print_metric(std::string& json, bool& first, const std::string& name, double value,
                  const std::string& unit) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  json += first ? "" : ", ";
  first = false;
  json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload");
  const bool stream = args.workload == "udp_stream";

  rusage usage_start{};
  getrusage(RUSAGE_SELF, &usage_start);
  const std::int64_t begin = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(args.seconds * 1e9);
  // udp_stream repetitions last as long as their block schedule, so their
  // number is fixed up front; the others repeat while time remains.
  const std::size_t min_reps = args.trace ? 2 : 1;
  std::size_t fixed_reps = 0;
  if (stream) {
    const double per_rep = udp_stream_rep_seconds() + 0.3;
    fixed_reps = args.short_mode ? min_reps
                                 : std::max<std::size_t>(
                                       min_reps, static_cast<std::size_t>(args.seconds / per_rep));
  } else if (args.short_mode) {
    fixed_reps = 2;
  }

  WorkloadOptions options;
  options.seed = args.seed;
  options.verify_seed_offset = args.verify_seed_offset;
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  std::vector<double> probes;
  std::vector<Span> last_spans;
  std::optional<std::size_t> reference;  // first complete repetition
  for (std::size_t i = 0;; ++i) {
    if (fixed_reps != 0 ? i >= fixed_reps : i >= min_reps && now_ns() - begin >= budget) break;
    probes.push_back(host_probe_ms());
    const bool traced_rep = args.trace && i % 2 == 1;
    const std::int64_t rep_start = now_ns();
    Tracer tracer(traced_rep);
    RepResult rep = workload->run(options, tracer);
    if (traced_rep) {
      rep.ops = summarize(tracer.spans());
      last_spans = tracer.spans();
      if (tracer.dropped() != 0) {
        std::fprintf(stderr, "ltnc_perfbench: span buffer full, %llu spans not recorded\n",
                     static_cast<unsigned long long>(tracer.dropped()));
      }
    }
    if (rep.verify_failures != 0 || rep.stalls != 0) {
      std::fprintf(stderr,
                   "{\"error\": \"%s\", \"delivered_ratio\": %.17g, \"verify_failures\": %llu, "
                   "\"attempted\": %llu}\n",
                   rep.stalls != 0 ? "stall" : "verification failed",
                   ratio(static_cast<double>(rep.verified), static_cast<double>(rep.attempted)),
                   static_cast<unsigned long long>(rep.verify_failures),
                   static_cast<unsigned long long>(rep.attempted));
      return 2;
    }
    // Counts must repeat exactly. Only a host stall past a deadline of the
    // open-loop stream (a missed block, or a block retired before its
    // budget was sent) may change them, so such repetitions are left out
    // of the comparison.
    const bool complete = rep.verified == rep.attempted && rep.schedule_slips == 0;
    if (complete && reference) {
      const auto& a = reps[*reference].counts;
      const auto& b = rep.counts;
      bool same = a.size() == b.size();
      for (std::size_t m = 0; same && m < a.size(); ++m) {
        same = a[m].name == b[m].name && a[m].value == b[m].value;
        if (!same) {
          std::fprintf(stderr, "ltnc_perfbench: count %s changed between repetitions: %.17g vs %.17g\n",
                       a[m].name.c_str(), a[m].value, b[m].value);
        }
      }
      if (!same) return 3;
    }
    reps.push_back(std::move(rep));
    if (complete && !reference) reference = reps.size() - 1;
    traced.push_back(traced_rep);
    // Stop when the next repetition would overrun the budget.
    if (fixed_reps == 0 && i + 1 >= min_reps &&
        now_ns() + (now_ns() - rep_start) - begin > budget) {
      break;
    }
  }

  std::vector<const RepResult*> plain;
  std::vector<const RepResult*> with_trace;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t schedule_slips = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    (traced[i] ? with_trace : plain).push_back(&reps[i]);
    attempted += reps[i].attempted;
    failed += reps[i].attempted - reps[i].verified;
    schedule_slips += reps[i].schedule_slips;
  }
  rusage usage_end{};
  getrusage(RUSAGE_SELF, &usage_end);

  std::map<std::string, std::pair<double, std::string>> metrics;
  const auto put = [&](const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  };
  // End to end, from the untraced repetitions.
  put("setup_s", median_of(plain, [](const RepResult& r) { return r.setup_s; }), "s");
  put("peak_rss_mb", static_cast<double>(usage_end.ru_maxrss) * 1024.0 * 1e-6, "MB");
  put("goodput_mb_s", median_of(plain, goodput), "MB/s");
  put("cpu_s_per_gb",
      median_of(plain, [](const RepResult& r) { return ratio(r.cpu_s, r.verified_bytes * 1e-9); }),
      "s/GB");
  put("completion_ms_p50",
      median_of(plain, [](const RepResult& r) { return percentile(r.completion_ms, 50.0); }),
      "ms");
  put("completion_ms_tail", median_of(plain, tail_of), "ms");
  put("delivered_ratio", ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted)),
      "ratio");
  // Counts (the same on every complete repetition, so they are read from
  // the first one) and timing-dependent measures (median of the untraced
  // ones).
  const auto value_of = [](const std::vector<Metric>& list, const std::string& name) {
    for (const Metric& x : list) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };
  for (const Metric& m : reps[reference.value_or(0)].counts) put(m.name, m.value, m.unit);
  for (const Metric& m : reps.front().measured) {
    put(m.name,
        median_of(plain, [&](const RepResult& r) { return value_of(r.measured, m.name); }),
        m.unit);
  }
  // Per-layer times, from the traced repetitions.
  if (!with_trace.empty()) {
    const auto per_frame = [](double ns, std::uint64_t frames) {
      return ratio(ns, static_cast<double>(frames)) * 1e-3;
    };
    put("net.send_us_per_frame", median_of(with_trace, [&](const RepResult& r) {
          return per_frame(r.ops[static_cast<std::size_t>(Op::kSendBatch)].total_ns, r.frames_sent);
        }), "us");
    put("net.recv_us_per_frame", median_of(with_trace, [&](const RepResult& r) {
          return per_frame(r.ops[static_cast<std::size_t>(Op::kRecvBatch)].total_ns,
                           r.frames_received);
        }), "us");
    const std::pair<const char*, Op> per_call[] = {
        {"session.handle_frame_us", Op::kHandleFrame}, {"session.offer_us", Op::kOfferPacket},
        {"session.poll_transmit_us", Op::kPollTransmit}, {"lt.encode_us", Op::kEncode},
        {"lt.verify_us", Op::kVerify}, {"stream.advance_us", Op::kAdvance},
        {"stream.push_us", Op::kPushSymbol}, {"stream.ingest_us", Op::kIngest},
        {"stream.finalize_us", Op::kFinalizeDue}};
    for (const auto& [name, op] : per_call) {
      put(name, median_of(with_trace, [op = op](const RepResult& r) { return op_mean_us(r, op); }),
          "us");
    }
    put("dissemination.step_ms",
        median_of(with_trace, [](const RepResult& r) { return op_mean_us(r, Op::kStep) * 1e-3; }),
        "ms");
    for (const char* layer : {"bench", "net", "session", "lt", "store", "dissemination", "stream"}) {
      put(std::string(layer) + ".self_share",
          median_of(with_trace, [&](const RepResult& r) { return layer_self_share(r, layer); }),
          "ratio");
    }
    put("trace.goodput_ratio", ratio(median_of(with_trace, goodput), median_of(plain, goodput)),
        "ratio");
    const auto p50 = [](const RepResult& r) { return percentile(r.completion_ms, 50.0); };
    put("trace.completion_p50_ratio", ratio(median_of(with_trace, p50), median_of(plain, p50)),
        "ratio");
  }
  put("host.probe_ms", median(probes), "ms");
  put("proc.involuntary_switches",
      static_cast<double>(usage_end.ru_nivcsw - usage_start.ru_nivcsw), "count");
  put("proc.minor_faults", static_cast<double>(usage_end.ru_minflt - usage_start.ru_minflt),
      "count");

  std::string json = "{\"workload\": \"" + args.workload + "\", \"seed\": " +
                     std::to_string(args.seed) + ", \"repetitions\": " +
                     std::to_string(plain.size()) + ", \"traced_repetitions\": " +
                     std::to_string(with_trace.size()) +
                     ", \"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"schedule_slips\": " + std::to_string(schedule_slips) +
                     ", \"tail_percentile\": ";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", tail_percentile(reps.front().completion_ms.size()));
  json += buf;
  json += ", \"samples_per_repetition\": " + std::to_string(reps.front().completion_ms.size());
  // Per-repetition timings, for judging noise within a run.
  json += ", \"per_repetition\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    std::snprintf(buf, sizeof(buf), "%s{\"traced\": %s, ", i == 0 ? "" : ", ",
                  traced[i] ? "true" : "false");
    json += buf;
    json += "\"probe_ms\": " + number(probes[i], 7) + ", \"setup_s\": " + number(r.setup_s) +
            ", \"goodput_mb_s\": " + number(goodput(r)) +
            ", \"completion_ms_p50\": " + number(percentile(r.completion_ms, 50.0)) +
            ", \"completion_ms_tail\": " + number(tail_of(r)) + "}";
  }
  json += "]";
  // The exact counts, for run.py's self-test.
  json += ", \"counts\": [\"delivered_ratio\"";
  for (const Metric& m : reps.front().counts) json += ", \"" + m.name + "\"";
  json += "]";
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!std::isfinite(vu.first)) {
      std::fprintf(stderr, "ltnc_perfbench: metric %s is not finite (delivered_ratio %.17g)\n",
                   name.c_str(), metrics["delivered_ratio"].first);
      return 4;
    }
    print_metric(json, first, name, vu.first, vu.second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!args.spans_path.empty() && !last_spans.empty()) write_spans(args.spans_path, last_spans);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ltnc_perfbench: %s\n", e.what());
    return 1;
  }
}
