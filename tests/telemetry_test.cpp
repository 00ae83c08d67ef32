// Tests for the runtime telemetry layer: histogram bucket boundaries,
// registry get-or-create semantics, snapshot aggregation, snapshots
// racing concurrent writers (the TSan job runs this file), flight
// recorder wraparound ordering, and the Prometheus exposition.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dissemination/event_engine.hpp"
#include "dissemination/simulation.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ltnc::telemetry {
namespace {

// --- histogram bucket boundaries --------------------------------------------

TEST(TelemetryHistogram, BucketOfBoundaries) {
  // Bucket 0 is exactly {0}; bucket i >= 1 is [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  for (std::size_t j = 0; j < 64; ++j) {
    const std::uint64_t pow = std::uint64_t{1} << j;
    EXPECT_EQ(Histogram::bucket_of(pow), j + 1) << "2^" << j;
    EXPECT_EQ(Histogram::bucket_of(pow - 1), j) << "2^" << j << " - 1";
  }
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
}

TEST(TelemetryHistogram, FloorAndCeilTileTheRange) {
  // Every bucket's [floor, ceil] is exactly the values bucket_of maps to
  // it, and consecutive buckets tile u64 with no gap or overlap.
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_ceil(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_ceil(1), 1u);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_floor(i)), i);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_ceil(i)), i);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_ceil(i) + 1, Histogram::bucket_floor(i + 1));
    }
  }
  EXPECT_EQ(Histogram::bucket_ceil(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(TelemetryHistogram, RecordsLandInTheirBuckets) {
  Histogram h;
  h.record(0);
  h.record(0);
  h.record(1);
  h.record(1024);  // 2^10 -> bucket 11
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.bucket_count(64), 1u);
}

TEST(TelemetryHistogram, QuantileEmptyAndSingleBucket) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  Snapshot empty = reg.snapshot();
  ASSERT_NE(empty.find_histogram("h"), nullptr);
  EXPECT_EQ(empty.find_histogram("h")->count(), 0u);
  EXPECT_EQ(empty.find_histogram("h")->quantile(0.5), 0.0);

  for (int i = 0; i < 100; ++i) h.record(0);
  Snapshot zeros = reg.snapshot();
  EXPECT_EQ(zeros.find_histogram("h")->count(), 100u);
  EXPECT_EQ(zeros.find_histogram("h")->quantile(0.5), 0.0);
  EXPECT_EQ(zeros.find_histogram("h")->quantile(0.999), 0.0);
}

TEST(TelemetryHistogram, QuantileRespectsBucketBounds) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  // 90 fast (bucket of 8..15), 10 slow (bucket of 1024..2047): p50 must
  // sit in the fast bucket, p999 in the slow one.
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(1500);
  const Snapshot snap = reg.snapshot();
  const auto* s = snap.find_histogram("h");
  ASSERT_NE(s, nullptr);
  const double p50 = s->quantile(0.5);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 15.0);
  const double p999 = s->quantile(0.999);
  EXPECT_GE(p999, 1024.0);
  EXPECT_LE(p999, 2047.0);
  EXPECT_GT(s->sum_estimate(), 0.0);
}

// --- registry ----------------------------------------------------------------

TEST(TelemetryRegistry, GetOrCreateReturnsStableInstances) {
  Registry reg;
  Counter& a = reg.counter("c", "shard=\"0\"");
  Counter& b = reg.counter("c", "shard=\"1\"");
  Counter& a2 = reg.counter("c", "shard=\"0\"");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);
  a.add(3);
  b.add(4);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  const Snapshot agg = snap.aggregated();
  ASSERT_EQ(agg.counters.size(), 1u);
  EXPECT_EQ(agg.counters[0].value, 7u);
  EXPECT_TRUE(agg.counters[0].label.empty());
}

TEST(TelemetryRegistry, CounterFnReadsItsSourceAtSnapshot) {
  // A reader registers a count that lives elsewhere: the registry keeps
  // no copy, so every snapshot sees the source as it is then.
  Registry reg;
  std::uint64_t shard0 = 3;
  std::atomic<std::uint64_t> shard1{4};
  reg.counter_fn("ltnc_frames_total", "shard=\"0\"", [&] { return shard0; });
  reg.counter_fn("ltnc_frames_total", "shard=\"1\"",
                 [&] { return shard1.load(); });
  reg.counter("ltnc_other_total").add(1);
  shard0 = 10;
  shard1 = 5;

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  std::uint64_t read0 = 0;
  std::uint64_t read1 = 0;
  for (const auto& c : snap.counters) {
    if (c.label == "shard=\"0\"") read0 = c.value;
    if (c.label == "shard=\"1\"") read1 = c.value;
  }
  EXPECT_EQ(read0, 10u);
  EXPECT_EQ(read1, 5u);
  EXPECT_EQ(snap.aggregated().find_counter("ltnc_frames_total")->value, 15u);

  std::ostringstream out;
  render_prometheus(out, snap);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE ltnc_frames_total counter"), std::string::npos);
  EXPECT_NE(text.find("ltnc_frames_total{shard=\"0\"} 10"),
            std::string::npos);

  // Registering (name, label) again replaces the reader.
  reg.counter_fn("ltnc_frames_total", "shard=\"0\"", [] { return 1; });
  const Snapshot again = reg.snapshot();
  ASSERT_EQ(again.counters.size(), 3u);
  EXPECT_EQ(again.aggregated().find_counter("ltnc_frames_total")->value, 6u);
}

// --- snapshot racing writers (exercised under TSan) --------------------------

TEST(TelemetryConcurrency, SnapshotDuringConcurrentWrites) {
  Registry reg;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, &go, w] {
      const std::string label = "shard=\"" + std::to_string(w) + "\"";
      Counter& c = reg.counter("ltnc_test_ops_total", label);
      Histogram& h = reg.histogram("ltnc_test_latency", label);
      Gauge& g = reg.gauge("ltnc_test_level", label);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        c.add(1);
        h.record(i & 0x3FF);
        g.set(static_cast<std::int64_t>(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshots racing the writers: totals must be monotone and torn-free
  // per metric (never exceed the final count, never decrease).
  std::uint64_t last_total = 0;
  for (int i = 0; i < 50; ++i) {
    const Snapshot snap = reg.snapshot().aggregated();
    const auto* c = snap.find_counter("ltnc_test_ops_total");
    if (c != nullptr) {
      EXPECT_GE(c->value, last_total);
      EXPECT_LE(c->value, kWriters * kPerWriter);
      last_total = c->value;
    }
  }
  for (auto& t : writers) t.join();
  const Snapshot final_snap = reg.snapshot().aggregated();
  EXPECT_EQ(final_snap.find_counter("ltnc_test_ops_total")->value,
            kWriters * kPerWriter);
  EXPECT_EQ(final_snap.find_histogram("ltnc_test_latency")->count(),
            kWriters * kPerWriter);
}

// --- flight recorder ---------------------------------------------------------

TEST(TelemetryFlightRecorder, OrderedBeforeWraparound) {
  FlightRecorder rec(8);
  EXPECT_EQ(rec.capacity(), 8u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rec.record(TracePoint::kPayloadSent, /*ts=*/i, /*actor=*/1, /*detail=*/i);
  }
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  const auto records = rec.ordered();
  ASSERT_EQ(records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(records[i].ts, i);
}

TEST(TelemetryFlightRecorder, WraparoundKeepsNewestInOrder) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(TracePoint::kComplete, /*ts=*/i, /*actor=*/0, /*detail=*/i);
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const auto records = rec.ordered();
  ASSERT_EQ(records.size(), 8u);
  // The survivors are the last 8 (ts 12..19), oldest first.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(records[i].ts, 12 + i);
    EXPECT_EQ(records[i].detail, 12 + i);
  }
}

TEST(TelemetryFlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(100);
  EXPECT_EQ(rec.capacity(), 128u);
  FlightRecorder tiny(1);
  EXPECT_EQ(tiny.capacity(), 8u);  // documented minimum
}

TEST(TelemetryFlightRecorder, ChromeTraceDumpIsWellFormed) {
  FlightRecorder rec(8);
  rec.record(TracePoint::kAdvertiseSent, 10, 3, 42);
  rec.record(TracePoint::kAckRecv, 11, 3, 42);
  std::ostringstream out;
  rec.dump_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"advertise_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"ack_recv\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  // No trailing comma before the closing bracket.
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",\n]"), std::string::npos);
}

// --- Prometheus exposition ---------------------------------------------------

TEST(TelemetryExport, PrometheusRendersAllKindsWithLabels) {
  Registry reg;
  reg.counter("ltnc_frames_total", "shard=\"0\"").add(7);
  reg.gauge("ltnc_level").set(-3);
  Histogram& h = reg.histogram("ltnc_lat_ticks");
  h.record(0);
  h.record(3);
  h.record(3);
  std::ostringstream out;
  render_prometheus(out, reg.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE ltnc_frames_total counter"), std::string::npos);
  EXPECT_NE(text.find("ltnc_frames_total{shard=\"0\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ltnc_level gauge"), std::string::npos);
  EXPECT_NE(text.find("ltnc_level -3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ltnc_lat_ticks histogram"), std::string::npos);
  // Cumulative buckets: le="0" sees the zero, le="3" sees all three.
  EXPECT_NE(text.find("ltnc_lat_ticks_bucket{le=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ltnc_lat_ticks_bucket{le=\"3\"} 3"), std::string::npos);
  EXPECT_NE(text.find("ltnc_lat_ticks_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ltnc_lat_ticks_count 3"), std::string::npos);
}

TEST(TelemetryExport, EachFamilyIsOneGroup) {
  // Per-shard series register shard by shard, interleaving families; the
  // exposition must still write each family's lines as one group.
  Registry reg;
  for (int s = 0; s < 2; ++s) {
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    reg.counter("ltnc_in_total", label).add(1);
    reg.counter_fn("ltnc_out_total", label, [] { return 2; });
    reg.counter("ltnc_drops_total", label).add(3);
    reg.histogram("ltnc_a_ticks", label).record(1);
    reg.histogram("ltnc_b_ticks", label).record(2);
  }
  std::ostringstream out;
  render_prometheus(out, reg.snapshot());
  const std::string text = out.str();
  const auto pos = [&text](const std::string& needle) {
    const std::size_t at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    return at;
  };
  EXPECT_LT(pos("ltnc_in_total{shard=\"1\"}"), pos("# TYPE ltnc_drops_total"));
  EXPECT_LT(pos("ltnc_drops_total{shard=\"1\"}"),
            pos("# TYPE ltnc_out_total"));
  EXPECT_LT(pos("ltnc_a_ticks_count{shard=\"1\"}"),
            pos("# TYPE ltnc_b_ticks"));
  for (const char* family : {"ltnc_in_total", "ltnc_out_total",
                             "ltnc_drops_total", "ltnc_a_ticks",
                             "ltnc_b_ticks"}) {
    const std::string type = std::string("# TYPE ") + family + " ";
    EXPECT_EQ(text.find(type, pos(type) + 1), std::string::npos) << family;
  }
}

// --- trajectory invariance with telemetry attached ---------------------------

#if LTNC_TELEMETRY_ENABLED
TEST(TelemetryInvariance, EventEngineUnperturbedByInstruments) {
  // The same seed must produce the identical trajectory with and without
  // a registry + flight recorder attached: telemetry draws no RNG and
  // never feeds back into protocol decisions.
  dissem::SimConfig cfg;
  cfg.num_nodes = 40;
  cfg.k = 24;
  cfg.payload_bytes = 16;
  cfg.seed = 99;
  cfg.max_rounds = 4000;
  cfg.churn_rate = 0.001;  // exercise the churn/disarm trace hooks too

  const dissem::SimResult bare =
      dissem::run_event_simulation(session::Scheme::kLtnc, cfg,
                                   dissem::EngineMode::kScale);

  Registry reg;
  FlightRecorder rec(512);
  dissem::EventSimulation sim(session::Scheme::kLtnc, cfg,
                              dissem::EngineMode::kScale);
  sim.set_telemetry(&rec);
  sim.core().set_telemetry(&reg.histogram("ltnc_sim_completion_rounds"),
                           &rec);
  while (!sim.finished()) sim.step();
  const dissem::SimResult instrumented = sim.core().finalise();

  EXPECT_EQ(bare.rounds_run, instrumented.rounds_run);
  EXPECT_EQ(bare.all_complete, instrumented.all_complete);
  EXPECT_EQ(bare.nodes_churned, instrumented.nodes_churned);
  EXPECT_EQ(bare.traffic.attempts, instrumented.traffic.attempts);
  EXPECT_EQ(bare.traffic.payload_bytes, instrumented.traffic.payload_bytes);
  EXPECT_EQ(bare.convergence_trace, instrumented.convergence_trace);

  // And the instruments actually observed the run.
  const Snapshot snap = reg.snapshot();
  const auto* h = snap.find_histogram("ltnc_sim_completion_rounds");
  ASSERT_NE(h, nullptr);
  if (instrumented.all_complete) {
    EXPECT_GT(h->count(), 0u);
    EXPECT_GT(rec.total_recorded(), 0u);
  }
}
#endif  // LTNC_TELEMETRY_ENABLED

}  // namespace
}  // namespace ltnc::telemetry
