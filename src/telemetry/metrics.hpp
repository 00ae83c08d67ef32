// Shard-safe runtime metrics — the always-on half of the telemetry layer.
//
// Three primitives, all lock-free on the write path:
//
//   Counter    monotonic u64, add() = one relaxed fetch_add
//   Gauge      signed level, set()/add(), relaxed
//   Histogram  65 fixed power-of-2 buckets over u64 values; record() is
//              exactly ONE relaxed increment (bucket index = bit_width of
//              the value), zero allocation, no sum/min/max side counters —
//              count is derived from the buckets and the sum is estimated
//              from bucket midpoints at snapshot time. p50/p99/p999 come
//              out log-interpolated, which is what a latency distribution
//              wants anyway.
//
// A Registry owns named instances. Registration (get-or-create by
// (name, label)) is the cold path — mutex-guarded, may allocate — and
// hands back a stable reference the hot path updates without ever
// touching the registry again. Shard discipline: give every worker thread
// its own instances (same name, per-shard label, e.g. `shard="3"`), so
// the data plane never shares a cache line; snapshot() then reads
// everything with relaxed loads (TSan-clean against concurrent writers)
// and Snapshot::aggregated() folds the per-shard series back into one
// logical metric. Writers racing a snapshot cost at most a torn *view*
// (some adds in, some not) — never a torn value, never UB.
//
// Naming convention (Prometheus-compatible): `ltnc_<subsystem>_<what>`,
// counters suffixed `_total`, histograms named for their unit
// (`_ticks`, `_us`, `_rounds`, `_frames`). The label, when present, is a
// single preformatted `key="value"` pair.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ltnc::telemetry {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  // One counter per cache line: per-shard instances must never false-share.
  alignas(64) std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  /// Bucket i holds values v with bit_width(v) == i: bucket 0 is exactly
  /// {0}, bucket i (i >= 1) is [2^(i-1), 2^i - 1], bucket 64 tops out at
  /// UINT64_MAX. 65 buckets cover the whole u64 range; a power of two
  /// 2^j lands in bucket j+1 (the bucket it *starts*).
  static constexpr std::size_t kBuckets = 65;

  static constexpr std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value bucket i holds.
  static constexpr std::uint64_t bucket_floor(std::size_t i) {
    return i <= 1 ? (i == 0 ? 0 : 1) : std::uint64_t{1} << (i - 1);
  }
  /// Largest value bucket i holds (inclusive — the Prometheus `le`).
  static constexpr std::uint64_t bucket_ceil(std::size_t i) {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

  /// The hot path: one relaxed increment, nothing else.
  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// A point-in-time read of a registry: plain values, safe to ship across
/// threads, render, or diff.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::string label;  ///< preformatted `key="value"`, may be empty
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string label;
    std::int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    std::string label;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};

    std::uint64_t count() const;
    /// Bucket-midpoint estimate (documented as such in the exposition).
    double sum_estimate() const;
    /// Log-interpolated quantile, q in [0, 1]. 0 when empty.
    double quantile(double q) const;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Collapses labels away: every series of one name becomes a single
  /// label-less series with summed counts — the per-shard-to-logical
  /// aggregation the sharded data plane wants for p50/p99 readouts.
  Snapshot aggregated() const;

  const HistogramSample* find_histogram(std::string_view name) const;
  const CounterSample* find_counter(std::string_view name) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by (name, label). Cold path (mutex, may allocate);
  /// the returned reference stays valid for the registry's lifetime and
  /// is the hot-path handle. Safe to call from any thread.
  Counter& counter(std::string_view name, std::string_view label = {});
  Gauge& gauge(std::string_view name, std::string_view label = {});
  Histogram& histogram(std::string_view name, std::string_view label = {});

  /// Relaxed read of every metric. Safe against concurrent writers (the
  /// view may be mid-update torn across metrics, never within one).
  Snapshot snapshot() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::string label;
    std::unique_ptr<T> metric;  ///< unique_ptr: stable address across growth
  };

  template <typename T>
  static T& get_or_create(std::vector<Named<T>>& v, std::string_view name,
                          std::string_view label);

  mutable std::mutex mu_;  ///< guards the vectors, never the metric values
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

}  // namespace ltnc::telemetry
