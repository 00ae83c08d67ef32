#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace ltnc::telemetry {

std::uint64_t Snapshot::HistogramSample::count() const {
  std::uint64_t n = 0;
  for (std::uint64_t b : buckets) n += b;
  return n;
}

double Snapshot::HistogramSample::sum_estimate() const {
  double sum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double lo = static_cast<double>(Histogram::bucket_floor(i));
    const double hi = static_cast<double>(Histogram::bucket_ceil(i));
    sum += static_cast<double>(buckets[i]) * (lo + hi) / 2.0;
  }
  return sum;
}

double Snapshot::HistogramSample::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), then walk the buckets.
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t next = seen + buckets[i];
    if (static_cast<double>(next) >= rank) {
      // Log-interpolate inside the bucket: observations in bucket i are
      // spread over [floor, ceil], a factor-of-2 span, so geometric
      // interpolation matches the bucketing scheme.
      const double lo =
          std::max(1.0, static_cast<double>(Histogram::bucket_floor(i)));
      const double hi =
          std::max(1.0, static_cast<double>(Histogram::bucket_ceil(i)));
      if (i == 0) return 0.0;  // bucket 0 is exactly {0}
      const double frac =
          buckets[i] == 0
              ? 0.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(buckets[i]);
      return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
    }
    seen = next;
  }
  return static_cast<double>(Histogram::bucket_ceil(buckets.size() - 1));
}

namespace {

template <typename Sample>
Sample* find_series(std::vector<Sample>& v, const std::string& name,
                    const std::string& label) {
  for (auto& s : v) {
    if (s.name == name && s.label == label) return &s;
  }
  return nullptr;
}

}  // namespace

Snapshot Snapshot::aggregated() const {
  Snapshot out;
  for (auto c : counters) {
    c.label.clear();
    if (auto* mine = find_series(out.counters, c.name, c.label)) {
      mine->value += c.value;
    } else {
      out.counters.push_back(std::move(c));
    }
  }
  for (auto g : gauges) {
    g.label.clear();
    if (auto* mine = find_series(out.gauges, g.name, g.label)) {
      mine->value += g.value;
    } else {
      out.gauges.push_back(std::move(g));
    }
  }
  for (auto h : histograms) {
    h.label.clear();
    if (auto* mine = find_series(out.histograms, h.name, h.label)) {
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        mine->buckets[i] += h.buckets[i];
      }
    } else {
      out.histograms.push_back(std::move(h));
    }
  }
  return out;
}

const Snapshot::HistogramSample* Snapshot::find_histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const Snapshot::CounterSample* Snapshot::find_counter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

template <typename T>
T& Registry::get_or_create(std::vector<Named<T>>& v, std::string_view name,
                           std::string_view label) {
  for (auto& n : v) {
    if (n.name == name && n.label == label) return *n.metric;
  }
  v.push_back(Named<T>{std::string(name), std::string(label),
                       std::make_unique<T>()});
  return *v.back().metric;
}

Counter& Registry::counter(std::string_view name, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(counters_, name, label);
}

Gauge& Registry::gauge(std::string_view name, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(gauges_, name, label);
}

Histogram& Registry::histogram(std::string_view name, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(histograms_, name, label);
}

void Registry::counter_fn(std::string_view name, std::string_view label,
                          std::function<std::uint64_t()> reader) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& f : counter_fns_) {
    if (f.name == name && f.label == label) {
      f.reader = std::move(reader);
      return;
    }
  }
  counter_fns_.push_back(
      CounterFn{std::string(name), std::string(label), std::move(reader)});
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size() + counter_fns_.size());
  for (const auto& n : counters_) {
    snap.counters.push_back({n.name, n.label, n.metric->value()});
  }
  for (const auto& f : counter_fns_) {
    snap.counters.push_back({f.name, f.label, f.reader()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& n : gauges_) {
    snap.gauges.push_back({n.name, n.label, n.metric->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& n : histograms_) {
    Snapshot::HistogramSample h;
    h.name = n.name;
    h.label = n.label;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets[i] = n.metric->bucket_count(i);
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace ltnc::telemetry
