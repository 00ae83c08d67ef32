#include "telemetry/export.hpp"

#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ltnc::telemetry {
namespace {

// `{label,le="..."}` / `{label}` / `` — composes the preformatted
// `key="value"` label with an optional histogram `le`.
std::string label_block(const std::string& label, const std::string& le = {}) {
  if (label.empty() && le.empty()) return {};
  std::string out = "{";
  out += label;
  if (!le.empty()) {
    if (!label.empty()) out += ",";
    out += "le=\"" + le + "\"";
  }
  out += "}";
  return out;
}

std::string fmt_double(double d) {
  std::ostringstream tmp;
  tmp << std::setprecision(std::numeric_limits<double>::max_digits10) << d;
  return tmp.str();
}

// # HELP / # TYPE headers, once per metric name.
void header(std::ostream& out, std::set<std::string>& seen,
            const std::string& name, std::string_view type,
            std::string_view help) {
  if (!seen.insert(name).second) return;
  out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " " << type << "\n";
}

// The positions of `samples` with each family's series together,
// families in order of first appearance. The text format requires a
// family's lines to form one group, and per-shard series register shard
// by shard, interleaving families.
template <typename Sample>
std::vector<std::size_t> grouped(const std::vector<Sample>& samples) {
  std::vector<std::size_t> order;
  std::vector<bool> taken(samples.size(), false);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (taken[i]) continue;
    for (std::size_t j = i; j < samples.size(); ++j) {
      if (!taken[j] && samples[j].name == samples[i].name) {
        order.push_back(j);
        taken[j] = true;
      }
    }
  }
  return order;
}

}  // namespace

void render_prometheus(std::ostream& out, const Snapshot& snap) {
  std::set<std::string> seen;
  for (const std::size_t i : grouped(snap.counters)) {
    const auto& c = snap.counters[i];
    header(out, seen, c.name, "counter", "ltnc runtime counter");
    out << c.name << label_block(c.label) << " " << c.value << "\n";
  }
  for (const std::size_t i : grouped(snap.gauges)) {
    const auto& g = snap.gauges[i];
    header(out, seen, g.name, "gauge", "ltnc runtime gauge");
    out << g.name << label_block(g.label) << " " << g.value << "\n";
  }
  for (const std::size_t i : grouped(snap.histograms)) {
    const auto& h = snap.histograms[i];
    header(out, seen, h.name, "histogram",
           "ltnc power-of-2 latency histogram (sum is a bucket-midpoint "
           "estimate)");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;  // cumulative: sparse emission is valid
      cum += h.buckets[i];
      out << h.name << "_bucket"
          << label_block(h.label, std::to_string(Histogram::bucket_ceil(i)))
          << " " << cum << "\n";
    }
    out << h.name << "_bucket" << label_block(h.label, "+Inf") << " " << cum
        << "\n";
    out << h.name << "_sum" << label_block(h.label) << " "
        << fmt_double(h.sum_estimate()) << "\n";
    out << h.name << "_count" << label_block(h.label) << " " << cum << "\n";
  }
}

}  // namespace ltnc::telemetry
