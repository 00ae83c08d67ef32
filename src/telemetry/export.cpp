#include "telemetry/export.hpp"

#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

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

}  // namespace

void render_prometheus(std::ostream& out, const Snapshot& snap) {
  std::set<std::string> seen;
  for (const auto& c : snap.counters) {
    header(out, seen, c.name, "counter", "ltnc runtime counter");
    out << c.name << label_block(c.label) << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    header(out, seen, g.name, "gauge", "ltnc runtime gauge");
    out << g.name << label_block(g.label) << " " << g.value << "\n";
  }
  for (const auto& h : snap.histograms) {
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
