// Snapshot renderer — the bridge from the in-process registry to the
// outside world.
//
//   render_prometheus   text exposition format (the thing a Prometheus
//                       scrape job or `curl | promtool check metrics`
//                       consumes). Histograms come out as classic
//                       cumulative `_bucket{le=...}` series with the
//                       power-of-2 bucket ceilings as thresholds, plus
//                       `_count` and a midpoint-estimated `_sum`.
#pragma once

#include <ostream>

#include "telemetry/metrics.hpp"

namespace ltnc::telemetry {

/// Prometheus text exposition. Each metric family is one group: its
/// # HELP / # TYPE headers, then every sample of that name (each label).
/// Counters come first, then gauges, then histograms, each kind's
/// families in order of first appearance in the snapshot. Labels are
/// written as registered (a preformatted `key="value"` pair, not
/// escaped), so a label value must not hold a quote, a backslash or a
/// newline.
void render_prometheus(std::ostream& out, const Snapshot& snap);

}  // namespace ltnc::telemetry
