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

/// Prometheus text exposition. `help_prefix` seeds the # HELP lines
/// (e.g. "ltnc"); every metric gets # HELP / # TYPE headers once, label
/// values are escaped per the exposition spec.
void render_prometheus(std::ostream& out, const Snapshot& snap);

}  // namespace ltnc::telemetry
