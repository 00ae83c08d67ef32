// The compile-time gate for the whole telemetry layer.
//
// Build with -DLTNC_TELEMETRY_DISABLED=1 (CMake: -DLTNC_TELEMETRY=OFF)
// and every LTNC_TELEMETRY(...) statement in the hot paths compiles to
// nothing — no loads, no branches, no atomic traffic, and the golden
// trajectories / byte-for-byte compat suites see literally the seed
// binary's behaviour. When enabled (the default), instrumentation is
// observer-only: it draws no RNG, sends no bytes, and only fires when a
// component has had instruments attached (null checks inside the macro
// body, written by the call site).
//
// Usage at an instrumentation point:
//
//   LTNC_TELEMETRY(
//       if (telemetry_ != nullptr && telemetry_->handshake_ticks) {
//         telemetry_->handshake_ticks->record(now - c.out.offered_at);
//       });
//
// The instruments structs below are the attachment surface: plain
// pointer bundles a driver fills from its Registry/FlightRecorder and
// hands to a component via set_telemetry(). They are defined even when
// telemetry is disabled (so setters keep compiling); only the call
// sites elide.
#pragma once

#include <cstdint>

#if defined(LTNC_TELEMETRY_DISABLED)
#define LTNC_TELEMETRY_ENABLED 0
#define LTNC_TELEMETRY(...) \
  do {                      \
  } while (false)
#else
#define LTNC_TELEMETRY_ENABLED 1
#define LTNC_TELEMETRY(...) \
  do {                      \
    __VA_ARGS__;            \
  } while (false)
#endif

namespace ltnc::telemetry {

class Gauge;
class Histogram;
class Registry;
class FlightRecorder;

/// Instruments a session::Endpoint. Latencies are in the endpoint's own
/// tick domain (whatever the driver's tick cadence is).
struct SessionInstruments {
  Histogram* handshake_ticks = nullptr;    ///< advertise → proceed/abort
  Histogram* completion_ticks = nullptr;   ///< first payload → content done
  FlightRecorder* recorder = nullptr;      ///< protocol event trace
  std::uint32_t actor = 0;                 ///< trace tid (node/shard id)
};

/// Instruments a net::UdpTransport.
struct TransportInstruments {
  Histogram* send_batch_frames = nullptr;  ///< frames per sendmmsg
  Histogram* recv_batch_frames = nullptr;  ///< frames per recvmmsg
};

}  // namespace ltnc::telemetry
