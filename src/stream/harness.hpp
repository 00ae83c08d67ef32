// Stream latency harnesses — the two drivers behind BENCH_stream.json
// and examples/live_stream.cpp, sharing one result shape:
//
//   run_sim_stream    one fault-injecting link per receiver: a
//                     net::SimChannel in simulated ticks (deterministic
//                     loss/duplicate/reorder sweeps), or the same fault
//                     schedule over a loopback net::UdpPipe in wall-clock
//                     microseconds
//   run_event_stream  dissem::TimerWheel broadcast at 10^4–10^5
//                     receivers — the scale point
//
// Every driver wires a StreamSource (deadline-policy push side) against a
// fleet of stream::Receivers whose completion latencies land in shared
// telemetry::Histogram instruments; StreamRunStats folds the snapshot's
// p50/p99/p999 and the fleet's miss counters into plain numbers a bench
// can write and a smoke test can assert on, and the run writes its block
// totals to the registry once, when it ends. Both run on the calling
// thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/udp_pipe.hpp"
#include "stream/stream_source.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace ltnc::stream {

/// Outcome of one harness run, fleet-wide. Latency quantiles are in the
/// driver's tick domain (simulated ticks, or microseconds over UDP).
struct StreamRunStats {
  std::size_t receivers = 0;
  std::uint64_t blocks = 0;  ///< blocks the source emitted
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t expired_frames = 0;  ///< late symbols, summed over fleet
  std::uint64_t goodput_bytes = 0;
  std::uint64_t source_frames = 0;  ///< frames the source sent
  /// The UdpPipe links' sending sockets, summed (zeros over SimChannels):
  /// how many datagrams carried the frames.
  net::UdpStats link_tx;
  std::uint64_t duration_ticks = 0;
  std::uint64_t latency_samples = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
  /// Smoke criterion: every receiver decoded at least one block.
  bool every_receiver_decoded = false;

  double miss_rate() const {
    const std::uint64_t finalized = completed + missed;
    return finalized == 0
               ? 0.0
               : static_cast<double>(missed) / static_cast<double>(finalized);
  }
};

struct SimStreamConfig {
  /// total_blocks must be nonzero. Over net::Link::kUdp the tick domain
  /// is microseconds: ticks_per_block = µs between blocks (1e6 / fps),
  /// deadline_ticks = deadline in µs.
  StreamConfig stream;
  /// Fault schedule of every receiver's link (seeds derived per receiver).
  net::SimChannelConfig channel;
  std::size_t receivers = 4;
  /// Feed the channel's loss rate into the source's budget estimate (the
  /// perfect-estimator stand-in for measured feedback). Off, the budget
  /// does not see the loss — the fixed-budget miss-curve sweeps.
  bool adaptive_budget = false;
  std::uint64_t seed = 1;
  /// Metrics sink; nullptr runs against a private registry.
  telemetry::Registry* registry = nullptr;
  /// Optional flight recorder for the source endpoint (--trace reuse).
  telemetry::FlightRecorder* recorder = nullptr;
  net::Link link = net::Link::kSim;
};

/// Runs a full stream over per-receiver links until every block is
/// finalized on every receiver. Over kSim time is one tick per loop and
/// the run is deterministic for a fixed config. Over kUdp time is the
/// wall clock in µs: the loop sleeps until the next block birth, expiry
/// or boost once every live budget is spent, and the counts match kSim's
/// whenever the host keeps up with the schedule.
StreamRunStats run_sim_stream(const SimStreamConfig& config);

struct EventStreamConfig {
  StreamConfig stream;  ///< total_blocks must be nonzero
  std::size_t receivers = 10000;
  /// I.i.d. per receiver per symbol, always fed into the budget
  /// estimate — the scale point is about holding 10^5 decoders, not
  /// about sweeping budget shortfall.
  double loss_rate = 0.0;
  std::uint64_t seed = 1;
  telemetry::Registry* registry = nullptr;
};

/// Runs the stream through the timer-wheel event engine: one source
/// broadcasting to `receivers` sinks, per-receiver Bernoulli loss. The
/// per-tick cost is O(receivers × symbols), so this is the driver that
/// holds 10^4–10^5 receivers.
StreamRunStats run_event_stream(const EventStreamConfig& config);

}  // namespace ltnc::stream
