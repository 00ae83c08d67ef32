// Shared machinery of the end-to-end benchmark: clocks, the span tracer,
// the per-repetition result every workload returns, and the exact-sample
// percentile helpers.
//
// A workload is one function that builds its whole system from a seed
// (the timed "set-up"), drives it to completion from the calling thread
// (the timed interval), verifies every delivered byte and returns a
// RepResult. main.cpp repeats it and turns the repetitions into metrics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock (CLOCK_MONOTONIC), nanoseconds.
std::int64_t now_ns();
/// User + system CPU time of the whole process, seconds.
double cpu_seconds();
/// Blocks until the monotonic clock reaches `deadline_ns`.
void sleep_until_ns(std::int64_t deadline_ns);

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Times a fixed CPU-only loop. A diagnostic of host speed: it never
/// scales or corrects any metric.
double host_probe_ms();

// --- tracing ---------------------------------------------------------------

/// Every library call the benchmark wraps in a span. kIter is the
/// benchmark's own loop iteration, the parent of the calls made in it.
enum class Op : std::uint8_t {
  kIter,
  kSendBatch,      // net::UdpTransport::send_batch
  kRecvBatch,      // net::UdpTransport::recv_batch
  kOfferPacket,    // session::Endpoint::offer_packet
  kPollTransmit,   // session::Endpoint::poll_transmit
  kHandleFrame,    // session::Endpoint::handle_frame
  kEncode,         // lt::LtEncoder::encode
  kVerify,         // store::Content::finish_and_verify
  kRegister,       // store::ContentStore::register_content
  kExpire,         // session::Endpoint::expire_content
  kStep,           // dissem::EventSimulation::step
  kAdvance,        // stream::StreamSource::advance
  kPushSymbol,     // stream::StreamSource::push_symbol
  kOpenBlock,      // stream::Receiver::open_block
  kIngest,         // stream::Receiver::ingest
  kFinalizeDue,    // stream::Receiver::finalize_due
  kCount,
};
inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

/// The repository module an op belongs to ("bench" for kIter).
const char* op_layer(Op op);
/// The call an op wraps, as written in the span file.
const char* op_name(Op op);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// The request the call served: (receiver, content) fetch, (receiver,
  /// block), or the gossip round; 0 for calls that serve a whole batch.
  std::uint64_t request = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top
  Op op = Op::kIter;
};

/// In-memory span recorder. Spans stay in memory for the whole traced
/// repetition; main.cpp summarises them and writes the last repetition's
/// spans out at exit.
class Tracer {
 public:
  /// 2^21 spans (64 MiB) hold a repetition of any workload with room to
  /// spare (udp_stream, the largest, records ~1.2 M).
  static constexpr std::size_t kCapacity = std::size_t{1} << 21;

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  /// Index of the new span, or -1 when the buffer is full: the buffer
  /// never grows mid-repetition, where a reallocation would stall the
  /// loop for tens of milliseconds.
  std::int32_t begin(Op op, std::uint64_t request);
  void end(std::int32_t index);
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint64_t dropped_ = 0;
};

/// RAII span around one call; free of clock reads when tracing is off.
class Scope {
 public:
  Scope(Tracer& tracer, Op op, std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(op, request) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer_.end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

inline std::uint64_t request_id(std::uint64_t a, std::uint64_t b) {
  return (a << 32) | (b & 0xffffffffULL);
}

struct OpTotals {
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< duration minus the time of child spans
};
using OpSummary = std::array<OpTotals, kOpCount>;

OpSummary summarize(const std::vector<Span>& spans);

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One repetition of a workload.
struct RepResult {
  double setup_s = 0.0;   ///< start → first frame / first round
  double timed_s = 0.0;   ///< first frame → last verified completion
  double cpu_s = 0.0;     ///< process CPU over the timed interval
  double verified_bytes = 0.0;
  std::uint64_t attempted = 0;        ///< transfers (fetches, nodes, blocks)
  std::uint64_t verified = 0;         ///< decoded and byte-exact in time
  std::uint64_t verify_failures = 0;  ///< decoded to the wrong bytes
  std::uint64_t stalls = 0;           ///< safety timeouts
  /// Open loop only: blocks the source retired before it had sent their
  /// whole budget, because the host held the loop back past a deadline.
  /// Such a repetition's traffic differs from a prompt one's, so it is
  /// left out of the exact-count comparison (its timings still count).
  std::uint64_t schedule_slips = 0;
  /// One sample per attempted transfer; +inf for a failed one.
  std::vector<double> completion_ms;
  /// Datagrams over every socket of the repetition (socket workloads).
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  /// Exact counts: identical on every repetition of one seed.
  std::vector<Metric> counts;
  /// Per-repetition measurements that depend on timing (median across
  /// repetitions).
  std::vector<Metric> measured;
  OpSummary ops{};  ///< traced repetitions only
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of exact samples (p in [0, 100]).
double percentile(std::vector<double> samples, double p);
/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that leaves at
/// least ten samples beyond it (p50 when there are too few samples).
double tail_percentile(std::size_t samples);
double median(std::vector<double> values);

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Added to every content seed at verification time only. Non-zero
  /// makes every verification fail — the benchmark's own self-test.
  std::uint64_t verify_seed_offset = 0;
};

RepResult run_udp_swarm(const WorkloadOptions& options, Tracer& tracer);
RepResult run_gossip_ltnc(const WorkloadOptions& options, Tracer& tracer);
RepResult run_udp_stream(const WorkloadOptions& options, Tracer& tracer);
/// Wall time of one udp_stream repetition: its length is set by the block
/// schedule, not by the host.
double udp_stream_rep_seconds();

}  // namespace perfbench
