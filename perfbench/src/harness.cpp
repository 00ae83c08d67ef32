#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_until_ns(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double host_probe_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 8'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0x9e3779b97f4a7c15ULL;
  }
  // Keeps the loop from being folded away.
  volatile std::uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(now_ns() - start) * 1e-6;
}

const char* op_layer(Op op) {
  switch (op) {
    case Op::kIter:
      return "bench";
    case Op::kSendBatch:
    case Op::kRecvBatch:
      return "net";
    case Op::kOfferPacket:
    case Op::kPollTransmit:
    case Op::kHandleFrame:
    case Op::kExpire:
      return "session";
    case Op::kEncode:
    case Op::kVerify:
      return "lt";
    case Op::kRegister:
      return "store";
    case Op::kStep:
      return "dissemination";
    case Op::kAdvance:
    case Op::kPushSymbol:
    case Op::kOpenBlock:
    case Op::kIngest:
    case Op::kFinalizeDue:
      return "stream";
    case Op::kCount:
      break;
  }
  return "bench";
}

const char* op_name(Op op) {
  static const char* const kNames[] = {
      "iteration",        "send_batch",     "recv_batch", "offer_packet",
      "poll_transmit",    "handle_frame",   "encode",     "finish_and_verify",
      "register_content", "expire_content", "step",       "advance",
      "push_symbol",      "open_block",     "ingest",     "finalize_due"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kOpCount);
  return kNames[static_cast<std::size_t>(op)];
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  // Fault the whole buffer in now, before the repetition's set-up.
  spans_.resize(kCapacity);
  spans_.clear();
}

std::int32_t Tracer::begin(Op op, std::uint64_t request) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span span;
  span.op = op;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last so the bookkeeping above is charged to the parent.
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

OpSummary summarize(const std::vector<Span>& spans) {
  OpSummary out{};
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    OpTotals& t = out[static_cast<std::size_t>(s.op)];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur;
    if (s.parent >= 0) {
      out[static_cast<std::size_t>(spans[static_cast<std::size_t>(s.parent)].op)]
          .self_ns -= dur;
    }
  }
  return out;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

double tail_percentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
