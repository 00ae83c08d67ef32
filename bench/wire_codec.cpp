// Wire codec serialization/deserialization throughput (1 KB – 256 KB
// payloads, low and high code-vector degree at k = 1024) plus the
// adaptive code-vector size curve that justifies the dense/sparse
// crossover recorded in ROADMAP.md.
//
// Unless --benchmark_out is given explicitly, results are also written to
// BENCH_wire.json (google-benchmark JSON) so successive PRs can track
// framing overhead and codec throughput. The CodedPacketFrameSize rows
// carry dense_bytes / sparse_bytes / frame_bytes counters: sparse beats
// the 128-byte dense bitmap for every degree below the crossover.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "gbench_main.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace {

using namespace ltnc;

constexpr std::size_t kBenchK = 1024;

CodedPacket make_packet(std::size_t degree, std::size_t payload_bytes,
                        std::uint64_t seed) {
  Rng rng(seed);
  BitVector coeffs(kBenchK);
  while (coeffs.popcount() < degree) coeffs.set(rng.uniform(kBenchK));
  return CodedPacket(std::move(coeffs),
                     Payload::deterministic(payload_bytes, seed, 0));
}

// Arg(0): payload bytes. Arg(1): degree.
void BM_SerializeCodedPacket(benchmark::State& state) {
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));
  const auto degree = static_cast<std::size_t>(state.range(1));
  const CodedPacket packet = make_packet(degree, payload_bytes, 11);
  wire::Frame frame;
  for (auto _ : state) {
    wire::serialize(0, packet, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}

void BM_DeserializeCodedPacket(benchmark::State& state) {
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));
  const auto degree = static_cast<std::size_t>(state.range(1));
  const CodedPacket packet = make_packet(degree, payload_bytes, 13);
  wire::Frame frame;
  wire::serialize(0, packet, frame);
  ltnc::ContentId content = 0;
  CodedPacket decoded;
  for (auto _ : state) {
    const wire::DecodeStatus status =
        wire::deserialize(frame.bytes(), content, decoded);
    if (status != wire::DecodeStatus::kOk) state.SkipWithError("bad frame");
    benchmark::DoNotOptimize(decoded.payload.words());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}

void BM_RoundTripCodedPacket(benchmark::State& state) {
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));
  const auto degree = static_cast<std::size_t>(state.range(1));
  const CodedPacket packet = make_packet(degree, payload_bytes, 17);
  wire::Frame frame;
  ltnc::ContentId content = 0;
  CodedPacket decoded;
  for (auto _ : state) {
    wire::serialize(0, packet, frame);
    const wire::DecodeStatus status =
        wire::deserialize(frame.bytes(), content, decoded);
    if (status != wire::DecodeStatus::kOk) state.SkipWithError("bad frame");
    benchmark::DoNotOptimize(decoded.payload.words());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}

void packet_sizes(benchmark::internal::Benchmark* b) {
  for (const std::int64_t payload : {1 << 10, 64 << 10, 256 << 10}) {
    for (const std::int64_t degree : {8, 512}) {  // low / high at k = 1024
      b->Args({payload, degree});
    }
  }
}

BENCHMARK(BM_SerializeCodedPacket)->Apply(packet_sizes);
BENCHMARK(BM_DeserializeCodedPacket)->Apply(packet_sizes);
BENCHMARK(BM_RoundTripCodedPacket)->Apply(packet_sizes);

// The adaptive-encoding size curve at k = 1024: dense is a flat 128
// bytes; sparse grows with degree and wins below the crossover. The
// degree sweep is the acceptance evidence for the rule in README.md.
void BM_CodedPacketFrameSize(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  const CodedPacket packet = make_packet(degree, 0, 19);
  wire::Frame frame;
  for (auto _ : state) {
    wire::serialize(0, packet, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["dense_bytes"] = static_cast<double>(
      wire::coeff_encoded_size(packet.coeffs, wire::CoeffEncoding::kDense));
  state.counters["sparse_bytes"] = static_cast<double>(
      wire::coeff_encoded_size(packet.coeffs, wire::CoeffEncoding::kSparse));
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
  state.counters["sparse_wins"] =
      wire::choose_coeff_encoding(packet.coeffs) ==
              wire::CoeffEncoding::kSparse
          ? 1.0
          : 0.0;
}
BENCHMARK(BM_CodedPacketFrameSize)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(96)->Arg(112)->Arg(120)->Arg(128)->Arg(192)->Arg(256)->Arg(512);

// v2 content multiplexing: the id varint a multi-content frame carries.
// Arg(0) is the content id; the counters record the exact wire cost over
// the id-0 baseline. Acceptance (ROADMAP): ≤ 2 bytes on Soliton-typical
// frames for every id derive_content_id can produce (14-bit fold).
void BM_ContentIdOverhead(benchmark::State& state) {
  const auto cid = static_cast<ltnc::ContentId>(state.range(0));
  const CodedPacket packet = make_packet(8, 1 << 10, 23);  // degree 8, 1 KB
  wire::Frame frame;
  for (auto _ : state) {
    wire::serialize(cid, packet, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  const std::size_t base = wire::serialized_size(0, packet);
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
  state.counters["cid_overhead_bytes"] =
      static_cast<double>(frame.size() - base);
  state.counters["within_two_bytes"] = frame.size() - base <= 2 ? 1.0 : 0.0;
}
BENCHMARK(BM_ContentIdOverhead)->Arg(0)->Arg(1)->Arg(127)->Arg(0x3FFF);

void BM_SerializeFeedback(benchmark::State& state) {
  wire::Frame frame;
  std::uint64_t token = 0;
  for (auto _ : state) {
    wire::serialize_feedback(0, wire::MessageType::kAbort, ++token, frame);
    benchmark::DoNotOptimize(frame.data());
  }
}
BENCHMARK(BM_SerializeFeedback);

void BM_SerializeCcArray(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> leaders(k);
  for (std::size_t i = 0; i < k; ++i) {
    leaders[i] = static_cast<std::uint32_t>(i % 97);
  }
  wire::Frame frame;
  for (auto _ : state) {
    wire::serialize_cc(0, leaders, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_SerializeCcArray)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return ltnc::bench::run_benchmarks(argc, argv, "BENCH_wire.json");
}
