// Figure 8 — "Computational cost of each operation (CPU cycles)".
//
// Four panels, each swept over the code length k (paper: 400…2000):
//   8a  recoding, control structures   (LTNC vs RLNC)
//   8b  decoding, control structures   (log scale; the headline −99 %)
//   8c  recoding, data (per byte)
//   8d  decoding, data (per byte, log scale)
//
// "Control" is measured with a tiny payload (m = 8 B) so structure
// operations dominate; "data" with a real payload (m = 2 KB) and reported
// per content byte. The paper reports CPU cycles on a 2.33 GHz Xeon; we
// report wall nanoseconds plus exact word-operation counters — the shapes
// (linear vs quadratic in k, who wins) are what must match.
//
// Unless --benchmark_out is given explicitly, results are also written to
// BENCH_codec.json (google-benchmark JSON). Its ctrl_ops/*, data_*/* and
// pkts_used counters are exact and repeat from run to run; the times are
// this host's.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/ltnc_codec.hpp"
#include "gbench_main.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/lt_encoder.hpp"
#include "rlnc/rlnc_codec.hpp"

namespace {

using namespace ltnc;

constexpr std::size_t kControlPayload = 8;
constexpr std::size_t kDataPayload = 2048;
constexpr std::uint64_t kContentSeed = 99;

std::vector<CodedPacket> lt_stream(std::size_t k, std::size_t m,
                                   std::size_t count, std::uint64_t seed) {
  lt::LtEncoder enc(lt::make_native_payloads(k, m, kContentSeed));
  Rng rng(seed);
  std::vector<CodedPacket> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(enc.encode(rng));
  return out;
}

// Sparse random GF(2) combinations — representative of RLNC network
// traffic (recoded packets have support ≤ sparsity).
std::vector<CodedPacket> sparse_stream(std::size_t k, std::size_t m,
                                       std::size_t count,
                                       std::uint64_t seed) {
  const auto natives = lt::make_native_payloads(k, m, kContentSeed);
  const std::size_t weight = rlnc::RlncConfig{k, m, 0}.effective_sparsity();
  Rng rng(seed);
  std::vector<CodedPacket> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CodedPacket pkt{BitVector(k), Payload(m)};
    for (std::size_t b = 0; b < weight; ++b) {
      const std::size_t j = rng.uniform(k);
      if (!pkt.coeffs.test(j)) {
        pkt.coeffs.set(j);
        pkt.payload.xor_with(natives[j]);
      }
    }
    if (pkt.coeffs.none()) {
      pkt.coeffs.set(i % k);
      pkt.payload.xor_with(natives[i % k]);
    }
    out.push_back(std::move(pkt));
  }
  return out;
}

void fill_ltnc(core::LtncCodec& codec, std::size_t packets) {
  const auto stream =
      lt_stream(codec.k(), codec.payload_bytes(), packets, 7);
  for (const auto& pkt : stream) codec.receive(pkt);
}

// --- Fig. 8a / 8c: recoding ------------------------------------------------

constexpr std::size_t kCountedRecodes = 1000;

// Times recode() on `timed`. The counters come from the first
// kCountedRecodes recodes of `counted`, an identically filled codec, so
// they are exact and do not depend on how many iterations the timer chose
// (each recode moves the codec's state on).
template <typename Codec>
void run_recode(benchmark::State& state, Codec& timed, Codec& counted,
                std::size_t m) {
  Rng rng(11);
  for (auto _ : state) {
    auto pkt = timed.recode(rng);
    benchmark::DoNotOptimize(pkt);
  }
  Rng counted_rng(11);
  for (std::size_t i = 0; i < kCountedRecodes; ++i) {
    auto pkt = counted.recode(counted_rng);
    benchmark::DoNotOptimize(pkt);
  }
  const auto& ops = counted.recode_ops();
  const double invocations = static_cast<double>(ops.invocations);
  state.counters["ctrl_ops/op"] =
      static_cast<double>(ops.control_total()) / invocations;
  state.counters["data_bytes/op"] = ops.data_bytes() / invocations;
  if (m > kControlPayload) {
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
  }
}

void BM_Fig8_Recode_LTNC(benchmark::State& state, std::size_t m) {
  const auto k = static_cast<std::size_t>(state.range(0));
  // A mid-dissemination store: roughly half the content received.
  const auto make = [&] {
    core::LtncConfig cfg;
    cfg.k = k;
    cfg.payload_bytes = m;
    auto codec = std::make_unique<core::LtncCodec>(cfg);
    fill_ltnc(*codec, k / 2);
    return codec;
  };
  run_recode(state, *make(), *make(), m);
}

void BM_Fig8_Recode_RLNC(benchmark::State& state, std::size_t m) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto make = [&] {
    rlnc::RlncConfig cfg;
    cfg.k = k;
    cfg.payload_bytes = m;
    auto codec = std::make_unique<rlnc::RlncCodec>(cfg);
    for (auto& pkt : sparse_stream(k, m, k / 2, 13)) {
      codec->receive(std::move(pkt));
    }
    return codec;
  };
  run_recode(state, *make(), *make(), m);
}

// --- Fig. 8b / 8d: decoding -------------------------------------------------

void BM_Fig8_Decode_LTNC(benchmark::State& state, std::size_t m) {
  const auto k = static_cast<std::size_t>(state.range(0));
  // Decoding in LTNC is plain belief propagation over the Tanner graph —
  // the recoding structures (degree index, components, …) are recoding
  // state and their upkeep is charged to Fig. 8a/8c, as in the paper.
  const auto stream = lt_stream(k, m, 3 * k, 17);
  std::uint64_t received = 0;
  std::uint64_t ctrl_ops = 0;
  std::uint64_t data_ops = 0;
  for (auto _ : state) {
    lt::BpDecoder decoder(k, m);
    std::size_t i = 0;
    while (!decoder.complete() && i < stream.size()) {
      decoder.receive(stream[i++]);
    }
    received += i;
    ctrl_ops += decoder.ops().control_total();
    data_ops += decoder.ops().data_word_ops;
    if (!decoder.complete()) {
      state.SkipWithError("LT stream exhausted before completion");
      return;
    }
  }
  const double iters =
      static_cast<double>(std::max<std::uint64_t>(1, state.iterations()));
  state.counters["pkts_used"] = static_cast<double>(received) / iters;
  state.counters["ctrl_ops/decode"] = static_cast<double>(ctrl_ops) / iters;
  state.counters["data_words/decode"] =
      static_cast<double>(data_ops) / iters;
  if (m > kControlPayload) {
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k * m));
  }
}

void BM_Fig8_Decode_RLNC(benchmark::State& state, std::size_t m) {
  const auto k = static_cast<std::size_t>(state.range(0));
  rlnc::RlncConfig cfg;
  cfg.k = k;
  cfg.payload_bytes = m;
  const auto stream = sparse_stream(k, m, k + k / 4 + 64, 19);
  std::uint64_t ctrl_ops = 0;
  std::uint64_t data_ops = 0;
  for (auto _ : state) {
    rlnc::RlncCodec codec(cfg);
    std::size_t i = 0;
    while (!codec.complete() && i < stream.size()) {
      codec.receive(stream[i++]);
    }
    if (!codec.complete()) {
      state.SkipWithError("sparse stream exhausted before full rank");
      return;
    }
    benchmark::DoNotOptimize(codec.native_payload(0));  // back-substitution
    ctrl_ops += codec.decode_ops().control_total();
    data_ops += codec.decode_ops().data_word_ops;
  }
  const double iters =
      static_cast<double>(std::max<std::uint64_t>(1, state.iterations()));
  state.counters["ctrl_ops/decode"] = static_cast<double>(ctrl_ops) / iters;
  state.counters["data_words/decode"] =
      static_cast<double>(data_ops) / iters;
  if (m > kControlPayload) {
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k * m));
  }
}

void register_all() {
  const std::vector<std::int64_t> ks{400, 800, 1200, 1600, 2000};
  auto reg = [&](const char* name, void (*fn)(benchmark::State&, std::size_t),
                 std::size_t m, double min_time) {
    auto* b = benchmark::RegisterBenchmark(
        name, [fn, m](benchmark::State& s) { fn(s, m); });
    for (const auto k : ks) b->Arg(k);
    b->Unit(benchmark::kMicrosecond)->MinTime(min_time);
  };
  reg("fig8a_recode_control/LTNC", BM_Fig8_Recode_LTNC, kControlPayload, 0.1);
  reg("fig8a_recode_control/RLNC", BM_Fig8_Recode_RLNC, kControlPayload, 0.1);
  reg("fig8b_decode_control/LTNC", BM_Fig8_Decode_LTNC, kControlPayload, 0.2);
  reg("fig8b_decode_control/RLNC", BM_Fig8_Decode_RLNC, kControlPayload, 0.2);
  reg("fig8c_recode_data/LTNC", BM_Fig8_Recode_LTNC, kDataPayload, 0.1);
  reg("fig8c_recode_data/RLNC", BM_Fig8_Recode_RLNC, kDataPayload, 0.1);
  reg("fig8d_decode_data/LTNC", BM_Fig8_Decode_LTNC, kDataPayload, 0.2);
  reg("fig8d_decode_data/RLNC", BM_Fig8_Decode_RLNC, kDataPayload, 0.2);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return ltnc::bench::run_benchmarks(argc, argv, "BENCH_codec.json");
}
