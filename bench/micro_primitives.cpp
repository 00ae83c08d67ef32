// Micro-benchmarks for the substrate primitives the codecs are built on —
// regressions here silently shift every figure, so they are pinned
// separately: the GF(2) kernel layer (scalar vs dispatched SIMD, sized
// like real payloads), BitVector word ops, Soliton degree sampling, Fenwick
// updates, Gaussian row reduction, BP reception.
//
// Unless --benchmark_out is given explicitly, results are also written to
// BENCH_kernels.json (google-benchmark JSON) so successive PRs can track
// the kernel-throughput trajectory.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/bitvector.hpp"
#include "common/fenwick.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "gbench_main.hpp"
#include "gf2/gaussian.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/lt_encoder.hpp"
#include "lt/soliton.hpp"

namespace {

using namespace ltnc;

// ---------------------------------------------------------------------------
// Kernel layer: every primitive at payload sizes m = 1 KB … 256 KB, once
// through the pinned scalar reference and once through the dispatched
// SIMD backend, so the speedup is visible in one run.
//
// Throughput convention: bytes_per_second counts the logical block size
// (m) once per iteration for every kernel, regardless of how many streams
// it reads — so GB/s figures are comparable across kernels.
// ---------------------------------------------------------------------------

const kernels::Ops& backend(bool scalar) {
  return scalar ? kernels::scalar_ops() : kernels::ops();
}

std::vector<std::uint64_t> random_block(std::uint64_t seed, std::size_t n) {
  SplitMix64 sm(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& w : v) w = sm.next();
  return v;
}

void BM_Kernel_Xor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) / 8;
  const auto& ops = backend(state.range(1) != 0);
  auto dst = random_block(1, n);
  const auto src = random_block(2, n);
  for (auto _ : state) {
    ops.xor_words(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
}

void BM_Kernel_Popcount(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) / 8;
  const auto& ops = backend(state.range(1) != 0);
  const auto src = random_block(3, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.popcount_words(src.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
}

void BM_Kernel_PopcountXor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) / 8;
  const auto& ops = backend(state.range(1) != 0);
  const auto a = random_block(4, n);
  const auto b = random_block(5, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.popcount_xor_words(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
}

void BM_Kernel_AndNot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) / 8;
  const auto& ops = backend(state.range(1) != 0);
  auto dst = random_block(6, n);
  const auto src = random_block(7, n);
  for (auto _ : state) {
    ops.and_not_words(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
}

void BM_Kernel_PopcountAndNot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) / 8;
  const auto& ops = backend(state.range(1) != 0);
  const auto a = random_block(8, n);
  const auto b = random_block(9, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.popcount_and_not_words(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
}

void BM_Kernel_Any(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) / 8;
  const auto& ops = backend(state.range(1) != 0);
  // Worst case: all zero, the whole block must be scanned.
  const std::vector<std::uint64_t> src(n, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.any_words(src.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
}

void BM_Kernel_XorAccumulate8(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0)) / 8;
  const auto& ops = backend(state.range(1) != 0);
  constexpr std::size_t kSources = 8;
  auto dst = random_block(10, n);
  std::vector<std::vector<std::uint64_t>> sources;
  std::vector<const std::uint64_t*> ptrs;
  for (std::size_t s = 0; s < kSources; ++s) {
    sources.push_back(random_block(11 + s, n));
    ptrs.push_back(sources.back().data());
  }
  for (auto _ : state) {
    ops.xor_accumulate(dst.data(), ptrs.data(), kSources, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 8));
}

void KernelSizes(benchmark::internal::Benchmark* b) {
  // {payload bytes, 1 = scalar reference / 0 = dispatched backend}
  for (std::int64_t scalar : {1, 0}) {
    for (std::int64_t bytes : {1 << 10, 4 << 10, 16 << 10, 64 << 10,
                               256 << 10}) {
      b->Args({bytes, scalar});
    }
  }
}

BENCHMARK(BM_Kernel_Xor)->Apply(KernelSizes);
BENCHMARK(BM_Kernel_Popcount)->Apply(KernelSizes);
BENCHMARK(BM_Kernel_PopcountXor)->Apply(KernelSizes);
BENCHMARK(BM_Kernel_AndNot)->Apply(KernelSizes);
BENCHMARK(BM_Kernel_PopcountAndNot)->Apply(KernelSizes);
BENCHMARK(BM_Kernel_Any)->Apply(KernelSizes);
BENCHMARK(BM_Kernel_XorAccumulate8)->Apply(KernelSizes);

void BM_BitVectorXor(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  BitVector a(bits);
  BitVector b(bits);
  for (std::size_t i = 0; i < bits / 8; ++i) {
    a.set(rng.uniform(bits));
    b.set(rng.uniform(bits));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.xor_with(b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_BitVectorXor)->Arg(512)->Arg(2048)->Arg(8192);

void BM_BitVectorPopcountXor(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  BitVector a(bits);
  BitVector b(bits);
  for (std::size_t i = 0; i < bits / 8; ++i) {
    a.set(rng.uniform(bits));
    b.set(rng.uniform(bits));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.popcount_xor(b));
  }
}
BENCHMARK(BM_BitVectorPopcountXor)->Arg(512)->Arg(2048)->Arg(8192);

void BM_RobustSolitonSample(benchmark::State& state) {
  const lt::RobustSoliton rs(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.sample(rng));
  }
}
BENCHMARK(BM_RobustSolitonSample)->Arg(512)->Arg(2048)->Arg(8192);

void BM_FenwickAddQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fenwick<std::int64_t> f(n);
  Rng rng(4);
  for (auto _ : state) {
    f.add(rng.uniform(n), 1);
    benchmark::DoNotOptimize(f.prefix_sum(rng.uniform(n)));
  }
}
BENCHMARK(BM_FenwickAddQuery)->Arg(512)->Arg(2048)->Arg(8192);

void BM_GaussianInsert(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  lt::LtEncoder enc(lt::make_native_payloads(k, 8, 5));
  Rng rng(6);
  std::vector<CodedPacket> stream;
  for (std::size_t i = 0; i < 2 * k; ++i) stream.push_back(enc.encode(rng));
  std::size_t i = 0;
  gf2::OnlineGaussianSolver solver(k, 8);
  for (auto _ : state) {
    if (solver.complete() || i >= stream.size()) {
      state.PauseTiming();
      solver = gf2::OnlineGaussianSolver(k, 8);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(solver.insert(stream[i++]));
  }
}
BENCHMARK(BM_GaussianInsert)->Arg(512)->Arg(2048);

void BM_BpReceive(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  lt::LtEncoder enc(lt::make_native_payloads(k, 8, 7));
  Rng rng(8);
  std::vector<CodedPacket> stream;
  for (std::size_t i = 0; i < 3 * k; ++i) stream.push_back(enc.encode(rng));
  std::size_t i = 0;
  auto decoder = std::make_unique<lt::BpDecoder>(k, 8);
  for (auto _ : state) {
    if (decoder->complete() || i >= stream.size()) {
      state.PauseTiming();
      decoder = std::make_unique<lt::BpDecoder>(k, 8);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(decoder->receive(stream[i++]));
  }
}
BENCHMARK(BM_BpReceive)->Arg(512)->Arg(2048);

}  // namespace

int main(int argc, char** argv) {
  return ltnc::bench::run_benchmarks(argc, argv, "BENCH_kernels.json");
}
