// Generations over LTNC (paper §I: "Since LTNC are linear network codes,
// traditional optimizations (e.g., generations [2], [13]) … can be
// directly applied"). Each generation is an independent LTNC instance, so
// a file of K blocks split into G generations is G plain contents of K/G
// blocks: the store and its rarest-first scheduler do the rest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "core/ltnc_codec.hpp"
#include "lt/lt_encoder.hpp"
#include "store/content_store.hpp"
#include "store/swarm_scheduler.hpp"
#include "wire/codec.hpp"

namespace ltnc {
namespace {

constexpr std::size_t kM = 16;

/// Generation g of a file seeded `seed` holds the natives of seed + g.
std::uint64_t generation_seed(std::uint64_t seed, std::size_t g) {
  return seed + g;
}

/// Per-generation sources: one LT encoder per generation (what an
/// Avalanche-style seed does).
std::vector<lt::LtEncoder> generation_sources(std::size_t per_gen,
                                              std::size_t gens,
                                              std::uint64_t seed) {
  std::vector<lt::LtEncoder> encoders;
  for (std::size_t g = 0; g < gens; ++g) {
    encoders.emplace_back(
        lt::make_native_payloads(per_gen, kM, generation_seed(seed, g)));
  }
  return encoders;
}

/// One plain LTNC content per generation, ids 1..gens.
void register_generations(store::ContentStore& contents, std::size_t per_gen,
                          std::size_t gens) {
  for (std::size_t g = 0; g < gens; ++g) {
    store::ContentConfig cfg;
    cfg.id = static_cast<ContentId>(g + 1);
    cfg.k = per_gen;
    cfg.payload_bytes = kM;
    contents.register_content(cfg);
  }
}

TEST(Generations, RecodedTrafficDisseminates) {
  // seed → relay → sink; the relay recodes whichever generation its
  // scheduler picks (rarest first) and the sink hears only recoded
  // traffic.
  constexpr std::size_t kPerGen = 16;
  constexpr std::size_t kGens = 4;
  auto sources = generation_sources(kPerGen, kGens, 11);
  store::ContentStore relay;
  store::ContentStore sink;
  register_generations(relay, kPerGen, kGens);
  register_generations(sink, kPerGen, kGens);
  store::SwarmScheduler scheduler;
  std::vector<std::uint8_t> eligible(kGens);
  Rng rng(12);
  std::size_t steps = 0;
  while (!sink.all_complete() && steps < 60 * kPerGen * kGens) {
    ++steps;
    const std::size_t g = rng.uniform(kGens);
    relay.at(g).deliver(sources[g].encode(rng));
    for (std::size_t i = 0; i < kGens; ++i) {
      eligible[i] = relay.at(i).can_emit() ? 1 : 0;
    }
    const std::size_t pick = scheduler.pick(relay, eligible);
    if (pick == store::SwarmScheduler::kNone) continue;
    if (auto pkt = relay.at(pick).protocol()->emit(rng)) {
      if (!sink.at(pick).would_reject(pkt->coeffs)) {
        sink.at(pick).deliver(*pkt);
      }
    }
  }
  ASSERT_TRUE(sink.all_complete());
  for (std::size_t g = 0; g < kGens; ++g) {
    EXPECT_TRUE(sink.at(g).finish_and_verify(generation_seed(11, g)))
        << "generation " << g;
  }
}

TEST(Generations, HeaderShrinksWithGenerations) {
  // The point of generations: a K = 1024 content carries 128-byte dense
  // code vectors monolithically but only 16-byte vectors with G = 8. The
  // sizes come from the wire codec (never from separate arithmetic), at
  // a realistic degree where the adaptive encoder picks the bitmap, and
  // both frames carry a content id.
  const std::size_t degree = 600;  // past the sparse/dense crossover
  std::vector<std::size_t> mono_idx, gen_idx;
  for (std::size_t i = 0; i < degree; ++i) mono_idx.push_back(i);
  for (std::size_t i = 0; i < 100; ++i) gen_idx.push_back(i);
  const CodedPacket mono(BitVector::from_indices(1024, mono_idx), Payload(0));
  const CodedPacket gen(BitVector::from_indices(128, gen_idx), Payload(0));
  ASSERT_EQ(wire::choose_coeff_encoding(mono.coeffs),
            wire::CoeffEncoding::kDense);
  ASSERT_EQ(wire::choose_coeff_encoding(gen.coeffs),
            wire::CoeffEncoding::kDense);
  // Content 1 is the monolithic file, content 2 one of its generations:
  // the 128-byte vs 16-byte gap survives framing.
  EXPECT_EQ(wire::serialized_size(ContentId{1}, mono) -
                wire::serialized_size(ContentId{2}, gen),
            128u - 16u);
}

TEST(Generations, ControlCostBelowMonolithic) {
  // Decoding G small generations costs less control work than one big
  // instance at equal total content.
  constexpr std::size_t kTotal = 256;
  constexpr std::size_t kGens = 8;
  constexpr std::size_t kPerGen = kTotal / kGens;
  Rng rng(16);

  auto sources = generation_sources(kPerGen, kGens, 17);
  std::vector<std::unique_ptr<core::LtncCodec>> split;
  core::LtncConfig gen_cfg;
  gen_cfg.k = kPerGen;
  gen_cfg.payload_bytes = kM;
  for (std::size_t g = 0; g < kGens; ++g) {
    split.push_back(std::make_unique<core::LtncCodec>(gen_cfg));
  }
  const auto split_complete = [&] {
    for (const auto& codec : split) {
      if (!codec->complete()) return false;
    }
    return true;
  };
  std::size_t guard = 0;
  while (!split_complete() && ++guard < 50 * kTotal) {
    const std::size_t g = rng.uniform(kGens);
    split[g]->receive(sources[g].encode(rng));
  }
  ASSERT_TRUE(split_complete());
  std::uint64_t split_control = 0;
  for (const auto& codec : split) {
    split_control += codec->decode_ops().control_word_ops;
  }

  lt::LtEncoder mono_src(lt::make_native_payloads(kTotal, kM, 17));
  core::LtncConfig mono_cfg;
  mono_cfg.k = kTotal;
  mono_cfg.payload_bytes = kM;
  core::LtncCodec mono(mono_cfg);
  guard = 0;
  while (!mono.complete() && ++guard < 50 * kTotal) {
    mono.receive(mono_src.encode(rng));
  }
  ASSERT_TRUE(mono.complete());

  EXPECT_LT(split_control, mono.decode_ops().control_word_ops);
}

}  // namespace
}  // namespace ltnc
