// Extension bench — generations over LTNC (paper §I points at Avalanche's
// generations [2][13] as a directly applicable optimisation).
//
// Sweeps the generation count G for a fixed content of K blocks through a
// source → relay → sink pipeline and reports the classic trade-off:
// smaller code vectors and cheaper decoding versus more packets needed
// (each generation pays its own LT overhead and the coupon-collector cost
// of hitting the last incomplete generation).
//
// Each generation is a plain LTNC content of K/G blocks: relay and sink
// are ContentStores of G contents, and the relay recodes whichever content
// its SwarmScheduler picks (rarest first), so the rarest-generation-first
// policy is the store's own.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "lt/lt_encoder.hpp"
#include "store/content_store.hpp"
#include "store/swarm_scheduler.hpp"
#include "wire/codec.hpp"

namespace {

using namespace ltnc;

struct RunResult {
  std::size_t packets_to_sink = 0;
  std::uint64_t decode_ctrl_ops = 0;
  std::size_t recoded = 0;
  std::size_t header_bytes = 0;  ///< measured frame bytes minus payloads
  bool ok = false;
};

/// One plain LTNC content per generation, ids 1..G. Aggressiveness 0
/// lets a node recode a generation as soon as it holds anything of it.
void register_generations(store::ContentStore& contents,
                          std::size_t generations, std::size_t per_gen,
                          std::size_t payload_bytes) {
  for (std::size_t g = 0; g < generations; ++g) {
    store::ContentConfig cfg;
    cfg.id = static_cast<ContentId>(g + 1);
    cfg.k = per_gen;
    cfg.payload_bytes = payload_bytes;
    cfg.aggressiveness = 0.0;
    contents.register_content(cfg);
  }
}

RunResult run(std::size_t total_blocks, std::size_t generations,
              std::size_t payload_bytes, std::uint64_t seed) {
  const std::size_t per_gen = total_blocks / generations;
  const auto all =
      lt::make_native_payloads(total_blocks, payload_bytes, seed);
  std::vector<lt::LtEncoder> sources;
  for (std::size_t g = 0; g < generations; ++g) {
    std::vector<Payload> slice(all.begin() + g * per_gen,
                               all.begin() + (g + 1) * per_gen);
    sources.emplace_back(std::move(slice));
  }

  store::ContentStore relay;
  store::ContentStore sink;
  register_generations(relay, generations, per_gen, payload_bytes);
  register_generations(sink, generations, per_gen, payload_bytes);
  store::SwarmScheduler scheduler;
  std::vector<std::uint8_t> eligible(generations);

  Rng rng(seed + 5);
  RunResult result;
  const std::size_t budget = 80 * total_blocks;
  for (std::size_t step = 0; step < budget && !sink.all_complete(); ++step) {
    const std::size_t g = rng.uniform(generations);
    relay.at(g).deliver(sources[g].encode(rng));
    for (std::size_t i = 0; i < generations; ++i) {
      eligible[i] = relay.at(i).can_emit() ? 1 : 0;
    }
    const std::size_t pick = scheduler.pick(relay, eligible);
    if (pick == store::SwarmScheduler::kNone) continue;
    store::Content& from = relay.at(pick);
    if (auto pkt = from.protocol()->emit(rng)) {
      ++result.recoded;
      result.header_bytes +=
          wire::serialized_size(from.id(), *pkt) - payload_bytes;
      store::Content& to = sink.at(pick);
      if (!to.would_reject(pkt->coeffs)) {
        to.deliver(*pkt);
        ++result.packets_to_sink;
      }
    }
  }
  result.ok = sink.all_complete();
  for (std::size_t g = 0; g < generations; ++g) {
    result.decode_ctrl_ops +=
        sink.at(g).protocol()->decode_ops().control_total();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ltnc;
  const auto args = bench::Args::parse(argc, argv);
  const std::size_t total = args.k != 0 ? args.k : (args.full ? 2048 : 512);
  constexpr std::size_t m = 64;

  bench::print_header(
      "Extension: generations over LTNC (header size vs coding efficiency)",
      "K = " + std::to_string(total) + " blocks, m = " + std::to_string(m) +
          " B, source->relay->sink pipeline, one content per generation");

  TextTable table({"generations", "header B/pkt", "pkts to sink",
                   "decode ctrl ops", "complete"});
  for (const std::size_t g : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                              std::size_t{64}}) {
    if (total % g != 0) continue;
    const RunResult r = run(total, g, m, args.seed);
    const double header_per_packet =
        r.recoded == 0 ? 0.0
                       : static_cast<double>(r.header_bytes) /
                             static_cast<double>(r.recoded);
    table.add_row({TextTable::integer(static_cast<long long>(g)),
                   TextTable::num(header_per_packet, 1),
                   TextTable::integer(
                       static_cast<long long>(r.packets_to_sink)),
                   TextTable::integer(
                       static_cast<long long>(r.decode_ctrl_ops)),
                   r.ok ? "yes" : "NO"});
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nheader B/pkt is the mean measured frame size minus the "
               "payload over every recoded packet (content id, dimensions "
               "and the adaptively encoded code vector).\n"
            << "expected: headers and decode control shrink with G while "
               "the packets needed grow (per-generation LT overhead).\n";
  return 0;
}
