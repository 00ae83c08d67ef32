// gossip_ltnc — the paper's push gossip (§IV-A) on the event engine.
//
// dissem::EventSimulation in kScale mode: one source injects LT packets,
// every node recodes LTNC once past the aggressiveness gate and pushes to
// a random peer under binary feedback; every frame of every conversation
// crosses the wire codec over the in-process SimChannel bus. One thread,
// deterministic per seed. After each gossip round the benchmark verifies
// every node that completed in it against the content's generator.
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "dissemination/event_engine.hpp"
#include "harness.hpp"
#include "session/protocols.hpp"

namespace perfbench {
namespace {

using namespace ltnc;

constexpr std::size_t kNodes = 200;
constexpr std::size_t kK = 512;
constexpr std::size_t kPayloadBytes = 512;
constexpr std::int64_t kSafetyTimeout = 60'000'000'000;  // ns
/// Building the simulator takes well under a millisecond, so set-up is
/// timed over several builds (median) and the last one is run.
constexpr std::size_t kSetupTrials = 15;

}  // namespace

RepResult run_gossip_ltnc(const WorkloadOptions& options, Tracer& tracer) {
  RepResult out;
  dissem::SimConfig config;
  config.num_nodes = kNodes;
  config.k = kK;
  config.payload_bytes = kPayloadBytes;
  config.seed = mix(options.seed, 0x4000);
  config.content_seed = mix(options.seed, 0x4001);
  config.feedback = session::FeedbackMode::kBinary;
  // The benchmark verifies each node itself, as it completes.
  config.verify_payloads = false;
  std::unique_ptr<dissem::EventSimulation> built;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupTrials; ++i) {
    built.reset();
    const std::int64_t setup_start = now_ns();
    built = std::make_unique<dissem::EventSimulation>(session::Scheme::kLtnc, config,
                                                      dissem::EngineMode::kScale);
    setup_s.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);
  }
  out.setup_s = median(setup_s);
  dissem::EventSimulation& sim = *built;
  dissem::SimCore& fleet = sim.core();

  // --- timed interval -------------------------------------------------------
  const std::uint64_t fresh_before = WordArena::local().stats().fresh_blocks;
  const double cpu_start = cpu_seconds();
  const std::int64_t start = now_ns();
  std::int64_t last_verified = start;
  std::vector<bool> verified(kNodes, false);
  std::size_t remaining = kNodes;
  while (!sim.finished() && remaining > 0) {
    if (now_ns() - start > kSafetyTimeout) {
      ++out.stalls;
      break;
    }
    const std::uint64_t round = sim.round() + 1;
    Scope iter(tracer, Op::kIter, round);
    {
      Scope span(tracer, Op::kStep, round);
      sim.step();
    }
    const std::int64_t round_end = now_ns();
    for (NodeId n = 0; n < kNodes; ++n) {
      if (verified[n]) continue;
      const session::Endpoint* peek = fleet.peek_endpoint(n);
      if (peek == nullptr || !peek->complete()) continue;
      store::Content& content = fleet.endpoint(n).contents().at(0);
      bool ok = false;
      {
        Scope span(tracer, Op::kVerify, round);
        ok = content.finish_and_verify(config.content_seed + options.verify_seed_offset);
      }
      verified[n] = true;
      --remaining;
      if (ok) {
        ++out.verified;
        out.verified_bytes += static_cast<double>(kK * kPayloadBytes);
        out.completion_ms.push_back(static_cast<double>(round_end - start) * 1e-6);
        last_verified = now_ns();
      } else {
        ++out.verify_failures;
        out.completion_ms.push_back(kInf);
      }
    }
  }
  out.timed_s = static_cast<double>(last_verified - start) * 1e-9;
  out.cpu_s = cpu_seconds() - cpu_start;
  const std::uint64_t fresh_blocks = WordArena::local().stats().fresh_blocks - fresh_before;
  out.attempted = kNodes;
  for (std::size_t i = 0; i < remaining; ++i) out.completion_ms.push_back(kInf);

  // --- counts -----------------------------------------------------------------
  const dissem::SimResult result = fleet.finalise();
  const session::SessionStats& nodes = result.sessions;
  const session::SessionStats& source = fleet.source_endpoint().stats();
  const double frames = static_cast<double>(nodes.frames_sent + source.frames_sent);
  const double wire_bytes = static_cast<double>(nodes.bytes_sent + source.bytes_sent);
  const double data_frames = static_cast<double>(nodes.data_sent + source.data_sent);
  const double payloads = static_cast<double>(result.traffic.payload_transfers);
  const double bytes = out.verified_bytes;
  const core::LtncStats& codec = result.ltnc_stats;
  const double receives = static_cast<double>(codec.receives);
  const double recodes = static_cast<double>(codec.recodes);
  std::vector<double> rounds;
  for (const std::size_t r : result.completion_round) rounds.push_back(static_cast<double>(r));

  out.counts.push_back({"reception_ratio",
                        ratio(payloads, static_cast<double>(kK * out.verified)), "ratio"});
  out.counts.push_back({"wire_bytes_per_byte", ratio(wire_bytes, bytes), "ratio"});
  out.counts.push_back({"wire.overhead_bytes_per_frame",
                        ratio(wire_bytes - data_frames * kPayloadBytes, frames), "B/frame"});
  out.counts.push_back({"session.frames_per_payload", ratio(frames, payloads), "ratio"});
  out.counts.push_back({"session.abort_share",
                        ratio(static_cast<double>(nodes.aborts_sent),
                              static_cast<double>(nodes.advertises_received)),
                        "ratio"});
  out.counts.push_back(
      {"session.retransmits",
       static_cast<double>(nodes.advertise_retransmits + source.advertise_retransmits),
       "count"});
  out.counts.push_back({"lt.decode_words_per_byte",
                        ratio(static_cast<double>(result.decode_ops.data_word_ops), bytes),
                        "word/B"});
  out.counts.push_back(
      {"lt.decode_control_per_symbol",
       ratio(static_cast<double>(result.decode_ops.control_total()), payloads), "op/symbol"});
  out.counts.push_back(
      {"core.recode_control_per_recode",
       ratio(static_cast<double>(result.recode_ops.control_total()), recodes), "op/recode"});
  out.counts.push_back(
      {"core.recode_words_per_recode",
       ratio(static_cast<double>(result.recode_ops.data_word_ops), recodes), "word/recode"});
  out.counts.push_back(
      {"core.decode_control_per_packet",
       ratio(static_cast<double>(result.decode_ops.control_total()), receives), "op/packet"});
  out.counts.push_back({"core.redundant_rejected_share",
                        ratio(static_cast<double>(codec.redundant_rejected), receives),
                        "ratio"});
  out.counts.push_back(
      {"core.recode_failures", static_cast<double>(codec.recode_failures), "count"});
  out.counts.push_back(
      {"common.data_bytes_per_byte",
       ratio(8.0 * static_cast<double>(result.decode_ops.data_word_ops +
                                       result.recode_ops.data_word_ops),
             bytes),
       "ratio"});
  out.measured.push_back(
      {"common.arena_fresh_blocks", static_cast<double>(fresh_blocks), "count"});
  out.counts.push_back({"store.contents_registered",
                        static_cast<double>(fleet.materialized_count()), "count"});
  out.counts.push_back(
      {"dissemination.rounds", static_cast<double>(result.rounds_run), "count"});
  out.counts.push_back(
      {"dissemination.completion_round_p50", percentile(rounds, 50.0), "round"});
  out.counts.push_back(
      {"dissemination.completion_round_p95", percentile(rounds, 95.0), "round"});
  out.counts.push_back(
      {"dissemination.events", static_cast<double>(sim.events_processed()), "count"});
  out.counts.push_back(
      {"dissemination.transfers", static_cast<double>(result.traffic.attempts), "count"});
  out.counts.push_back({"dissemination.materialized_nodes",
                        static_cast<double>(fleet.materialized_count()), "count"});
  return out;
}

}  // namespace perfbench
