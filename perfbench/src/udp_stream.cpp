// udp_stream — a live stream at a fixed rate over real loopback sockets.
//
// The benchmark's own open loop over stream::StreamSource and three
// stream::Receivers: a 64 KiB block (k = 1,024 symbols of 64 B) is born
// every 100 ms whatever the receivers do, each must decode before a 250 ms
// deadline, and 5 % of the source's datagrams are dropped before the
// socket (the budget's loss estimate matches). The source sends each
// block's symbols at the stream's bitrate, spread evenly over 80 % of the
// block period on a fixed schedule of 64-symbol batches: at every wake-up
// it sends every batch that has fallen due, so a late wake-up delays
// symbols but never drops them, and a block's traffic does not depend on
// how promptly the host ran the loop. One thread, four sockets; the loop
// sleeps until the next batch or block is due. Latency runs from a block's
// scheduled birth to its verified decode, so a stalled generator or a path
// that falls behind the pace shows up in every block behind it.
//
// Why not 4 KiB blocks at 100 blocks/s sent in one burst: their latency
// (p50 ~1.7 ms) was no larger than the wake-up and preemption jitter of a
// busy 4-vCPU KVM guest (0.5–6 ms), so the per-run p95 ranged 1.9–4.9 ms
// over ten seeds. Unpaced 64 KiB bursts still spread 20 % (p50) and 32 %
// (p95) over ten seeds, tracking how fast the host ran each minute. Why not
// the endpoint's own token-bucket pacer: a bucket that holds one batch
// loses the tokens of every late wake-up, so on a busy host a block's
// budget was still unsent at its deadline and the traffic (and with it
// every count) changed from run to run.
#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "loopback.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "stream/receiver.hpp"
#include "stream/stream_source.hpp"
#include "wire/codec.hpp"

namespace perfbench {
namespace {

using namespace ltnc;

constexpr std::size_t kReceivers = 3;
constexpr std::size_t kBlockBytes = 65536;
constexpr std::size_t kSymbolBytes = 64;
constexpr std::size_t kK = kBlockBytes / kSymbolBytes;
constexpr stream::Instant kBlockPeriodUs = 100'000;  // 10 blocks/s
constexpr stream::Instant kDeadlineUs = 250'000;
constexpr double kLoss = 0.05;
/// Over 1,000 blocks LT at k = 1,024 decoded from 1.27k symbols at p50 and
/// 1.42k at most, so a budget of 1.6k/(1 − loss) per receiver leaves
/// every block decodable.
constexpr double kBudgetOverhead = 0.6;
/// 70 blocks × 3 receivers = 210 latency samples per repetition: an exact
/// p95 with ten samples beyond it.
constexpr std::uint64_t kBlocks = 70;
/// Share of the block period the source takes to send a block.
constexpr double kPaceShare = 0.8;
constexpr std::size_t kSetupTrials = 15;

/// Decode-side op counters of every block, kept up to date while the
/// block is live (the receiver destroys its decoder at the deadline).
using OpsById = std::unordered_map<ContentId, OpCounters>;

void snapshot(const store::ContentStore& contents, bool decode, OpsById& ops) {
  for (std::size_t i = 0; i < contents.size(); ++i) {
    const session::NodeProtocol* p = contents.at(i).protocol();
    if (p != nullptr) ops[contents.at(i).id()] = decode ? p->decode_ops() : p->recode_ops();
  }
}

OpCounters total(const OpsById& ops) {
  OpCounters sum;
  for (const auto& [id, o] : ops) sum += o;
  return sum;
}

/// Everything a repetition builds before its first frame.
struct Rig {
  Rig(const stream::StreamConfig& config, const stream::StreamConfig& verify_config,
      const session::EndpointConfig& endpoint_config)
      : source_endpoint(endpoint_config, std::make_unique<store::ContentStore>()),
        source(config, source_endpoint),
        tx_socket(open_loopback()) {
    all_sockets.push_back(tx_socket.get());
    for (std::size_t r = 0; r < kReceivers; ++r) {
      receivers.push_back(std::make_unique<stream::Receiver>(verify_config, endpoint_config));
      rx_sockets.push_back(open_loopback());
      all_sockets.push_back(rx_sockets.back().get());
      if (tx_socket->add_peer("127.0.0.1", rx_sockets[r]->local_port()) != r) {
        throw std::runtime_error("source peer registry out of order");
      }
    }
  }

  session::Endpoint source_endpoint;
  stream::StreamSource source;
  std::vector<std::unique_ptr<stream::Receiver>> receivers;
  std::unique_ptr<UdpTransport> tx_socket;
  std::vector<std::unique_ptr<UdpTransport>> rx_sockets;
  std::vector<const UdpTransport*> all_sockets;
};

}  // namespace

double udp_stream_rep_seconds() {
  return static_cast<double>(kBlocks * kBlockPeriodUs + kDeadlineUs) * 1e-6;
}

RepResult run_udp_stream(const WorkloadOptions& options, Tracer& tracer) {
  RepResult out;
  stream::StreamConfig config;
  config.block_bytes = kBlockBytes;
  config.symbol_bytes = kSymbolBytes;
  config.ticks_per_block = kBlockPeriodUs;
  config.deadline_ticks = kDeadlineUs;
  config.total_blocks = kBlocks;
  config.base_overhead = kBudgetOverhead;
  config.loss_estimate = kLoss;
  config.fanout = kReceivers;
  config.seed = mix(options.seed, 0x5000);
  stream::StreamConfig verify_config = config;
  verify_config.seed += options.verify_seed_offset;
  session::EndpointConfig endpoint_config;
  endpoint_config.feedback = session::FeedbackMode::kNone;
  // The send schedule: a block's frames (all receivers, before loss) go
  // out in batches of kBatch, batch i of block b due at birth_of(b) +
  // i · batch_interval_us.
  const std::uint64_t frames_per_block =
      std::uint64_t{stream::redundancy_budget(kK, kBudgetOverhead, kLoss)} * kReceivers;
  const double batch_interval_us = kPaceShare * static_cast<double>(kBlockPeriodUs) *
                                   static_cast<double>(kBatch) /
                                   static_cast<double>(frames_per_block);

  // Set-up takes a fraction of a millisecond, so it is timed over several
  // builds (median) and the last one is run.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupTrials; ++i) {
    rig.reset();
    const std::int64_t setup_start = now_ns();
    rig = std::make_unique<Rig>(config, verify_config, endpoint_config);
    setup_s.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);
  }
  out.setup_s = median(setup_s);
  session::Endpoint& source_endpoint = rig->source_endpoint;
  stream::StreamSource& source = rig->source;
  std::vector<std::unique_ptr<stream::Receiver>>& receivers = rig->receivers;
  UdpTransport& tx_socket = *rig->tx_socket;
  std::vector<std::unique_ptr<UdpTransport>>& rx_sockets = rig->rx_sockets;

  Rng push_rng(mix(options.seed, 0x5001));
  Rng loss_rng(mix(options.seed, 0x5002));
  std::vector<wire::Frame> tx_frames(kBatch);
  std::vector<UdpTransport::TxItem> items(kBatch);
  RxBuffers rx_buffers;
  // Per (receiver, block): symbols delivered up to its completion, and
  // whether it completed.
  std::vector<std::vector<std::uint32_t>> symbols(kReceivers,
                                                  std::vector<std::uint32_t>(kBlocks, 0));
  std::vector<std::vector<bool>> completed(kReceivers, std::vector<bool>(kBlocks, false));
  std::vector<std::int64_t> first_sent(kBlocks, -1);
  // Frames polled from the source per block, and the block of each frame
  // in the batch being built.
  std::vector<std::uint64_t> polled(kBlocks, 0);
  std::array<std::uint64_t, kBatch> batch_seq{};
  OpsById encode_ops;
  std::vector<OpsById> decode_ops(kReceivers);

  // --- timed interval -------------------------------------------------------
  const std::uint64_t fresh_before = WordArena::local().stats().fresh_blocks;
  const double cpu_start = cpu_seconds();
  const std::int64_t start = now_ns();
  const auto stream_now = [start]() {
    return static_cast<stream::Instant>((now_ns() - start) / 1000);
  };
  // Frames due by stream time `t` over the blocks emitted by then; a
  // block's frames all fall due before the next one is born.
  const auto frames_due = [&](stream::Instant t) -> std::uint64_t {
    const std::uint64_t born = source.blocks_emitted();
    if (born == 0) return 0;
    const double into = static_cast<double>(t - source.birth_of(born - 1));
    const auto batches = static_cast<std::uint64_t>(into / batch_interval_us) + 1;
    return (born - 1) * frames_per_block + std::min(frames_per_block, batches * kBatch);
  };
  std::int64_t last_verified = start;
  std::uint64_t opened = 0;
  std::uint64_t pushed = 0;  // frames polled from the source, before loss
  std::uint64_t post_completion = 0;
  std::size_t next_receiver = 0;
  std::uint64_t iteration = 0;
  const std::int64_t safety = static_cast<std::int64_t>(
      (kBlocks * kBlockPeriodUs + kDeadlineUs) * 1000 + 30'000'000'000LL);

  const auto on_symbol = [&](std::size_t r, UdpTransport::PeerIndex peer,
                             std::span<const std::uint8_t> bytes) {
    ContentId id = 0;
    if (wire::peek_content(bytes, id) != wire::DecodeStatus::kOk || id == 0 || id > kBlocks) {
      throw std::runtime_error("receiver got a frame of no block");
    }
    const std::uint64_t seq = stream::StreamSource::seq_of(id);
    stream::Receiver& rx = *receivers[r];
    const std::uint64_t done_before = rx.stream_stats().blocks_completed;
    const std::uint64_t failed_before = rx.stream_stats().verify_failures;
    session::Endpoint::Event event;
    {
      Scope span(tracer, Op::kIngest, request_id(r, seq));
      event = rx.ingest(peer, bytes, stream_now());
    }
    if (event != session::Endpoint::Event::kDelivered) return;
    if (completed[r][seq]) {
      ++post_completion;
      return;
    }
    ++symbols[r][seq];
    if (rx.stream_stats().blocks_completed != done_before) {
      const std::int64_t done = now_ns();
      completed[r][seq] = true;
      out.completion_ms.push_back(
          static_cast<double>(done - start) * 1e-6 -
          static_cast<double>(source.birth_of(seq)) * 1e-3);
      last_verified = done;
    } else if (rx.stream_stats().verify_failures != failed_before) {
      completed[r][seq] = true;  // decoded to the wrong bytes: a miss
    }
  };

  while (receivers[0]->stream_stats().blocks_finalized < kBlocks) {
    if (now_ns() - start > safety) {
      ++out.stalls;
      break;
    }
    const stream::Instant woke = stream_now();
    {
      Scope iter(tracer, Op::kIter, iteration++);
      snapshot(source_endpoint.contents(), false, encode_ops);
      source_endpoint.tick(woke);
      {
        Scope span(tracer, Op::kAdvance);
        source.advance(woke);
      }
      for (; opened < source.blocks_emitted(); ++opened) {
        for (std::size_t r = 0; r < kReceivers; ++r) {
          Scope span(tracer, Op::kOpenBlock, request_id(r, opened));
          receivers[r]->open_block(opened, source.birth_of(opened));
        }
      }
      // Push every batch due by now, receivers served round-robin; a batch
      // never spans two blocks.
      const std::uint64_t due = frames_due(woke);
      while (pushed < due) {
        const std::uint64_t block_end = (pushed / frames_per_block + 1) * frames_per_block;
        const std::uint64_t batch_end = std::min({due, block_end, pushed + kBatch});
        std::array<std::size_t, kReceivers> sent_to{};
        std::size_t n = 0;
        while (pushed < batch_end) {
          bool ok = false;
          {
            Scope span(tracer, Op::kPushSymbol, next_receiver);
            ok = source.push_symbol(static_cast<session::PeerId>(next_receiver), push_rng);
          }
          if (!ok) {
            // Every live block's budget is spent or retired: the loop fell
            // behind by more than a deadline. Skip what can no longer go.
            pushed = due;
            break;
          }
          ++pushed;
          next_receiver = (next_receiver + 1) % kReceivers;
          session::PeerId dest = 0;
          {
            Scope span(tracer, Op::kPollTransmit, dest);
            source_endpoint.poll_transmit(dest, tx_frames[n]);
          }
          ContentId id = 0;
          wire::peek_content(tx_frames[n].bytes(), id);
          const std::uint64_t seq = stream::StreamSource::seq_of(id);
          ++polled[seq];
          if (loss_rng.chance(kLoss)) continue;  // emulated sender-side loss
          items[n] = UdpTransport::TxItem{dest, tx_frames[n].bytes()};
          batch_seq[n] = seq;
          ++sent_to[dest];
          ++n;
        }
        if (n == 0) continue;
        if (!send_all(tx_socket, {items.data(), n}, tracer)) {
          throw std::runtime_error("source socket error");
        }
        const std::int64_t sent_at = now_ns();
        for (std::size_t i = 0; i < n; ++i) {
          if (first_sent[batch_seq[i]] < 0) first_sent[batch_seq[i]] = sent_at;
        }
        for (std::size_t r = 0; r < kReceivers; ++r) {
          receive_exactly(*rx_sockets[r], sent_to[r], rx_buffers, tracer,
                          [&](UdpTransport::PeerIndex peer, std::span<const std::uint8_t> bytes) {
                            on_symbol(r, peer, bytes);
                          });
        }
      }
      const stream::Instant now = stream_now();
      for (std::size_t r = 0; r < kReceivers; ++r) {
        snapshot(receivers[r]->endpoint().contents(), true, decode_ops[r]);
        Scope span(tracer, Op::kFinalizeDue, r);
        receivers[r]->finalize_due(now);
      }
    }
    // Sleep until another batch of the block being sent falls due, the
    // next block is born or the oldest open one is due.
    const std::uint64_t oldest = receivers[0]->stream_stats().blocks_finalized;
    if (oldest == kBlocks) break;
    stream::Instant wake = source.birth_of(oldest) + kDeadlineUs + 1;
    const std::uint64_t sending = pushed / frames_per_block;
    if (sending < source.blocks_emitted()) {
      const std::uint64_t batch = pushed % frames_per_block / kBatch;
      wake = std::min(wake, source.birth_of(sending) +
                                static_cast<stream::Instant>(
                                    std::ceil(static_cast<double>(batch) * batch_interval_us)));
    } else if (sending < kBlocks) {
      wake = std::min(wake, source.birth_of(sending));
    }
    sleep_until_ns(start + static_cast<std::int64_t>(wake) * 1000);
  }
  snapshot(source_endpoint.contents(), false, encode_ops);
  source.advance(stream_now());  // retires the blocks still in its window
  out.timed_s = static_cast<double>(last_verified - start) * 1e-9;
  out.cpu_s = cpu_seconds() - cpu_start;
  const std::uint64_t fresh_blocks = WordArena::local().stats().fresh_blocks - fresh_before;

  // --- outcomes and counts --------------------------------------------------
  stream::ReceiverStats fleet;
  session::SessionStats rx;
  OpCounters decode;
  std::uint64_t decode_symbols = 0;
  for (std::size_t r = 0; r < kReceivers; ++r) {
    const stream::ReceiverStats& s = receivers[r]->stream_stats();
    fleet.blocks_completed += s.blocks_completed;
    fleet.deadline_misses += s.deadline_misses;
    fleet.verify_failures += s.verify_failures;
    rx += receivers[r]->endpoint().stats();
    decode += total(decode_ops[r]);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      if (completed[r][b]) decode_symbols += symbols[r][b];
    }
  }
  out.attempted = kBlocks * kReceivers;
  out.verified = fleet.blocks_completed;
  out.verify_failures = fleet.verify_failures;
  out.verified_bytes = static_cast<double>(out.verified * kBlockBytes);
  out.schedule_slips = static_cast<std::uint64_t>(
      std::count_if(polled.begin(), polled.end(),
                    [&](std::uint64_t frames) { return frames != frames_per_block; }));
  // Misses (late or wrong) count as infinite latency.
  while (out.completion_ms.size() < out.attempted) out.completion_ms.push_back(kInf);
  std::vector<double> lag_us;
  for (std::uint64_t seq = 0; seq < kBlocks; ++seq) {
    if (first_sent[seq] < 0) continue;
    lag_us.push_back(static_cast<double>(first_sent[seq] - start) * 1e-3 -
                     static_cast<double>(source.birth_of(seq)));
  }
  const ltnc::net::UdpStats net = total_stats(rig->all_sockets);
  const OpCounters encode = total(encode_ops);
  const double bytes = out.verified_bytes;
  const double completed_blocks = static_cast<double>(out.verified);
  const session::SessionStats& src = source_endpoint.stats();

  out.counts.push_back(
      {"reception_ratio",
       ratio(static_cast<double>(decode_symbols), static_cast<double>(kK) * completed_blocks),
       "ratio"});
  out.counts.push_back(
      {"wire_bytes_per_byte", ratio(static_cast<double>(net.bytes_sent), bytes), "ratio"});
  add_socket_metrics(out, net, static_cast<double>(net.frames_sent * kSymbolBytes));
  out.counts.push_back({"session.frames_per_payload",
                        ratio(static_cast<double>(net.frames_sent),
                              static_cast<double>(rx.data_delivered)),
                        "ratio"});
  out.counts.push_back(
      {"session.retransmits", static_cast<double>(src.advertise_retransmits), "count"});
  out.counts.push_back(
      {"session.post_completion_frames", static_cast<double>(post_completion), "count"});
  out.counts.push_back({"lt.encode_words_per_symbol",
                        ratio(static_cast<double>(encode.data_word_ops),
                              static_cast<double>(encode.invocations)),
                        "word/symbol"});
  out.counts.push_back({"lt.decode_words_per_byte",
                        ratio(static_cast<double>(decode.data_word_ops), bytes), "word/B"});
  out.counts.push_back({"lt.decode_control_per_symbol",
                        ratio(static_cast<double>(decode.control_total()),
                              static_cast<double>(rx.data_delivered)),
                        "op/symbol"});
  out.counts.push_back(
      {"common.data_bytes_per_byte",
       ratio(8.0 * static_cast<double>(encode.data_word_ops + decode.data_word_ops), bytes),
       "ratio"});
  out.measured.push_back(
      {"common.arena_fresh_blocks", static_cast<double>(fresh_blocks), "count"});
  out.counts.push_back({"store.contents_registered",
                        static_cast<double>(kBlocks * (kReceivers + 1)), "count"});
  out.counts.push_back({"store.contents_expired",
                        static_cast<double>(rx.contents_expired + src.contents_expired),
                        "count"});
  out.counts.push_back({"stream.symbols_per_block",
                        ratio(static_cast<double>(src.frames_sent), static_cast<double>(kBlocks)),
                        "symbol/block"});
  out.counts.push_back(
      {"stream.expired_frames", static_cast<double>(rx.expired_frames), "count"});
  out.measured.push_back({"stream.generator_lag_us_p99", percentile(lag_us, 99.0), "us"});
  return out;
}

}  // namespace perfbench
