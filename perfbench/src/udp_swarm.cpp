// udp_swarm — bulk file distribution over real loopback sockets.
//
// One plain session::Endpoint seeder holds a catalog of seeder-only LT
// contents and streams fresh symbols (FeedbackMode::kNone) to four
// receiver endpoints, one LtSinkProtocol per fetch, until each receiver's
// completion kAck stops it. Closed loop: every receiver keeps
// kOutstanding fetches open and starts its next content the moment one
// verifies. Five sockets, one thread; each iteration sends one batch,
// receives every datagram of it, then carries the receivers' acks back.
#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "loopback.hpp"
#include "lt/lt_encoder.hpp"
#include "session/endpoint.hpp"
#include "session/protocols.hpp"
#include "store/content_store.hpp"
#include "wire/codec.hpp"

namespace perfbench {
namespace {

using namespace ltnc;

constexpr std::size_t kReceivers = 4;
constexpr std::size_t kK = 512;
constexpr std::size_t kSymbolBytes = 1024;
/// Each receiver fetches every catalog content once per repetition, so
/// 4 × 50 = 200 fetches: enough for an exact p95 with ten samples beyond.
constexpr std::size_t kCatalog = 50;
/// 16 conversations in flight in all: a 64-frame batch puts about 16
/// datagrams on each receiver socket, far below its default buffer.
constexpr std::size_t kOutstanding = 4;
/// Symbols each streaming fetch gets per batch (4 × 16 fetches = 64).
constexpr std::size_t kSymbolsPerTurn = 4;
constexpr std::int64_t kSafetyTimeout = 60'000'000'000;  // ns

ContentId id_of(std::size_t content) { return content + 1; }

struct Fetch {
  std::size_t receiver = 0;
  std::size_t content = 0;
};

}  // namespace

RepResult run_udp_swarm(const WorkloadOptions& options, Tracer& tracer) {
  RepResult out;
  const std::int64_t setup_start = now_ns();

  std::vector<std::uint64_t> content_seed(kCatalog);
  std::vector<lt::LtEncoder> encoders;
  encoders.reserve(kCatalog);
  auto catalog = std::make_unique<store::ContentStore>();
  for (std::size_t c = 0; c < kCatalog; ++c) {
    content_seed[c] = mix(options.seed, 0x1000 + c);
    encoders.emplace_back(lt::make_native_payloads(kK, kSymbolBytes, content_seed[c]));
    store::ContentConfig config;
    config.id = id_of(c);
    config.k = kK;
    config.payload_bytes = kSymbolBytes;
    catalog->register_content(config, nullptr);
  }
  session::EndpointConfig seeder_config;
  seeder_config.feedback = session::FeedbackMode::kNone;
  session::Endpoint seeder(seeder_config, std::move(catalog));

  session::EndpointConfig receiver_config;
  receiver_config.feedback = session::FeedbackMode::kNone;
  receiver_config.announce_completion = true;
  std::vector<std::unique_ptr<session::Endpoint>> receivers;
  std::vector<std::unique_ptr<UdpTransport>> rx_sockets;
  std::unique_ptr<UdpTransport> seeder_socket = open_loopback();
  std::vector<const UdpTransport*> all_sockets{seeder_socket.get()};
  for (std::size_t r = 0; r < kReceivers; ++r) {
    receivers.push_back(std::make_unique<session::Endpoint>(
        receiver_config, std::make_unique<store::ContentStore>()));
    rx_sockets.push_back(open_loopback());
    all_sockets.push_back(rx_sockets.back().get());
    if (seeder_socket->add_peer("127.0.0.1", rx_sockets[r]->local_port()) != r) {
      throw std::runtime_error("seeder peer registry out of order");
    }
  }
  // Fetch order: a seeded permutation of the catalog per receiver.
  std::vector<std::vector<std::size_t>> order(kReceivers);
  for (std::size_t r = 0; r < kReceivers; ++r) {
    order[r].resize(kCatalog);
    std::iota(order[r].begin(), order[r].end(), std::size_t{0});
    Rng shuffle(mix(options.seed, 0x2000 + r));
    for (std::size_t i = kCatalog; i > 1; --i) {
      std::swap(order[r][i - 1], order[r][shuffle.uniform(i)]);
    }
  }
  Rng encode_rng(mix(options.seed, 0x3000));
  std::vector<wire::Frame> tx_frames(kBatch);
  std::vector<UdpTransport::TxItem> items(kBatch);
  RxBuffers rx_buffers;
  out.setup_s = static_cast<double>(now_ns() - setup_start) * 1e-9;

  // --- timed interval -------------------------------------------------------
  const std::uint64_t fresh_before = WordArena::local().stats().fresh_blocks;
  const double cpu_start = cpu_seconds();
  const std::int64_t start = now_ns();
  std::int64_t last_verified = start;

  std::vector<std::size_t> next_fetch(kReceivers, 0);
  std::vector<std::vector<std::int64_t>> started(kReceivers,
                                                 std::vector<std::int64_t>(kCatalog, 0));
  std::vector<Fetch> streaming;  // the seeder's view: fetches not yet acked
  std::size_t cursor = 0;
  std::uint64_t registered = 0;
  OpCounters decode_ops;

  const auto start_fetch = [&](std::size_t r) {
    if (next_fetch[r] == kCatalog) return;
    const std::size_t c = order[r][next_fetch[r]++];
    store::ContentConfig config;
    config.id = id_of(c);
    config.k = kK;
    config.payload_bytes = kSymbolBytes;
    {
      Scope span(tracer, Op::kRegister, request_id(r, c));
      receivers[r]->contents().register_content(
          config, std::make_unique<session::LtSinkProtocol>(kK, kSymbolBytes));
    }
    ++registered;
    ++out.attempted;
    started[r][c] = now_ns();
    streaming.push_back(Fetch{r, c});
  };

  const auto on_data = [&](std::size_t r, UdpTransport::PeerIndex peer,
                           std::span<const std::uint8_t> bytes) {
    ContentId id = 0;
    if (wire::peek_content(bytes, id) != wire::DecodeStatus::kOk) {
      throw std::runtime_error("receiver got an unparseable frame");
    }
    const std::size_t c = id - 1;
    session::Endpoint::Event event;
    {
      Scope span(tracer, Op::kHandleFrame, request_id(r, c));
      event = receivers[r]->handle_frame(peer, bytes);
    }
    if (event != session::Endpoint::Event::kDelivered) return;
    store::Content* content = receivers[r]->contents().find(id);
    if (content == nullptr || !content->complete()) return;
    bool ok = false;
    {
      Scope span(tracer, Op::kVerify, request_id(r, c));
      ok = content->finish_and_verify(content_seed[c] + options.verify_seed_offset);
    }
    const std::int64_t done = now_ns();
    decode_ops += content->protocol()->decode_ops();
    if (ok) {
      ++out.verified;
      out.verified_bytes += static_cast<double>(kK * kSymbolBytes);
      out.completion_ms.push_back(static_cast<double>(done - started[r][c]) * 1e-6);
      last_verified = done;
    } else {
      ++out.verify_failures;
      out.completion_ms.push_back(kInf);
    }
    {
      Scope span(tracer, Op::kExpire, request_id(r, c));
      receivers[r]->expire_content(id);
    }
    start_fetch(r);
  };

  for (std::size_t r = 0; r < kReceivers; ++r) {
    for (std::size_t i = 0; i < kOutstanding; ++i) start_fetch(r);
  }
  std::uint64_t iteration = 0;
  while (!streaming.empty()) {
    if (now_ns() - start > kSafetyTimeout) {
      ++out.stalls;
      break;
    }
    Scope iter(tracer, Op::kIter, iteration++);
    // Seeder: kSymbolsPerTurn fresh symbols per streaming fetch,
    // round-robin, in one batch.
    std::array<std::size_t, kReceivers> sent_to{};
    const std::size_t batch = std::min(kBatch, kSymbolsPerTurn * streaming.size());
    std::size_t n = 0;
    while (n < batch) {
      cursor %= streaming.size();
      const Fetch f = streaming[cursor++];
      const std::uint64_t req = request_id(f.receiver, f.content);
      CodedPacket packet;
      {
        Scope span(tracer, Op::kEncode, req);
        packet = encoders[f.content].encode(encode_rng);
      }
      {
        Scope span(tracer, Op::kOfferPacket, req);
        seeder.offer_packet(static_cast<session::PeerId>(f.receiver), id_of(f.content), packet);
      }
      session::PeerId dest = 0;
      {
        Scope span(tracer, Op::kPollTransmit, req);
        seeder.poll_transmit(dest, tx_frames[n]);
      }
      items[n] = UdpTransport::TxItem{dest, tx_frames[n].bytes()};
      ++sent_to[dest];
      ++n;
    }
    if (!send_all(*seeder_socket, {items.data(), n}, tracer)) {
      throw std::runtime_error("seeder socket error");
    }
    // Receivers: every datagram of the batch, then their acks.
    for (std::size_t r = 0; r < kReceivers; ++r) {
      receive_exactly(*rx_sockets[r], sent_to[r], rx_buffers, tracer,
                      [&](UdpTransport::PeerIndex peer, std::span<const std::uint8_t> bytes) {
                        on_data(r, peer, bytes);
                      });
    }
    std::size_t acks = 0;
    for (std::size_t r = 0; r < kReceivers; ++r) {
      std::size_t m = 0;
      session::PeerId dest = 0;
      while (m < kBatch) {
        Scope span(tracer, Op::kPollTransmit, r);
        if (!receivers[r]->poll_transmit(dest, tx_frames[m])) break;
        items[m] = UdpTransport::TxItem{dest, tx_frames[m].bytes()};
        ++m;
      }
      if (m == 0) continue;
      if (!send_all(*rx_sockets[r], {items.data(), m}, tracer)) {
        throw std::runtime_error("receiver socket error");
      }
      acks += m;
    }
    // Seeder: each completion ack ends that fetch's stream.
    receive_exactly(*seeder_socket, acks, rx_buffers, tracer,
                    [&](UdpTransport::PeerIndex peer, std::span<const std::uint8_t> bytes) {
                      ContentId id = 0;
                      wire::peek_content(bytes, id);
                      session::Endpoint::Event event;
                      {
                        Scope span(tracer, Op::kHandleFrame, request_id(peer, id - 1));
                        event = seeder.handle_frame(peer, bytes);
                      }
                      if (event != session::Endpoint::Event::kAckReceived) return;
                      const auto it = std::find_if(
                          streaming.begin(), streaming.end(), [&](const Fetch& f) {
                            return f.receiver == peer && id_of(f.content) == id;
                          });
                      if (it == streaming.end()) return;
                      if (static_cast<std::size_t>(it - streaming.begin()) < cursor) --cursor;
                      streaming.erase(it);
                    });
  }
  out.timed_s = static_cast<double>(last_verified - start) * 1e-9;
  out.cpu_s = cpu_seconds() - cpu_start;
  const std::uint64_t fresh_blocks = WordArena::local().stats().fresh_blocks - fresh_before;
  // Fetches never started (a stall) still count as attempted and missed.
  for (std::size_t r = 0; r < kReceivers; ++r) {
    for (std::size_t i = next_fetch[r]; i < kCatalog; ++i) {
      ++out.attempted;
      out.completion_ms.push_back(kInf);
    }
  }

  // --- counts -----------------------------------------------------------------
  session::SessionStats rx;
  for (const auto& ep : receivers) rx += ep->stats();
  const ltnc::net::UdpStats net = total_stats(all_sockets);
  OpCounters encode_ops;
  for (const lt::LtEncoder& e : encoders) encode_ops += e.ops();
  const double delivered = static_cast<double>(rx.data_delivered);
  const double data_frames = static_cast<double>(seeder_socket->stats().frames_sent);
  const double bytes = out.verified_bytes;

  out.counts.push_back({"reception_ratio",
                        ratio(delivered, static_cast<double>(kK * out.verified)), "ratio"});
  out.counts.push_back(
      {"wire_bytes_per_byte", ratio(static_cast<double>(net.bytes_sent), bytes), "ratio"});
  add_socket_metrics(out, net, data_frames * kSymbolBytes);
  out.counts.push_back(
      {"session.frames_per_payload", ratio(static_cast<double>(net.frames_sent), delivered),
       "ratio"});
  out.counts.push_back({"session.retransmits",
                        static_cast<double>(rx.advertise_retransmits +
                                            seeder.stats().advertise_retransmits),
                        "count"});
  out.counts.push_back(
      {"session.post_completion_frames", static_cast<double>(rx.expired_frames), "count"});
  out.counts.push_back({"lt.encode_words_per_symbol",
                        ratio(static_cast<double>(encode_ops.data_word_ops),
                              static_cast<double>(encode_ops.invocations)),
                        "word/symbol"});
  out.counts.push_back({"lt.decode_words_per_byte",
                        ratio(static_cast<double>(decode_ops.data_word_ops), bytes), "word/B"});
  out.counts.push_back({"lt.decode_control_per_symbol",
                        ratio(static_cast<double>(decode_ops.control_total()), delivered),
                        "op/symbol"});
  out.counts.push_back(
      {"common.data_bytes_per_byte",
       ratio(8.0 * static_cast<double>(encode_ops.data_word_ops + decode_ops.data_word_ops),
             bytes),
       "ratio"});
  out.measured.push_back(
      {"common.arena_fresh_blocks", static_cast<double>(fresh_blocks), "count"});
  out.counts.push_back(
      {"store.contents_registered", static_cast<double>(registered), "count"});
  out.counts.push_back(
      {"store.contents_expired", static_cast<double>(rx.contents_expired), "count"});
  return out;
}

}  // namespace perfbench
