// File distribution à la Avalanche (paper §I, §IV): a file split into k
// blocks is pushed epidemically from one seed to a swarm of peers.
//
// The real-UDP modes run on the sans-I/O session layer: one
// session::Endpoint per end drives the protocol (frame parsing, duplicate
// suppression, the completion handshake) while this file only moves bytes
// between the endpoint and a UdpTransport — the same Endpoint class the
// epidemic simulator steps in-process.
//
// Modes:
//   ./build/examples/file_distribution [peers] [blocks] [scheme]
//       Simulated swarm (scheme = ltnc|rlnc|wc|all; the paper's
//       trade-off table).
//
// File transfer over UDP (directory → one content per file, multiplexed
// over a single endpoint pair; ids derived from each file's chunk count,
// block size and hash, so both ends agree without coordination — the
// receiver reads the same directory to learn the registrations, then
// verifies the decoded bytes hash-exact; one file is a one-file directory):
//   ./build/examples/file_distribution --udp-send-dir <ip> <port> <dir> [bytes]
//       LT-encode every file and stream wire frames at the receiver until
//       each file's completion ack comes back.
//   ./build/examples/file_distribution --udp-recv-dir <port> <dir> [bytes]
//       Bind a UDP socket, decode, hash-verify and ack every file; gives
//       up after 10 s without a datagram.
//   ./build/examples/file_distribution --udp-loopback-dir <dir> [bytes]
//       Both ends in one process over 127.0.0.1 — the receiver on a second
//       thread, the sender on the main one; the CI smoke tests: the files
//       cross a real socket concurrently and every hash must match.
//
// Sharded swarm mode (the multi-core data plane):
//   ./build/examples/file_distribution --udp-swarm-loopback
//       [peers] [blocks] [bytes] [--shards N] [--feedback binary|none]
//       [--stats-period MS] [--prom FILE] [--trace FILE]
//       One seeder socket fans the file out to `peers` receiver sockets in
//       the same process. The seeder's session layer runs as a
//       session::ShardedEndpoint — N worker shards behind SPSC frame
//       rings — while the main thread only moves batches of datagrams
//       (sendmmsg/recvmmsg) between the socket and the rings.
//       --feedback binary runs the §III-C advertise→proceed handshake per
//       push (default: none, rateless streaming); telemetry flags attach a
//       metrics registry (per-shard frame counters, handshake/completion
//       latency histograms, UDP batch-size histograms), dump Prometheus
//       text every MS ms / into FILE, and record per-shard flight-recorder
//       traces as Chrome trace_event JSON.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/table.hpp"
#include "dissemination/simulation.hpp"
#include "lt/lt_encoder.hpp"
#include "net/udp_transport.hpp"
#include "session/endpoint.hpp"
#include "session/sharded.hpp"
#include "store/chunker.hpp"
#include "store/content_store.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ltnc;

constexpr std::uint64_t kContentSeed = 20100621;  // the file's identity

/// Sends every frame the endpoint has queued in one send_batch call, so
/// frames small enough to share a datagram pack. The endpoint's
/// session::PeerId is the transport's PeerIndex: a frame goes to the
/// address its conversation's frames came from (or that add_peer
/// interned). Budgets and reports count what the socket accepted
/// (UdpStats), not what the endpoint popped for transmit.
void flush_batch(session::Endpoint& endpoint, net::UdpTransport& transport,
                 std::vector<wire::Frame>& frames) {
  std::vector<net::UdpTransport::TxItem> items;
  session::PeerId peer = 0;
  for (std::size_t n = 0;; ++n) {
    if (frames.size() == n) frames.emplace_back();
    if (!endpoint.poll_transmit(peer, frames[n])) break;
    items.push_back({peer, frames[n].bytes()});
  }
  if (!items.empty()) transport.send_batch(items);
}

/// "F frames in D datagrams (F/D frames/datagram) / B wire bytes" sent.
std::string sent_summary(const net::UdpStats& s) {
  std::ostringstream out;
  out << s.frames_sent << " frames in " << s.datagrams_sent
      << " datagrams (" << s.frames_per_sent_datagram()
      << " frames/datagram) / " << s.bytes_sent << " wire bytes";
  return out.str();
}

/// The same for what the transport received.
std::string received_summary(const net::UdpStats& s) {
  std::ostringstream out;
  out << s.frames_received << " frames in " << s.datagrams_received
      << " datagrams (" << s.frames_per_received_datagram()
      << " frames/datagram) / " << s.bytes_received << " wire bytes";
  return out.str();
}

session::EndpointConfig receiver_config(session::FeedbackMode feedback) {
  session::EndpointConfig cfg;
  // With kNone the sender streams rateless frames without a per-packet
  // handshake; the session closes with the completion kAck (re-announced
  // on tick so a lost ack cannot wedge the sender). With kBinary the
  // receiver additionally answers each advertise with abort/proceed.
  cfg.feedback = feedback;
  cfg.announce_completion = true;
  cfg.response_timeout = 1;
  cfg.max_retries = 7;  // 8 announcements in total
  return cfg;
}

session::EndpointConfig sender_config(session::FeedbackMode feedback) {
  session::EndpointConfig cfg;
  cfg.feedback = feedback;
  if (feedback == session::FeedbackMode::kBinary) {
    // Advertises await the peer's abort/proceed; over a real (if
    // loopback) socket the answer takes a scheduler-dependent number of
    // worker iterations, so give the retransmit timer slack — the swarm
    // runs fine ticks (see iterations_per_tick below) for latency
    // resolution, making these tick budgets short wall-clock spans.
    cfg.response_timeout = 64;
    cfg.max_retries = 8;
  }
  return cfg;
}

// --- multi-file transfer (directory → one content per file) ----------------

struct LoadedFile {
  store::FileContent meta;
  std::vector<std::uint8_t> bytes;
};

/// Reads every regular file under `dir` (sorted by name for a
/// deterministic content set) and derives its registration record via the
/// shared chunker — the single chunk → payload → content path every mode
/// uses.
bool load_directory(const std::string& dir, std::size_t block_bytes,
                    std::vector<LoadedFile>& files) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) paths.push_back(it->path());
  }
  if (ec) {
    std::cerr << "cannot list " << dir << ": " << ec.message() << "\n";
    return false;
  }
  if (paths.empty()) {
    std::cerr << "no files in " << dir << "\n";
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << path << "\n";
      return false;
    }
    LoadedFile file;
    file.bytes.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    file.meta = store::describe_file(path.filename().string(), file.bytes,
                                     block_bytes);
    for (const LoadedFile& other : files) {
      if (other.meta.id == file.meta.id) {
        std::cerr << "content-id collision between " << other.meta.name
                  << " and " << file.meta.name
                  << " (14-bit derived ids); rename one file\n";
        return false;
      }
    }
    files.push_back(std::move(file));
  }
  return true;
}

session::EndpointConfig dir_endpoint_config(bool receiver) {
  session::EndpointConfig cfg;
  // Dimensions live per content in the store; the endpoint itself is
  // dimension-less.
  cfg.feedback = session::FeedbackMode::kNone;
  cfg.announce_completion = receiver;
  cfg.response_timeout = 1;
  cfg.max_retries = 7;  // 8 per-content ack announcements in total
  return cfg;
}

session::Endpoint make_dir_receiver(const std::vector<LoadedFile>& files) {
  auto contents = std::make_unique<store::ContentStore>();
  for (const LoadedFile& file : files) {
    contents->register_content(
        store::file_content_config(file.meta),
        std::make_unique<session::LtSinkProtocol>(file.meta.blocks,
                                                  file.meta.block_bytes));
  }
  return session::Endpoint(dir_endpoint_config(true), std::move(contents));
}

session::Endpoint make_dir_sender(const std::vector<LoadedFile>& files) {
  auto contents = std::make_unique<store::ContentStore>();
  for (const LoadedFile& file : files) {
    // Seeder-only entries: dimensions pinned, no decode state — enough
    // for per-content ack tracking (peer_completed_all).
    contents->register_content(store::file_content_config(file.meta),
                               nullptr);
  }
  return session::Endpoint(dir_endpoint_config(false), std::move(contents));
}

std::vector<lt::LtEncoder> make_dir_encoders(
    const std::vector<LoadedFile>& files) {
  std::vector<lt::LtEncoder> encoders;
  encoders.reserve(files.size());
  for (const LoadedFile& file : files) {
    encoders.emplace_back(
        store::chunk_bytes(file.bytes, file.meta.block_bytes));
  }
  return encoders;
}

/// Hash-verifies one decoded content against its on-disk original.
bool verify_received_file(session::Endpoint& endpoint,
                          const LoadedFile& file) {
  store::Content* content = endpoint.contents().find(file.meta.id);
  if (content == nullptr || !content->complete()) return false;
  const auto& sink =
      static_cast<const session::LtSinkProtocol&>(*content->protocol());
  const std::vector<std::uint8_t> bytes = store::assemble_bytes(
      file.meta.size_bytes, file.meta.block_bytes,
      [&sink](std::size_t i) -> const Payload& {
        return sink.decoder().native_payload(static_cast<NativeIndex>(i));
      });
  return store::hash_bytes(bytes) == file.meta.hash;
}

std::uint64_t total_blocks(const std::vector<LoadedFile>& files) {
  std::uint64_t blocks = 0;
  for (const LoadedFile& file : files) blocks += file.meta.blocks;
  return blocks;
}

/// Frames an unacked file of `blocks` blocks gets in one sender round:
/// ⌈1.5·k⌉ in the first (a 64-block file decodes from about 1.4·k), then
/// max(8, ⌈k/4⌉), so a small file still advances several frames a round.
std::size_t round_frames(std::size_t blocks, bool first_round) {
  return first_round ? (3 * blocks + 1) / 2
                     : std::max<std::size_t>(8, (blocks + 3) / 4);
}

/// The sender runs in rounds so it cannot run ahead of its receiver:
/// every unacked file gets round_frames() frames, sent in one batch, then
/// the sender reads acks — up to kAckWaitMs for the first, then for as
/// long as more keep coming within kAckGraceMs — before the next round,
/// so a file acked a moment after another gets no further round. The
/// receiver is the transport's peer 0, and every frame read back counts
/// as the receiver's.
int run_udp_dir_sender(net::UdpTransport& transport,
                       const std::vector<LoadedFile>& files) {
  constexpr int kAckWaitMs = 20;
  constexpr int kAckGraceMs = 1;
  std::vector<lt::LtEncoder> encoders = make_dir_encoders(files);
  session::Endpoint sender = make_dir_sender(files);
  Rng rng(1);
  std::vector<wire::Frame> frames;
  wire::Frame ack;
  net::UdpTransport::PeerIndex from = 0;
  const std::uint64_t max_frames = 400 * total_blocks(files) + 100000;
  const net::UdpStats& sent = transport.stats();

  for (bool first = true;
       !sender.peer_completed_all(0) && sent.frames_sent < max_frames;
       first = false) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      const ContentId id = files[i].meta.id;
      if (sender.peer_completed(0, id)) continue;
      for (std::size_t n = round_frames(files[i].meta.blocks, first); n > 0;
           --n) {
        sender.offer_packet(0, id, encoders[i].encode(rng));
      }
    }
    flush_batch(sender, transport, frames);
    for (int wait_ms = kAckWaitMs; !sender.peer_completed_all(0) &&
                                   transport.wait_readable(wait_ms);
         wait_ms = kAckGraceMs) {
      while (transport.recv_batch({&ack, 1}, {&from, 1}) != 0) {
        sender.handle_frame(0, ack.bytes());
      }
    }
  }
  if (!sender.peer_completed_all(0)) {
    std::cerr << "sender: unacked contents remain after " << sent.frames_sent
              << " frames\n";
    return 1;
  }
  std::cout << "sender: all " << files.size() << " files acked; sent "
            << sent_summary(sent) << "\n";
  return 0;
}

/// Decodes every file, acking each one back to the PeerIndex its frames
/// came from as it completes (so the sender's next round skips it), then
/// re-announces the acks for eight ticks. Writes its summary to `out` and
/// failures to `err`.
int run_udp_dir_receiver(net::UdpTransport& transport,
                         const std::vector<LoadedFile>& files,
                         std::ostream& out, std::ostream& err) {
  session::Endpoint receiver = make_dir_receiver(files);
  constexpr int kIdleTimeoutMs = 10'000;
  std::vector<wire::Frame> rx(net::UdpTransport::kMaxBatch);
  std::vector<net::UdpTransport::PeerIndex> from(rx.size());
  std::vector<wire::Frame> acks;

  while (!receiver.complete()) {
    const std::size_t n = transport.recv_batch(rx, from);
    if (n == 0) {
      if (!transport.wait_readable(kIdleTimeoutMs)) {
        err << "receiver: no frame for 10 s, giving up\n";
        return 1;
      }
      continue;
    }
    for (std::size_t i = 0; i < n && !receiver.complete(); ++i) {
      receiver.handle_frame(from[i], rx[i].bytes());
      flush_batch(receiver, transport, acks);
    }
  }
  for (const LoadedFile& file : files) {
    if (!verify_received_file(receiver, file)) {
      err << "receiver: " << file.meta.name << " failed hash verification\n";
      return 1;
    }
  }
  for (session::Instant now = 1; now <= 8; ++now) {
    flush_batch(receiver, transport, acks);
    receiver.tick(now);
  }
  const session::SessionStats& s = receiver.stats();
  out << "receiver: decoded and hash-verified " << files.size()
      << " files from " << s.frames_received << " frames / "
      << s.bytes_received << " wire bytes\n"
      << "receiver: received " << received_summary(transport.stats())
      << "\n";
  return 0;
}

/// Both ends of the directory transfer in one process: the receiver on a
/// second thread, the sender on this one, over two loopback sockets.
int run_udp_loopback_dir(const std::string& dir, std::size_t block_bytes) {
  std::vector<LoadedFile> files;
  if (!load_directory(dir, block_bytes, files)) return 1;

  std::string error;
  net::UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto rx_transport = net::UdpTransport::open(cfg, &error);
  if (rx_transport == nullptr) {
    std::cerr << "loopback: cannot open receiver socket: " << error << "\n";
    return 1;
  }
  auto tx_transport = net::UdpTransport::open(cfg, &error);
  if (tx_transport == nullptr) {
    std::cerr << "loopback: cannot open sender socket: " << error << "\n";
    return 1;
  }
  tx_transport->add_peer("127.0.0.1", rx_transport->local_port());
  std::cout << "loopback: streaming " << files.size() << " files ("
            << total_blocks(files) << " blocks of " << block_bytes
            << " bytes) over 127.0.0.1:" << rx_transport->local_port()
            << "\n";

  // Both ends finish at about the same moment, so the receiver writes
  // into buffers printed after the join: each summary line comes out
  // whole.
  std::ostringstream rx_out;
  std::ostringstream rx_err;
  int rx_result = 1;
  std::jthread receiver([&] {
    try {
      rx_result = run_udp_dir_receiver(*rx_transport, files, rx_out, rx_err);
    } catch (const std::exception& e) {
      rx_err << "receiver: " << e.what() << "\n";
    }
    WordArena::reclaim_local();  // worker-thread exit hygiene
  });
  const int tx_result = run_udp_dir_sender(*tx_transport, files);
  receiver.join();
  std::cout << rx_out.str();
  std::cerr << rx_err.str();
  return tx_result == 0 && rx_result == 0 ? 0 : 1;
}

// --- sharded swarm over loopback (the multi-core data plane) ----------------

/// Seeder application for the sharded endpoint: every shard owns the
/// subset of receiver peers that hash to it, LT-encodes independently
/// (same natives, per-shard rng) and keeps offering packets until each
/// assigned peer acks the content complete. Both methods run on the
/// worker threads; the per-shard state is created there too, so encoder
/// scratch stays shard-local.
class SwarmSeederApp final : public session::ShardApp {
 public:
  SwarmSeederApp(std::size_t blocks, std::size_t block_bytes,
                 std::uint32_t num_peers, std::uint32_t num_shards,
                 session::FeedbackMode feedback = session::FeedbackMode::kNone)
      : blocks_(blocks), block_bytes_(block_bytes), feedback_(feedback) {
    assigned_.resize(num_shards);
    for (std::uint32_t p = 0; p < num_peers; ++p) {
      assigned_[session::shard_of(p, 0, num_shards)].push_back(p);
    }
    state_.resize(num_shards);
    done_ = std::make_unique<std::atomic<std::uint32_t>[]>(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s) done_[s].store(0);
  }

  std::unique_ptr<session::Endpoint> make_endpoint(
      std::uint32_t shard) override {
    auto st = std::make_unique<ShardState>(blocks_, block_bytes_, shard);
    state_[shard] = std::move(st);  // distinct slots: no cross-shard writes
    // The seeder offers encoder output over an empty store: it tracks
    // conversations and acks, and never decodes.
    return std::make_unique<session::Endpoint>(
        sender_config(feedback_), std::make_unique<store::ContentStore>());
  }

  bool pump(std::uint32_t shard, session::Endpoint& endpoint) override {
    ShardState& st = *state_[shard];
    bool offered = false;
    std::uint32_t done = 0;
    for (const session::PeerId peer : assigned_[shard]) {
      if (endpoint.peer_completed(peer, 0)) {
        ++done;
        continue;
      }
      // Binary feedback: one outstanding advertise per peer — offering
      // again would supersede the in-flight handshake (and distort the
      // latency histogram); the retransmit timer owns the slow path.
      if (endpoint.awaiting_feedback(peer, 0)) continue;
      endpoint.offer_packet(peer, 0, st.encoder.encode(st.rng));
      offered = true;
    }
    done_[shard].store(done, std::memory_order_relaxed);
    return offered;
  }

  /// Peers whose completion ack has reached their shard (main-thread view).
  std::uint32_t peers_done() const {
    std::uint32_t total = 0;
    for (std::size_t s = 0; s < state_.size(); ++s) {
      total += done_[s].load(std::memory_order_relaxed);
    }
    return total;
  }

  std::size_t peers_assigned(std::uint32_t shard) const {
    return assigned_[shard].size();
  }

 private:
  struct ShardState {
    lt::LtEncoder encoder;
    Rng rng;
    ShardState(std::size_t blocks, std::size_t block_bytes,
               std::uint32_t shard)
        : encoder(lt::make_native_payloads(blocks, block_bytes, kContentSeed)),
          rng(1000 + shard) {}
  };

  std::size_t blocks_;
  std::size_t block_bytes_;
  session::FeedbackMode feedback_;
  std::vector<std::vector<session::PeerId>> assigned_;
  std::vector<std::unique_ptr<ShardState>> state_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> done_;
};

/// Opt-in knobs for the swarm smoke: protocol (handshake per push) and
/// observability (registry dump cadence and sinks).
struct SwarmOptions {
  session::FeedbackMode feedback = session::FeedbackMode::kNone;
  std::uint64_t stats_period_ms = 0;  ///< 0 = no periodic dump
  std::string prom_path;              ///< rewrite with each exposition
  std::string trace_path;             ///< Chrome trace of all shards
};

/// One-line histogram digest ("n=.. p50=.. p99=..") or "(empty)".
std::string histogram_digest(const telemetry::Snapshot& snap,
                             std::string_view name) {
  const auto* h = snap.find_histogram(name);
  if (h == nullptr || h->count() == 0) return "(empty)";
  std::string out = "n=" + std::to_string(h->count());
  out += " p50=" + std::to_string(static_cast<std::uint64_t>(h->quantile(0.5)));
  out += " p99=" + std::to_string(static_cast<std::uint64_t>(h->quantile(0.99)));
  return out;
}

int run_udp_swarm_loopback(std::size_t peers, std::size_t blocks,
                           std::size_t block_bytes, std::uint32_t shards,
                           const SwarmOptions& opts) {
  std::string error;

  // One socket per receiver peer, all on loopback.
  std::vector<std::unique_ptr<net::UdpTransport>> rx_transports;
  for (std::size_t p = 0; p < peers; ++p) {
    net::UdpConfig cfg;
    cfg.bind_address = "127.0.0.1";
    auto transport = net::UdpTransport::open(cfg, &error);
    if (transport == nullptr) {
      std::cerr << "swarm: cannot open receiver socket: " << error << "\n";
      return 1;
    }
    rx_transports.push_back(std::move(transport));
  }

  // The seeder's single socket; receiver p interns to PeerIndex p, which
  // doubles as its session::PeerId everywhere below.
  net::UdpConfig seed_cfg;
  seed_cfg.bind_address = "127.0.0.1";
  auto seeder = net::UdpTransport::open(seed_cfg, &error);
  if (seeder == nullptr) {
    std::cerr << "swarm: cannot open seeder socket: " << error << "\n";
    return 1;
  }
  for (std::size_t p = 0; p < peers; ++p) {
    const auto index =
        seeder->add_peer("127.0.0.1", rx_transports[p]->local_port());
    if (index != static_cast<net::UdpTransport::PeerIndex>(p)) {
      std::cerr << "swarm: peer interning broke\n";
      return 1;
    }
  }

  std::cout << "swarm: seeding " << blocks << " blocks of " << block_bytes
            << " bytes to " << peers << " receivers over " << shards
            << " shard(s), feedback "
            << (opts.feedback == session::FeedbackMode::kBinary ? "binary"
                                                                : "none")
            << ", batched I/O "
            << (seeder->batching_active() ? "on" : "off (fallback)") << "\n";

  // Telemetry: one registry shared by the shards (per-shard series, the
  // constructor labels them) and the seeder socket, whose error tallies
  // it reads from the socket's own stats (this thread also snapshots).
  // All observer-only — the transfer runs identically with
  // LTNC_TELEMETRY=OFF.
  telemetry::Registry registry;
  telemetry::TransportInstruments transport_instruments;
  transport_instruments.send_batch_frames =
      &registry.histogram("ltnc_udp_send_batch_frames");
  transport_instruments.recv_batch_frames =
      &registry.histogram("ltnc_udp_recv_batch_frames");
  seeder->set_telemetry(&transport_instruments);
  const net::UdpStats& seeder_stats = seeder->stats();
  registry.counter_fn("ltnc_udp_would_block_total", {}, [&seeder_stats] {
    return seeder_stats.send_would_block + seeder_stats.recv_would_block;
  });
  registry.counter_fn(
      "ltnc_udp_transient_errors_total", {},
      [&seeder_stats] { return seeder_stats.transient_errors; });
  registry.counter_fn("ltnc_udp_fatal_errors_total", {},
                      [&seeder_stats] { return seeder_stats.fatal_errors; });

  // Receiver fleet on its own thread: plain single-threaded sink
  // endpoints, one per socket — the peers are ordinary nodes; only the
  // seeder is sharded.
  std::atomic<bool> seeder_done{false};
  std::atomic<bool> rx_failed{false};
  std::atomic<std::uint64_t> rx_complete{0};
  std::thread rx_thread([&] {
    {
      std::vector<session::Endpoint> endpoints;
      endpoints.reserve(peers);
      store::ContentConfig content;  // id 0: the swarm's one content
      content.k = blocks;
      content.payload_bytes = block_bytes;
      for (std::size_t p = 0; p < peers; ++p) {
        auto contents = std::make_unique<store::ContentStore>();
        contents->register_content(
            content,
            std::make_unique<session::LtSinkProtocol>(blocks, block_bytes));
        endpoints.emplace_back(receiver_config(opts.feedback),
                               std::move(contents));
      }
      std::vector<bool> counted(peers, false);
      std::vector<wire::Frame> frames(net::UdpTransport::kMaxBatch);
      std::vector<net::UdpTransport::PeerIndex> from(frames.size());
      std::vector<wire::Frame> replies;
      std::uint64_t iterations = 0;
      while (!seeder_done.load(std::memory_order_relaxed)) {
        bool any = false;
        for (std::size_t p = 0; p < peers; ++p) {
          // Each receiver answers the PeerIndex its frames came from.
          net::UdpTransport& socket = *rx_transports[p];
          for (std::size_t n; (n = socket.recv_batch(frames, from)) != 0;) {
            for (std::size_t i = 0; i < n; ++i) {
              endpoints[p].handle_frame(from[i], frames[i].bytes());
            }
            any = true;
          }
          flush_batch(endpoints[p], socket, replies);
          if (!counted[p] && endpoints[p].complete()) {
            counted[p] = true;
            rx_complete.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (++iterations % 1024 == 0) {
          for (auto& endpoint : endpoints) endpoint.tick(iterations / 1024);
        }
        if (!any) std::this_thread::yield();
      }
      for (std::size_t p = 0; p < peers; ++p) {
        if (!endpoints[p].complete() ||
            !endpoints[p].contents().at(0).finish_and_verify(kContentSeed)) {
          std::cerr << "swarm: receiver " << p << " failed verification\n";
          rx_failed.store(true, std::memory_order_relaxed);
        }
      }
    }
    WordArena::reclaim_local();  // worker-thread exit hygiene
  });

  // The seeder's I/O loop: this thread owns the socket and the ring
  // surface; the shards do all protocol work.
  int result = 0;
  {
    SwarmSeederApp app(blocks, block_bytes,
                       static_cast<std::uint32_t>(peers), shards,
                       opts.feedback);
    session::ShardedConfig cfg;
    cfg.num_shards = shards;
    cfg.registry = &registry;
    cfg.flight_recorder_capacity = opts.trace_path.empty() ? 0 : 8192;
    if (opts.feedback == session::FeedbackMode::kBinary) {
      // Finer session ticks: handshake latency is measured in the shard's
      // tick domain, and at the default 1024 iterations/tick a loopback
      // round trip rounds down to zero. 8 keeps tick overhead noise-level
      // (the per-tick work is a scan of this shard's few conversations)
      // while giving the histograms real resolution.
      cfg.iterations_per_tick = 8;
    }
    session::ShardedEndpoint sharded(cfg, app);

    constexpr std::size_t kBatch = net::UdpTransport::kMaxBatch;
    std::vector<wire::Frame> rx_frames(kBatch);
    std::vector<net::UdpTransport::PeerIndex> rx_peers(kBatch);
    std::vector<wire::Frame> tx_frames(kBatch);
    std::vector<net::UdpTransport::TxItem> tx_items(kBatch);
    const std::uint64_t max_frames =
        400 * blocks * peers + 100000 * peers;
    std::uint64_t idle_spins = 0;
    constexpr std::uint64_t kMaxIdleSpins = 200'000'000;

    auto dump_snapshot = [&](const telemetry::Snapshot& snap) {
      if (!opts.prom_path.empty()) {
        std::ofstream out(opts.prom_path, std::ios::trunc);
        if (out) telemetry::render_prometheus(out, snap);
      } else {
        telemetry::render_prometheus(std::cout, snap);
      }
    };
    auto last_dump = std::chrono::steady_clock::now();
    std::uint64_t loop_count = 0;

    while (app.peers_done() < peers) {
      bool any = false;

      // Periodic exposition; the wall clock is only consulted every 4096
      // iterations so the hot loop stays syscall-and-ring-bound.
      if (opts.stats_period_ms != 0 && (++loop_count & 0xFFF) == 0) {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_dump >=
            std::chrono::milliseconds(opts.stats_period_ms)) {
          last_dump = now;
          std::cout << "# --- telemetry peers_done=" << app.peers_done()
                    << "/" << peers << " ---\n";
          dump_snapshot(registry.snapshot());
        }
      }

      // Inbound: completion acks back into their conversation's shard.
      const std::size_t received = seeder->recv_batch(rx_frames, rx_peers);
      for (std::size_t i = 0; i < received; ++i) {
        sharded.route_frame(rx_peers[i], rx_frames[i]);
        any = true;
      }

      // Outbound: gather one socket batch across the shard rings. The
      // frames stay alive in tx_frames until the syscall returns.
      std::size_t filled = 0;
      for (std::uint32_t s = 0; s < shards && filled < kBatch; ++s) {
        session::PeerId dst = 0;
        while (filled < kBatch &&
               sharded.poll_transmit(s, dst, tx_frames[filled])) {
          tx_items[filled] = {dst, tx_frames[filled].bytes()};
          ++filled;
        }
      }
      if (filled > 0) {
        seeder->send_batch({tx_items.data(), filled});
        any = true;
      }

      if (seeder->stats().frames_sent > max_frames) {
        std::cerr << "swarm: frame budget exhausted ("
                  << app.peers_done() << "/" << peers << " peers done, "
                  << rx_complete.load() << " decoders complete)\n";
        result = 1;
        break;
      }
      if (!any && ++idle_spins > kMaxIdleSpins) {
        std::cerr << "swarm: stalled (" << app.peers_done() << "/" << peers
                  << " peers done)\n";
        result = 1;
        break;
      }
      if (any) idle_spins = 0;
    }

    seeder_done.store(true, std::memory_order_relaxed);
    rx_thread.join();
    sharded.stop();

    const net::UdpStats& us = seeder->stats();
    const session::SessionStats total = sharded.aggregate_stats();
    std::cout << "swarm: " << app.peers_done() << "/" << peers
              << " peers acked; seeder sent " << sent_summary(us) << " in "
              << us.send_calls << " sendmmsg calls ("
              << us.frames_per_send_call() << " frames/call), received "
              << us.frames_received << " acks in " << us.recv_calls
              << " recv calls\n"
              << "swarm: session data_sent " << total.data_sent
              << ", inbound ring drops " << sharded.inbound_drops() << "\n";
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto& report = sharded.report(s);
      std::cout << "swarm: shard " << s << ": " << app.peers_assigned(s)
                << " peers, " << report.frames_out << " frames out, "
                << report.frames_in << " acks in\n";
    }

    // Final telemetry: one exposition of the finished state, a latency
    // digest (tick-domain histograms aggregated across shards), and the
    // merged flight-recorder trace. All post-stop(), so every shard's
    // counters are quiescent, and before `sharded` goes, whose tallies
    // the shard counters read.
    const telemetry::Snapshot final_snap = registry.snapshot();
    if (opts.stats_period_ms != 0 || !opts.prom_path.empty()) {
      dump_snapshot(final_snap);
    }
    const telemetry::Snapshot agg = final_snap.aggregated();
    std::cout << "swarm: handshake latency (ticks) "
              << histogram_digest(agg, "ltnc_session_handshake_ticks")
              << "; completion latency (ticks) "
              << histogram_digest(agg, "ltnc_session_completion_ticks")
              << "\nswarm: udp send batch "
              << histogram_digest(agg, "ltnc_udp_send_batch_frames")
              << " frames/call; recv batch "
              << histogram_digest(agg, "ltnc_udp_recv_batch_frames")
              << " frames/call\n";
    if (!opts.trace_path.empty()) {
      std::vector<const telemetry::FlightRecorder*> recorders;
      for (std::uint32_t s = 0; s < shards; ++s) {
        if (const auto* r = sharded.flight_recorder(s)) recorders.push_back(r);
      }
      std::ofstream out(opts.trace_path, std::ios::trunc);
      if (out) {
        telemetry::dump_chrome_trace_multi(out, recorders);
        std::cout << "swarm: flight recorder trace (" << recorders.size()
                  << " shard(s)) -> " << opts.trace_path << "\n";
      } else {
        std::cerr << "swarm: cannot open " << opts.trace_path << "\n";
      }
    }
    if (rx_failed.load() || app.peers_done() < peers) result = 1;
  }
  return result;
}

int run_swarm_comparison(std::size_t peers, std::size_t blocks,
                         std::string_view scheme_arg) {
  using session::Scheme;

  dissem::SimConfig cfg;
  cfg.num_nodes = peers;
  cfg.k = blocks;
  cfg.payload_bytes = 64;  // rounds and overhead count packets, not bytes
  cfg.seed = 7;
  cfg.max_rounds = 200 * blocks;

  std::vector<Scheme> schemes;
  if (scheme_arg.empty() || scheme_arg == "all") {
    schemes = {Scheme::kWc, Scheme::kLtnc, Scheme::kRlnc};
  } else {
    Scheme one{};
    if (!session::scheme_from_string(scheme_arg, one)) {
      std::cerr << "unknown scheme '" << scheme_arg
                << "' (expected ltnc|rlnc|wc|all)\n";
      return 2;
    }
    schemes = {one};
  }

  std::cout << "Distributing a file of " << blocks << " blocks to " << peers
            << " peers (push gossip, binary feedback channel)\n\n";

  TextTable table({"scheme", "all peers done (rounds)", "overhead %",
                   "wire MB (measured)", "decode ctrl ops/peer",
                   "verified"});
  for (const Scheme scheme : schemes) {
    const dissem::SimResult res = dissem::run_simulation(scheme, cfg);
    const double n = static_cast<double>(peers);
    table.add_row(
        {session::scheme_name(scheme),
         res.all_complete ? TextTable::integer(
                                static_cast<long long>(res.rounds_run))
                          : "did not finish",
         TextTable::num(100 * res.overhead(), 1),
         TextTable::num(static_cast<double>(res.traffic.wire_bytes_total()) /
                            (1024.0 * 1024.0),
                        2),
         TextTable::num(
             static_cast<double>(res.decode_ops.control_total()) / n, 0),
         res.payloads_verified ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nLTNC trades a little traffic for a decode cost low enough "
               "for sensor-class devices (paper's headline trade-off).\n"
               "Wire MB is measured through the frame codec, adaptive "
               "code-vector encoding included.\n";
  return 0;
}

std::size_t arg_or(int argc, char** argv, int index, std::size_t fallback) {
  return argc > index ? static_cast<std::size_t>(std::atoll(argv[index]))
                      : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view mode = argc > 1 ? argv[1] : "";

  if (mode == "--udp-swarm-loopback") {
    // Positional args first, then optional flags anywhere.
    std::uint32_t shards = 0;
    SwarmOptions opts;
    std::vector<std::size_t> positional;
    auto flag_value = [&](int& i) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[i] << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--shards") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        shards = static_cast<std::uint32_t>(std::atoi(v));
      } else if (arg == "--feedback") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        const std::string_view value = v;
        if (value == "binary") {
          opts.feedback = session::FeedbackMode::kBinary;
        } else if (value != "none") {
          std::cerr << "--feedback expects binary|none\n";
          return 2;
        }
      } else if (arg == "--stats-period") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        opts.stats_period_ms = static_cast<std::uint64_t>(std::atoll(v));
      } else if (arg == "--prom") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        opts.prom_path = v;
      } else if (arg == "--trace") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        opts.trace_path = v;
      } else {
        positional.push_back(
            static_cast<std::size_t>(std::atoll(argv[i])));
      }
    }
    if (shards == 0) {
      const unsigned cores = std::thread::hardware_concurrency();
      shards = cores > 1 ? std::min(4u, cores) : 1;
    }
    const std::size_t peers =
        positional.size() > 0 ? positional[0] : 8;
    const std::size_t blocks =
        positional.size() > 1 ? positional[1] : 64;
    const std::size_t bytes =
        positional.size() > 2 ? positional[2] : 512;
    if (peers == 0 || blocks == 0 || bytes == 0) {
      std::cerr << "usage: file_distribution --udp-swarm-loopback [peers] "
                   "[blocks] [bytes] [--shards N] [--feedback binary|none] "
                   "[--stats-period MS] [--prom FILE] [--trace FILE]\n";
      return 2;
    }
    return run_udp_swarm_loopback(peers, blocks, bytes, shards, opts);
  }
  if (mode == "--udp-loopback-dir") {
    if (argc < 3) {
      std::cerr << "usage: file_distribution --udp-loopback-dir <dir> "
                   "[block_bytes]\n";
      return 2;
    }
    return run_udp_loopback_dir(argv[2], arg_or(argc, argv, 3, 1024));
  }
  if (mode == "--udp-send-dir") {
    if (argc < 5) {
      std::cerr << "usage: file_distribution --udp-send-dir <ip> <port> "
                   "<dir> [block_bytes]\n";
      return 2;
    }
    std::vector<LoadedFile> files;
    if (!load_directory(argv[4], arg_or(argc, argv, 5, 1024), files)) {
      return 1;
    }
    std::string error;
    auto transport = net::UdpTransport::open(net::UdpConfig{}, &error);
    if (transport == nullptr) {
      std::cerr << "cannot open socket: " << error << "\n";
      return 1;
    }
    if (transport->add_peer(argv[2], static_cast<std::uint16_t>(
                                         std::atoi(argv[3]))) != 0) {
      std::cerr << "bad IPv4 address: " << argv[2] << "\n";
      return 1;
    }
    return run_udp_dir_sender(*transport, files);
  }
  if (mode == "--udp-recv-dir") {
    if (argc < 4) {
      std::cerr << "usage: file_distribution --udp-recv-dir <port> <dir> "
                   "[block_bytes]\n";
      return 2;
    }
    std::vector<LoadedFile> files;
    if (!load_directory(argv[3], arg_or(argc, argv, 4, 1024), files)) {
      return 1;
    }
    std::string error;
    net::UdpConfig cfg;
    cfg.bind_address = "0.0.0.0";
    cfg.bind_port = static_cast<std::uint16_t>(std::atoi(argv[2]));
    auto transport = net::UdpTransport::open(cfg, &error);
    if (transport == nullptr) {
      std::cerr << "cannot open socket: " << error << "\n";
      return 1;
    }
    std::cout << "receiver: listening on UDP port " << transport->local_port()
              << " for " << files.size() << " files\n";
    return run_udp_dir_receiver(*transport, files, std::cout, std::cerr);
  }
  return run_swarm_comparison(arg_or(argc, argv, 1, 100),
                              arg_or(argc, argv, 2, 256),
                              argc > 3 ? argv[3] : "");
}
