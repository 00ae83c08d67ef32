// Session-layer demo: multi-content Endpoints driven over deliberately
// hostile SimChannels — loss, duplication and reordering injected on
// every link — with binary feedback, tick-driven retransmission and a
// token bucket throttling each node's swarm pushes.
//
//     source ──▶ alice ◀──▶ bob        (every arrow: a lossy SimChannel)
//
// Every endpoint serves TWO files over the same links, as four contents
// interleaved by its SwarmScheduler (rarest-first, round-robin fallback):
//
//   content 1     a plain LTNC content of k blocks
//   contents 2–4  a file of 3k blocks split into 3 generations of k
//                 blocks — the paper's §generations extension: each
//                 generation is an independent LTNC instance, so it
//                 registers as a content of its own, with its own veto
//                 handshakes and completion, and rarest-first over
//                 contents is rarest-generation-first
//
// A protocol-less source endpoint offers encoded packets of both files to
// alice; alice and bob gossip recoded packets at each other, the
// scheduler deciding per push slot which content the slot carries. The
// application loop below is everything a transport glue has to do: move
// frames between poll_transmit() and handle_frame(), and call tick(now).
//
// Build & run:  ./build/examples/session_demo [k] [payload] [loss]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "common/table.hpp"
#include "lt/lt_encoder.hpp"
#include "net/sim_channel.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"

int main(int argc, char** argv) {
  using namespace ltnc;

  const std::size_t k = argc > 1 ? std::atoi(argv[1]) : 64;
  const std::size_t payload = argc > 2 ? std::atoi(argv[2]) : 256;
  const double loss = argc > 3 ? std::atof(argv[3]) : 0.2;
  constexpr std::uint64_t kPlainSeed = 77;
  constexpr ContentId kPlainContent = 1;
  constexpr std::size_t kGenerations = 3;
  // Generation g of the second file is content 2 + g, seeded 78 + g.
  const auto gen_content = [](std::size_t g) {
    return static_cast<ContentId>(2 + g);
  };
  const auto gen_seed = [](std::size_t g) {
    return std::uint64_t{78} + g;
  };

  session::EndpointConfig cfg;
  cfg.feedback = session::FeedbackMode::kBinary;
  cfg.response_timeout = 4;  // ticks before an advertise retransmits
  cfg.max_retries = 3;

  const auto make_store = [&] {
    auto contents = std::make_unique<store::ContentStore>();
    store::ContentConfig content;
    content.k = k;  // the plain file's blocks, and each generation's
    content.payload_bytes = payload;
    content.id = kPlainContent;
    contents->register_content(content);
    for (std::size_t g = 0; g < kGenerations; ++g) {
      content.id = gen_content(g);
      contents->register_content(content);
    }
    return contents;
  };

  // Endpoint ids double as peer ids: 0 = alice, 1 = bob, 2 = source.
  std::vector<std::unique_ptr<session::Endpoint>> endpoints;
  endpoints.push_back(std::make_unique<session::Endpoint>(cfg, make_store()));
  endpoints.push_back(std::make_unique<session::Endpoint>(cfg, make_store()));
  endpoints.push_back(std::make_unique<session::Endpoint>(
      cfg, std::make_unique<store::ContentStore>()));  // pure seeder

  lt::LtEncoder plain_source(lt::make_native_payloads(k, payload, kPlainSeed));
  std::vector<lt::LtEncoder> gen_sources;
  for (std::size_t g = 0; g < kGenerations; ++g) {
    gen_sources.emplace_back(lt::make_native_payloads(k, payload, gen_seed(g)));
  }
  std::size_t next_generation = 0;  // the source rotates generations
  Rng rng(1);

  // One hostile unidirectional channel per directed pair.
  net::SimChannelConfig ch;
  ch.loss_rate = loss;
  ch.duplicate_rate = 0.1;
  ch.reorder_rate = 0.2;
  std::vector<std::vector<std::unique_ptr<net::SimChannel>>> links(3);
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < 3; ++to) {
      ch.seed = 100 + from * 3 + to;
      links[from].push_back(std::make_unique<net::SimChannel>(ch));
    }
  }

  wire::Frame frame;
  session::Instant now = 0;
  const session::Instant deadline = 200000;

  auto pump = [&] {
    // poll_transmit → channel → handle_frame, for every endpoint pair.
    for (std::size_t from = 0; from < 3; ++from) {
      session::PeerId to = 0;
      while (endpoints[from]->poll_transmit(to, frame)) {
        links[from][to]->send(frame.bytes());
      }
    }
    for (std::size_t from = 0; from < 3; ++from) {
      for (std::size_t to = 0; to < 3; ++to) {
        while (links[from][to]->recv(frame)) {
          endpoints[to]->handle_frame(static_cast<session::PeerId>(from),
                                      frame.bytes());
        }
      }
    }
  };

  // Each node drains a token bucket toward its gossip partner — full at
  // 4, refilled one token a tick — so a node serving many contents never
  // floods the link: the scheduler picks the rarest content per slot, the
  // bucket caps the burst, and an empty bucket counts a deferral.
  constexpr std::size_t kBurst = 4;
  std::size_t tokens[2] = {kBurst, kBurst};
  std::uint64_t deferrals[3] = {0, 0, 0};
  auto swarm_push = [&](std::size_t self, session::PeerId peer) {
    while (true) {
      if (tokens[self] == 0) {
        ++deferrals[self];
        return;
      }
      const store::Content* content = endpoints[self]->next_push(peer);
      if (content == nullptr) return;
      --tokens[self];
      if (!endpoints[self]->start_transfer(peer, content->id(), rng)) return;
    }
  };

  while ((!endpoints[0]->complete() || !endpoints[1]->complete()) &&
         now < deadline) {
    ++now;
    // Offer slower than the retransmit timer (a fresh offer supersedes
    // the in-flight one), so lost advertises get their timer-driven
    // second chance instead of being papered over by the next offer.
    if (now % (cfg.response_timeout + 2) == 1) {
      // The source seeds alice with both files, interleaved.
      endpoints[2]->offer_packet(0, kPlainContent, plain_source.encode(rng));
      const std::size_t g = next_generation;
      next_generation = (next_generation + 1) % kGenerations;
      endpoints[2]->offer_packet(0, gen_content(g),
                                 gen_sources[g].encode(rng));
    }
    swarm_push(0, 1);
    swarm_push(1, 0);
    pump();
    for (auto& ep : endpoints) ep->tick(now);
    for (std::size_t& t : tokens) t = std::min(t + 1, kBurst);
    pump();  // deliver what the tick retransmitted
  }

  const bool done = endpoints[0]->complete() && endpoints[1]->complete();
  bool verified = done;
  for (std::size_t i = 0; i < 2 && verified; ++i) {
    verified &= endpoints[i]->contents().find(kPlainContent)
                    ->finish_and_verify(kPlainSeed);
    for (std::size_t g = 0; g < kGenerations; ++g) {
      verified &= endpoints[i]->contents().find(gen_content(g))
                      ->finish_and_verify(gen_seed(g));
    }
  }

  std::cout << "k=" << k << " payload=" << payload << "B loss=" << loss
            << " dup=0.1 reorder=0.2 — 2 files (plain + " << kGenerations
            << " generations) as " << 1 + kGenerations << " contents, "
            << (done ? "both endpoints complete" : "DID NOT COMPLETE")
            << " after " << now << " ticks, contents "
            << (verified ? "verified byte-exact" : "NOT verified") << "\n";
  for (std::size_t i = 0; i < 2; ++i) {
    std::size_t generations_done = 0;
    for (std::size_t g = 0; g < kGenerations; ++g) {
      generations_done +=
          endpoints[i]->contents().find(gen_content(g))->complete() ? 1 : 0;
    }
    std::cout << (i == 0 ? "alice" : "bob") << " generations complete: "
              << generations_done << "/" << kGenerations << "\n";
  }
  std::cout << "\n";

  TextTable table({"endpoint", "offers", "swarm picks", "pacer defers",
                   "adv rtx", "vetoes rx", "data rx", "dup suppressed",
                   "wire bytes"});
  const char* names[] = {"alice", "bob", "source"};
  for (std::size_t i = 0; i < 3; ++i) {
    const session::SessionStats& s = endpoints[i]->stats();
    table.add_row(
        {names[i],
         TextTable::integer(static_cast<long long>(s.offers)),
         TextTable::integer(static_cast<long long>(s.swarm_pushes)),
         TextTable::integer(static_cast<long long>(deferrals[i])),
         TextTable::integer(static_cast<long long>(s.advertise_retransmits)),
         TextTable::integer(static_cast<long long>(s.aborts_received)),
         TextTable::integer(static_cast<long long>(s.data_delivered)),
         TextTable::integer(static_cast<long long>(s.duplicates_suppressed)),
         TextTable::integer(
             static_cast<long long>(s.bytes_sent + s.bytes_received))});
  }
  table.print(std::cout);
  std::cout << "\nEvery frame above crossed a lossy channel carrying its "
               "content id; the scheduler interleaved all four contents "
               "and the pacer capped each node's push bursts.\n";
  return done && verified ? 0 : 1;
}
