// Endpoint — the sans-I/O session layer (quiche/h2-style).
//
// One Endpoint owns one store::ContentStore — N registered contents, each
// a NodeProtocol (LTNC, RLNC, WC, an LT sink) — and runs the paper's transfer conversation (§III-C) as a per-(peer, content)
// state machine, with **no sockets, no clocks and no allocation at steady
// state**:
//
//      application           Endpoint                transport
//   start_transfer() ──▶ ┌──────────────┐
//   offer_packet()       │ per-peer,    │ ──▶ poll_transmit() ──▶ send()
//   next_push()          │ per-content  │
//   announce_cc()        │ handshake    │
//   tick(now)        ──▶ │ state        │ ◀── handle_frame() ◀── recv()
//                        └──────────────┘
//
// The conversation per transfer, sender S → receiver R:
//
//   S  kAdvertise (content id + code vector + dims; byte-identical
//      to the data frame minus its payload)                  ──▶ R
//   R  kAbort  (veto: the vector is useless to R)            ──▶ S  done
//   R  kProceed (go ahead)                                   ──▶ S
//   S  kCodedPacket (the payload)                            ──▶ R  done
//
// Multi-content sessions: every frame carries its ContentId (zero wire
// bytes for the default content 0, so single-content traffic is
// byte-identical to the pre-store implementation); conversations,
// completion acks and cc caches are per (peer, content); next_push() asks
// the SwarmScheduler which content a push slot should carry
// (rarest-first, round-robin fallback). How many push slots there are is
// the application's choice: the endpoint never paces, so a node serving
// hundreds of contents over a real UDP link meters its own pushes.
//
// FeedbackMode::kNone skips the handshake (data is pushed directly);
// kSmart additionally lets R ship its cc array (announce_cc → kCcArray),
// which S caches per (peer, content) and consumes on its next
// start_transfer via emit_for(). A completed content announces itself
// with a kAck carrying the delivered-frame count (announce_completion),
// which the file sender uses as its per-content stop signal.
//
// Reliability is the application's loop plus two timers: an advertise
// awaiting feedback retransmits on tick() until max_retries, and replayed
// frames are suppressed (a re-advertise of the vector we already answered
// re-sends the answer; a duplicate kProceed never double-sends data; data
// frames the protocol has already absorbed reduce to duplicates inside the
// protocol itself — rateless codes make payload retransmission pointless,
// so lost data simply costs the gossip loop one more exchange).
//
// Everything in and out is an arena-leased wire::Frame; poll_transmit
// recycles the caller's buffer into the queue slot it drains, so the
// handle_frame → poll_transmit loop never touches the global heap once
// warm (tests/steady_state_alloc_test.cpp holds this to zero).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "session/protocols.hpp"
#include "store/content_store.hpp"
#include "store/swarm_scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::session {

/// Opaque peer handle. The transport glue owns the mapping to real
/// addresses (a socket peer, a simulator NodeId, a channel index).
using PeerId = std::uint32_t;

/// Abstract session time. tick() only compares and adds Instants, so the
/// unit is the application's choice (gossip rounds, poll iterations,
/// milliseconds) — there is no clock anywhere in the session layer.
using Instant = std::uint64_t;

struct EndpointConfig {
  FeedbackMode feedback = FeedbackMode::kBinary;
  /// Ticks an advertise waits for abort/proceed before retransmitting,
  /// and an accepted advertise waits for its data before resetting.
  Instant response_timeout = 8;
  /// Advertise retransmissions before the transfer is abandoned. Also the
  /// completion-announce retransmission budget.
  std::uint32_t max_retries = 4;
  /// Queue a kAck (token = data frames delivered) to the last data sender
  /// when a content completes, and re-queue it on tick() while the
  /// session stays alive — the stop signal of a file transfer.
  bool announce_completion = false;
  /// Capacity of the recently-expired content ring (see expire_content).
  /// The default covers a stream's in-flight window many times over;
  /// catalog workloads where hundreds of contents churn per window (an
  /// edge cache under content replacement) should size it to the churn
  /// horizon. 0 disables the ring entirely: late frames for expired
  /// contents then degrade to foreign_frames — accounting, not
  /// correctness.
  std::size_t expired_ring = 128;
};

/// One struct unifying the counters that used to be scattered over the
/// simulator, the UDP example loops and ad-hoc locals. Frame counts and
/// byte totals are measured (every frame crosses the wire codec).
struct SessionStats {
  // -- conversations, sender side
  std::uint64_t offers = 0;                 ///< transfers initiated locally
  std::uint64_t advertises_sent = 0;        ///< first transmissions only
  std::uint64_t advertise_retransmits = 0;  ///< timer-driven re-sends
  std::uint64_t aborts_received = 0;        ///< transfers vetoed by the peer
  std::uint64_t proceeds_received = 0;
  std::uint64_t data_sent = 0;              ///< payload frames queued
  std::uint64_t transfers_abandoned = 0;    ///< retries exhausted/superseded
  // -- conversations, receiver side
  std::uint64_t advertises_received = 0;
  std::uint64_t aborts_sent = 0;
  std::uint64_t proceeds_sent = 0;
  std::uint64_t data_delivered = 0;         ///< handed to the protocol
  std::uint64_t unsolicited_data = 0;       ///< no matching advertise
  std::uint64_t overheard = 0;              ///< snooped packets kept
  // -- smart feedback
  std::uint64_t cc_sent = 0;
  std::uint64_t cc_received = 0;
  // -- completion announcements
  std::uint64_t completions_sent = 0;       ///< includes re-announcements
  std::uint64_t completions_received = 0;
  // -- swarm scheduling
  std::uint64_t swarm_pushes = 0;           ///< next_push() picks granted
  // -- hygiene
  std::uint64_t duplicates_suppressed = 0;  ///< replayed frames absorbed
  std::uint64_t timeouts = 0;               ///< inbound conversations reset
  std::uint64_t malformed_frames = 0;       ///< failed the hardened decode
  std::uint64_t foreign_frames = 0;         ///< unknown content id, wrong
                                            ///< k/m, or data at a
                                            ///< receiver-less content
  // -- sliding-window expiry (streaming)
  std::uint64_t contents_expired = 0;       ///< expire_content() removals
  std::uint64_t expired_frames = 0;         ///< late frames for a recently
                                            ///< expired content — counted
                                            ///< here and nowhere else
  // -- totals (frames_sent counts frames popped via poll_transmit; a
  // transport may still refuse one, so socket-level tallies belong to
  // the transport glue)
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  /// Aggregation across a fleet of endpoints (the simulator's summary).
  SessionStats& operator+=(const SessionStats& o) {
    offers += o.offers;
    advertises_sent += o.advertises_sent;
    advertise_retransmits += o.advertise_retransmits;
    aborts_received += o.aborts_received;
    proceeds_received += o.proceeds_received;
    data_sent += o.data_sent;
    transfers_abandoned += o.transfers_abandoned;
    advertises_received += o.advertises_received;
    aborts_sent += o.aborts_sent;
    proceeds_sent += o.proceeds_sent;
    data_delivered += o.data_delivered;
    unsolicited_data += o.unsolicited_data;
    overheard += o.overheard;
    cc_sent += o.cc_sent;
    cc_received += o.cc_received;
    completions_sent += o.completions_sent;
    completions_received += o.completions_received;
    swarm_pushes += o.swarm_pushes;
    duplicates_suppressed += o.duplicates_suppressed;
    timeouts += o.timeouts;
    malformed_frames += o.malformed_frames;
    foreign_frames += o.foreign_frames;
    contents_expired += o.contents_expired;
    expired_frames += o.expired_frames;
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    return *this;
  }
};

class Endpoint {
 public:
  /// What a consumed frame meant — returned by handle_frame so transport
  /// glue (and the simulator's ledger) can react without peeking into the
  /// endpoint's state.
  enum class Event : std::uint8_t {
    kNone,             ///< consumed silently (stale/duplicate/foreign)
    kAborted,          ///< we vetoed an advertise (abort frame queued)
    kProceeding,       ///< we accepted an advertise (proceed frame queued)
    kDelivered,        ///< a payload reached our protocol
    kAbortReceived,    ///< our transfer was vetoed; conversation closed
    kProceedReceived,  ///< go-ahead received; data frame queued
    kAckReceived,      ///< the peer announced a content's completion
    kCcReceived,       ///< the peer's cc array was cached
    kMalformed,        ///< frame failed the hardened decode
    kExpired,          ///< late frame for a recently expired content
  };

  /// An endpoint over a caller-assembled store. The endpoint has no
  /// dimensions of its own: every content carries its k and payload size,
  /// and frames addressing a known content with any other k/m are dropped
  /// as foreign traffic (a stray datagram on an open port must never
  /// poison a protocol). An empty store is a pure sender (offer_packet)
  /// that still runs the handshake and understands abort/proceed/ack —
  /// the shape of a fountain-code seeder.
  Endpoint(const EndpointConfig& config,
           std::unique_ptr<store::ContentStore> contents);
  /// A bare null is a compile error: pass an empty store for a seeder.
  Endpoint(const EndpointConfig& config, std::nullptr_t) = delete;

  const EndpointConfig& config() const { return cfg_; }
  store::ContentStore& contents() { return *store_; }
  const store::ContentStore& contents() const { return *store_; }
  const SessionStats& stats() const { return stats_; }

  /// Every content with decode state has fully decoded (false when none
  /// has decode state — a pure seeder is never "complete").
  bool complete() const { return store_->all_complete(); }
  /// Aggressiveness gate (false for protocol-less and sink endpoints).
  bool can_push() const;

  // --- application surface -------------------------------------------------

  /// Starts a transfer of `content` toward `peer` with a packet emitted by
  /// its protocol (emit_for when a fresh cc array from that peer is cached
  /// — the cache is consumed either way). Returns false when the content
  /// is unknown or protocol-less, or its protocol has nothing to say.
  /// Supersedes any transfer of the same content to `peer` still awaiting
  /// feedback.
  bool start_transfer(PeerId peer, ContentId content, Rng& rng);

  /// Scheduler surface: picks which content the next push slot toward
  /// `peer` should carry — rarest-first over the store with a round-robin
  /// fallback, skipping contents that cannot emit, whose conversation to
  /// `peer` is still awaiting feedback, or that `peer` has acked complete.
  /// Returns nullptr when nothing is eligible; follow up with
  /// start_transfer(peer, content->id(), rng).
  ///
  /// `while (next_push(...)) start_transfer(...)` terminates for handshake
  /// modes (every started transfer awaits feedback). Under
  /// FeedbackMode::kNone nothing ever becomes ineligible, so every call
  /// grants a pick — bound the loop externally (e.g. one pick per push
  /// slot, as the simulator does).
  const store::Content* next_push(PeerId peer);

  /// Starts a transfer of `content` toward `peer` with an externally built
  /// packet (a source encoder, a replayed store). Always succeeds; the
  /// content need not be registered here.
  void offer_packet(PeerId peer, ContentId content, const CodedPacket& packet);

  /// Queues this node's cc array for a content toward `peer` (smart
  /// feedback §III-C.2). False when the content has none to ship.
  bool announce_cc(PeerId peer, ContentId content);

  /// Wireless snoop (§VI): consume a packet of `content` overheard off
  /// someone else's transfer — no frames, no handshake. Returns true if
  /// the protocol kept it.
  bool overhear(ContentId content, const CodedPacket& packet);

  /// Per-(peer, content) completion knowledge from kAck frames.
  bool peer_completed(PeerId peer, ContentId content) const;
  /// Has `peer` acked every registered content? (The multi-file sender's
  /// stop signal.)
  bool peer_completed_all(PeerId peer) const;

  /// Number of peers this endpoint holds conversation state for. Memory
  /// scales with this, not with the PeerId address space — the flyweight
  /// property the event simulator's fleet accounting leans on.
  std::size_t contacted_peers() const { return peers_.size(); }

  /// Is a transfer of `content` toward `peer` still waiting for its
  /// abort/proceed answer? Drivers that offer packets in a loop (the
  /// swarm seeder's pump) use this to avoid superseding — and thereby
  /// abandoning — a conversation the handshake hasn't resolved yet.
  bool awaiting_feedback(PeerId peer, ContentId content) const;

  /// Attaches observer-only instruments (latency histograms, flight
  /// recorder). Null pointers inside the bundle — or a null bundle —
  /// disable the corresponding instrument; the endpoint never draws RNG
  /// or sends bytes on their behalf. The bundle must outlive the
  /// endpoint. No-op when built with LTNC_TELEMETRY=OFF.
  void set_telemetry(const telemetry::SessionInstruments* instruments) {
    telemetry_ = instruments;
  }

  /// Unregisters `content` and tears down every trace of it: all
  /// per-(peer, content) conversations close (a transfer still awaiting
  /// feedback counts as abandoned), pending payload leases go back to the
  /// arena, per-content side tables shrink, and the id enters a small
  /// ring of recently expired contents. Frames that later address a
  /// ringed id are counted as `expired_frames` (and nothing else) rather
  /// than foreign — under a sliding stream window, late packets for a
  /// block whose deadline passed are expected traffic, not port noise.
  /// Frames already serialized into the transmit queue still depart, like
  /// datagrams in flight. Returns false when the id was not registered.
  ///
  /// The ring remembers the last 128 expiries; a stream's in-flight
  /// window is a handful of blocks, so late traffic always lands inside
  /// it. Ids older than that degrade to foreign — accounting, not
  /// correctness. Re-registering a ringed id works (the store is always
  /// consulted first); stream block ids are never reused anyway.
  bool expire_content(ContentId content);

  /// The scheduler behind next_push() — exposed so an application can
  /// install a store::PushPolicy (the streaming subsystem's
  /// earliest-deadline-first override).
  store::SwarmScheduler& scheduler() { return scheduler_; }

  /// Drops the (peer, content) conversation slot if it carries no live
  /// state — no transfer awaiting feedback, no accepted advertise waiting
  /// for data, no unconsumed cc cache, no completion knowledge — and
  /// releases the peer's whole table entry once its last conversation
  /// goes. Returns true when something was reclaimed. The event engine
  /// calls this after fire-and-forget pushes so a long scale run's
  /// source endpoint doesn't accrete a slot per node it ever touched.
  bool reclaim_idle_convo(PeerId peer, ContentId content);

  /// Token stamped into the *next* abort/proceed answer instead of the
  /// endpoint's own conversation counter. An orchestrator driving many
  /// endpoints (the epidemic simulator) uses this to impose its global
  /// transfer sequence so feedback frames are byte-identical to the
  /// pre-session implementation; standalone endpoints number their own.
  void set_feedback_token(std::uint64_t token);

  // --- transport surface (sans-I/O) ----------------------------------------

  /// Consumes one raw datagram from `peer`. Never throws on wire garbage:
  /// malformed and foreign frames are counted and dropped.
  Event handle_frame(PeerId peer, std::span<const std::uint8_t> bytes);

  /// Pops the next outbound frame into `out` (recycling its capacity) and
  /// its destination into `peer`. Returns false when nothing is pending.
  bool poll_transmit(PeerId& peer, wire::Frame& out);

  bool has_pending_transmit() const { return tx_size_ != 0; }
  std::size_t pending_transmit() const { return tx_size_; }

  /// Advances session time: retransmits advertises awaiting feedback,
  /// abandons them past max_retries, resets inbound conversations whose
  /// data never arrived, re-announces completions. `now` must not
  /// decrease.
  void tick(Instant now);

 private:
  struct Outbound {
    enum class State : std::uint8_t { kIdle, kAwaitFeedback };
    State state = State::kIdle;
    CodedPacket packet;  ///< pending payload (storage reused across offers)
    Instant deadline = 0;
    std::uint32_t retries = 0;
    Instant offered_at = 0;  ///< advertise time — handshake latency anchor
  };

  struct Inbound {
    BitVector coeffs;  ///< advertised vector we answered with a proceed
    bool awaiting_data = false;
    Instant deadline = 0;
  };

  /// Conversation state for one (peer, content) pair.
  struct Convo {
    ContentId content = 0;
    Outbound out;
    Inbound in;
    std::vector<std::uint32_t> cc;  ///< freshest cc array from this peer
    bool cc_fresh = false;
    bool peer_done = false;  ///< peer acked this content complete
    bool ever_offered = false;   ///< telemetry: first_offer_at is valid
    Instant first_offer_at = 0;  ///< sender-side completion-latency anchor
  };

  struct Peer {
    PeerId id = 0;              ///< owning peer (slots are not id-indexed)
    std::vector<Convo> convos;  ///< tiny; linear scan by content id
  };

  /// Per-content completion-announcement state (receiver side of a file
  /// transfer), indexed like the store.
  struct Announce {
    bool queued = false;
    PeerId peer = 0;
    std::uint32_t count = 0;
    Instant deadline = 0;
  };

  Peer& peer_state(PeerId peer);
  Peer* find_peer(PeerId peer);
  const Peer* find_peer(PeerId peer) const;
  /// Open-addressed index plumbing: peers live in `peers_` in
  /// first-contact order; `slot_of_` maps a hashed PeerId to its slot.
  std::uint32_t find_slot(PeerId peer) const;
  void index_insert(PeerId peer, std::uint32_t slot);
  void index_erase(PeerId peer);
  void index_rebind(PeerId peer, std::uint32_t from, std::uint32_t to);
  void rehash_index(std::size_t buckets);
  void remove_peer_slot(std::uint32_t slot);
  Convo& convo(PeerId peer, ContentId content);
  Convo* find_convo(PeerId peer, ContentId content);
  const Convo* find_convo(PeerId peer, ContentId content) const;
  /// Closes an outgoing conversation and releases the pending packet's
  /// arena lease — per-(peer, content) slots must not pin payload storage
  /// between transfers (N peers × N endpoints would otherwise retain
  /// O(N²) buffers in the simulator).
  static void close_outbound(Outbound& out);
  void begin_offer(PeerId peer, ContentId content, const CodedPacket& packet);
  void queue_advertise(PeerId peer, ContentId content, const Outbound& out);
  void queue_data(PeerId peer, ContentId content, const CodedPacket& packet);
  void queue_feedback(PeerId peer, ContentId content, wire::MessageType type,
                      std::uint64_t token);
  void queue_cc(PeerId peer, ContentId content,
                const std::vector<std::uint32_t>& leaders);
  /// Reserves the next transmit-ring slot (growing the ring cold-path
  /// only) and returns its frame for the caller to fill.
  wire::Frame& push_slot(PeerId peer);
  std::uint64_t next_feedback_token();
  void maybe_announce_completion(std::size_t content_index,
                                 store::Content& content, PeerId data_peer);

  Event on_advertise(PeerId peer, std::span<const std::uint8_t> bytes);
  Event on_data(PeerId peer, std::span<const std::uint8_t> bytes);
  Event on_feedback(PeerId peer, ContentId content, wire::MessageType type);
  Event on_cc(PeerId peer, std::span<const std::uint8_t> bytes);
  bool recently_expired(ContentId content) const;
  void note_expired(ContentId content);

  EndpointConfig cfg_;
  std::unique_ptr<store::ContentStore> store_;
  store::SwarmScheduler scheduler_;
  SessionStats stats_;

  // Per-peer state, sparse by construction: slots hold only peers this
  // endpoint has actually conversed with, in first-contact order, found
  // through an open-addressed hash over the PeerId space. A fleet node
  // that addresses the source as peer id = num_nodes therefore costs one
  // slot, not a num_nodes-long dense table — the difference between
  // O(contacts) and O(n²) memory across a million-node simulation.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<Peer> peers_;              ///< dense, first-contact order
  std::vector<std::uint32_t> slot_of_;   ///< open-addressed PeerId index
  std::size_t index_mask_ = 0;           ///< slot_of_.size() - 1 (pow 2)
  std::vector<Announce> announces_;      ///< parallel to store contents
  std::vector<std::uint8_t> eligible_;   ///< next_push scratch

  // Ring of recently expired content ids (see expire_content). Bounded
  // by cfg_.expired_ring, so a long stream never grows it past that; the
  // scan only runs on the cold unknown-content path.
  std::vector<ContentId> expired_ring_;
  std::size_t expired_next_ = 0;

  // Transmit queue: a recycling ring of (destination, frame) slots, the
  // SimChannel discipline — capacity circulates via poll_transmit's swap
  // instead of every slot growing its own buffer.
  struct TxSlot {
    PeerId peer = 0;
    wire::Frame frame;
  };
  std::vector<TxSlot> tx_ring_;
  std::size_t tx_head_ = 0;
  std::size_t tx_size_ = 0;

  Instant now_ = 0;
  // Observer-only instruments (may stay null forever). first_delivery_
  // is parallel to the store: the tick a content's first payload landed,
  // the anchor for its completion-latency sample (recorded once).
  const telemetry::SessionInstruments* telemetry_ = nullptr;
  std::vector<Instant> first_delivery_;
  std::vector<std::uint8_t> completion_recorded_;
  std::uint64_t conversation_counter_ = 0;  ///< default feedback tokens
  std::optional<std::uint64_t> pending_token_;  ///< set_feedback_token

  // Decode scratch, reused across frames (no steady-state leases).
  CodedPacket rx_packet_;
  BitVector rx_coeffs_;
  wire::AdvertiseInfo rx_adv_{};
  std::vector<std::uint32_t> rx_cc_;
};

}  // namespace ltnc::session
