// Versioned binary wire codec for every LTNC protocol message.
//
// Frame layout (all multi-byte integers are LEB128 varints unless noted):
//
//   +---------+---------+---------+----------------------------------+
//   | version |  type   |  flags  |  type-specific body …            |
//   |  (u8)   |  (u8)   |  (u8)   |                                  |
//   +---------+---------+---------+----------------------------------+
//
//   kCodedPacket   varint k, varint m, code vector, m payload bytes
//   kAbort / kAck  varint token (binary feedback channel, §III-C.2)
//   kCcArray       varint n, n × varint leader (smart feedback)
//   kAdvertise     varint k, varint m, code vector — a kCodedPacket minus
//                  its payload, byte for byte: the header a transfer
//                  ships ahead so the receiver can veto the payload
//                  (§III-C). The size identity
//                  serialized_size_advertise({id, m}, p.coeffs) ==
//                  serialized_size(id, p) − m is load-bearing for the
//                  simulator's traffic ledger.
//   kProceed       varint token — the go-ahead answer to an advertise
//                  (the explicit form of "silence means proceed" that
//                  unreliable transports need)
//
// Type 2 and flags bit 2 are retired: they carried a generation number
// for contents split into generations, and a generation is now a content
// of its own. Decoders reject type 2 as kBadType and bit 2 as kMalformed.
//
// **v2 — content multiplexing.** Every message may carry a content id so
// one endpoint can serve many contents over the same link. The id is a
// varint inserted immediately after the 3-byte header, present iff flags
// bit 1 is set. The serializer omits the field — and stamps version 1 —
// whenever the content id is 0, so single-content traffic stays
// byte-identical to the v1 wire image. Decoders accept version 1 (content
// id field rejected, mapping to the default id 0) and version 2.
//
// The code vector uses **adaptive encoding** — the serializer computes
// both sizes and picks the smaller, recording the choice in flags bit 0:
//
//   dense  (flag 0): ceil(k/8) bitmap bytes, bit i of the vector at byte
//                    i/8 bit i%8; bits past k in the last byte must be 0.
//   sparse (flag 1): varint degree d, then the first set index followed
//                    by d-1 gap-minus-one deltas (indices are strictly
//                    increasing, so every delta varint is ≥ 0).
//
// Low-degree packets — the common case under a Soliton distribution — are
// where sparse wins: a degree-8 packet over k = 1024 costs ~11 bytes
// instead of the 128-byte bitmap.
//
// Version byte policy: kProtocolVersion is bumped on any incompatible
// layout change; decoders hard-reject frames with an unknown version or
// any reserved flag bit set, so old decoders can never misparse new
// traffic. Deserialization is defensive end to end: every read is
// bounds-checked, declared dimensions are capped before any allocation,
// and a frame must be consumed exactly (no trailing bytes).
//
// **Several frames per datagram.** A frame's length follows from its own
// header and body, so frames can travel back to back in one datagram with
// no length prefix or marker: leading_frame_size finds where the first
// one ends, and count_frames tells whether a datagram is exactly such a
// run (net::UdpTransport packs small frames this way, and splits only a
// datagram that is; any other one is delivered whole). The frames
// themselves are unchanged, so the version stays 2; a receiver that
// predates packing rejects a packed datagram whole as kTrailingBytes
// instead of misreading it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/types.hpp"
#include "wire/frame.hpp"

namespace ltnc::wire {

/// Highest protocol version this build understands. The serializer stamps
/// the *lowest* version that can express a frame (1 unless v2 fields are
/// used), so a fleet upgrades without a flag day.
inline constexpr std::uint8_t kProtocolVersion = 2;

/// Flag bits shared by every message type. Bit 0 is the adaptive
/// code-vector encoding on packet-shaped frames; bit 1 gates the v2
/// content-id field; the rest stay reserved-must-be-zero.
inline constexpr std::uint8_t kFlagSparse = 0x01;
inline constexpr std::uint8_t kFlagContentId = 0x02;

/// Hard caps on declared dimensions: a garbage varint must not drive a
/// multi-gigabyte allocation. Generous for any realistic deployment.
inline constexpr std::size_t kMaxCodeLength = std::size_t{1} << 24;
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 28;

enum class MessageType : std::uint8_t {
  kCodedPacket = 1,
  // 2 is retired (see the header comment): decoders reject it.
  kAbort = 3,  ///< binary feedback: receiver vetoes the advertised vector
  kAck = 4,    ///< binary feedback: receiver accepts / transfer complete
  kCcArray = 5,  ///< smart feedback: the receiver's component-leader array
  kAdvertise = 6,  ///< code vector + dimensions, no payload (§III-C)
  kProceed = 7,    ///< go-ahead answer to an advertise
};

enum class CoeffEncoding : std::uint8_t { kDense = 0, kSparse = 1 };

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,      ///< frame ends before the declared content
  kBadVersion,     ///< unknown protocol version byte
  kBadType,        ///< unknown message type (or not the expected one)
  kMalformed,      ///< reserved flag bits, dimension caps, non-canonical
                   ///< varints, unordered sparse indices, dirty tail bits
  kTrailingBytes,  ///< frame longer than the message it carries
};

// -- sizes (exact, shared with serialization so they can never drift) ------

/// Encoded size of a code vector under the given encoding.
std::size_t coeff_encoded_size(const BitVector& coeffs, CoeffEncoding enc);

/// The encoding the serializer will pick (the smaller; dense wins ties).
CoeffEncoding choose_coeff_encoding(const BitVector& coeffs);

/// Wire bytes the content-id field adds to a frame: 0 for the default
/// content, otherwise the id's varint size (≤ 2 bytes for ids < 16384 —
/// the range derive_content_id stays in).
std::size_t content_id_size(ContentId content);

/// The v2 advertise companion fields: which content the transfer targets
/// and the length of the payload to come. Also the decode result of
/// deserialize_advertise.
struct AdvertiseInfo {
  ContentId content = 0;
  std::size_t payload_bytes = 0;
};

// Every size, serialize and deserialize call names its content (directly
// or through an AdvertiseInfo); content 0 is the one that costs no
// id bytes on the wire.

std::size_t serialized_size(ContentId content, const CodedPacket& packet);
std::size_t serialized_size_feedback(ContentId content, std::uint64_t token);
std::size_t serialized_size_cc(ContentId content,
                               std::span<const std::uint32_t> leaders);
/// Always equals serialized_size(info.content, {coeffs, payload}) −
/// info.payload_bytes.
std::size_t serialized_size_advertise(const AdvertiseInfo& info,
                                      const BitVector& coeffs);

// -- serialization (overwrites `out`; word-span zero-copy fast paths) ------

void serialize(ContentId content, const CodedPacket& packet, Frame& out);
/// `type` must be kAbort, kAck or kProceed.
void serialize_feedback(ContentId content, MessageType type,
                        std::uint64_t token, Frame& out);
void serialize_cc(ContentId content, std::span<const std::uint32_t> leaders,
                  Frame& out);
/// Serializes the advertise for a transfer of info.payload_bytes behind
/// `coeffs` — the kCodedPacket frame with the payload span left out.
void serialize_advertise(const AdvertiseInfo& info, const BitVector& coeffs,
                         Frame& out);

// -- deserialization (hardened; never reads past `frame`) ------------------

/// Message type of a frame without decoding the body (kOk ⇒ `type` set and
/// the version byte checked).
DecodeStatus peek_type(std::span<const std::uint8_t> frame, MessageType& type);

/// Content id of a frame without decoding the body — the one read a shard
/// router needs per datagram (the id varint sits right after the 3-byte
/// header on every message type). kOk ⇒ `content` set, 0 when the frame
/// carries no id field. Only the header and the id varint are validated;
/// a frame that peeks fine can still fail its full deserialize on the
/// shard that owns it, which is where malformed traffic is counted.
DecodeStatus peek_content(std::span<const std::uint8_t> frame,
                          ContentId& content);

DecodeStatus deserialize(std::span<const std::uint8_t> frame,
                         ContentId& content, CodedPacket& packet);
/// Accepts kAbort, kAck or kProceed; reports which via `type`.
DecodeStatus deserialize_feedback(std::span<const std::uint8_t> frame,
                                  MessageType& type, std::uint64_t& token,
                                  ContentId& content);
DecodeStatus deserialize_cc(std::span<const std::uint8_t> frame,
                            ContentId& content,
                            std::vector<std::uint32_t>& leaders);
/// kOk ⇒ `coeffs` holds the advertised vector (lease reused when the
/// width matches) and `info` its content and the length of the payload
/// to come.
DecodeStatus deserialize_advertise(std::span<const std::uint8_t> frame,
                                   BitVector& coeffs, AdvertiseInfo& info);

// -- frames back to back ---------------------------------------------------

/// Length of the frame at the front of `bytes`, by the same bounds-checked
/// header, content-id, dimension and code-vector reads and caps its
/// type's decoder uses, without storing anything. kOk ⇒ `size` ≤
/// bytes.size() and bytes.first(size) decodes as that type; the bytes
/// after it are not read. kOk with size == bytes.size() is how a sender
/// tells that `bytes` is exactly one frame.
DecodeStatus leading_frame_size(std::span<const std::uint8_t> bytes,
                                std::size_t& size);

/// How many frames `datagram` carries back to back when it is exactly a
/// run of whole frames (leading_frame_size from each boundary to the
/// next, the last one ending at its last byte); 0 when it is not, or is
/// empty. Reads nothing past `datagram`.
std::size_t count_frames(std::span<const std::uint8_t> datagram);

}  // namespace ltnc::wire
