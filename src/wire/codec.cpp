#include "wire/codec.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace ltnc::wire {
namespace {

// -- LEB128 varints --------------------------------------------------------

std::size_t varint_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

struct Writer {
  std::uint8_t* p;

  void put_u8(std::uint8_t v) { *p++ = v; }

  void put_varint(std::uint64_t value) {
    while (value >= 0x80) {
      *p++ = static_cast<std::uint8_t>(value) | 0x80;
      value >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(value);
  }

  void put_bytes(const void* src, std::size_t n) {
    if (n != 0) std::memcpy(p, src, n);
    p += n;
  }
};

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  DecodeStatus get_u8(std::uint8_t& out) {
    if (p == end) return DecodeStatus::kTruncated;
    out = *p++;
    return DecodeStatus::kOk;
  }

  /// Canonical LEB128: at most 10 bytes, the final byte non-zero (except
  /// for the single-byte zero) and within the 64-bit range.
  DecodeStatus get_varint(std::uint64_t& out) {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      if (p == end) return DecodeStatus::kTruncated;
      const std::uint8_t byte = *p++;
      if (i == 9 && byte > 1) return DecodeStatus::kMalformed;  // > 2^64-1
      value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) return DecodeStatus::kMalformed;  // overlong
        out = value;
        return DecodeStatus::kOk;
      }
    }
    return DecodeStatus::kMalformed;  // unterminated 10-byte run
  }
};

#define WIRE_TRY(expr)                                    \
  do {                                                    \
    const DecodeStatus status_ = (expr);                  \
    if (status_ != DecodeStatus::kOk) return status_;     \
  } while (false)

// -- code vectors ----------------------------------------------------------

std::size_t dense_size(std::size_t bits) { return (bits + 7) / 8; }

std::size_t sparse_size(const BitVector& coeffs, std::size_t degree) {
  std::size_t size = varint_size(degree);
  std::size_t prev = 0;
  bool first = true;
  coeffs.for_each_set([&](std::size_t i) {
    size += varint_size(first ? i : i - prev - 1);
    first = false;
    prev = i;
  });
  return size;
}

/// The encoding the serializer picks for a code vector, with its encoded
/// size: one sparse walk yields both the choice and the frame length.
struct CoeffLayout {
  CoeffEncoding enc;
  std::size_t bytes;
};

CoeffLayout coeff_layout(const BitVector& coeffs) {
  const std::size_t dense = dense_size(coeffs.size());
  const std::size_t degree = coeffs.popcount();
  // Each sparse index costs ≥ 1 byte on top of the degree varint, so a
  // degree at or past the bitmap size can never win — skip the exact walk.
  if (degree >= dense) return {CoeffEncoding::kDense, dense};
  const std::size_t sparse = sparse_size(coeffs, degree);
  if (sparse < dense) return {CoeffEncoding::kSparse, sparse};
  return {CoeffEncoding::kDense, dense};
}

void write_dense(Writer& w, const BitVector& coeffs) {
  const std::size_t bytes = dense_size(coeffs.size());
  if constexpr (std::endian::native == std::endian::little) {
    // Bit i lives at byte i/8, bit i%8 — exactly the little-endian byte
    // image of the limb words (tail bits past size() are zero by the
    // BitVector invariant), so the bitmap is one memcpy from the span.
    w.put_bytes(coeffs.word_span().data(), bytes);
  } else {
    for (std::size_t b = 0; b < bytes; ++b) {
      const std::uint64_t word = coeffs.word_span()[b / 8];
      w.put_u8(static_cast<std::uint8_t>(word >> ((b % 8) * 8)));
    }
  }
}

void write_sparse(Writer& w, const BitVector& coeffs) {
  w.put_varint(coeffs.popcount());
  std::size_t prev = 0;
  bool first = true;
  coeffs.for_each_set([&](std::size_t i) {
    w.put_varint(first ? i : i - prev - 1);
    first = false;
    prev = i;
  });
}

// The body readers below take their outputs by pointer: null validates
// and skips the field without storing it, which is how
// leading_frame_size walks a frame with exactly the decoders' reads.

/// Reads a dense code vector of k bits into `coeffs` (zeroed, k wide).
DecodeStatus read_dense(Reader& r, std::size_t k, BitVector* coeffs) {
  const std::size_t bytes = dense_size(k);
  if (r.remaining() < bytes) return DecodeStatus::kTruncated;
  // Reject dirty tail bits past k so the BitVector zero-tail invariant
  // (and with it popcount/degree) can never be poisoned from the wire.
  if (k % 8 != 0) {
    const std::uint8_t tail = r.p[bytes - 1];
    if ((tail >> (k % 8)) != 0) return DecodeStatus::kMalformed;
  }
  if (coeffs != nullptr) {
    if constexpr (std::endian::native == std::endian::little) {
      if (bytes != 0) std::memcpy(coeffs->mutable_words(), r.p, bytes);
    } else {
      for (std::size_t b = 0; b < bytes; ++b) {
        coeffs->mutable_words()[b / 8] |= static_cast<std::uint64_t>(r.p[b])
                                          << ((b % 8) * 8);
      }
    }
  }
  r.p += bytes;
  return DecodeStatus::kOk;
}

/// Reads a sparse code vector of k bits into `coeffs` (zeroed, k wide).
DecodeStatus read_sparse(Reader& r, std::size_t k, BitVector* coeffs) {
  std::uint64_t degree = 0;
  WIRE_TRY(r.get_varint(degree));
  if (degree > k) return DecodeStatus::kMalformed;
  std::uint64_t index = 0;
  for (std::uint64_t d = 0; d < degree; ++d) {
    std::uint64_t delta = 0;
    WIRE_TRY(r.get_varint(delta));
    // First varint is the index itself; the rest are gap-minus-one, so
    // indices are strictly increasing by construction.
    if (d == 0) {
      index = delta;
    } else {
      if (delta >= k || index + delta + 1 < index) {
        return DecodeStatus::kMalformed;  // overflow-safe bound
      }
      index = index + delta + 1;
    }
    if (index >= k) return DecodeStatus::kMalformed;
    if (coeffs != nullptr) coeffs->set(static_cast<std::size_t>(index));
  }
  return DecodeStatus::kOk;
}

// -- shared message scaffolding --------------------------------------------

std::size_t header_size() { return 3; }  // version, type, flags

/// The retired type byte (see codec.hpp): inside the 1–7 range, so the
/// range check alone would let it through.
constexpr std::uint8_t kRetiredType = 2;

/// Flags for a frame carrying `content`; the version byte follows from
/// whether the v2 content-id bit is set, so default-content frames keep
/// the exact v1 byte image.
std::uint8_t frame_flags(std::uint8_t base, ContentId content) {
  return content != 0 ? base | kFlagContentId : base;
}

void write_header(Writer& w, MessageType type, std::uint8_t flags) {
  w.put_u8((flags & kFlagContentId) != 0 ? std::uint8_t{2} : std::uint8_t{1});
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u8(flags);
}

/// Writes header plus the optional content-id varint (the shared prefix of
/// every v2 message body).
void write_head(Writer& w, MessageType type, std::uint8_t flags,
                ContentId content) {
  write_header(w, type, flags);
  if ((flags & kFlagContentId) != 0) w.put_varint(content);
}

DecodeStatus read_header(Reader& r, MessageType& type, std::uint8_t& flags) {
  std::uint8_t version = 0;
  std::uint8_t raw_type = 0;
  WIRE_TRY(r.get_u8(version));
  if (version < 1 || version > kProtocolVersion) {
    return DecodeStatus::kBadVersion;
  }
  WIRE_TRY(r.get_u8(raw_type));
  if (raw_type < static_cast<std::uint8_t>(MessageType::kCodedPacket) ||
      raw_type > static_cast<std::uint8_t>(MessageType::kProceed) ||
      raw_type == kRetiredType) {
    return DecodeStatus::kBadType;
  }
  WIRE_TRY(r.get_u8(flags));
  // v1 predates the multiplexing field: its reserved bit stays reserved,
  // so an old frame can never alias into a content-id read.
  if (version == 1 && (flags & kFlagContentId) != 0) {
    return DecodeStatus::kMalformed;
  }
  type = static_cast<MessageType>(raw_type);
  return DecodeStatus::kOk;
}

/// Reads header + optional content id, enforcing the per-type flag policy
/// (`allowed` is the full set of bits the type may carry).
DecodeStatus read_head(Reader& r, std::uint8_t allowed, MessageType& type,
                       std::uint8_t& flags, ContentId& content) {
  WIRE_TRY(read_header(r, type, flags));
  if ((flags & ~allowed) != 0) return DecodeStatus::kMalformed;
  content = 0;
  if ((flags & kFlagContentId) != 0) WIRE_TRY(r.get_varint(content));
  return DecodeStatus::kOk;
}

/// Size of the shared advertise prefix of a packet body: dimensions plus
/// the code vector — everything ahead of the payload span. The advertise
/// frame is exactly header + this prefix, which is what keeps the
/// advertise/data size identity from ever drifting.
std::size_t coeff_prefix_size(const BitVector& coeffs,
                              std::size_t payload_bytes,
                              const CoeffLayout& layout) {
  return varint_size(coeffs.size()) + varint_size(payload_bytes) +
         layout.bytes;
}

/// Writes the shared advertise prefix (the serializer twin of
/// read_coeff_prefix below).
void write_coeff_prefix(Writer& w, const BitVector& coeffs,
                        std::size_t payload_bytes, CoeffEncoding enc) {
  w.put_varint(coeffs.size());
  w.put_varint(payload_bytes);
  if (enc == CoeffEncoding::kDense) {
    write_dense(w, coeffs);
  } else {
    write_sparse(w, coeffs);
  }
}

std::size_t packet_body_size(const CodedPacket& packet,
                             const CoeffLayout& layout) {
  return coeff_prefix_size(packet.coeffs, packet.payload.size_bytes(),
                           layout) +
         packet.payload.size_bytes();
}

// Frame sizes for a code vector whose layout is already chosen; the
// public serialized_size* functions and the serializers share them.

std::size_t packet_frame_size(ContentId content, const CodedPacket& packet,
                              const CoeffLayout& layout) {
  return header_size() + content_id_size(content) +
         packet_body_size(packet, layout);
}

std::size_t advertise_frame_size(const AdvertiseInfo& info,
                                 const BitVector& coeffs,
                                 const CoeffLayout& layout) {
  // A packet frame minus the payload span, via the shared prefix
  // arithmetic, so the advertise/packet size identity can never drift.
  return header_size() +
         coeff_prefix_size(coeffs, info.payload_bytes, layout) +
         content_id_size(info.content);
}

void write_packet_body(Writer& w, const CodedPacket& packet,
                       CoeffEncoding enc) {
  write_coeff_prefix(w, packet.coeffs, packet.payload.size_bytes(), enc);
  const std::size_t m = packet.payload.size_bytes();
  if constexpr (std::endian::native == std::endian::little) {
    w.put_bytes(packet.payload.byte_view().data(), m);
  } else {
    for (std::size_t b = 0; b < m; ++b) w.put_u8(packet.payload.byte(b));
  }
}

/// Reads the shared advertise prefix of a packet body: dimensions and the
/// code vector (everything ahead of the payload span). Flag validation
/// already happened in read_head; only the encoding bit matters here.
DecodeStatus read_coeff_prefix(Reader& r, std::uint8_t flags,
                               BitVector* coeffs, std::uint64_t& m) {
  const auto enc = static_cast<CoeffEncoding>(flags & kFlagSparse);
  std::uint64_t k = 0;
  WIRE_TRY(r.get_varint(k));
  WIRE_TRY(r.get_varint(m));
  if (k > kMaxCodeLength) return DecodeStatus::kMalformed;
  if (m > kMaxPayloadBytes) return DecodeStatus::kMalformed;

  if (coeffs != nullptr) {
    if (coeffs->size() == static_cast<std::size_t>(k)) {
      coeffs->clear();  // reuse the lease on the steady-state path
    } else {
      *coeffs = BitVector(static_cast<std::size_t>(k));
    }
  }
  const auto bits = static_cast<std::size_t>(k);
  return enc == CoeffEncoding::kDense ? read_dense(r, bits, coeffs)
                                      : read_sparse(r, bits, coeffs);
}

DecodeStatus read_packet_body(Reader& r, std::uint8_t flags,
                              CodedPacket* packet) {
  std::uint64_t m = 0;
  // The payload tail bounds the body, but the dimensions come first —
  // read_coeff_prefix caps them before leasing storage, and the payload
  // length is re-checked against the remaining frame right after.
  WIRE_TRY(read_coeff_prefix(r, flags,
                             packet != nullptr ? &packet->coeffs : nullptr,
                             m));

  if (r.remaining() < m) return DecodeStatus::kTruncated;
  if (packet == nullptr) {
    r.p += m;
    return DecodeStatus::kOk;
  }
  if (packet->payload.size_bytes() != static_cast<std::size_t>(m)) {
    packet->payload = Payload(static_cast<std::size_t>(m));
  }
  std::uint64_t* words = packet->payload.mutable_words();
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t whole = static_cast<std::size_t>(m) / 8;
    if (whole != 0) std::memcpy(words, r.p, whole * 8);
    if (m % 8 != 0) {
      std::uint64_t last = 0;
      std::memcpy(&last, r.p + whole * 8, m % 8);
      words[whole] = last;  // tail bytes masked to zero, matching Payload
    }
  } else {
    for (std::size_t w = 0; w < packet->payload.word_count(); ++w) {
      words[w] = 0;
    }
    for (std::size_t b = 0; b < m; ++b) {
      words[b / 8] |= static_cast<std::uint64_t>(r.p[b]) << ((b % 8) * 8);
    }
  }
  r.p += m;
  return DecodeStatus::kOk;
}

/// Reads a kCcArray body: the leader count, then each leader.
DecodeStatus read_cc_body(Reader& r, std::vector<std::uint32_t>* leaders) {
  std::uint64_t count = 0;
  WIRE_TRY(r.get_varint(count));
  if (count > kMaxCodeLength) return DecodeStatus::kMalformed;
  // Every entry is ≥ 1 byte, so bound the declared count by the frame
  // before reserving storage.
  if (count > r.remaining()) return DecodeStatus::kTruncated;
  if (leaders != nullptr) {
    leaders->clear();
    leaders->reserve(static_cast<std::size_t>(count));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t leader = 0;
    WIRE_TRY(r.get_varint(leader));
    if (leader > 0xFFFFFFFFULL) return DecodeStatus::kMalformed;
    if (leaders != nullptr) {
      leaders->push_back(static_cast<std::uint32_t>(leader));
    }
  }
  return DecodeStatus::kOk;
}

DecodeStatus finish(const Reader& r) {
  return r.p == r.end ? DecodeStatus::kOk : DecodeStatus::kTrailingBytes;
}

}  // namespace

const char* status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kBadType:
      return "bad-type";
    case DecodeStatus::kMalformed:
      return "malformed";
    case DecodeStatus::kTrailingBytes:
      return "trailing-bytes";
  }
  return "unknown";
}

std::size_t coeff_encoded_size(const BitVector& coeffs, CoeffEncoding enc) {
  return enc == CoeffEncoding::kDense ? dense_size(coeffs.size())
                                      : sparse_size(coeffs, coeffs.popcount());
}

CoeffEncoding choose_coeff_encoding(const BitVector& coeffs) {
  return coeff_layout(coeffs).enc;
}

std::size_t content_id_size(ContentId content) {
  return content == 0 ? 0 : varint_size(content);
}

std::size_t serialized_size(ContentId content, const CodedPacket& packet) {
  return packet_frame_size(content, packet, coeff_layout(packet.coeffs));
}

std::size_t serialized_size_feedback(ContentId content, std::uint64_t token) {
  return header_size() + content_id_size(content) + varint_size(token);
}

std::size_t serialized_size_cc(ContentId content,
                               std::span<const std::uint32_t> leaders) {
  std::size_t size =
      header_size() + content_id_size(content) + varint_size(leaders.size());
  for (const std::uint32_t leader : leaders) size += varint_size(leader);
  return size;
}

std::size_t serialized_size_advertise(const AdvertiseInfo& info,
                                      const BitVector& coeffs) {
  return advertise_frame_size(info, coeffs, coeff_layout(coeffs));
}

void serialize(ContentId content, const CodedPacket& packet, Frame& out) {
  const CoeffLayout layout = coeff_layout(packet.coeffs);
  out.resize(packet_frame_size(content, packet, layout));
  Writer w{out.data()};
  write_head(w, MessageType::kCodedPacket,
             frame_flags(static_cast<std::uint8_t>(layout.enc), content),
             content);
  write_packet_body(w, packet, layout.enc);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

void serialize_feedback(ContentId content, MessageType type,
                        std::uint64_t token, Frame& out) {
  LTNC_CHECK_MSG(type == MessageType::kAbort || type == MessageType::kAck ||
                     type == MessageType::kProceed,
                 "feedback frames are kAbort, kAck or kProceed");
  out.resize(serialized_size_feedback(content, token));
  Writer w{out.data()};
  write_head(w, type, frame_flags(0, content), content);
  w.put_varint(token);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

void serialize_cc(ContentId content, std::span<const std::uint32_t> leaders,
                  Frame& out) {
  out.resize(serialized_size_cc(content, leaders));
  Writer w{out.data()};
  write_head(w, MessageType::kCcArray, frame_flags(0, content), content);
  w.put_varint(leaders.size());
  for (const std::uint32_t leader : leaders) w.put_varint(leader);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

void serialize_advertise(const AdvertiseInfo& info, const BitVector& coeffs,
                         Frame& out) {
  const CoeffLayout layout = coeff_layout(coeffs);
  out.resize(advertise_frame_size(info, coeffs, layout));
  Writer w{out.data()};
  write_head(w, MessageType::kAdvertise,
             frame_flags(static_cast<std::uint8_t>(layout.enc), info.content),
             info.content);
  write_coeff_prefix(w, coeffs, info.payload_bytes, layout.enc);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

DecodeStatus peek_type(std::span<const std::uint8_t> frame,
                       MessageType& type) {
  Reader r{frame.data(), frame.data() + frame.size()};
  std::uint8_t flags = 0;
  return read_header(r, type, flags);
}

DecodeStatus peek_content(std::span<const std::uint8_t> frame,
                          ContentId& content) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_header(r, type, flags));
  content = 0;
  if ((flags & kFlagContentId) != 0) WIRE_TRY(r.get_varint(content));
  return DecodeStatus::kOk;
}

DecodeStatus deserialize(std::span<const std::uint8_t> frame,
                         ContentId& content, CodedPacket& packet) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagSparse | kFlagContentId, type, flags, content));
  if (type != MessageType::kCodedPacket) return DecodeStatus::kBadType;
  WIRE_TRY(read_packet_body(r, flags, &packet));
  return finish(r);
}

DecodeStatus deserialize_feedback(std::span<const std::uint8_t> frame,
                                  MessageType& type, std::uint64_t& token,
                                  ContentId& content) {
  Reader r{frame.data(), frame.data() + frame.size()};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagContentId, type, flags, content));
  if (type != MessageType::kAbort && type != MessageType::kAck &&
      type != MessageType::kProceed) {
    return DecodeStatus::kBadType;
  }
  WIRE_TRY(r.get_varint(token));
  return finish(r);
}

DecodeStatus deserialize_advertise(std::span<const std::uint8_t> frame,
                                   BitVector& coeffs, AdvertiseInfo& info) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagSparse | kFlagContentId, type, flags,
                     info.content));
  if (type != MessageType::kAdvertise) return DecodeStatus::kBadType;
  std::uint64_t m = 0;
  WIRE_TRY(read_coeff_prefix(r, flags, &coeffs, m));
  WIRE_TRY(finish(r));
  info.payload_bytes = static_cast<std::size_t>(m);
  return DecodeStatus::kOk;
}

DecodeStatus deserialize_cc(std::span<const std::uint8_t> frame,
                            ContentId& content,
                            std::vector<std::uint32_t>& leaders) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagContentId, type, flags, content));
  if (type != MessageType::kCcArray) return DecodeStatus::kBadType;
  WIRE_TRY(read_cc_body(r, &leaders));
  return finish(r);
}

DecodeStatus leading_frame_size(std::span<const std::uint8_t> bytes,
                                std::size_t& size) {
  MessageType type{};
  WIRE_TRY(peek_type(bytes, type));
  Reader r{bytes.data(), bytes.data() + bytes.size()};
  std::uint8_t flags = 0;
  ContentId content = 0;
  std::uint64_t scalar = 0;
  switch (type) {
    case MessageType::kCodedPacket:
      WIRE_TRY(read_head(r, kFlagSparse | kFlagContentId, type, flags,
                         content));
      WIRE_TRY(read_packet_body(r, flags, nullptr));
      break;
    case MessageType::kAdvertise:
      WIRE_TRY(read_head(r, kFlagSparse | kFlagContentId, type, flags,
                         content));
      WIRE_TRY(read_coeff_prefix(r, flags, nullptr, scalar));
      break;
    case MessageType::kCcArray:
      WIRE_TRY(read_head(r, kFlagContentId, type, flags, content));
      WIRE_TRY(read_cc_body(r, nullptr));
      break;
    default:  // kAbort, kAck, kProceed: a token
      WIRE_TRY(read_head(r, kFlagContentId, type, flags, content));
      WIRE_TRY(r.get_varint(scalar));
      break;
  }
  size = static_cast<std::size_t>(r.p - bytes.data());
  return DecodeStatus::kOk;
}

std::size_t count_frames(std::span<const std::uint8_t> datagram) {
  std::size_t count = 0;
  while (!datagram.empty()) {
    std::size_t size = 0;
    if (leading_frame_size(datagram, size) != DecodeStatus::kOk) return 0;
    datagram = datagram.subspan(size);
    ++count;
  }
  return count;
}

}  // namespace ltnc::wire
