// upsl-serve wire protocol: compact length-prefixed binary frames.
//
// Every frame, in either direction, is
//
//   [ u32 body_len (LE) ][ body: body_len bytes ]
//
// A request body is  [ u8 opcode ][ u8 pad x3 ][ opcode-specific payload ]
// A response body is [ u8 status ][ u8 pad x3 ][ opcode-specific payload ]
//
// Payload layouts (all integers little-endian):
//
//   GET     req: u64 key                 resp kOk: u64 value; kNotFound: empty
//   PUT     req: u64 key, u64 value     resp kOk: u64 old value (updated);
//                                            kCreated: empty (new key)
//   UPDATE  req: u64 key, u64 value     same as PUT (upsert; status tells
//                                            the caller which case happened)
//   REMOVE  req: u64 key                 resp kOk: u64 removed value;
//                                            kNotFound: empty
//   SCAN    req: u64 lo, u64 hi, u32 max resp kOk: u32 count,
//                                            count x (u64 key, u64 value)
//   SCANS   req: u64 lo, u64 hi,         resp: 1..N chunk frames, each
//                u32 max, u32 chunk           kOk: u32 count, u32 flags,
//                                             u64 resume_key, count x
//                                             (u64 key, u64 value).
//                                             flags bit0 set marks the final
//                                             frame of the response; on it,
//                                             resume_key 0 means [lo, hi] is
//                                             exhausted, nonzero means the
//                                             scan was truncated (per-request
//                                             cap) and a follow-up SCANS with
//                                             lo = resume_key continues
//                                             exactly where it stopped.
//                                             Non-final frames carry
//                                             resume_key 0. max caps total
//                                             entries for this request
//                                             (0 or > kMaxScanEntries =
//                                             kMaxScanEntries); chunk sizes
//                                             the individual frames (0 =
//                                             kDefaultScanChunk, clamped to
//                                             kMaxScanChunkEntries). See
//                                             docs/scan.md.
//   STATS   req: empty                   resp kOk: u32 len, len JSON bytes
//   PING    req: empty                   resp kOk: empty
//   VALIDATE req: empty                  resp kOk: u32 len, len JSON bytes
//                                             (structural check report);
//                                             kError: same blob, check threw
//
// Opcode 9 (the retired TOPOLOGY verb) is unassigned: it parses as an unknown
// opcode.
//
// Detectable exactly-once extension (docs/detectability.md):
//
//   HELLO   req: u64 client_id           resp kOk: u64 session_epoch
//                                             (opens/reattaches the durable
//                                             session on every shard; the
//                                             epoch is shard 0's;
//                                             client_id 0 is invalid ->
//                                             kError)
//   DPUT    req: u64 seq, u64 key,       same responses as PUT; a replayed
//                u64 value                    seq is deduplicated and answers
//   DUPDATE req: u64 seq, u64 key,       with the original durable result
//                u64 value                    (kError empty = applied but the
//   DREMOVE req: u64 seq, u64 key        result aged out of the ring — only
//                                             possible when replaying beyond
//                                             the session's result window)
//   RESOLVE req: u64 client_id, u64 seq, resp kOk: u32 state, u32 has_prev,
//                u64 key                      u64 result. state: 0 = unknown
//                                             session, 1 = not applied,
//                                             2 = applied (result follows),
//                                             3 = applied, result unknown.
//                                             key routes the query to the
//                                             owning shard (0 = shard 0).
//
// DPUT/DUPDATE/DREMOVE take the session the connection last opened with
// HELLO; issuing them before a HELLO is kError. Sequence numbers are chosen
// by the client, strictly increasing per session.
//
// Corruption-aware recovery extension (docs/integrity.md):
//
//   FSCK    req: empty                   resp kOk: JSON blob — the deep
//                                             integrity re-check
//                                             (verify_deep) merged across
//                                             every shard: checksum census,
//                                             quarantine counters, and the
//                                             explicitly-lost key ranges.
//                                             kOk means the check ran; read
//                                             "degraded" in the JSON for the
//                                             verdict. kError: the walk
//                                             itself failed (blob has the
//                                             error).
//
// Framing rules (enforced by the parser, tested in tests/server_test.cpp):
// a body length larger than kMaxBody, an unknown opcode, or a payload whose
// size does not match the opcode is a protocol violation — the server closes
// the connection without a response. A short read is simply "need more
// bytes"; the parser never reads past the bytes it was given.
//
// Responses carry no opcode: the protocol is strictly pipelined, responses
// are returned in request order, and the client interprets payloads by the
// order of the requests it sent.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace upsl::server {

/// Largest accepted frame body. Bounds per-connection buffering and makes
/// "length = 0xffffffff" attacks a close, not an allocation.
inline constexpr std::uint32_t kMaxBody = 1u << 20;

/// Cap on entries in one SCAN response so the reply always fits kMaxBody
/// (8-byte count header + 16 bytes per entry, with slack). Also the
/// per-request entry cap for SCANS — but there truncation is resumable via
/// the final frame's resume_key instead of silent.
inline constexpr std::uint32_t kMaxScanEntries = 60000;

/// Per-frame entry bounds for chunked SCANS responses. The max keeps one
/// chunk frame comfortably inside kMaxBody (20-byte header + 16 bytes per
/// entry = 512 KiB + 20 at the cap).
inline constexpr std::uint32_t kMaxScanChunkEntries = 32768;
inline constexpr std::uint32_t kDefaultScanChunk = 2048;

/// SCANS chunk-frame flags.
inline constexpr std::uint32_t kScanChunkFinal = 1u << 0;

using ScanEntryPair = std::pair<std::uint64_t, std::uint64_t>;

inline constexpr std::size_t kHeaderBytes = 4;  // the u32 length prefix
inline constexpr std::size_t kBodyPrefixBytes = 4;  // opcode/status + pad

enum class Opcode : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kUpdate = 3,
  kRemove = 4,
  kScan = 5,
  kStats = 6,
  kPing = 7,
  kValidate = 8,
  // 9 was TOPOLOGY, retired; left unassigned so no verb is renumbered.
  kHello = 10,
  kResolve = 11,
  kDPut = 12,
  kDUpdate = 13,
  kDRemove = 14,
  kFsck = 15,
  kScanStream = 16,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kCreated = 1,
  kNotFound = 2,
  kError = 3,
};

struct Request {
  Opcode op = Opcode::kPing;
  std::uint64_t key = 0;    // GET/PUT/UPDATE/REMOVE/D* key; SCAN lo; RESOLVE route
  std::uint64_t value = 0;  // PUT/UPDATE/DPUT/DUPDATE value; SCAN hi
  std::uint32_t limit = 0;  // SCAN/SCANS max entries
  std::uint64_t seq = 0;        // D* / RESOLVE sequence number
  std::uint64_t client_id = 0;  // HELLO / RESOLVE session identity
  // Appended last so existing positional aggregate initializers keep their
  // meaning.
  std::uint32_t chunk = 0;  // SCANS per-frame entry count (0 = default)
};

/// A parsed response: status plus the raw opcode-specific payload. Typed
/// extraction helpers below validate payload shape on the client side too.
struct Response {
  Status status = Status::kError;
  std::vector<std::uint8_t> payload;

  bool value_u64(std::uint64_t* out) const {
    if (payload.size() != 8) return false;
    std::memcpy(out, payload.data(), 8);
    return true;
  }

  bool scan_entries(std::vector<std::pair<std::uint64_t, std::uint64_t>>* out)
      const {
    if (payload.size() < 4) return false;
    std::uint32_t count = 0;
    std::memcpy(&count, payload.data(), 4);
    if (payload.size() != 4 + 16ull * count) return false;
    out->clear();
    out->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t k = 0;
      std::uint64_t v = 0;
      std::memcpy(&k, payload.data() + 4 + 16ull * i, 8);
      std::memcpy(&v, payload.data() + 4 + 16ull * i + 8, 8);
      out->emplace_back(k, v);
    }
    return true;
  }

  /// One SCANS chunk frame, decoded.
  struct ScanChunk {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    bool final_chunk = false;
    std::uint64_t resume_key = 0;  // final frame only: 0 = exhausted
  };

  bool scan_chunk(ScanChunk* out) const {
    if (payload.size() < 16) return false;
    std::uint32_t count = 0;
    std::uint32_t flags = 0;
    std::memcpy(&count, payload.data(), 4);
    std::memcpy(&flags, payload.data() + 4, 4);
    std::memcpy(&out->resume_key, payload.data() + 8, 8);
    if (payload.size() != 16 + 16ull * count) return false;
    out->final_chunk = (flags & kScanChunkFinal) != 0;
    out->entries.clear();
    out->entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t k = 0;
      std::uint64_t v = 0;
      std::memcpy(&k, payload.data() + 16 + 16ull * i, 8);
      std::memcpy(&v, payload.data() + 16 + 16ull * i + 8, 8);
      out->entries.emplace_back(k, v);
    }
    return true;
  }

  bool blob(std::string* out) const {
    if (payload.size() < 4) return false;
    std::uint32_t len = 0;
    std::memcpy(&len, payload.data(), 4);
    if (payload.size() != 4ull + len) return false;
    out->assign(reinterpret_cast<const char*>(payload.data()) + 4, len);
    return true;
  }

  /// RESOLVE payload: the session table's answer for one (client_id, seq).
  struct Resolve {
    std::uint32_t state = 0;  // detect::ResolveResult::State numeric values
    std::uint32_t has_previous = 0;
    std::uint64_t result = 0;
  };

  bool resolve(Resolve* out) const {
    if (payload.size() != 16) return false;
    std::memcpy(&out->state, payload.data(), 4);
    std::memcpy(&out->has_previous, payload.data() + 4, 4);
    std::memcpy(&out->result, payload.data() + 8, 8);
    return true;
  }
};

enum class ParseResult {
  kNeedMore,  // buffer holds a prefix of a valid frame; read more bytes
  kOk,        // one frame decoded; *consumed bytes were used
  kBad,       // protocol violation; close the connection
};

// ---- little-endian scribblers ---------------------------------------------

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// Bytes of opcode-specific request payload, or -1 for an unknown opcode.
inline int request_payload_bytes(Opcode op) {
  switch (op) {
    case Opcode::kGet:
    case Opcode::kRemove:
      return 8;
    case Opcode::kPut:
    case Opcode::kUpdate:
      return 16;
    case Opcode::kScan:
      return 20;
    case Opcode::kScanStream:
      return 24;
    case Opcode::kStats:
    case Opcode::kPing:
    case Opcode::kValidate:
    case Opcode::kFsck:
      return 0;
    case Opcode::kHello:
      return 8;
    case Opcode::kResolve:
      return 24;
    case Opcode::kDPut:
    case Opcode::kDUpdate:
      return 24;
    case Opcode::kDRemove:
      return 16;
  }
  return -1;
}

// ---- request codec --------------------------------------------------------

inline void encode_request(const Request& req, std::vector<std::uint8_t>& out) {
  const int payload = request_payload_bytes(req.op);
  put_u32(out, static_cast<std::uint32_t>(kBodyPrefixBytes + payload));
  out.push_back(static_cast<std::uint8_t>(req.op));
  out.insert(out.end(), 3, 0);
  switch (req.op) {
    case Opcode::kGet:
    case Opcode::kRemove:
      put_u64(out, req.key);
      break;
    case Opcode::kPut:
    case Opcode::kUpdate:
      put_u64(out, req.key);
      put_u64(out, req.value);
      break;
    case Opcode::kScan:
      put_u64(out, req.key);
      put_u64(out, req.value);
      put_u32(out, req.limit);
      break;
    case Opcode::kScanStream:
      put_u64(out, req.key);
      put_u64(out, req.value);
      put_u32(out, req.limit);
      put_u32(out, req.chunk);
      break;
    case Opcode::kStats:
    case Opcode::kPing:
    case Opcode::kValidate:
    case Opcode::kFsck:
      break;
    case Opcode::kHello:
      put_u64(out, req.client_id);
      break;
    case Opcode::kResolve:
      put_u64(out, req.client_id);
      put_u64(out, req.seq);
      put_u64(out, req.key);
      break;
    case Opcode::kDPut:
    case Opcode::kDUpdate:
      put_u64(out, req.seq);
      put_u64(out, req.key);
      put_u64(out, req.value);
      break;
    case Opcode::kDRemove:
      put_u64(out, req.seq);
      put_u64(out, req.key);
      break;
  }
}

inline ParseResult parse_request(const std::uint8_t* data, std::size_t n,
                                 Request* out, std::size_t* consumed) {
  if (n < kHeaderBytes) return ParseResult::kNeedMore;
  const std::uint32_t body = get_u32(data);
  if (body > kMaxBody || body < kBodyPrefixBytes) return ParseResult::kBad;
  if (n < kHeaderBytes + body) return ParseResult::kNeedMore;
  const std::uint8_t* p = data + kHeaderBytes;
  const auto op = static_cast<Opcode>(p[0]);
  const int payload = request_payload_bytes(op);
  if (payload < 0) return ParseResult::kBad;
  if (body != kBodyPrefixBytes + static_cast<std::uint32_t>(payload))
    return ParseResult::kBad;
  p += kBodyPrefixBytes;
  out->op = op;
  out->key = 0;
  out->value = 0;
  out->limit = 0;
  out->chunk = 0;
  out->seq = 0;
  out->client_id = 0;
  switch (op) {
    case Opcode::kGet:
    case Opcode::kRemove:
      out->key = get_u64(p);
      break;
    case Opcode::kPut:
    case Opcode::kUpdate:
      out->key = get_u64(p);
      out->value = get_u64(p + 8);
      break;
    case Opcode::kScan:
      out->key = get_u64(p);
      out->value = get_u64(p + 8);
      out->limit = get_u32(p + 16);
      break;
    case Opcode::kScanStream:
      out->key = get_u64(p);
      out->value = get_u64(p + 8);
      out->limit = get_u32(p + 16);
      out->chunk = get_u32(p + 20);
      break;
    case Opcode::kStats:
    case Opcode::kPing:
    case Opcode::kValidate:
    case Opcode::kFsck:
      break;
    case Opcode::kHello:
      out->client_id = get_u64(p);
      break;
    case Opcode::kResolve:
      out->client_id = get_u64(p);
      out->seq = get_u64(p + 8);
      out->key = get_u64(p + 16);
      break;
    case Opcode::kDPut:
    case Opcode::kDUpdate:
      out->seq = get_u64(p);
      out->key = get_u64(p + 8);
      out->value = get_u64(p + 16);
      break;
    case Opcode::kDRemove:
      out->seq = get_u64(p);
      out->key = get_u64(p + 8);
      break;
  }
  *consumed = kHeaderBytes + body;
  return ParseResult::kOk;
}

// ---- response codec -------------------------------------------------------

inline void encode_response_empty(Status st, std::vector<std::uint8_t>& out) {
  put_u32(out, kBodyPrefixBytes);
  out.push_back(static_cast<std::uint8_t>(st));
  out.insert(out.end(), 3, 0);
}

inline void encode_response_value(Status st, std::uint64_t value,
                                  std::vector<std::uint8_t>& out) {
  put_u32(out, kBodyPrefixBytes + 8);
  out.push_back(static_cast<std::uint8_t>(st));
  out.insert(out.end(), 3, 0);
  put_u64(out, value);
}

inline void encode_response_scan(
    const std::pair<std::uint64_t, std::uint64_t>* entries, std::uint32_t count,
    std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(kBodyPrefixBytes + 4 + 16ull * count));
  out.push_back(static_cast<std::uint8_t>(Status::kOk));
  out.insert(out.end(), 3, 0);
  put_u32(out, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    put_u64(out, entries[i].first);
    put_u64(out, entries[i].second);
  }
}

/// One SCANS chunk frame. `final_chunk` sets kScanChunkFinal; `resume_key`
/// is only meaningful on the final frame (0 = range exhausted).
inline void encode_response_scan_chunk(
    const ScanEntryPair* entries, std::uint32_t count, bool final_chunk,
    std::uint64_t resume_key, std::vector<std::uint8_t>& out) {
  put_u32(out,
          static_cast<std::uint32_t>(kBodyPrefixBytes + 16 + 16ull * count));
  out.push_back(static_cast<std::uint8_t>(Status::kOk));
  out.insert(out.end(), 3, 0);
  put_u32(out, count);
  put_u32(out, final_chunk ? kScanChunkFinal : 0u);
  put_u64(out, final_chunk ? resume_key : 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    put_u64(out, entries[i].first);
    put_u64(out, entries[i].second);
  }
}

inline void encode_response_resolve(std::uint32_t state,
                                    std::uint32_t has_previous,
                                    std::uint64_t result,
                                    std::vector<std::uint8_t>& out) {
  put_u32(out, kBodyPrefixBytes + 16);
  out.push_back(static_cast<std::uint8_t>(Status::kOk));
  out.insert(out.end(), 3, 0);
  put_u32(out, state);
  put_u32(out, has_previous);
  put_u64(out, result);
}

inline void encode_response_blob(Status st, const std::string& blob,
                                 std::vector<std::uint8_t>& out) {
  const auto len = static_cast<std::uint32_t>(blob.size());
  put_u32(out, static_cast<std::uint32_t>(kBodyPrefixBytes + 4 + len));
  out.push_back(static_cast<std::uint8_t>(st));
  out.insert(out.end(), 3, 0);
  put_u32(out, len);
  out.insert(out.end(), blob.begin(), blob.end());
}

inline ParseResult parse_response(const std::uint8_t* data, std::size_t n,
                                  Response* out, std::size_t* consumed) {
  if (n < kHeaderBytes) return ParseResult::kNeedMore;
  const std::uint32_t body = get_u32(data);
  if (body > kMaxBody || body < kBodyPrefixBytes) return ParseResult::kBad;
  if (n < kHeaderBytes + body) return ParseResult::kNeedMore;
  const std::uint8_t* p = data + kHeaderBytes;
  if (p[0] > static_cast<std::uint8_t>(Status::kError)) return ParseResult::kBad;
  out->status = static_cast<Status>(p[0]);
  out->payload.assign(p + kBodyPrefixBytes, p + body);
  *consumed = kHeaderBytes + body;
  return ParseResult::kOk;
}

}  // namespace upsl::server
