// Blocking client for the upsl-serve wire protocol (header-only).
//
// Two usage styles:
//   * one-shot calls (get/put/remove/scan/stats/ping) — one request frame
//     out, one response frame in;
//   * explicit pipelining — queue() any number of requests, then flush()
//     writes them as one contiguous byte stream and reads exactly that many
//     responses back, in order. This is what bench_server and the batched
//     CLI paths use; the server executes such a burst as one batch with a
//     single ack fence.
//
// All methods throw std::runtime_error on transport errors (connection
// refused/reset, short reads, malformed responses); kNotFound is not an
// error, it is a result.
//
// A sharded server listens on one port and routes every key to its owning
// shard itself, so the same Client serves any shard count.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace upsl::server {

/// A dropped connection mid-pipeline, with the precise split the resolve
/// path needs: `acked` responses were fully received (those ops are durable
/// and their results delivered), the remaining `unresolved` requests have no
/// response — each may or may not have been applied. Client::unresolved_ops()
/// returns exactly those, in order, and resolve_unresolved() answers them
/// through the session table. Subclasses std::runtime_error so legacy
/// catch sites keep working.
struct PipelineError : std::runtime_error {
  std::size_t acked;
  std::size_t unresolved;
  PipelineError(const std::string& what, std::size_t acked_in,
                std::size_t unresolved_in)
      : std::runtime_error(what + " (" + std::to_string(acked_in) +
                           " acked, " + std::to_string(unresolved_in) +
                           " unresolved)"),
        acked(acked_in),
        unresolved(unresolved_in) {}
};

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  /// Moves the socket AND the whole session state — identity, sequence
  /// counter, queued/unresolved ops. Leaving any of those behind would let
  /// the moved-to client restamp already-recorded seqs, which the server
  /// dedups into stale answers instead of applying fresh mutations.
  Client(Client&& other) noexcept
      : fd_(other.fd_),
        sendbuf_(std::move(other.sendbuf_)),
        queued_(other.queued_),
        recvbuf_(std::move(other.recvbuf_)),
        client_id_(other.client_id_),
        seq_(other.seq_),
        inflight_(std::move(other.inflight_)),
        unresolved_(std::move(other.unresolved_)) {
    other.fd_ = -1;
    other.queued_ = 0;
    other.client_id_ = 0;
    other.seq_ = 0;
  }

  /// Connects (IPv4). Returns false on failure, errno intact.
  bool connect(const std::string& host, std::uint16_t port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  bool connected() const { return fd_ >= 0; }

  /// Closes the socket and drops the unsent queue. Session identity, the
  /// sequence counter, and any unresolved ops from a failed flush survive —
  /// they are exactly what reconnect-and-resolve needs.
  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    sendbuf_.clear();
    queued_ = 0;
    recvbuf_.clear();
    inflight_.clear();
  }

  // ---- pipelining ---------------------------------------------------------

  /// One request queued in the current pipeline, as remembered for the
  /// resolve path. Detectable ops carry their stamped seq; plain ops are
  /// remembered too (to keep the acked/unresolved split exact) but cannot
  /// be resolved after a drop.
  struct QueuedOp {
    Opcode op = Opcode::kPing;
    bool detectable = false;
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
    std::uint64_t value = 0;
  };

  void queue(const Request& req) {
    encode_request(req, sendbuf_);
    ++queued_;
    inflight_.push_back(QueuedOp{req.op, false, req.seq, req.key, req.value});
  }

  std::size_t queued() const { return queued_; }

  /// Sends every queued request, reads exactly as many responses. Clears the
  /// queue. A transport or framing failure throws PipelineError carrying the
  /// exact acked/unresolved split; the responses received before the failure
  /// are left in *out, and unresolved_ops() returns the rest of the pipeline.
  void flush(std::vector<Response>* out) {
    const std::size_t n = queued_;
    out->clear();
    out->reserve(n);
    try {
      send_all(sendbuf_.data(), sendbuf_.size());
    } catch (const std::runtime_error& e) {
      fail_pipeline(e.what(), 0, n);
    }
    sendbuf_.clear();
    queued_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Response resp;
      try {
        read_response(&resp);
      } catch (const std::runtime_error& e) {
        fail_pipeline(e.what(), i, n);
      }
      out->push_back(std::move(resp));
    }
    inflight_.clear();
  }

  struct PutResult {
    bool created = false;
    std::uint64_t old_value = 0;  // valid iff !created
  };

  // ---- detectable sessions (docs/detectability.md) ------------------------

  /// Opens (or reattaches) the durable session for `client_id` on this
  /// connection and returns its claim epoch. A new identity resets the
  /// sequence counter and forgets prior unresolved ops; re-HELLOing the
  /// same identity after a reconnect keeps both, so the resolve path works.
  std::uint64_t hello(std::uint64_t client_id) {
    const Response r = roundtrip({Opcode::kHello, 0, 0, 0, 0, client_id});
    expect_ok(r, "HELLO");
    if (client_id != client_id_) {
      seq_ = 0;
      unresolved_.clear();
    }
    client_id_ = client_id;
    return extract_u64(r, "HELLO");
  }

  std::uint64_t session_client_id() const { return client_id_; }
  std::uint64_t last_issued_seq() const { return seq_; }

  /// Queue detectable mutations with automatic sequence stamping. Requires
  /// a prior hello(). Keep no more than SessionTable::kRingSize (8) of
  /// these un-acked per session, or a replayed op's original result may age
  /// out of the durable result ring.
  void queue_dput(std::uint64_t key, std::uint64_t value) {
    queue_detect({Opcode::kDPut, key, value, 0, ++seq_, 0});
  }
  void queue_dupdate(std::uint64_t key, std::uint64_t value) {
    queue_detect({Opcode::kDUpdate, key, value, 0, ++seq_, 0});
  }
  void queue_dremove(std::uint64_t key) {
    queue_detect({Opcode::kDRemove, key, 0, 0, ++seq_, 0});
  }

  /// Replays an op from unresolved_ops()/resolve_unresolved() with its
  /// ORIGINAL seq: if it landed before the drop after all, the server
  /// deduplicates and answers with the original durable result.
  void requeue(const QueuedOp& op) {
    queue_detect({op.op, op.key, op.value, 0, op.seq, 0});
  }

  /// One-shot detectable upsert; exactly-once under replay.
  PutResult dput(std::uint64_t key, std::uint64_t value) {
    queue_dput(key, value);
    std::vector<Response> r;
    flush(&r);
    if (r[0].status == Status::kCreated) return {true, 0};
    expect_ok(r[0], "DPUT");
    return {false, extract_u64(r[0], "DPUT")};
  }

  /// One-shot detectable remove; exactly-once under replay.
  std::optional<std::uint64_t> dremove(std::uint64_t key) {
    queue_dremove(key);
    std::vector<Response> r;
    flush(&r);
    if (r[0].status == Status::kNotFound) return std::nullopt;
    expect_ok(r[0], "DREMOVE");
    return extract_u64(r[0], "DREMOVE");
  }

  /// Queries the durable result slot for one (client_id, seq); `key` routes
  /// to the shard that owns it (0 = shard 0).
  Response::Resolve resolve(std::uint64_t client_id, std::uint64_t seq,
                            std::uint64_t key = 0) {
    Request req{Opcode::kResolve, key, 0, 0, seq, client_id};
    const Response r = roundtrip(req);
    expect_ok(r, "RESOLVE");
    Response::Resolve res;
    if (!r.resolve(&res))
      throw std::runtime_error("upsl client: malformed RESOLVE payload");
    return res;
  }

  /// The pipeline tail a failed flush() left without responses, in send
  /// order. Valid until the next flush()/resolve_unresolved().
  const std::vector<QueuedOp>& unresolved_ops() const { return unresolved_; }

  /// The answer for one formerly-unresolved op.
  struct ResolvedOp {
    QueuedOp op;
    bool resolvable = false;   // false: plain op, no durable identity
    Response::Resolve answer;  // valid iff resolvable
  };

  /// Reconnect-and-resolve: queries the session table for every op the last
  /// failed flush() left unresolved, in order, and consumes the list. Call
  /// after connect() + hello(same client_id). Detectable ops get a
  /// definitive applied / not-applied answer with the original result;
  /// plain ops come back with resolvable=false (their fate is unknowable —
  /// that is what the detectable variants exist for).
  std::vector<ResolvedOp> resolve_unresolved() {
    std::vector<ResolvedOp> out;
    out.reserve(unresolved_.size());
    for (const QueuedOp& op : unresolved_) {
      ResolvedOp r;
      r.op = op;
      if (op.detectable) {
        r.resolvable = true;
        r.answer = resolve(client_id_, op.seq, op.key);
      }
      out.push_back(r);
    }
    unresolved_.clear();
    return out;
  }

  // ---- one-shot operations ------------------------------------------------

  bool ping() {
    const Response r = roundtrip({Opcode::kPing});
    return r.status == Status::kOk;
  }

  std::optional<std::uint64_t> get(std::uint64_t key) {
    const Response r = roundtrip({Opcode::kGet, key});
    if (r.status == Status::kNotFound) return std::nullopt;
    expect_ok(r, "GET");
    return extract_u64(r, "GET");
  }

  PutResult put(std::uint64_t key, std::uint64_t value) {
    const Response r = roundtrip({Opcode::kPut, key, value});
    if (r.status == Status::kCreated) return {true, 0};
    expect_ok(r, "PUT");
    return {false, extract_u64(r, "PUT")};
  }

  std::optional<std::uint64_t> remove(std::uint64_t key) {
    const Response r = roundtrip({Opcode::kRemove, key});
    if (r.status == Status::kNotFound) return std::nullopt;
    expect_ok(r, "REMOVE");
    return extract_u64(r, "REMOVE");
  }

  /// Scan [lo, hi]; limit 0 = everything in range. Runs over the chunked
  /// SCANS verb (docs/scan.md): the response arrives as a stream of frames
  /// reassembled here, and when the server truncates at its per-request cap
  /// the scan resumes transparently from the final frame's resume_key — so,
  /// unlike the legacy buffered verb, limit 0 really is the whole range.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> scan(
      std::uint64_t lo, std::uint64_t hi, std::uint32_t limit = 0) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    scan_stream(
        lo, hi,
        [&out](const std::vector<std::pair<std::uint64_t, std::uint64_t>>& e) {
          out.insert(out.end(), e.begin(), e.end());
          return true;
        },
        limit);
    return out;
  }

  /// Streaming scan: `cb` is invoked once per (non-empty) chunk, in global
  /// key order, as the frames arrive off the wire — the first entries are
  /// delivered before the server has finished walking the range. Returning
  /// false from `cb` stops the scan early (the current response is still
  /// drained to keep the connection's framing intact, but no follow-up
  /// request is issued). `chunk` requests a per-frame entry count (0 =
  /// server default). Returns the total number of entries delivered.
  std::size_t scan_stream(
      std::uint64_t lo, std::uint64_t hi,
      const std::function<
          bool(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&)>&
          cb,
      std::uint32_t limit = 0, std::uint32_t chunk = 0) {
    if (queued_ != 0)
      throw std::logic_error(
          "upsl client: one-shot call with requests still queued");
    std::size_t total = 0;
    std::uint64_t cur = lo;
    bool keep = true;
    while (true) {
      Request req{Opcode::kScanStream, cur, hi};
      req.limit =
          limit == 0 ? 0 : static_cast<std::uint32_t>(limit - total);
      req.chunk = chunk;
      std::vector<std::uint8_t> frame;
      encode_request(req, frame);
      send_all(frame.data(), frame.size());
      std::uint64_t resume = 0;
      while (true) {
        Response r;
        read_response(&r);
        expect_ok(r, "SCANS");
        Response::ScanChunk ck;
        if (!r.scan_chunk(&ck))
          throw std::runtime_error("upsl client: malformed SCANS chunk");
        total += ck.entries.size();
        if (keep && !ck.entries.empty()) keep = cb(ck.entries);
        if (ck.final_chunk) {
          resume = ck.resume_key;
          break;
        }
      }
      if (!keep || resume == 0 || (limit != 0 && total >= limit)) break;
      cur = resume;  // server hit its per-request cap: continue from there
    }
    return total;
  }

  /// Legacy single-frame SCAN (the pre-chunking verb, kept for A/B
  /// comparison and old servers): the server buffers the whole response
  /// before sending, and truncation at kMaxScanEntries is silent —
  /// size()==limit (or the cap) may mean "more".
  std::vector<std::pair<std::uint64_t, std::uint64_t>> scan_buffered(
      std::uint64_t lo, std::uint64_t hi, std::uint32_t limit = 0) {
    Request req{Opcode::kScan, lo, hi};
    req.limit = limit;
    const Response r = roundtrip(req);
    expect_ok(r, "SCAN");
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    if (!r.scan_entries(&out))
      throw std::runtime_error("upsl client: malformed SCAN payload");
    return out;
  }

  std::string stats_json() {
    const Response r = roundtrip({Opcode::kStats});
    expect_ok(r, "STATS");
    std::string json;
    if (!r.blob(&json))
      throw std::runtime_error("upsl client: malformed STATS payload");
    return json;
  }

  /// Runs the server-side structural check. Returns the JSON report; *ok
  /// (when non-null) says whether the check passed. Both the pass and the
  /// fail report come back as a blob — only a malformed frame throws.
  std::string validate_json(bool* ok = nullptr) {
    const Response r = roundtrip({Opcode::kValidate});
    if (r.status != Status::kOk && r.status != Status::kError)
      throw std::runtime_error("upsl client: unexpected VALIDATE status");
    if (ok != nullptr) *ok = r.status == Status::kOk;
    std::string json;
    if (!r.blob(&json))
      throw std::runtime_error("upsl client: malformed VALIDATE payload");
    return json;
  }

  /// Runs the server-side deep integrity check (docs/integrity.md): a
  /// checksum-verifying re-walk of every shard merged into one report.
  /// Returns the JSON report; *ok (when non-null) says whether the walk ran
  /// (read "degraded" inside the JSON for the verdict). Only a malformed
  /// frame throws.
  std::string fsck_json(bool* ok = nullptr) {
    const Response r = roundtrip({Opcode::kFsck});
    if (r.status != Status::kOk && r.status != Status::kError)
      throw std::runtime_error("upsl client: unexpected FSCK status");
    if (ok != nullptr) *ok = r.status == Status::kOk;
    std::string json;
    if (!r.blob(&json))
      throw std::runtime_error("upsl client: malformed FSCK payload");
    return json;
  }

 private:
  void queue_detect(const Request& req) {
    if (client_id_ == 0)
      throw std::logic_error(
          "upsl client: detectable op without a hello() session");
    encode_request(req, sendbuf_);
    ++queued_;
    inflight_.push_back(QueuedOp{req.op, true, req.seq, req.key, req.value});
  }

  [[noreturn]] void fail_pipeline(const char* what, std::size_t acked,
                                  std::size_t n) {
    unresolved_.assign(inflight_.begin() + static_cast<std::ptrdiff_t>(acked),
                       inflight_.end());
    inflight_.clear();
    sendbuf_.clear();
    queued_ = 0;
    throw PipelineError(what, acked, n - acked);
  }

  Response roundtrip(const Request& req) {
    if (queued_ != 0)
      throw std::logic_error(
          "upsl client: one-shot call with requests still queued");
    std::vector<std::uint8_t> frame;
    encode_request(req, frame);
    send_all(frame.data(), frame.size());
    Response resp;
    read_response(&resp);
    return resp;
  }

  static void expect_ok(const Response& r, const char* what) {
    if (r.status != Status::kOk)
      throw std::runtime_error(std::string("upsl client: ") + what +
                               " failed with status " +
                               std::to_string(static_cast<int>(r.status)));
  }

  static std::uint64_t extract_u64(const Response& r, const char* what) {
    std::uint64_t v = 0;
    if (!r.value_u64(&v))
      throw std::runtime_error(std::string("upsl client: malformed ") + what +
                               " payload");
    return v;
  }

  void send_all(const std::uint8_t* data, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t s = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
      if (s > 0) {
        off += static_cast<std::size_t>(s);
        continue;
      }
      if (s < 0 && errno == EINTR) continue;
      throw std::runtime_error("upsl client: send failed (server gone?)");
    }
  }

  /// Reads one full response frame (buffering any pipelined successors).
  void read_response(Response* out) {
    while (true) {
      std::size_t consumed = 0;
      const ParseResult pr =
          parse_response(recvbuf_.data(), recvbuf_.size(), out, &consumed);
      if (pr == ParseResult::kOk) {
        recvbuf_.erase(recvbuf_.begin(),
                       recvbuf_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return;
      }
      if (pr == ParseResult::kBad)
        throw std::runtime_error("upsl client: malformed response frame");
      std::uint8_t buf[64 * 1024];
      const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r > 0) {
        recvbuf_.insert(recvbuf_.end(), buf, buf + r);
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      throw std::runtime_error(
          "upsl client: connection closed while awaiting response");
    }
  }

  int fd_ = -1;
  std::vector<std::uint8_t> sendbuf_;
  std::size_t queued_ = 0;
  std::vector<std::uint8_t> recvbuf_;
  // Detectable-session state. Survives close()/reconnect on purpose: the
  // identity and counter are durable concepts, the socket is not.
  std::uint64_t client_id_ = 0;
  std::uint64_t seq_ = 0;  // last issued seq (never reused, even replayed)
  std::vector<QueuedOp> inflight_;    // one entry per currently queued frame
  std::vector<QueuedOp> unresolved_;  // tail of the last failed flush()
};

/// Parses "host:port" (e.g. "127.0.0.1:7707"). Returns false on bad input.
inline bool parse_addr(const std::string& addr, std::string* host,
                       std::uint16_t* port) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size())
    return false;
  const unsigned long p = std::strtoul(addr.c_str() + colon + 1, nullptr, 10);
  if (p == 0 || p > 65535) return false;
  *host = addr.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace upsl::server
