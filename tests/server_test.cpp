// upsl-serve tests: protocol codec round-trips, malformed-frame handling
// (truncated headers, oversized lengths, garbage opcodes must close the
// connection — never crash, never over-read), pipelined batches, graceful
// drain, and the headline property of the serving PR: recovery through
// restart — every acknowledged PUT is readable after SIGTERM + a
// process-level reopen of the pool, and an unacknowledged in-flight op is
// either absent or fully applied, never torn.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "test_util.hpp"

namespace upsl::server {
namespace {

// ---- codec ----------------------------------------------------------------

TEST(ServerProtocol, RequestRoundTrip) {
  const Request cases[] = {
      {Opcode::kGet, 42},
      {Opcode::kPut, 7, 700},
      {Opcode::kUpdate, 8, 800},
      {Opcode::kRemove, 9},
      {Opcode::kScan, 10, 99, 17},
      {Opcode::kStats},
      {Opcode::kPing},
  };
  for (const Request& in : cases) {
    std::vector<std::uint8_t> buf;
    encode_request(in, buf);
    Request out;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_request(buf.data(), buf.size(), &out, &consumed),
              ParseResult::kOk);
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(static_cast<int>(out.op), static_cast<int>(in.op));
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.value, in.value);
    EXPECT_EQ(out.limit, in.limit);
  }
}

TEST(ServerProtocol, ResponseRoundTrip) {
  {
    std::vector<std::uint8_t> buf;
    encode_response_value(Status::kOk, 12345, buf);
    Response r;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_response(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kOk);
    EXPECT_EQ(r.status, Status::kOk);
    std::uint64_t v = 0;
    ASSERT_TRUE(r.value_u64(&v));
    EXPECT_EQ(v, 12345u);
  }
  {
    std::vector<std::uint8_t> buf;
    encode_response_empty(Status::kNotFound, buf);
    Response r;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_response(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kOk);
    EXPECT_EQ(r.status, Status::kNotFound);
    EXPECT_TRUE(r.payload.empty());
  }
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kv = {
        {1, 10}, {2, 20}, {3, 30}};
    std::vector<std::uint8_t> buf;
    encode_response_scan(kv.data(), 3, buf);
    Response r;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_response(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kOk);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
    ASSERT_TRUE(r.scan_entries(&got));
    EXPECT_EQ(got, kv);
  }
  {
    std::vector<std::uint8_t> buf;
    encode_response_blob(Status::kOk, "{\"x\": 1}", buf);
    Response r;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_response(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kOk);
    std::string blob;
    ASSERT_TRUE(r.blob(&blob));
    EXPECT_EQ(blob, "{\"x\": 1}");
  }
}

TEST(ServerProtocol, PipelinedFramesParseBackToBack) {
  std::vector<std::uint8_t> buf;
  encode_request({Opcode::kPut, 1, 10}, buf);
  encode_request({Opcode::kGet, 1}, buf);
  encode_request({Opcode::kPing}, buf);
  std::size_t off = 0;
  int frames = 0;
  while (off < buf.size()) {
    Request r;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_request(buf.data() + off, buf.size() - off, &r, &consumed),
              ParseResult::kOk);
    off += consumed;
    ++frames;
  }
  EXPECT_EQ(frames, 3);
  EXPECT_EQ(off, buf.size());
}

TEST(ServerProtocol, TruncatedFramesNeedMore) {
  std::vector<std::uint8_t> buf;
  encode_request({Opcode::kPut, 1, 10}, buf);
  // Every strict prefix must parse as kNeedMore — never kOk, never kBad,
  // never a read past the supplied bytes.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    Request r;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_request(buf.data(), n, &r, &consumed),
              ParseResult::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(ServerProtocol, OversizedLengthIsRejected) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, kMaxBody + 1);
  buf.resize(buf.size() + 16, 0);
  Request r;
  std::size_t consumed = 0;
  EXPECT_EQ(parse_request(buf.data(), buf.size(), &r, &consumed),
            ParseResult::kBad);
  // 0xffffffff must not trigger a 4 GiB buffer wait either.
  buf.clear();
  put_u32(buf, 0xffffffffu);
  EXPECT_EQ(parse_request(buf.data(), buf.size(), &r, &consumed),
            ParseResult::kBad);
}

TEST(ServerProtocol, GarbageOpcodeAndWrongPayloadAreRejected) {
  {
    std::vector<std::uint8_t> buf;
    put_u32(buf, kBodyPrefixBytes + 8);
    buf.push_back(0xee);  // no such opcode
    buf.insert(buf.end(), 3, 0);
    put_u64(buf, 1);
    Request r;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_request(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kBad);
  }
  {
    // Opcode 9, the retired TOPOLOGY verb, with its old empty payload.
    std::vector<std::uint8_t> buf;
    put_u32(buf, kBodyPrefixBytes);
    buf.push_back(9);
    buf.insert(buf.end(), 3, 0);
    Request r;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_request(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kBad);
  }
  {
    // Right opcode, wrong payload size (GET with 16 payload bytes).
    std::vector<std::uint8_t> buf;
    put_u32(buf, kBodyPrefixBytes + 16);
    buf.push_back(static_cast<std::uint8_t>(Opcode::kGet));
    buf.insert(buf.end(), 3, 0);
    put_u64(buf, 1);
    put_u64(buf, 2);
    Request r;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_request(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kBad);
  }
  {
    // Body shorter than the opcode prefix itself.
    std::vector<std::uint8_t> buf;
    put_u32(buf, 2);
    buf.push_back(1);
    buf.push_back(0);
    Request r;
    std::size_t consumed = 0;
    EXPECT_EQ(parse_request(buf.data(), buf.size(), &r, &consumed),
              ParseResult::kBad);
  }
}

// ---- loopback integration -------------------------------------------------

/// Blocking raw IPv4 connect to the loopback server; -1 on failure. A
/// nonzero `rcvbuf` caps the receive buffer (and so the advertised window).
int raw_connect(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// File-backed store + server harness. The store harness mirrors the crash
/// tests' procedure (tests/test_util.hpp); the server rides on top.
struct ServerFixture {
  explicit ServerFixture(unsigned workers = 2,
                         core::Options opts = test::small_options(16, 12, 16))
      : harness(opts) {
    start_server(workers);
  }

  ~ServerFixture() {
    stop_server();
    Server::reset_signal_stop_for_testing();
  }

  void start_server(unsigned workers = 2) {
    ServerOptions o;
    o.workers = workers;
    o.first_thread_id = 8;  // clear of the ids the test body itself binds
    srv = std::make_unique<Server>(harness.store(), o);
    ASSERT_TRUE(srv->start());
  }

  void stop_server() {
    if (srv != nullptr) {
      srv->stop();
      srv->wait();
      srv.reset();
    }
  }

  Client connect() {
    Client c;
    EXPECT_TRUE(c.connect("127.0.0.1", srv->port()));
    return c;
  }

  test::StoreHarness harness;
  std::unique_ptr<Server> srv;
};

TEST(ServerLoopback, BasicOpsAndStatuses) {
  ServerFixture f;
  Client c = f.connect();
  EXPECT_TRUE(c.ping());

  auto put1 = c.put(5, 50);
  EXPECT_TRUE(put1.created);
  auto put2 = c.put(5, 51);
  EXPECT_FALSE(put2.created);
  EXPECT_EQ(put2.old_value, 50u);

  EXPECT_EQ(c.get(5), std::optional<std::uint64_t>(51));
  EXPECT_EQ(c.get(404), std::nullopt);

  EXPECT_EQ(c.remove(5), std::optional<std::uint64_t>(51));
  EXPECT_EQ(c.remove(5), std::nullopt);
  EXPECT_EQ(c.get(5), std::nullopt);

  const std::string stats = c.stats_json();
  EXPECT_NE(stats.find("\"pmem\""), std::string::npos);
  EXPECT_NE(stats.find("\"epoch\""), std::string::npos);
}

TEST(ServerLoopback, ValidateRunsStructuralCheck) {
  ServerFixture f;
  Client c = f.connect();
  for (std::uint64_t k = 1; k <= 200; ++k) c.put(k * 3, k);
  for (std::uint64_t k = 1; k <= 50; ++k) c.remove(k * 6);

  bool ok = false;
  const std::string report = c.validate_json(&ok);
  EXPECT_TRUE(ok) << report;
  EXPECT_NE(report.find("\"valid\": true"), std::string::npos) << report;
  EXPECT_NE(report.find("\"epoch\""), std::string::npos) << report;

  // VALIDATE is an admin op, not a fence: the store keeps serving after it.
  EXPECT_EQ(c.get(3), std::optional<std::uint64_t>(1));
}

TEST(ServerLoopback, ScanWithLimitAndOrder) {
  ServerFixture f;
  Client c = f.connect();
  for (std::uint64_t k = 1; k <= 100; ++k) c.put(k, k * 10);
  const auto all = c.scan(10, 20);
  ASSERT_EQ(all.size(), 11u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].first, 10 + i);
    EXPECT_EQ(all[i].second, (10 + i) * 10);
  }
  const auto limited = c.scan(1, 100, 7);
  EXPECT_EQ(limited.size(), 7u);
  EXPECT_EQ(limited.front().first, 1u);
}

TEST(ServerLoopback, ChunkedScanReassemblesManyChunks) {
  ServerFixture f;
  Client c = f.connect();
  std::vector<Response> resp;
  for (std::uint64_t k = 1; k <= 3000; ++k) {
    c.queue({Opcode::kPut, k, k * 3});
    if (c.queued() == 256 || k == 3000) c.flush(&resp);
  }

  const auto want = c.scan_buffered(1, 3000);
  ASSERT_EQ(want.size(), 3000u);

  // A tiny chunk size forces dozens of frames; the callback sees them in
  // order and their concatenation must equal the single-frame reply.
  std::size_t chunks = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  const std::size_t n = c.scan_stream(
      1, 3000,
      [&](const std::vector<std::pair<std::uint64_t, std::uint64_t>>& part) {
        ++chunks;
        got.insert(got.end(), part.begin(), part.end());
        return true;
      },
      /*limit=*/0, /*chunk=*/64);
  EXPECT_EQ(n, 3000u);
  EXPECT_GT(chunks, 20u);
  ASSERT_EQ(got, want);

  // And the transparent reassembling scan() sees the same world.
  EXPECT_EQ(c.scan(1, 3000), want);
}

TEST(ServerLoopback, ScanStreamResumesAcrossTruncatedRequests) {
  // More live entries than kMaxScanEntries: the server truncates the first
  // SCANS exchange at the cap and hands back a resume key; the client must
  // continue transparently with a second request and lose nothing at the
  // seam. Preload through the store directly — 61k loopback PUTs would
  // dominate the test.
  core::Options opts = test::small_options(16, 12, 16);
  opts.chunk.max_chunks = 256;  // room for > kMaxScanEntries live keys
  ServerFixture f(2, opts);
  constexpr std::uint64_t kN = kMaxScanEntries + 1000;
  for (std::uint64_t k = 1; k <= kN; ++k) f.harness.store().insert(k, k + 5);

  Client c = f.connect();
  std::uint64_t expect_next = 1;
  const std::size_t n = c.scan_stream(
      1, kN,
      [&](const std::vector<std::pair<std::uint64_t, std::uint64_t>>& part) {
        for (const auto& [k, v] : part) {
          if (k != expect_next || v != k + 5) return false;  // fail fast
          ++expect_next;
        }
        return true;
      },
      /*limit=*/0, /*chunk=*/8192);
  EXPECT_EQ(n, kN);
  EXPECT_EQ(expect_next, kN + 1) << "gap or reorder at the resume seam";
  // The continuation is a separate SCANS request on the wire.
  EXPECT_GE(f.srv->stats().scans.load(), 2u);
}

TEST(ServerLoopback, ScanStreamEarlyStopLeavesConnectionUsable) {
  ServerFixture f;
  Client c = f.connect();
  std::vector<Response> resp;
  for (std::uint64_t k = 1; k <= 2000; ++k) {
    c.queue({Opcode::kPut, k, k});
    if (c.queued() == 256 || k == 2000) c.flush(&resp);
  }

  // Stop after the first chunk: the callback sees nothing further, and no
  // continuation request is issued. The in-flight exchange still drains in
  // full (the protocol is strictly pipelined — a request's chunks cannot be
  // abandoned mid-frame), so the return value counts the drained entries
  // and the connection stays frame-aligned.
  std::size_t calls = 0;
  const std::size_t n = c.scan_stream(
      1, 2000,
      [&](const std::vector<std::pair<std::uint64_t, std::uint64_t>>&) {
        ++calls;
        return false;
      },
      /*limit=*/0, /*chunk=*/32);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(n, 2000u);

  // Same connection keeps serving point ops and full scans.
  EXPECT_EQ(c.get(1234), std::optional<std::uint64_t>(1234));
  EXPECT_EQ(c.scan(1, 2000).size(), 2000u);
}

// ---- transport: data plane, half-close, drain -------------------------------

TEST(ServerLoopback, DataPlaneReportedInStats) {
  ServerFixture f;
  EXPECT_STREQ(f.srv->data_plane(), "epoll");
  Client c = f.connect();
  const std::string stats = c.stats_json();
  EXPECT_NE(stats.find("\"data_plane\": \"epoll\""), std::string::npos)
      << stats;
}

/// Reads responses from fd until `n` have arrived (n = 0: until the server
/// closes it); returns every complete response frame.
std::vector<Response> read_responses(int fd, std::size_t n = 0) {
  std::vector<std::uint8_t> in;
  std::vector<Response> out;
  std::size_t off = 0;
  char buf[64 * 1024];
  while (n == 0 || out.size() < n) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    in.insert(in.end(), buf, buf + r);
    Response resp;
    std::size_t consumed = 0;
    while (parse_response(in.data() + off, in.size() - off, &resp,
                          &consumed) == ParseResult::kOk) {
      off += consumed;
      out.push_back(resp);
    }
  }
  EXPECT_EQ(off, in.size()) << "trailing partial frame";
  return out;
}

/// Writes `req` to fd, shuts down the write side, then reads until the
/// server closes the connection; returns every complete response frame.
std::vector<Response> send_then_half_close(int fd,
                                           const std::vector<std::uint8_t>& req) {
  EXPECT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  EXPECT_EQ(::shutdown(fd, SHUT_WR), 0);
  return read_responses(fd);
}

TEST(ServerLoopback, HalfCloseDeliversEveryAck) {
  // A client that pipelines writes and then half-closes still reads every
  // acknowledgement: the FIN can arrive in the same read as the frames, and
  // closing at the FIN would drop the batch's acks.
  ServerFixture f;
  const int fd = raw_connect(f.srv->port());
  ASSERT_GE(fd, 0);
  constexpr std::uint64_t kN = 64;
  std::vector<std::uint8_t> req;
  for (std::uint64_t k = 1; k <= kN; ++k)
    encode_request({Opcode::kPut, k, k * 5}, req);
  const std::vector<Response> resp = send_then_half_close(fd, req);
  ::close(fd);
  ASSERT_EQ(resp.size(), kN);
  for (const Response& r : resp) EXPECT_EQ(r.status, Status::kCreated);
  for (std::uint64_t k = 1; k <= kN; ++k)
    EXPECT_EQ(f.harness.store().search(k), std::optional<std::uint64_t>(k * 5));
}

TEST(ServerLoopback, HalfCloseDeliversResponsesLargerThanTheSocketBuffer) {
  // Responses far beyond the socket buffers: the kernel refuses part of them
  // (EAGAIN), and the rest must leave on EPOLLOUT wakeups after the FIN.
  // The client reads only after sending everything, so the backlog is real.
  ServerFixture f;
  constexpr std::uint64_t kKeys = 16000;
  for (std::uint64_t k = 1; k <= kKeys; ++k) f.harness.store().insert(k, k);
  const int fd = raw_connect(f.srv->port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  // 32 x 16000 entries x 16 B ~ 8 MiB: beyond the largest send buffer the
  // kernel autotunes to by default (tcp_wmem max 4 MiB), and the client's
  // capped receive window keeps the backlog on the server side.
  constexpr unsigned kScans = 32;
  std::vector<std::uint8_t> req;
  encode_request({Opcode::kPut, kKeys + 1, 7}, req);
  for (unsigned i = 0; i < kScans; ++i) {
    Request scan{Opcode::kScanStream, 1, kKeys + 1};
    scan.chunk = 256;
    encode_request(scan, req);
  }
  const std::vector<Response> resp = send_then_half_close(fd, req);
  ::close(fd);
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(resp.front().status, Status::kCreated);
  unsigned finals = 0;
  std::size_t entries = 0;
  for (std::size_t i = 1; i < resp.size(); ++i) {
    Response::ScanChunk chunk;
    ASSERT_TRUE(resp[i].scan_chunk(&chunk));
    entries += chunk.entries.size();
    if (chunk.final_chunk) ++finals;
  }
  EXPECT_EQ(finals, kScans);
  EXPECT_EQ(entries, kScans * (kKeys + 1));
}

/// Scan-heavy traffic racing a graceful drain: every response the client
/// already received must be durable across a crash restart, and the drain
/// must complete (no hung worker) even with chunked scan exchanges in
/// flight when stop() lands.
void scan_heavy_drain_cycle() {
  ServerFixture f(2);
  for (std::uint64_t k = 1; k <= 2000; ++k) f.harness.store().insert(k, k);

  std::vector<std::vector<std::uint64_t>> acked(3);
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      if (!c.connect("127.0.0.1", f.srv->port())) return;
      std::vector<Response> resp;
      try {
        for (std::uint64_t i = 0; i < 400; ++i) {
          const std::uint64_t k = 10000 + static_cast<std::uint64_t>(t) * 1000 + i;
          c.queue({Opcode::kPut, k, k * 2});
          c.flush(&resp);
          if (resp.size() == 1 && resp[0].status == Status::kCreated)
            acked[static_cast<std::size_t>(t)].push_back(k);
          c.scan_stream(
              1, 2000,
              [](const std::vector<std::pair<std::uint64_t,
                                             std::uint64_t>>&) {
                return true;
              },
              /*limit=*/0, /*chunk=*/64);
        }
      } catch (const std::exception&) {
        // Drain closed the connection mid-exchange — expected.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  f.stop_server();  // drain with scans + puts in flight
  for (auto& th : clients) th.join();

  f.harness.crash_and_reopen();
  auto& store = f.harness.store();
  store.check_invariants();
  // Preloaded range is intact and scannable.
  std::vector<core::ScanEntry> out;
  EXPECT_EQ(store.scan(1, 2000, out), 2000u);
  // Every write the clients saw acknowledged is durable.
  for (const auto& keys : acked)
    for (const std::uint64_t k : keys)
      EXPECT_EQ(store.search(k), std::optional<std::uint64_t>(k * 2))
          << "acked write lost";
}

// The server no longer probes for a transport: the plane it picks on its own
// is epoll, so both long-standing names run the same cycle.
TEST(ServerLoopback, ScanHeavyDrainAndRecoverOnProbedPlane) {
  scan_heavy_drain_cycle();
}

TEST(ServerLoopback, ScanHeavyDrainAndRecoverOnEpoll) {
  scan_heavy_drain_cycle();
}

TEST(ServerLoopback, PipelinedBatchKeepsOrder) {
  ServerFixture f;
  Client c = f.connect();
  constexpr std::uint64_t kN = 300;  // several server-side batches deep
  for (std::uint64_t k = 0; k < kN; ++k)
    c.queue({Opcode::kPut, k + 1, k + 1000});
  std::vector<Response> resp;
  c.flush(&resp);
  ASSERT_EQ(resp.size(), kN);
  for (const Response& r : resp) EXPECT_EQ(r.status, Status::kCreated);

  for (std::uint64_t k = 0; k < kN; ++k) c.queue({Opcode::kGet, k + 1});
  c.flush(&resp);
  ASSERT_EQ(resp.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    std::uint64_t v = 0;
    ASSERT_EQ(resp[k].status, Status::kOk);
    ASSERT_TRUE(resp[k].value_u64(&v));
    EXPECT_EQ(v, k + 1000) << "response order must match request order";
  }
}

TEST(ServerLoopback, GarbageBytesCloseConnectionServerSurvives) {
  ServerFixture f;
  Client good = f.connect();
  EXPECT_TRUE(good.ping());

  // Raw socket spraying an oversized-length frame: the server must close
  // the connection (recv sees EOF) and keep serving everyone else.
  const int bad = raw_connect(f.srv->port());
  ASSERT_GE(bad, 0);
  std::vector<std::uint8_t> junk;
  put_u32(junk, 0xfffffff0u);
  junk.resize(junk.size() + 64, 0xab);
  ASSERT_EQ(::send(bad, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  char buf[16];
  EXPECT_EQ(::recv(bad, buf, sizeof buf, 0), 0)
      << "server must close a connection after a malformed frame";
  ::close(bad);

  // Garbage opcode: same contract.
  const int bad2 = raw_connect(f.srv->port());
  ASSERT_GE(bad2, 0);
  junk.clear();
  put_u32(junk, kBodyPrefixBytes + 8);
  junk.push_back(0xee);
  junk.insert(junk.end(), 3, 0);
  put_u64(junk, 1);
  ASSERT_EQ(::send(bad2, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  EXPECT_EQ(::recv(bad2, buf, sizeof buf, 0), 0);
  ::close(bad2);

  // The rest of the server is unaffected.
  EXPECT_TRUE(good.ping());
  EXPECT_TRUE(good.put(1, 2).created);
  EXPECT_GE(f.srv->stats().protocol_errors.load(), 2u);
}

/// Regression: a protocol error detected inside execute_batch closes the
/// connection while handle_readable and the epoll loop still hold a
/// reference to its Conn. close_conn therefore only marks the Conn dead; the
/// loop erases it after the handlers return — an immediate erase is a
/// use-after-free. Hammering many close cycles (with live traffic
/// interleaved so freed heap gets reused) makes the stale access corrupt
/// visibly even without ASan.
void protocol_error_close_storm() {
  ServerFixture f(2);
  Client good = f.connect();
  ASSERT_TRUE(good.ping());

  std::vector<std::uint8_t> junk;
  put_u32(junk, 0xfffffff0u);  // oversized frame length -> protocol error
  junk.resize(junk.size() + 64, 0xab);
  for (int i = 0; i < 64; ++i) {
    const int bad = raw_connect(f.srv->port());
    ASSERT_GE(bad, 0);
    ASSERT_EQ(::send(bad, junk.data(), junk.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    char buf[16];
    EXPECT_EQ(::recv(bad, buf, sizeof buf, 0), 0) << "iteration " << i;
    ::close(bad);
    // Interleaved real work churns the allocator and proves the worker that
    // just ran the close path still serves correctly.
    EXPECT_TRUE(good.ping()) << "iteration " << i;
    const std::uint64_t k = 1000 + static_cast<std::uint64_t>(i);
    EXPECT_TRUE(good.put(k, k * 3).created) << "iteration " << i;
  }
  EXPECT_GE(f.srv->stats().protocol_errors.load(), 64u);
  EXPECT_EQ(good.scan(1000, 1063).size(), 64u);
}

TEST(ServerLoopback, ProtocolErrorCloseStormOnProbedPlane) {
  protocol_error_close_storm();
}

TEST(ServerLoopback, ProtocolErrorCloseStormOnEpoll) {
  protocol_error_close_storm();
}

TEST(ServerLoopback, GracefulDrainThenRestartRecoversAllAckedWrites) {
  constexpr std::uint64_t kN = 500;
  ServerFixture f(2);
  {
    Client c = f.connect();
    std::vector<Response> resp;
    for (std::uint64_t k = 1; k <= kN; ++k) c.queue({Opcode::kPut, k, k * 7});
    c.flush(&resp);
    ASSERT_EQ(resp.size(), kN);  // every write acknowledged
  }

  // SIGTERM-driven drain, exactly as the binary would take it.
  Server::install_signal_handlers();
  std::raise(SIGTERM);
  f.srv->wait();
  EXPECT_TRUE(Server::signal_stop_requested());
  Server::reset_signal_stop_for_testing();
  f.srv.reset();

  // Power-cut + process-level reopen: unflushed lines are dropped, the pool
  // file is re-mapped at a new base address, the store recovers via open().
  f.harness.crash_and_reopen();

  f.start_server(2);
  {
    Client c = f.connect();
    std::vector<Response> resp;
    for (std::uint64_t k = 1; k <= kN; ++k) c.queue({Opcode::kGet, k});
    c.flush(&resp);
    ASSERT_EQ(resp.size(), kN);
    for (std::uint64_t k = 1; k <= kN; ++k) {
      std::uint64_t v = 0;
      ASSERT_EQ(resp[k - 1].status, Status::kOk)
          << "acknowledged PUT of key " << k << " lost across restart";
      ASSERT_TRUE(resp[k - 1].value_u64(&v));
      EXPECT_EQ(v, k * 7) << "torn value for key " << k;
    }
  }
}

TEST(ServerLoopback, ReopenWithMoreWorkersThanArenasIsRefused) {
  // A store created for 12 thread ids leaves room for 4 workers from id 8.
  // Reopened under more workers than that, the server must refuse to start
  // (a worker past its arenas would throw on its first allocation) and
  // start no thread; within the limit it serves.
  ServerFixture f(2, test::small_options(16, 12, /*max_threads=*/12));
  EXPECT_EQ(f.srv->max_workers(), 4u);
  {
    Client c = f.connect();
    EXPECT_TRUE(c.put(5, 50).created);
  }
  f.stop_server();
  f.harness.crash_and_reopen();

  ServerOptions o;
  o.workers = 5;
  o.first_thread_id = 8;
  {
    Server too_many(f.harness.store(), o);
    EXPECT_EQ(too_many.max_workers(), 4u);
    errno = 0;
    EXPECT_FALSE(too_many.start());
    EXPECT_EQ(errno, EINVAL);
    EXPECT_EQ(too_many.port(), 0u);
  }

  // Four live connections land on the four workers (placement balances
  // them), so the last worker id allocates too.
  f.start_server(4);
  std::vector<Client> cs;
  for (int i = 0; i < 4; ++i) cs.push_back(f.connect());
  EXPECT_EQ(cs[0].get(5), std::optional<std::uint64_t>(50));
  for (std::uint64_t k = 100; k < 500; ++k)
    EXPECT_TRUE(cs[k % 4].put(k, k).created);
  for (std::uint64_t k = 100; k < 500; ++k)
    EXPECT_EQ(cs[0].get(k), std::optional<std::uint64_t>(k));
}

TEST(ServerLoopback, UnackedInFlightWriteIsAtomicAcrossCrash) {
  ServerFixture f(1);
  constexpr std::uint64_t kKey = 777;
  constexpr std::uint64_t kValue = 0xdeadbeefcafeULL;
  {
    Client c = f.connect();
    ASSERT_TRUE(c.put(1, 11).created);  // acked baseline write
  }

  // Fire a PUT and vanish without ever reading the acknowledgement.
  const int fd = raw_connect(f.srv->port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> frame;
  encode_request({Opcode::kPut, kKey, kValue}, frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  ::close(fd);
  // Give the worker a moment to (maybe) execute it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  f.stop_server();
  f.harness.crash_and_reopen();

  // The acked write must be there; the unacked one is absent or whole.
  auto& store = f.harness.store();
  EXPECT_EQ(store.search(1), std::optional<std::uint64_t>(11));
  const auto v = store.search(kKey);
  if (v.has_value())
    EXPECT_EQ(*v, kValue) << "in-flight PUT applied but torn";
}

// ---- ack path: one fence per executed batch --------------------------------

/// The number after `"key": ` in a flat JSON text; 0 when absent.
std::uint64_t json_u64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

TEST(ServerLoopback, GroupCommitStatsSurfaceInStatsVerb) {
  // Cross-connection group commit is retired: every mutating batch fences
  // itself, STATS counts those fences and reports group commit off.
  ServerFixture f;
  EXPECT_FALSE(f.srv->group_commit_enabled());
  Client c = f.connect();
  const std::string before = c.stats_json();
  std::vector<Response> resp;
  for (std::uint64_t k = 1; k <= 64; ++k) c.queue({Opcode::kPut, k, k});
  c.flush(&resp);
  ASSERT_EQ(resp.size(), 64u);
  EXPECT_GT(f.srv->stats().batch_fences.load(), 0u);
  const std::string stats = c.stats_json();
  EXPECT_GT(json_u64(stats, "batch_fences"), json_u64(before, "batch_fences"))
      << stats;
  EXPECT_NE(stats.find("\"group_commit\": \"off\""), std::string::npos)
      << stats;
}

TEST(ServerLoopback, ReadsParkedBehindPendingAcksKeepFifoOrder) {
  // A GET pipelined behind a PUT waits, with the PUT's ack, for the batch
  // fence; responses must still leave in request order, and every read must
  // see the write it followed.
  ServerFixture f(1);
  Client c = f.connect();
  std::vector<Response> resp;
  for (std::uint64_t round = 0; round < 20; ++round) {
    for (std::uint64_t k = 1; k <= 10; ++k) {
      c.queue({Opcode::kPut, k, k + round * 100});
      c.queue({Opcode::kGet, k});
    }
    c.queue({Opcode::kRemove, 10});
    c.queue({Opcode::kGet, 10});
    c.flush(&resp);
    ASSERT_EQ(resp.size(), 22u);
    for (std::uint64_t k = 1; k <= 10; ++k) {
      std::uint64_t v = 0;
      EXPECT_EQ(resp[k * 2 - 2].status,
                round == 0 || k == 10 ? Status::kCreated : Status::kOk)
          << "round " << round << " key " << k;
      ASSERT_EQ(resp[k * 2 - 1].status, Status::kOk);
      ASSERT_TRUE(resp[k * 2 - 1].value_u64(&v));
      EXPECT_EQ(v, k + round * 100) << "round " << round << " key " << k;
    }
    EXPECT_EQ(resp[20].status, Status::kOk);
    EXPECT_EQ(resp[21].status, Status::kNotFound);
  }
}

TEST(ServerLoopback, GroupCommitDrainReleasesEveryParkedAck) {
  // A SIGTERM drain racing pipelined writes on two connections: the peers
  // never read before the drain, so their acks are still unsent (or their
  // frames still unread) when it starts. Every ack must arrive before the
  // server closes, and every acked write must survive a crash.
  ServerFixture f(2);
  constexpr std::uint64_t kN = 100;
  int fds[2];
  for (int i = 0; i < 2; ++i) {
    fds[i] = raw_connect(f.srv->port());
    ASSERT_GE(fds[i], 0);
    // One PING round trip first: a worker has adopted the connection, so the
    // drain cannot find it still in the listen backlog.
    std::vector<std::uint8_t> ping;
    encode_request({Opcode::kPing}, ping);
    ASSERT_EQ(::send(fds[i], ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    ASSERT_EQ(read_responses(fds[i], 1).size(), 1u);
    std::vector<std::uint8_t> req;
    for (std::uint64_t k = 1; k <= kN; ++k)
      encode_request(
          {Opcode::kPut, static_cast<std::uint64_t>(i) * 1000 + k, k}, req);
    ASSERT_EQ(::send(fds[i], req.data(), req.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(req.size()));
  }
  Server::install_signal_handlers();
  std::raise(SIGTERM);
  for (int i = 0; i < 2; ++i) {
    const std::vector<Response> resp = read_responses(fds[i]);
    ::close(fds[i]);
    EXPECT_EQ(resp.size(), kN) << "connection " << i;
    for (const Response& r : resp) EXPECT_EQ(r.status, Status::kCreated);
  }
  f.srv->wait();
  Server::reset_signal_stop_for_testing();
  f.srv.reset();
  f.harness.crash_and_reopen();
  for (std::uint64_t k = 1; k <= kN; ++k) {
    EXPECT_EQ(f.harness.store().search(k), std::optional<std::uint64_t>(k));
    EXPECT_EQ(f.harness.store().search(1000 + k),
              std::optional<std::uint64_t>(k));
  }
}

TEST(ServerLoopback, AckedPipelinedPutsSurviveDiscardCrash) {
  // Acked => durable through the batch fence alone: pipelined PUTs (fresh
  // keys, then in-place overwrites) from several connections on a
  // crash-tracked pool, then a power cut that drops every line not
  // explicitly flushed. The drain before it has nothing left to execute, so
  // only the batch fences stand between an ack and its write.
  ServerFixture f(2);
  constexpr int kClients = 3;
  constexpr std::uint64_t kKeys = 200;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> acked(
      kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
      std::vector<Response> resp;
      const std::uint64_t base = static_cast<std::uint64_t>(t + 1) * 10000;
      for (std::uint64_t round = 1; round <= 3; ++round) {
        for (std::uint64_t k = 0; k < kKeys; ++k)
          c.queue({Opcode::kPut, base + k, round * 100000 + k});
        c.flush(&resp);
        ASSERT_EQ(resp.size(), kKeys);
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          ASSERT_EQ(resp[k].status,
                    round == 1 ? Status::kCreated : Status::kOk);
          acked[static_cast<std::size_t>(t)].emplace_back(base + k,
                                                          round * 100000 + k);
        }
      }
    });
  }
  for (auto& th : clients) th.join();

  f.stop_server();
  f.harness.crash_and_reopen(pmem::CrashMode::kDiscardUnflushed, 7);

  std::unordered_map<std::uint64_t, std::uint64_t> last;
  for (const auto& writes : acked)
    for (const auto& [k, v] : writes) last[k] = v;
  ASSERT_EQ(last.size(), kClients * kKeys);
  auto& store = f.harness.store();
  for (const auto& [k, v] : last)
    EXPECT_EQ(store.search(k), std::optional<std::uint64_t>(v))
        << "acked PUT of key " << k << " lost or torn";
  EXPECT_NO_THROW(store.check_invariants());
}

// ---- sharded server -------------------------------------------------------

/// ServerFixture's sharded sibling: a ShardSet over per-shard pools with one
/// listener and one worker pool fronting all of them. Worker ids:
/// first_thread_id 8, `workers` consecutive slots — clear of the ids test
/// bodies bind and below the stores' max_threads.
struct ShardedServerFixture {
  explicit ShardedServerFixture(unsigned shards = 4, unsigned workers = 1)
      : harness(shards, test::small_options(16, 12, 16)) {
    start_server(workers);
  }

  ~ShardedServerFixture() {
    stop_server();
    Server::reset_signal_stop_for_testing();
  }

  void start_server(unsigned workers = 1) {
    ServerOptions o;
    o.workers = workers;
    o.first_thread_id = 8;
    srv = std::make_unique<Server>(harness.set(), o);
    ASSERT_TRUE(srv->start());
  }

  void stop_server() {
    if (srv != nullptr) {
      srv->stop();
      srv->wait();
      srv.reset();
    }
  }

  test::ShardHarness harness;
  std::unique_ptr<Server> srv;
};

/// Every `field` value in the STATS JSON array named `array`, in order.
std::vector<std::uint64_t> array_field(const std::string& stats,
                                       const std::string& array,
                                       const std::string& field) {
  std::vector<std::uint64_t> out;
  const std::string key = "\"" + field + "\": ";
  std::size_t pos = stats.find("\"" + array + "\": [");
  if (pos == std::string::npos) return out;
  const std::size_t end = stats.find(']', pos);
  while (true) {
    pos = stats.find(key, pos);
    if (pos == std::string::npos || pos > end) break;
    pos += key.size();
    out.push_back(std::stoull(stats.substr(pos)));
  }
  return out;
}

/// Live connections per worker, from STATS' "workers" array.
std::vector<std::uint64_t> worker_connections(const std::string& stats) {
  return array_field(stats, "workers", "connections");
}

/// `per_shard` keys from `first` up for each of `shards` shards, so a
/// pipeline over them touches every shard.
std::vector<std::uint64_t> keys_on_every_shard(std::uint64_t first,
                                               unsigned per_shard,
                                               std::uint32_t shards) {
  std::vector<std::uint64_t> keys;
  std::vector<unsigned> taken(shards, 0);
  for (std::uint64_t k = first; keys.size() < per_shard * shards; ++k) {
    const std::uint32_t s = shard_of_key(k, shards);
    if (taken[s] == per_shard) continue;
    taken[s] += 1;
    keys.push_back(k);
  }
  return keys;
}

TEST(ShardedServer, EveryKeyReachesTheMappedShard) {
  ShardedServerFixture f(4);
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));

  constexpr std::uint64_t kN = 400;
  for (std::uint64_t k = 1; k <= kN; ++k)
    EXPECT_TRUE(c.put(k, k * 5).created);

  // Each key landed in exactly the store the map names.
  for (std::uint64_t k = 1; k <= kN; ++k) {
    const std::uint32_t owner = shard_of_key(k, 4);
    for (std::uint32_t s = 0; s < 4; ++s) {
      const auto v = f.harness.set().shard(s).search(k);
      if (s == owner)
        EXPECT_EQ(v, std::optional<std::uint64_t>(k * 5));
      else
        EXPECT_EQ(v, std::nullopt);
    }
  }
  for (std::uint64_t k = 1; k <= kN; ++k)
    EXPECT_EQ(c.get(k), std::optional<std::uint64_t>(k * 5));
  const std::string stats = c.stats_json();
  EXPECT_NE(stats.find("\"shard_count\": 4"), std::string::npos) << stats;
  EXPECT_EQ(array_field(stats, "shards", "ops").size(), 4u) << stats;
}

TEST(ShardedServer, EveryWorkerServesEveryShard) {
  ShardedServerFixture f(4, 2);
  // The pool has `workers` workers in total, not per shard.
  Client first;
  ASSERT_TRUE(first.connect("127.0.0.1", f.srv->port()));
  ASSERT_TRUE(first.ping());
  Client second;
  ASSERT_TRUE(second.connect("127.0.0.1", f.srv->port()));
  ASSERT_TRUE(second.ping());
  const std::string placed = first.stats_json();
  EXPECT_EQ(worker_connections(placed), (std::vector<std::uint64_t>{1, 1}))
      << "two connections must land on different workers: " << placed;

  // One connection's keys reach every shard through its one worker.
  const std::vector<std::uint64_t> before =
      array_field(placed, "shards", "ops");
  ASSERT_EQ(before.size(), 4u) << placed;
  std::vector<Response> resp;
  for (const std::uint64_t k : keys_on_every_shard(1, 4, 4))
    first.queue({Opcode::kPut, k, k});
  first.flush(&resp);
  ASSERT_EQ(resp.size(), 16u);
  const std::string stats = first.stats_json();
  const std::vector<std::uint64_t> after = array_field(stats, "shards", "ops");
  ASSERT_EQ(after.size(), 4u) << stats;
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_EQ(after[s], before[s] + 4) << "shard " << s << ": " << stats;
  EXPECT_EQ(stats.find("\"port\""), std::string::npos) << stats;
}

TEST(ShardedServer, ShardedPipelineKeepsSubmissionOrder) {
  ShardedServerFixture f(4);
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  constexpr std::uint64_t kN = 300;
  std::vector<Response> resp;
  // Interleave PUT and GET of the same key across every shard: the server
  // splits the batch by owner, and the responses must still come back in
  // submission order with each read seeing the write before it.
  for (std::uint64_t k = 1; k <= kN; ++k) {
    c.queue({Opcode::kPut, k, k * 2});
    c.queue({Opcode::kGet, k});
  }
  c.flush(&resp);
  ASSERT_EQ(resp.size(), 2 * kN);
  for (std::uint64_t k = 1; k <= kN; ++k) {
    EXPECT_EQ(resp[2 * (k - 1)].status, Status::kCreated) << "key " << k;
    std::uint64_t v = 0;
    ASSERT_EQ(resp[2 * (k - 1) + 1].status, Status::kOk) << "key " << k;
    ASSERT_TRUE(resp[2 * (k - 1) + 1].value_u64(&v));
    EXPECT_EQ(v, k * 2) << "response misordered for key " << k;
  }
}

TEST(ShardedServer, ScanMergesAcrossShardsInKeyOrder) {
  ShardedServerFixture f(4);
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  for (std::uint64_t k = 1; k <= 300; ++k) c.put(k, k * 11);
  // Tombstone a stripe so the merge must skip holes on every shard.
  for (std::uint64_t k = 5; k <= 300; k += 5) c.remove(k);

  const auto all = c.scan(1, 300);
  ASSERT_EQ(all.size(), 240u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_NE(all[i].first % 5, 0u);
    EXPECT_EQ(all[i].second, all[i].first * 11);
    if (i > 0) {
      EXPECT_LT(all[i - 1].first, all[i].first);
    }
  }

  // The one port answers for the whole key space, with the limit applied
  // to the merged stream, on the chunked and the buffered verb alike.
  const auto limited = c.scan(1, 300, 10);
  ASSERT_EQ(limited.size(), 10u);
  EXPECT_EQ(limited.front().first, 1u);
  EXPECT_EQ(limited.back().first, 12u);  // 5 and 10 tombstoned
  EXPECT_EQ(c.scan_buffered(1, 300, 10), limited);
}

TEST(ShardedServer, ValidateAggregatesAcrossShards) {
  ShardedServerFixture f(4);
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  for (std::uint64_t k = 1; k <= 200; ++k) c.put(k, k);
  bool ok = false;
  const std::string report = c.validate_json(&ok);
  EXPECT_TRUE(ok) << report;
  EXPECT_NE(report.find("\"valid\": true"), std::string::npos) << report;
  EXPECT_NE(report.find("\"shards\": 4"), std::string::npos) << report;
}

TEST(ShardedServer, DrainThenRestartRecoversAllAckedWritesPerShard) {
  constexpr std::uint64_t kN = 400;
  ShardedServerFixture f(4, 1);
  {
    Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
    std::vector<Response> resp;
    for (std::uint64_t k = 1; k <= kN; ++k) c.queue({Opcode::kPut, k, k * 13});
    c.flush(&resp);
    ASSERT_EQ(resp.size(), kN);  // every write acknowledged
  }

  f.stop_server();
  // Power-cut + reopen of the whole shard set: unflushed lines dropped,
  // pools re-mapped, parallel recovery re-validates the durable topology.
  f.harness.crash_and_reopen();

  f.start_server(1);
  {
    Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
    std::vector<Response> resp;
    for (std::uint64_t k = 1; k <= kN; ++k) c.queue({Opcode::kGet, k});
    c.flush(&resp);
    ASSERT_EQ(resp.size(), kN);
    for (std::uint64_t k = 1; k <= kN; ++k) {
      std::uint64_t v = 0;
      ASSERT_EQ(resp[k - 1].status, Status::kOk)
          << "acknowledged PUT of key " << k << " lost across restart";
      ASSERT_TRUE(resp[k - 1].value_u64(&v));
      EXPECT_EQ(v, k * 13) << "torn value for key " << k;
    }
  }
}

TEST(ShardedServer, RetiredTopologyOpcodeClosesOnlyItsConnection) {
  ShardedServerFixture f(4, 2);
  Client good;
  ASSERT_TRUE(good.connect("127.0.0.1", f.srv->port()));
  ASSERT_TRUE(good.put(7, 70).created);
  const std::uint64_t errors = f.srv->stats().protocol_errors.load();

  // A raw TOPOLOGY frame (opcode 9, empty payload): an unknown verb now.
  const int bad = raw_connect(f.srv->port());
  ASSERT_GE(bad, 0);
  std::vector<std::uint8_t> frame;
  put_u32(frame, kBodyPrefixBytes);
  frame.push_back(9);
  frame.insert(frame.end(), 3, 0);
  ASSERT_EQ(::send(bad, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  char buf[16];
  EXPECT_EQ(::recv(bad, buf, sizeof buf, 0), 0)
      << "the server must close the connection, not answer it";
  ::close(bad);
  EXPECT_EQ(f.srv->stats().protocol_errors.load(), errors + 1);

  EXPECT_TRUE(good.ping());
  EXPECT_EQ(good.get(7), std::optional<std::uint64_t>(70));
}

// ---- detectable sessions --------------------------------------------------

TEST(ServerProtocol, DetectRequestRoundTrip) {
  const Request cases[] = {
      {Opcode::kHello, 0, 0, 0, /*seq=*/0, /*client_id=*/42},
      {Opcode::kResolve, /*key=*/9, 0, 0, /*seq=*/3, /*client_id=*/42},
      {Opcode::kDPut, 7, 700, 0, /*seq=*/5},
      {Opcode::kDUpdate, 8, 800, 0, /*seq=*/6},
      {Opcode::kDRemove, 9, 0, 0, /*seq=*/7},
  };
  for (const Request& in : cases) {
    std::vector<std::uint8_t> buf;
    encode_request(in, buf);
    Request out;
    std::size_t consumed = 0;
    ASSERT_EQ(parse_request(buf.data(), buf.size(), &out, &consumed),
              ParseResult::kOk);
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(static_cast<int>(out.op), static_cast<int>(in.op));
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.value, in.value);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.client_id, in.client_id);
  }
}

TEST(ServerProtocol, ResolveResponseRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode_response_resolve(2, 1, 123, buf);
  Response r;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_response(buf.data(), buf.size(), &r, &consumed),
            ParseResult::kOk);
  EXPECT_EQ(r.status, Status::kOk);
  Response::Resolve res;
  ASSERT_TRUE(r.resolve(&res));
  EXPECT_EQ(res.state, 2u);
  EXPECT_EQ(res.has_previous, 1u);
  EXPECT_EQ(res.result, 123u);
}

/// Reads one complete response frame off a raw socket.
Response recv_response(int fd) {
  std::vector<std::uint8_t> buf;
  std::uint8_t tmp[256];
  Response r;
  std::size_t consumed = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed while waiting for a response";
      return r;
    }
    buf.insert(buf.end(), tmp, tmp + n);
    const ParseResult pr = parse_response(buf.data(), buf.size(), &r, &consumed);
    if (pr == ParseResult::kOk) return r;
    if (pr == ParseResult::kBad) {
      ADD_FAILURE() << "malformed response frame";
      return r;
    }
  }
}

TEST(ServerLoopback, HelloDputDedupAndResolve) {
  test::ScopedDetect on(true);
  ServerFixture f;
  Client c = f.connect();
  EXPECT_GT(c.hello(42), 0u);
  EXPECT_EQ(c.session_client_id(), 42u);

  auto p1 = c.dput(5, 50);  // seq 1
  EXPECT_TRUE(p1.created);
  auto p2 = c.dput(5, 51);  // seq 2
  EXPECT_FALSE(p2.created);
  EXPECT_EQ(p2.old_value, 50u);
  EXPECT_EQ(c.last_issued_seq(), 2u);
  EXPECT_EQ(c.dremove(777), std::nullopt);  // seq 3: not-found is durable too

  // RESOLVE replays the durable answers.
  EXPECT_EQ(c.resolve(42, 1).state, 2u);  // applied, no previous
  EXPECT_EQ(c.resolve(42, 1).has_previous, 0u);
  const Response::Resolve r2 = c.resolve(42, 2);
  EXPECT_EQ(r2.state, 2u);
  EXPECT_EQ(r2.has_previous, 1u);
  EXPECT_EQ(r2.result, 50u);
  EXPECT_EQ(c.resolve(9999, 1).state, 0u);  // unknown session
  EXPECT_EQ(c.resolve(42, 50).state, 1u);   // never issued: not applied

  // A second connection with the same identity replays the same seqs: every
  // answer must be byte-identical to the original and nothing re-applies.
  Client d;
  ASSERT_TRUE(d.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(d.hello(42), 0u);
  auto q1 = d.dput(5, 999);  // seq 1 replay
  EXPECT_TRUE(q1.created);
  auto q2 = d.dput(5, 888);  // seq 2 replay
  EXPECT_FALSE(q2.created);
  EXPECT_EQ(q2.old_value, 50u);
  EXPECT_EQ(d.get(5), std::optional<std::uint64_t>(51));
  EXPECT_EQ(d.dremove(777), std::nullopt);  // seq 3 replay
  EXPECT_GE(f.srv->stats().detect_dups.load(), 3u);
  EXPECT_GE(f.srv->stats().hellos.load(), 2u);
  const std::string stats = c.stats_json();
  EXPECT_NE(stats.find("\"detect\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"dedup_hits\""), std::string::npos) << stats;
}

TEST(ServerLoopback, DetectFrameAbuseIsRejectedNotFatal) {
  test::ScopedDetect on(true);
  ServerFixture f;

  // Detectable mutation without a HELLO: error response, connection lives.
  const int fd = raw_connect(f.srv->port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> frame;
  encode_request({Opcode::kDPut, 1, 10, 0, /*seq=*/1}, frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(recv_response(fd).status, Status::kError);
  // HELLO with the reserved client_id 0: same contract.
  frame.clear();
  encode_request({Opcode::kHello, 0, 0, 0, 0, /*client_id=*/0}, frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(recv_response(fd).status, Status::kError);
  ::close(fd);

  // Malformed RESOLVE (payload too short for client_id+seq+key): protocol
  // error, the server closes the connection and keeps serving.
  const int bad = raw_connect(f.srv->port());
  ASSERT_GE(bad, 0);
  std::vector<std::uint8_t> junk;
  put_u32(junk, kBodyPrefixBytes + 8);
  junk.push_back(static_cast<std::uint8_t>(Opcode::kResolve));
  junk.insert(junk.end(), 3, 0);
  put_u64(junk, 42);
  ASSERT_EQ(::send(bad, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  char buf[16];
  EXPECT_EQ(::recv(bad, buf, sizeof buf, 0), 0)
      << "server must close a connection after a malformed RESOLVE";
  ::close(bad);

  EXPECT_GE(f.srv->stats().protocol_errors.load(), 1u);
  Client good;
  ASSERT_TRUE(good.connect("127.0.0.1", f.srv->port()));
  EXPECT_TRUE(good.ping());
}

TEST(ServerLoopback, DetectSeqZeroIsRejectedNotExecuted) {
  test::ScopedDetect on(true);
  ServerFixture f;

  // seq 0 is the result ring's empty sentinel: a D* frame carrying it must
  // be rejected outright — executing it would ack a fabricated "duplicate"
  // answer (state applied, result 0) and silently drop the mutation.
  const int fd = raw_connect(f.srv->port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> frame;
  encode_request({Opcode::kHello, 0, 0, 0, 0, /*client_id=*/42}, frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(recv_response(fd).status, Status::kOk);
  frame.clear();
  encode_request({Opcode::kDPut, 1, 10, 0, /*seq=*/0, 42}, frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(recv_response(fd).status, Status::kError);
  frame.clear();
  encode_request({Opcode::kDRemove, 1, 0, 0, /*seq=*/0, 42}, frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_EQ(recv_response(fd).status, Status::kError);
  ::close(fd);

  Client c = f.connect();
  EXPECT_EQ(c.get(1), std::nullopt) << "rejected seq-0 DPUT must not apply";
  // And the table classifies seq 0 as not-applied, never applied-result-0.
  EXPECT_EQ(c.resolve(42, 0).state, 1u);
}

TEST(ServerLoopback, SessionEvictionInvalidatesCachedSlot) {
  test::ScopedDetect on(true);
  auto opts = test::small_options(16, 12, 16);
  opts.session_slots = 2;  // force churn with three live clients
  ServerFixture f(1, opts);

  Client a = f.connect();
  EXPECT_GT(a.hello(1), 0u);
  EXPECT_TRUE(a.dput(1, 10).created);  // a: seq 1, slot cached server-side

  // Two more identities exhaust the 2-slot table; a's session (oldest
  // claim epoch) is evicted and its slot handed to c.
  Client b = f.connect();
  EXPECT_GT(b.hello(2), 0u);
  Client c = f.connect();
  EXPECT_GT(c.hello(3), 0u);

  // a's connection is still open and still holds the stale slot index. Its
  // next detectable op must NOT touch c's slot: the server has to notice
  // the eviction and re-open a's session in a fresh slot.
  EXPECT_TRUE(a.dput(2, 20).created);  // a: seq 2
  EXPECT_EQ(a.get(2), std::optional<std::uint64_t>(20));

  // c's dedup state stays pristine: none of a's seqs may appear applied
  // under c's identity, and c's own ops still stamp from seq 1.
  EXPECT_EQ(c.resolve(3, 1).state, 1u) << "a's op leaked into c's slot";
  EXPECT_EQ(c.resolve(3, 2).state, 1u) << "a's op leaked into c's slot";
  EXPECT_TRUE(c.dput(100, 1000).created);  // c: seq 1
  EXPECT_EQ(c.resolve(3, 1).state, 2u);

  // a's re-opened session recorded its post-eviction op durably.
  EXPECT_EQ(a.resolve(1, 2).state, 2u);
  EXPECT_EQ(a.resolve(1, 2).has_previous, 0u);
}

TEST(ServerLoopback, MovedClientKeepsSessionStateAndSocket) {
  test::ScopedDetect on(true);
  ServerFixture f;
  Client c = f.connect();
  EXPECT_GT(c.hello(42), 0u);
  EXPECT_TRUE(c.dput(1, 10).created);  // seq 1

  // Move the client: identity, seq counter, and socket all transfer. A
  // move that dropped the counter would restamp seq 1 and the server
  // would dedup the "new" mutation into the old answer.
  Client d = std::move(c);
  EXPECT_FALSE(c.connected());
  EXPECT_EQ(c.session_client_id(), 0u);
  EXPECT_TRUE(d.connected());
  EXPECT_EQ(d.session_client_id(), 42u);
  EXPECT_EQ(d.last_issued_seq(), 1u);

  EXPECT_TRUE(d.dput(2, 20).created);  // seq 2 — fresh, not a replay
  EXPECT_EQ(d.get(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(d.resolve(42, 2).state, 2u);
}

TEST(ServerLoopback, DetectKillSwitchKeepsServing) {
  test::ScopedDetect off(false);
  ServerFixture f;
  Client c = f.connect();
  // HELLO still succeeds (epoch 0 = degraded) so a detect-aware client can
  // talk to a kill-switched server; mutations run as plain ops.
  EXPECT_EQ(c.hello(42), 0u);
  EXPECT_TRUE(c.dput(5, 50).created);   // seq 1
  auto again = c.dput(5, 51);           // seq 2 — but also no dedup state
  EXPECT_FALSE(again.created);
  EXPECT_EQ(again.old_value, 50u);
  EXPECT_EQ(c.resolve(42, 1).state, 0u);  // no sessions: unknown
  const std::string stats = c.stats_json();
  EXPECT_NE(stats.find("\"detect\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"enabled\": false"), std::string::npos) << stats;
}

TEST(ServerLoopback, DetectSessionsSurviveRestartAndDedupReplays) {
  test::ScopedDetect on(true);
  ServerFixture f(1);
  {
    Client c = f.connect();
    EXPECT_GT(c.hello(42), 0u);
    EXPECT_TRUE(c.dput(5, 50).created);   // seq 1
    EXPECT_FALSE(c.dput(5, 51).created);  // seq 2
  }
  f.stop_server();
  f.harness.crash_and_reopen();
  f.start_server(1);

  // A fresh client process with the same identity re-sends from seq 1 (the
  // classic at-least-once retry storm): the recovered session table turns
  // it into exactly-once.
  Client c = f.connect();
  EXPECT_GT(c.hello(42), 0u);
  auto q1 = c.dput(5, 999);  // seq 1 replay
  EXPECT_TRUE(q1.created);   // original durable answer
  auto q2 = c.dput(5, 888);  // seq 2 replay
  EXPECT_FALSE(q2.created);
  EXPECT_EQ(q2.old_value, 50u);
  EXPECT_EQ(c.get(5), std::optional<std::uint64_t>(51));
  const Response::Resolve r = c.resolve(42, 2);
  EXPECT_EQ(r.state, 2u);
  EXPECT_EQ(r.result, 50u);
}

TEST(ServerLoopback, DroppedPipelineReportsExactSplitAndResolves) {
  test::ScopedDetect on(true);
  ServerFixture f(1);
  Client c = f.connect();
  EXPECT_GT(c.hello(42), 0u);
  EXPECT_TRUE(c.dput(1, 10).created);  // seq 1, acked baseline

  // Queue a detectable pipeline, then take the server down before flushing:
  // the flush must fail with the exact acked/unresolved split, and the
  // un-answered ops must be recoverable through reconnect-and-resolve.
  c.queue_dput(2, 20);   // seq 2
  c.queue_dremove(1);    // seq 3
  c.queue_dput(3, 30);   // seq 4
  f.stop_server();
  std::vector<Response> resp;
  bool threw = false;
  try {
    c.flush(&resp);
  } catch (const PipelineError& e) {
    threw = true;
    EXPECT_EQ(e.acked, 0u);
    EXPECT_EQ(e.unresolved, 3u);
    EXPECT_EQ(c.unresolved_ops().size(), 3u);
  }
  ASSERT_TRUE(threw) << "flush into a dead server must raise PipelineError";

  // Restart over the same store; same identity keeps the seq counter and
  // the unresolved tail.
  f.harness.crash_and_reopen();
  f.start_server(1);
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(c.hello(42), 0u);
  EXPECT_EQ(c.last_issued_seq(), 4u);

  auto resolved = c.resolve_unresolved();
  ASSERT_EQ(resolved.size(), 3u);
  for (const Client::ResolvedOp& ro : resolved) {
    ASSERT_TRUE(ro.resolvable);
    // The pipeline never left the client: the durable answer is not-applied
    // for each, and each replays under its original seq.
    EXPECT_EQ(ro.answer.state, 1u) << "seq " << ro.op.seq;
    c.requeue(ro.op);
  }
  c.flush(&resp);
  ASSERT_EQ(resp.size(), 3u);
  EXPECT_EQ(c.get(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(c.get(1), std::nullopt);  // the requeued dremove applied
  EXPECT_EQ(c.get(3), std::optional<std::uint64_t>(30));
  EXPECT_EQ(c.unresolved_ops().size(), 0u);
}

TEST(ShardedServer, DetectableSessionsRouteAndResolveAcrossShards) {
  test::ScopedDetect on(true);
  ShardedServerFixture f(4);
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(c.hello(42), 0u);

  // One identity, one seq stream spanning every shard: key k gets seq k,
  // and each shard's session sees a monotonic subsequence of it.
  constexpr std::uint64_t kN = 100;
  for (std::uint64_t k = 1; k <= kN; ++k)
    EXPECT_TRUE(c.dput(k, k * 3).created);
  for (std::uint64_t k = 1; k <= kN; ++k)
    EXPECT_EQ(c.get(k), std::optional<std::uint64_t>(k * 3));

  // RESOLVE routes by key: the last op each shard applied is still in that
  // shard's result ring.
  std::vector<std::uint64_t> last_key(4, 0);
  for (std::uint64_t k = 1; k <= kN; ++k) last_key[shard_of_key(k, 4)] = k;
  for (std::uint32_t s = 0; s < 4; ++s) {
    ASSERT_NE(last_key[s], 0u) << "shard " << s;
    const Response::Resolve r = c.resolve(42, last_key[s], last_key[s]);
    EXPECT_EQ(r.state, 2u) << "shard " << s;
  }

  // A second identity pipelines detectable ops over all four shards; a
  // fresh connection with the same identity restamps the same seqs in the
  // same order, so every op must dedup on its shard and replay the
  // original answer.
  const std::vector<std::uint64_t> keys = keys_on_every_shard(1000, 2, 4);
  std::vector<Response> resp;
  Client e;
  ASSERT_TRUE(e.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(e.hello(43), 0u);
  for (const std::uint64_t k : keys) e.queue_dput(k, k * 7);
  e.flush(&resp);
  ASSERT_EQ(resp.size(), keys.size());
  for (const Response& r : resp) EXPECT_EQ(r.status, Status::kCreated);
  const std::uint64_t dups_before = f.srv->stats().detect_dups.load();

  Client g;
  ASSERT_TRUE(g.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(g.hello(43), 0u);
  for (const std::uint64_t k : keys) g.queue_dput(k, k * 7 + 1);
  g.flush(&resp);
  ASSERT_EQ(resp.size(), keys.size());
  for (const Response& r : resp) EXPECT_EQ(r.status, Status::kCreated);
  for (const std::uint64_t k : keys)
    EXPECT_EQ(g.get(k), std::optional<std::uint64_t>(k * 7));
  EXPECT_EQ(f.srv->stats().detect_dups.load() - dups_before, keys.size());
}

TEST(ShardedServer, FailedShardedFlushStrandsNoShardAndResolves) {
  test::ScopedDetect on(true);
  ShardedServerFixture f(4, 1);
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(c.hello(42), 0u);

  // HELLO is all the server ever saw of this session: it dies under the
  // first pipeline, which spans every shard (seqs 1..8), before any op
  // reaches a shard. The flush reports the exact split and parks every op,
  // whatever its shard, for the resolve path.
  const std::vector<std::uint64_t> keys = keys_on_every_shard(1, 2, 4);
  for (const std::uint64_t k : keys) c.queue_dput(k, k * 10);
  f.stop_server();
  std::vector<Response> resp;
  bool threw = false;
  try {
    c.flush(&resp);
  } catch (const PipelineError& e) {
    threw = true;
    EXPECT_EQ(e.acked, 0u);
    EXPECT_EQ(e.unresolved, keys.size());
    EXPECT_EQ(resp.size(), 0u);
  }
  ASSERT_TRUE(threw) << "flush into a dead server must raise PipelineError";
  EXPECT_EQ(c.queued(), 0u);

  // After a crash every op resolves on its own shard as not applied, never
  // as an unknown session: HELLO opened the session on every shard, not
  // only on the ones a detectable op had reached.
  f.harness.crash_and_reopen();
  f.start_server(1);
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(c.hello(42), 0u);
  auto resolved = c.resolve_unresolved();
  ASSERT_EQ(resolved.size(), keys.size())
      << "every shard's unresolved ops must survive the failed flush";
  std::vector<unsigned> per_shard(4, 0);
  for (const Client::ResolvedOp& ro : resolved) {
    ASSERT_TRUE(ro.resolvable);
    EXPECT_EQ(ro.answer.state, 1u) << "key " << ro.op.key;
    per_shard[shard_of_key(ro.op.key, 4)] += 1;
    c.requeue(ro.op);
  }
  EXPECT_EQ(per_shard, (std::vector<unsigned>{2, 2, 2, 2}));

  // Replaying under the original seqs applies each op once; a second
  // replay of the same seqs deduplicates on every shard.
  c.flush(&resp);
  ASSERT_EQ(resp.size(), keys.size());
  for (const Response& r : resp) EXPECT_EQ(r.status, Status::kCreated);
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(c.resolve(42, i + 1, keys[i]).state, 2u) << "key " << keys[i];
  const std::uint64_t dups_before = f.srv->stats().detect_dups.load();
  for (const Client::ResolvedOp& ro : resolved) c.requeue(ro.op);
  c.flush(&resp);
  ASSERT_EQ(resp.size(), keys.size());
  EXPECT_EQ(f.srv->stats().detect_dups.load() - dups_before, keys.size());
  for (const std::uint64_t k : keys)
    EXPECT_EQ(c.get(k), std::optional<std::uint64_t>(k * 10));
}

TEST(ShardedServer, FailedFlushAfterAnAckedPipelineResolvesPerShard) {
  test::ScopedDetect on(true);
  ShardedServerFixture f(4, 1);
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(c.hello(42), 0u);

  // An acked pipeline over every shard (seqs 1..8).
  const std::vector<std::uint64_t> acked = keys_on_every_shard(1, 2, 4);
  std::vector<Response> resp;
  for (const std::uint64_t k : acked) c.queue_dput(k, k * 10);
  c.flush(&resp);
  ASSERT_EQ(resp.size(), acked.size());

  // Then the server dies under a second pipeline spanning every shard
  // (seqs 9..16): the flush reports the exact split and parks every op,
  // whatever its shard, for the resolve path.
  const std::vector<std::uint64_t> lost = keys_on_every_shard(1000, 2, 4);
  for (const std::uint64_t k : lost) c.queue_dput(k, k * 10);
  f.stop_server();
  bool threw = false;
  try {
    c.flush(&resp);
  } catch (const PipelineError& e) {
    threw = true;
    EXPECT_EQ(e.acked, 0u);
    EXPECT_EQ(e.unresolved, lost.size());
    EXPECT_EQ(resp.size(), 0u);
  }
  ASSERT_TRUE(threw) << "flush into a dead server must raise PipelineError";
  EXPECT_EQ(c.queued(), 0u);

  // After a crash, resolving by key asks each op's own shard: the acked
  // ops are applied there, the lost ones are not, and replaying those
  // under their original seqs applies each exactly once.
  f.harness.crash_and_reopen();
  f.start_server(1);
  ASSERT_TRUE(c.connect("127.0.0.1", f.srv->port()));
  EXPECT_GT(c.hello(42), 0u);
  for (std::size_t i = 0; i < acked.size(); ++i)
    EXPECT_EQ(c.resolve(42, i + 1, acked[i]).state, 2u) << "key " << acked[i];
  auto resolved = c.resolve_unresolved();
  ASSERT_EQ(resolved.size(), lost.size())
      << "every shard's unresolved ops must survive the failed flush";
  std::vector<unsigned> per_shard(4, 0);
  for (const Client::ResolvedOp& ro : resolved) {
    ASSERT_TRUE(ro.resolvable);
    EXPECT_EQ(ro.answer.state, 1u) << "key " << ro.op.key;
    per_shard[shard_of_key(ro.op.key, 4)] += 1;
    c.requeue(ro.op);
  }
  EXPECT_EQ(per_shard, (std::vector<unsigned>{2, 2, 2, 2}));
  c.flush(&resp);
  ASSERT_EQ(resp.size(), lost.size());
  for (const Response& r : resp) EXPECT_EQ(r.status, Status::kCreated);
  for (const std::uint64_t k : lost)
    EXPECT_EQ(c.get(k), std::optional<std::uint64_t>(k * 10));
}


// ---- GET runs, reserved operands, connection placement -------------------

/// The status of each response, and its u64 payload when it carries one.
std::vector<std::pair<Status, std::optional<std::uint64_t>>> outcomes(
    const std::vector<Response>& resp) {
  std::vector<std::pair<Status, std::optional<std::uint64_t>>> out;
  for (const Response& r : resp) {
    std::uint64_t v = 0;
    out.emplace_back(r.status,
                     r.value_u64(&v) ? std::optional<std::uint64_t>(v)
                                     : std::nullopt);
  }
  return out;
}

TEST(ServerLoopback, PipelinedReadsStayInOrderAroundWrites) {
  // GETs between writes form separate runs; each run executes after the
  // writes before it and before the writes after it.
  ServerFixture f;
  Client c = f.connect();
  constexpr std::uint64_t k = 77;
  c.queue({Opcode::kPut, k, 1});
  c.queue({Opcode::kGet, k});
  c.queue({Opcode::kGet, k + 1});
  c.queue({Opcode::kPut, k, 2});
  c.queue({Opcode::kGet, k});
  c.queue({Opcode::kRemove, k});
  c.queue({Opcode::kGet, k});
  std::vector<Response> resp;
  c.flush(&resp);
  using O = std::optional<std::uint64_t>;
  const std::vector<std::pair<Status, O>> want = {
      {Status::kCreated, std::nullopt}, {Status::kOk, O(1)},
      {Status::kNotFound, std::nullopt}, {Status::kOk, O(1)},
      {Status::kOk, O(2)},               {Status::kOk, O(2)},
      {Status::kNotFound, std::nullopt}};
  EXPECT_EQ(outcomes(resp), want);
}

TEST(ServerLoopback, ReservedKeysAnswerErrorAndServerSurvives) {
  // Key 0 and ~0 are the store's sentinels and value ~0 its tombstone. Each
  // op carrying one is answered kError on its own; the ops around it, the
  // rest of its GET run included, are served as usual.
  ServerFixture f;
  Client c = f.connect();
  ASSERT_TRUE(c.put(5, 50).created);
  c.hello(31);
  constexpr std::uint64_t kMax = ~0ULL;
  c.queue({Opcode::kGet, 5});
  c.queue({Opcode::kGet, 0});
  c.queue({Opcode::kGet, 6});
  c.queue({Opcode::kGet, kMax});
  c.queue({Opcode::kGet, 5});
  c.queue({Opcode::kPut, 0, 1});
  c.queue({Opcode::kPut, kMax, 1});
  c.queue({Opcode::kUpdate, 6, kMax});
  c.queue({Opcode::kRemove, 0});
  c.queue({Opcode::kRemove, kMax});
  c.queue_dput(0, 1);
  c.queue_dupdate(6, kMax);
  c.queue_dremove(kMax);
  c.queue({Opcode::kPut, 6, 60});
  c.queue({Opcode::kGet, 6});
  std::vector<Response> resp;
  c.flush(&resp);
  using O = std::optional<std::uint64_t>;
  const auto err = std::make_pair(Status::kError, O());
  const std::vector<std::pair<Status, O>> want = {
      {Status::kOk, O(50)}, err, {Status::kNotFound, std::nullopt}, err,
      {Status::kOk, O(50)}, err, err, err, err, err, err, err, err,
      {Status::kCreated, std::nullopt}, {Status::kOk, O(60)}};
  EXPECT_EQ(outcomes(resp), want);
  EXPECT_TRUE(c.ping());
  Client d = f.connect();
  EXPECT_TRUE(d.ping());
  EXPECT_EQ(d.get(5), std::optional<std::uint64_t>(50));
}

TEST(ServerLoopback, ConnectionsSpreadAcrossWorkers) {
  ServerFixture f(4);
  // A lone connection stays on the worker that accepted it.
  Client first = f.connect();
  ASSERT_TRUE(first.ping());
  std::vector<std::uint64_t> load = worker_connections(first.stats_json());
  ASSERT_EQ(load.size(), 4u);
  EXPECT_EQ(std::count(load.begin(), load.end(), 1u), 1);
  EXPECT_EQ(std::count(load.begin(), load.end(), 0u), 3);
  EXPECT_EQ(f.srv->stats().connections_handed_off.load(), 0u);

  // Each further connection lands on a worker that has none.
  std::vector<Client> more;
  for (int i = 0; i < 3; ++i) {
    more.push_back(f.connect());
    ASSERT_TRUE(more.back().ping());
  }
  load = worker_connections(first.stats_json());
  EXPECT_EQ(load, std::vector<std::uint64_t>(4, 1u));

  // Closed connections leave the counts; only the probe remains.
  more.clear();
  first.close();
  Client probe = f.connect();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    load = worker_connections(probe.stats_json());
    if (std::accumulate(load.begin(), load.end(), std::uint64_t{0}) == 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(std::accumulate(load.begin(), load.end(), std::uint64_t{0}), 1u);
  EXPECT_EQ(f.srv->stats().connections_accepted.load() -
                f.srv->stats().connections_closed.load(),
            1u);
}

}  // namespace
}  // namespace upsl::server
