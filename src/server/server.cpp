#include "server/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/shardmap.hpp"
#include "common/thread_registry.hpp"
#include "pmem/ack_batch.hpp"
#include "pmem/persist.hpp"
#include "server/protocol.hpp"

namespace upsl::server {

namespace {

std::atomic<bool> g_signal_stop{false};

void on_stop_signal(int) { g_signal_stop.store(true, std::memory_order_release); }

/// Keys 0 and ~0 are the store's head and tail sentinels, and value ~0 is
/// its tombstone (core/node.hpp); the store throws on them. A request that
/// carries one is answered kError without reaching the store.
bool has_reserved_operand(const Request& r) {
  const bool key = r.key == core::kNullKey || r.key == core::kTailKey;
  switch (r.op) {
    case Opcode::kGet:
    case Opcode::kRemove:
    case Opcode::kDRemove:
      return key;
    case Opcode::kPut:
    case Opcode::kUpdate:
    case Opcode::kDPut:
    case Opcode::kDUpdate:
      return key || r.value == core::kTombstone;
    default:
      return false;
  }
}

/// Shard index marking a GET that is answered kError instead of searched.
constexpr std::uint32_t kReservedGet = ~0u;

#ifndef EPOLLEXCLUSIVE
#define EPOLLEXCLUSIVE (1u << 28)
#endif

}  // namespace

/// One TCP connection, owned by exactly one worker. `in` accumulates raw
/// bytes until complete frames can be parsed; `out` holds encoded responses
/// not yet accepted by the kernel (out_off bytes already sent). Every byte
/// in `out` outside the batch being executed is already acked durable: a
/// batch flushes its responses only after its ack fence.
///
/// A peer FIN only ends the input side: what arrived before it is executed
/// and every response is still delivered before the socket closes
/// (close_after_flush).
struct Server::Conn {
  int fd = -1;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::uint32_t events = EPOLLIN;  // epoll interest currently registered
  bool close_after_flush = false;  // peer sent FIN: close once out drains
  /// Detectable session (docs/detectability.md): the client identity the
  /// connection last opened with HELLO (0 = none), plus this client's
  /// session slot on each shard, all opened by HELLO (and reopened on use
  /// if evicted since). Slots are per-shard because the session table
  /// lives in each shard's own pool — routing stays shard-local.
  std::uint64_t client_id = 0;
  std::vector<std::int32_t> session_slots;

  bool has_pending_out() const { return out_off < out.size(); }
};

struct Server::Worker {
  int epoll_fd = -1;
  /// Poked after another worker hands a connection to this one's inbox.
  int event_fd = -1;
  std::unordered_map<int, Conn> conns;
  /// Connections placed on this worker and not yet closed, inbox included:
  /// what placement compares and what STATS reports.
  std::atomic<std::uint32_t> connections{0};
  std::atomic<std::uint64_t> frames{0};  // written by this worker only
  /// Accepted sockets another worker handed to this one.
  std::mutex inbox_mu;
  std::vector<int> inbox;
  /// The current run of consecutive GETs in execute_batch, plus one shard's
  /// search_many keys and results. Reused across batches.
  struct PendingGet {
    std::uint64_t key;
    std::uint32_t shard;  // kReservedGet: answered kError, never searched
    std::optional<std::uint64_t> value;
  };
  std::vector<PendingGet> gets;
  std::vector<std::uint64_t> shard_keys;
  std::vector<std::optional<std::uint64_t>> shard_vals;
};

Server::Server(core::UPSkipList& store, ServerOptions opts)
    : stores_{&store}, opts_(std::move(opts)) {
  if (opts_.workers == 0) opts_.workers = 1;
}

Server::Server(core::ShardSet& shards, ServerOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.workers == 0) opts_.workers = 1;
  stores_.reserve(shards.shard_count());
  for (std::uint32_t i = 0; i < shards.shard_count(); ++i)
    stores_.push_back(&shards.shard(i));
}

Server::~Server() {
  stop();
  wait();
}

void Server::install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

bool Server::signal_stop_requested() {
  return g_signal_stop.load(std::memory_order_acquire);
}

void Server::reset_signal_stop_for_testing() {
  g_signal_stop.store(false, std::memory_order_release);
}

unsigned Server::max_workers() const {
  auto cap = static_cast<std::uint32_t>(kMaxThreads);
  for (const core::UPSkipList* s : stores_)
    cap = std::min(cap, s->thread_capacity());
  return cap > opts_.first_thread_id ? cap - opts_.first_thread_id : 0;
}

bool Server::start() {
  const auto shards = static_cast<std::uint32_t>(stores_.size());
  if (opts_.workers > max_workers()) {
    errno = EINVAL;  // a worker past its arenas would throw on allocation
    return false;
  }
  auto fail = [&] {
    for (auto& w : workers_) {
      if (w->event_fd >= 0) ::close(w->event_fd);
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    }
    workers_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    bound_port_ = 0;
    return false;
  };

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail();
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 256) != 0) {
    return fail();
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  shard_ops_ = std::make_unique<std::atomic<std::uint64_t>[]>(shards);
  for (std::uint32_t s = 0; s < shards; ++s)
    shard_ops_[s].store(0, std::memory_order_relaxed);

  for (unsigned i = 0; i < opts_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (w->epoll_fd >= 0)
      w->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->epoll_fd < 0 || w->event_fd < 0) {
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
      return fail();
    }
    epoll_event ev = {};
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    epoll_event eev = {};
    eev.events = EPOLLIN;
    eev.data.fd = w->event_fd;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &eev);
    workers_.push_back(std::move(w));
  }

  started_ = true;
  for (unsigned i = 0; i < opts_.workers; ++i)
    threads_.emplace_back([this, i] { worker_main(i); });
  return true;
}

void Server::wait() {
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
  if (started_ && !stopped_) {
    stopped_ = true;
    for (auto& w : workers_) {
      // Handed to a worker after it drained: never served, so just closed.
      for (const int fd : w->inbox) {
        ::close(fd);
        w->connections.fetch_sub(1, std::memory_order_relaxed);
        stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      }
      w->inbox.clear();
      ::close(w->event_fd);
      ::close(w->epoll_fd);
    }
    workers_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    // Drain complete: everything executed is already durable (the store
    // persists per operation); a final fence orders the shutdown for any
    // unfenced trailing flushes before the process exits.
    pmem::fence();
  }
}

void Server::worker_main(unsigned index) {
  Worker& w = *workers_[index];
  ThreadRegistry::instance().bind(
      static_cast<int>(opts_.first_thread_id + index));
  epoll_event events[64];
  bool draining = false;

  while (true) {
    if (!draining &&
        (stop_.load(std::memory_order_acquire) || signal_stop_requested())) {
      draining = true;
      // Every worker sees the same flag; each deregisters the listen fd from
      // its own epoll set. Closing it is left to wait() — workers may still
      // be mid-accept.
      ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      drain_worker(w);
      return;
    }
    const int n = ::epoll_wait(w.epoll_fd, events, 64, 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        while (true) {
          const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                    SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;  // EAGAIN (or a raced accept) — done for now
          const int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
          place(w, cfd);
        }
        continue;
      }
      if (fd == w.event_fd) {
        // A connection was handed over. Consume the wake before taking the
        // inbox, so a handoff after the take wakes us again.
        std::uint64_t ticks;
        while (::read(w.event_fd, &ticks, sizeof ticks) > 0) {
        }
        adopt_inbox(w);
        continue;
      }
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;  // already closed this sweep
      Conn& c = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(w, c);
      } else {
        if ((events[i].events & EPOLLOUT) != 0) flush_out(w, c);
        if (c.fd >= 0 && (events[i].events & EPOLLIN) != 0)
          handle_readable(w, c);
      }
      // close_conn() only marks the connection dead (the reference stays
      // valid through the handlers above); reap it here.
      if (c.fd < 0) w.conns.erase(it);
    }
  }
}

/// Connection placement: the accepting worker keeps the connection unless
/// another worker has strictly fewer, in which case the first such
/// least-loaded worker gets it through its inbox. A lone connection (say,
/// the first one after a restart) is therefore never handed off.
void Server::place(Worker& w, int fd) {
  Worker* owner = &w;
  std::uint32_t least = w.connections.load(std::memory_order_relaxed);
  for (const auto& p : workers_) {
    Worker& v = *p;
    const std::uint32_t load = v.connections.load(std::memory_order_relaxed);
    if (load < least) {
      owner = &v;
      least = load;
    }
  }
  owner->connections.fetch_add(1, std::memory_order_relaxed);
  if (owner == &w) {
    adopt(w, fd);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(owner->inbox_mu);
    owner->inbox.push_back(fd);
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(owner->event_fd, &one, sizeof one);
  stats_.connections_handed_off.fetch_add(1, std::memory_order_relaxed);
}

void Server::adopt(Worker& w, int fd) {
  epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    w.connections.fetch_sub(1, std::memory_order_relaxed);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  w.conns[fd].fd = fd;
}

void Server::adopt_inbox(Worker& w) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(w.inbox_mu);
    fds.swap(w.inbox);
  }
  for (const int fd : fds) adopt(w, fd);
}

void Server::handle_readable(Worker& w, Conn& c) {
  // Drain the socket into the connection's input buffer.
  char buf[64 * 1024];
  bool peer_closed = false;
  while (true) {
    const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
    if (r > 0) {
      c.in.insert(c.in.end(), buf, buf + r);
      // Refuse to buffer unboundedly: a peer that streams more than a full
      // frame's worth without ever completing one is misbehaving.
      if (c.in.size() > kHeaderBytes + kMaxBody + sizeof buf) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        close_conn(w, c);
        return;
      }
      continue;
    }
    if (r == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(w, c);
    return;
  }

  // Execute everything that arrived; keep going while full batches keep
  // parsing so a deep pipeline completes before the next epoll_wait.
  while (execute_batch(w, c)) {
  }
  if (c.fd < 0) return;
  if (peer_closed) {
    // Half-close: the peer may still be reading. Everything it sent is
    // executed above; flush_out drops EPOLLIN (level-triggered EOF would
    // wake this worker forever) and closes once every response has left.
    c.close_after_flush = true;
    flush_out(w, c);
  }
}

/// Parses and executes up to max_batch frames from c.in, encodes responses
/// into c.out, then commits the batch: one ack fence if anything mutated,
/// then one send() for all responses. Returns true if a full batch was
/// executed and more complete frames may still be buffered.
///
/// Consecutive GETs are collected into a run and searched together per
/// shard (UPSkipList::search_many). The run executes before any other op
/// and at the end of the batch, so responses and read-your-writes keep
/// pipeline order.
bool Server::execute_batch(Worker& w, Conn& c) {
  std::size_t off = 0;
  unsigned executed = 0;
  unsigned mutations = 0;
  // Batch-wide deferred-ack scope (docs/write-path.md): every mutation's
  // ack-gating line flushes are collected here — deduped across the whole
  // pipelined batch, not per op — and commit below under a single fence.
  // The fence is CPU-global, so it covers every shard's lines.
  pmem::AckBatch ab;
  const auto shards = static_cast<std::uint32_t>(stores_.size());
  while (executed < opts_.max_batch) {
    Request req;
    std::size_t consumed = 0;
    const ParseResult pr =
        parse_request(c.in.data() + off, c.in.size() - off, &req, &consumed);
    if (pr == ParseResult::kBad) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      w.gets.clear();
      close_conn(w, c);
      return false;
    }
    if (pr == ParseResult::kNeedMore) break;
    off += consumed;
    ++executed;
    if (req.op == Opcode::kGet) {
      w.gets.push_back({req.key,
                        has_reserved_operand(req)
                            ? kReservedGet
                            : shard_of_key(req.key, shards),
                        std::nullopt});
      continue;
    }
    execute_gets(w, c);
    bool op_mutated = false;
    // A SCANS response may stream each chunk frame out as soon as it is
    // encoded — but only when no mutation earlier in this batch still waits
    // for the batch fence. Everything ahead of it in c.out is then a
    // read-only response or an ack an earlier batch already fenced.
    execute_one(w, c, req, c.out, &op_mutated, /*allow_stream=*/mutations == 0);
    if (op_mutated) ++mutations;
    if (c.fd < 0) return false;  // a streaming flush hit a dead socket
  }
  execute_gets(w, c);
  if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + off);
  if (executed == 0) return false;

  stats_.frames.fetch_add(executed, std::memory_order_relaxed);
  w.frames.store(w.frames.load(std::memory_order_relaxed) + executed,
                 std::memory_order_relaxed);
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  if (mutations > 0) {
    // The ack gate: flush the batch's deferred lines and fence once before
    // any response byte leaves — the coalesced equivalent of fencing per
    // acknowledgement.
    ab.commit_fenced();
    stats_.batch_fences.fetch_add(1, std::memory_order_relaxed);
  }
  flush_out(w, c);
  return c.fd >= 0 && executed == opts_.max_batch && !c.in.empty();
}

void Server::execute_gets(Worker& w, Conn& c) {
  if (w.gets.empty()) return;
  stats_.gets.fetch_add(w.gets.size(), std::memory_order_relaxed);
  for (std::uint32_t s = 0; s < stores_.size(); ++s) {
    w.shard_keys.clear();
    for (const Worker::PendingGet& g : w.gets)
      if (g.shard == s) w.shard_keys.push_back(g.key);
    const std::size_t m = w.shard_keys.size();
    if (m == 0) continue;
    shard_ops_[s].fetch_add(m, std::memory_order_relaxed);
    w.shard_vals.resize(m);
    stores_[s]->search_many(w.shard_keys.data(), m, w.shard_vals.data());
    auto v = w.shard_vals.begin();
    for (Worker::PendingGet& g : w.gets)
      if (g.shard == s) g.value = *v++;
  }
  for (const Worker::PendingGet& g : w.gets) {
    if (g.shard == kReservedGet)
      encode_response_empty(Status::kError, c.out);
    else if (g.value)
      encode_response_value(Status::kOk, *g.value, c.out);
    else
      encode_response_empty(Status::kNotFound, c.out);
  }
  w.gets.clear();
}

void Server::execute_one(Worker& w, Conn& c, const Request& req,
                         std::vector<std::uint8_t>& out, bool* mutated,
                         bool allow_stream) {
  const auto shards = static_cast<std::uint32_t>(stores_.size());
  // Routing: the key picks the store that owns it.
  auto route_idx = [&](std::uint64_t key) -> std::uint32_t {
    const std::uint32_t s = shard_of_key(key, shards);
    shard_ops_[s].fetch_add(1, std::memory_order_relaxed);
    return s;
  };
  auto route = [&](std::uint64_t key) -> core::UPSkipList& {
    return *stores_[route_idx(key)];
  };
  // The connection's session slot on shard s, opened on first use. The slot
  // index is a pure cache — the durable identity is (client_id, seq); a
  // reconnect re-finds the same slot through open_session. Revalidate the
  // cache against the slot's current owner on every use: with more live
  // clients than slots, another connection's open_session can evict this
  // session and hand the slot to a new identity, and a stale index must
  // never read or write the new owner's dedup state. (Eviction racing the
  // op itself is then confined to the instants between this check and the
  // slot write — versus an unbounded stale cache.)
  auto session_slot = [&](std::uint32_t s) -> std::int32_t {
    if (c.session_slots.size() != shards) c.session_slots.assign(shards, -1);
    std::int32_t slot = c.session_slots[s];
    if (slot >= 0 && stores_[s]->sessions().client_id(
                         static_cast<std::uint32_t>(slot)) != c.client_id)
      slot = -1;  // evicted since cached: reclaim through open_session
    if (slot < 0) slot = stores_[s]->sessions().open_session(c.client_id);
    c.session_slots[s] = slot;
    return slot;
  };
  // Shared tail of DPUT/DUPDATE/DREMOVE: count a dedup hit, encode the
  // (original or fresh) result with PUT/REMOVE response shapes.
  auto finish_detect = [&](const core::UPSkipList::DetectOutcome& r,
                           Status fresh_empty_status) {
    *mutated = !r.duplicate;  // a fresh op always dirtied the session slot
    if (r.duplicate)
      stats_.detect_dups.fetch_add(1, std::memory_order_relaxed);
    if (!r.result_known) {
      // Applied, but the answer aged out of the session's result ring —
      // only reachable by replaying past the ring window.
      encode_response_empty(Status::kError, out);
    } else if (r.previous) {
      encode_response_value(Status::kOk, *r.previous, out);
    } else {
      encode_response_empty(fresh_empty_status, out);
    }
  };
  if (has_reserved_operand(req)) {
    encode_response_empty(Status::kError, out);
    return;
  }
  switch (req.op) {
    case Opcode::kGet:  // execute_batch runs GETs through execute_gets
      break;
    case Opcode::kPut:
    case Opcode::kUpdate: {
      stats_.puts.fetch_add(1, std::memory_order_relaxed);
      const auto old = route(req.key).insert(req.key, req.value);
      *mutated = true;
      if (old)
        encode_response_value(Status::kOk, *old, out);
      else
        encode_response_empty(Status::kCreated, out);
      break;
    }
    case Opcode::kRemove: {
      stats_.removes.fetch_add(1, std::memory_order_relaxed);
      const auto old = route(req.key).remove(req.key);
      if (old) {
        *mutated = true;
        encode_response_value(Status::kOk, *old, out);
      } else {
        encode_response_empty(Status::kNotFound, out);
      }
      break;
    }
    case Opcode::kScan: {
      stats_.scans.fetch_add(1, std::memory_order_relaxed);
      const std::uint32_t limit =
          std::min(req.limit == 0 ? kMaxScanEntries : req.limit,
                   kMaxScanEntries);
      // Cross-shard k-way merge: a SCAN covers the whole key space, in
      // global key order (core::scan_merged).
      std::vector<core::ScanEntry> entries;
      core::scan_merged(stores_.data(), shards, req.key, req.value, limit,
                        entries);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> kv;
      kv.reserve(entries.size());
      for (const auto& e : entries) kv.emplace_back(e.key, e.value);
      encode_response_scan(kv.data(), static_cast<std::uint32_t>(kv.size()),
                           out);
      break;
    }
    case Opcode::kScanStream: {
      stats_.scans.fetch_add(1, std::memory_order_relaxed);
      const std::uint32_t limit =
          std::min(req.limit == 0 ? kMaxScanEntries : req.limit,
                   kMaxScanEntries);
      const std::uint32_t chunk =
          std::min(req.chunk == 0 ? kDefaultScanChunk : req.chunk,
                   kMaxScanChunkEntries);
      // Streaming chunked scan (docs/scan.md): an incremental k-way merge
      // pulls bounded per-shard chunks, and each protocol frame is encoded
      // (and, when allow_stream permits, flushed) as soon as its entries are
      // merged — the first frame leaves before any shard has been fully
      // scanned. Truncation at the per-request cap is resumable: the final
      // frame carries the smallest un-emitted key.
      core::MergedScanCursor cursor(stores_.data(), shards, req.key, req.value,
                                    std::min<std::size_t>(chunk, limit));
      std::vector<core::ScanEntry> entries;
      std::vector<ScanEntryPair> kv;
      std::uint32_t produced = 0;
      while (true) {
        entries.clear();
        kv.clear();
        const std::size_t want = std::min<std::size_t>(chunk, limit - produced);
        cursor.next(want, entries);
        produced += static_cast<std::uint32_t>(entries.size());
        kv.reserve(entries.size());
        for (const auto& e : entries) kv.emplace_back(e.key, e.value);
        const bool exhausted = cursor.exhausted();
        const bool truncated = produced >= limit && !exhausted;
        const bool final_chunk = exhausted || truncated;
        encode_response_scan_chunk(kv.data(),
                                   static_cast<std::uint32_t>(kv.size()),
                                   final_chunk,
                                   truncated ? cursor.resume_key() : 0, out);
        if (allow_stream && &out == &c.out) {
          flush_out(w, c);
          if (c.fd < 0) return;
        }
        if (final_chunk) break;
      }
      break;
    }
    case Opcode::kStats:
      encode_response_blob(Status::kOk, stats_json(), out);
      break;
    case Opcode::kPing:
      encode_response_empty(Status::kOk, out);
      break;
    case Opcode::kValidate: {
      // Admin op: full structural check (per-node sorting, level nesting,
      // bottom-level order) across every shard. Best run against a
      // quiescent store — a check racing live writers can report transient
      // states.
      std::string json;
      Status st = Status::kOk;
      try {
        std::size_t nodes = 0;
        for (core::UPSkipList* s : stores_) {
          s->check_invariants();
          nodes += s->count_nodes();
        }
        json = "{\"valid\": true, \"nodes\": " + std::to_string(nodes) +
               ", \"epoch\": " + std::to_string(stores_[0]->epoch()) +
               ", \"shards\": " + std::to_string(shards) + "}";
      } catch (const std::exception& e) {
        st = Status::kError;
        std::string msg;
        for (const char* c = e.what(); *c != '\0'; ++c)
          msg += (*c == '"' || *c == '\\') ? ' ' : *c;
        json = "{\"valid\": false, \"error\": \"" + msg + "\"}";
      }
      encode_response_blob(st, json, out);
      break;
    }
    case Opcode::kFsck: {
      // Admin op (docs/integrity.md): deep integrity re-check — re-walks
      // every shard's bottom level verifying checksum stamps, merges the
      // allocator quarantine counters and the open-time verdict, and
      // returns the full report (degraded flag, counters, lost key
      // ranges). Like VALIDATE, best run against a quiescent store.
      std::string json;
      Status st = Status::kOk;
      try {
        core::IntegrityReport rep;
        for (core::UPSkipList* s : stores_) rep.merge(s->verify_deep());
        json = rep.to_json();
      } catch (const std::exception& e) {
        st = Status::kError;
        std::string msg;
        for (const char* ch = e.what(); *ch != '\0'; ++ch)
          msg += (*ch == '"' || *ch == '\\') ? ' ' : *ch;
        json = "{\"degraded\": true, \"error\": \"" + msg + "\"}";
      }
      encode_response_blob(st, json, out);
      break;
    }
    case Opcode::kHello: {
      stats_.hellos.fetch_add(1, std::memory_order_relaxed);
      if (req.client_id == 0) {
        encode_response_empty(Status::kError, out);
        break;
      }
      c.client_id = req.client_id;
      c.session_slots.assign(shards, -1);
      // Open the session on every shard now: a pipeline that dies before
      // its ops reach a shard must still resolve there as "not applied"
      // (state 1), which needs a durable session on that shard. The answer
      // carries shard 0's epoch. A slot of -1 (legacy store, tiny root area,
      // or UPSL_DISABLE_DETECT) still answers kOk with epoch 0: the session
      // is accepted but detectable ops degrade to plain ones.
      for (std::uint32_t s = 1; s < shards; ++s) session_slot(s);
      const std::int32_t slot = session_slot(0);
      encode_response_value(
          Status::kOk,
          slot >= 0 ? stores_[0]->sessions().session_epoch(
                          static_cast<std::uint32_t>(slot))
                    : 0,
          out);
      break;
    }
    case Opcode::kResolve: {
      stats_.resolves.fetch_add(1, std::memory_order_relaxed);
      // key routes to the shard owning the op being asked about (sessions
      // are per shard); key 0 = shard 0. One connection's seqs span shards,
      // and each shard's table sees a monotonic subsequence of them.
      const std::uint32_t s =
          req.key == 0 ? 0 : shard_of_key(req.key, shards);
      const detect::ResolveResult r =
          stores_[s]->sessions().resolve(req.client_id, req.seq);
      encode_response_resolve(static_cast<std::uint32_t>(r.state),
                              r.has_previous, r.result, out);
      break;
    }
    case Opcode::kDPut:
    case Opcode::kDUpdate: {
      stats_.puts.fetch_add(1, std::memory_order_relaxed);
      // Reject both the missing HELLO and the reserved seq 0 (the result
      // ring's empty sentinel — valid seqs start at 1).
      if (c.client_id == 0 || req.seq == 0) {
        encode_response_empty(Status::kError, out);
        break;
      }
      const std::uint32_t s = route_idx(req.key);
      finish_detect(stores_[s]->insert_detect(req.key, req.value,
                                              session_slot(s), req.seq),
                    Status::kCreated);
      break;
    }
    case Opcode::kDRemove: {
      stats_.removes.fetch_add(1, std::memory_order_relaxed);
      if (c.client_id == 0 || req.seq == 0) {
        encode_response_empty(Status::kError, out);
        break;
      }
      const std::uint32_t s = route_idx(req.key);
      finish_detect(stores_[s]->remove_detect(req.key, session_slot(s),
                                              req.seq),
                    Status::kNotFound);
      break;
    }
  }
}

void Server::flush_out(Worker& w, Conn& c) {
  if (c.fd < 0) return;
  while (c.has_pending_out()) {
    const ssize_t s = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (s > 0) {
      c.out_off += static_cast<std::size_t>(s);
      continue;
    }
    if (s < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (s < 0 && errno == EINTR) continue;
    close_conn(w, c);
    return;
  }
  if (c.out_off == c.out.size() && !c.out.empty()) {
    c.out.clear();  // fully sent: recycle the buffer
    c.out_off = 0;
  }
  if (c.close_after_flush && !c.has_pending_out()) {
    close_conn(w, c);
    return;
  }
  // EPOLLOUT covers kernel backpressure; EPOLLIN stays registered until the
  // peer's FIN.
  const std::uint32_t events = (c.close_after_flush ? 0u : EPOLLIN) |
                               (c.has_pending_out() ? EPOLLOUT : 0u);
  if (events != c.events) {
    epoll_event ev = {};
    ev.events = events;
    ev.data.fd = c.fd;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
    c.events = events;
  }
}

/// Tears the socket down and marks the Conn dead (fd = -1). Deliberately
/// does NOT erase it from the worker's map — callers up the stack still hold
/// a reference; the event/drain loop reaps dead entries.
void Server::close_conn(Worker& w, Conn& c) {
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  w.connections.fetch_sub(1, std::memory_order_relaxed);
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

/// Graceful drain: execute what is already buffered on every connection,
/// push out the responses (blocking with a deadline — the sockets are
/// non-blocking, so poll for writability), close everything.
void Server::drain_worker(Worker& w) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(opts_.drain_timeout_sec);
  adopt_inbox(w);
  std::vector<int> fds;
  fds.reserve(w.conns.size());
  for (auto& [fd, conn] : w.conns) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = w.conns.find(fd);
    if (it == w.conns.end()) continue;
    Conn& c = it->second;
    // Execute the requests the peer already sent (they may be unread in the
    // socket buffer: take one last non-blocking slurp).
    char buf[64 * 1024];
    while (true) {
      const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
      if (r > 0) {
        c.in.insert(c.in.end(), buf, buf + r);
        continue;
      }
      break;
    }
    while (execute_batch(w, c)) {
    }
    if (c.fd < 0) continue;
    while (c.has_pending_out() &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd = {c.fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      flush_out(w, c);
      if (c.fd < 0) break;
    }
    if (c.fd >= 0) close_conn(w, c);
  }
}

std::string Server::stats_json() const {
  auto u64 = [](const char* k, std::uint64_t v) {
    return "\"" + std::string(k) + "\": " + std::to_string(v);
  };
  const auto& s = stats_;
  std::string json = "{";
  json += "\"server\": {";
  json += std::string("\"data_plane\": \"") + data_plane() + "\", ";
  json += u64("connections_accepted",
              s.connections_accepted.load(std::memory_order_relaxed)) + ", ";
  json += u64("connections_closed",
              s.connections_closed.load(std::memory_order_relaxed)) + ", ";
  json += u64("connections_handed_off",
              s.connections_handed_off.load(std::memory_order_relaxed)) + ", ";
  json += u64("frames", s.frames.load(std::memory_order_relaxed)) + ", ";
  json += u64("batches", s.batches.load(std::memory_order_relaxed)) + ", ";
  json += u64("batch_fences",
              s.batch_fences.load(std::memory_order_relaxed)) + ", ";
  json += u64("protocol_errors",
              s.protocol_errors.load(std::memory_order_relaxed)) + ", ";
  json += u64("gets", s.gets.load(std::memory_order_relaxed)) + ", ";
  json += u64("puts", s.puts.load(std::memory_order_relaxed)) + ", ";
  json += u64("removes", s.removes.load(std::memory_order_relaxed)) + ", ";
  json += u64("scans", s.scans.load(std::memory_order_relaxed));
  json += "}, ";
  json += "\"detect\": {";
  json += std::string("\"enabled\": ") +
          (detect::detect_enabled() && stores_[0]->sessions().valid()
               ? "true"
               : "false") + ", ";
  json += u64("session_slots", stores_[0]->sessions().slot_count()) + ", ";
  json += u64("recovered_sessions",
              stores_[0]->sessions().recovered_sessions()) + ", ";
  json += u64("hellos", s.hellos.load(std::memory_order_relaxed)) + ", ";
  json += u64("resolves", s.resolves.load(std::memory_order_relaxed)) + ", ";
  json += u64("dedup_hits",
              s.detect_dups.load(std::memory_order_relaxed));
  json += "}, ";
  // Shard 0's epoch/index stay at the top level for pre-sharding consumers;
  // the "shards" array is the full per-shard picture. The trailing "pmem"
  // rollup is process-global (pmem::Stats is one singleton), i.e. already
  // the merged view across every shard's pools and workers.
  json += u64("epoch", stores_[0]->epoch()) + ", ";
  json += "\"index\": {";
  json += std::string("\"dram\": ") +
          (stores_[0]->dram_index_enabled() ? "true" : "false") + ", ";
  json += u64("entries", stores_[0]->index_entries()) + ", ";
  json += u64("rebuild_ns", stores_[0]->last_index_rebuild_ns());
  json += "}, ";
  json += u64("shard_count", stores_.size()) + ", ";
  json += "\"shards\": [";
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    const core::UPSkipList* st = stores_[i];
    if (i > 0) json += ", ";
    json += "{";
    json += u64("epoch", st->epoch()) + ", ";
    json += u64("ops", shard_ops_ != nullptr
                           ? shard_ops_[i].load(std::memory_order_relaxed)
                           : 0) + ", ";
    json += u64("index_entries", st->index_entries()) + ", ";
    json += u64("index_rebuild_ns", st->last_index_rebuild_ns());
    json += "}";
  }
  json += "], ";
  // Per-worker load: live connections, from the same counter placement
  // compares, and frames executed.
  json += "\"workers\": [";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{" +
            u64("connections",
                workers_[i]->connections.load(std::memory_order_relaxed)) +
            ", " +
            u64("frames", workers_[i]->frames.load(std::memory_order_relaxed)) +
            "}";
  }
  json += "], ";
  // Write path (docs/write-path.md): every mutation batch fences its own
  // acks, so group commit reads "off" for consumers of the old section.
  json += "\"group_commit\": \"off\", ";
  json += std::string("\"mod_writes\": ") +
          (pmem::mod_writes_enabled() ? "true" : "false") + ", ";
  // Open-time integrity verdict, merged across shards (docs/integrity.md):
  // what recovery detected and quarantined when these stores attached. The
  // FSCK opcode re-walks the store for a fresh deep check; this section is
  // the cheap always-available summary.
  core::IntegrityReport integ;
  for (const core::UPSkipList* st : stores_) integ.merge(st->integrity());
  json += "\"integrity\": " + integ.to_json() + ", ";
  json += "\"pmem\": " + pmem::Stats::instance().snapshot().to_json();
  json += "}";
  return json;
}

}  // namespace upsl::server
