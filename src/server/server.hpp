// upsl-serve: a multi-threaded TCP front-end over a sharded store, served by
// one epoll readiness loop per worker (docs/scan.md §4 records the A/B that
// keeps it the only data plane).
//
// Sharding (docs/server.md): the key space is hash-partitioned across N
// independent UPSkipList shards (common/shardmap.hpp). Shards are pure data
// partitions: one listen socket and one pool of workers serve all of them,
// and any worker executes any key against the store that owns it
// (shard_of_key). SCAN answers with a cross-shard k-way merge in global key
// order. N=1 is bit-compatible with the pre-sharding server.
//
// Threading model: W worker threads, each with its own epoll instance. The
// (non-blocking) listen socket is registered level-triggered in every
// worker's epoll set with EPOLLEXCLUSIVE, so the kernel wakes one worker per
// pending connection. That worker places the connection: it keeps it unless
// another worker has strictly fewer live connections, and then hands it over
// through that worker's inbox and wake eventfd. The owner serves the
// connection for its whole life — per-connection state is never shared
// between threads.
//
// Pipelining: a wakeup drains the socket, parses every complete frame that
// arrived, executes the whole batch back-to-back against the store, and only
// then writes the concatenated responses with one send(). Runs of
// consecutive GETs are searched together (UPSkipList::search_many), so their
// index descents overlap; the run executes before the next other op.
//
// Acks (docs/write-path.md): a batch executes inside one pmem::AckBatch, so
// each mutation's ack-gating line flushes are deferred and deduped across
// the whole batch. A batch that mutated calls commit_fenced() once — one
// flush set and one fence — before any of its response bytes leave, and
// the same worker then sends them in the same wakeup. Nothing is parked and
// no other thread is involved: a mutation's response leaves only after its
// batch's commit_fenced(). A peer's half-close (FIN) ends only its input:
// the frames it sent before the FIN are executed and every response is
// delivered before the server closes the socket.
//
// Lifecycle: construct over already-recovered stores (the caller runs
// Pool::open + UPSkipList/ShardSet::open first — the listen socket must not
// exist before recovery has run), start(), then wait(). stop() — or a
// SIGTERM/SIGINT routed through install_signal_handlers() — triggers a
// graceful drain: the listen socket closes (no new connections), every
// worker executes the requests already buffered on its connections, flushes
// pending responses, and exits. wait() returns once all workers are done.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/shard_set.hpp"
#include "core/upskiplist.hpp"

namespace upsl::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// The one listen port, for every shard. 0 = let the kernel pick an
  /// ephemeral port (query it via port()).
  std::uint16_t port = 0;
  /// Worker threads serving all shards.
  unsigned workers = 4;
  /// ThreadRegistry slot of worker 0; worker i binds first_thread_id + i.
  /// Keep the range distinct from the ids other threads in the process use,
  /// and below every shard's Options::max_threads — any worker executes
  /// against any shard under its own id.
  unsigned first_thread_id = 1;
  /// Most frames executed per connection per wakeup; a connection with more
  /// buffered input is revisited before the next epoll_wait so one noisy
  /// pipeliner cannot starve its worker's other connections.
  unsigned max_batch = 64;
  /// Seconds a draining worker will wait for blocked response bytes.
  unsigned drain_timeout_sec = 5;
  /// Inert: the window of the retired cross-connection group commit. Every
  /// mutation batch now fences itself (docs/write-path.md), so nothing
  /// reads this; it stays settable for callers written against it, and
  /// commit_window_us() reports 0.
  std::uint32_t commit_window_us = 50;
};

/// Monotonic serving counters, exposed through the STATS command.
struct ServerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  /// Accepted connections placed on a less-loaded worker than the one the
  /// kernel woke to accept them.
  std::atomic<std::uint64_t> connections_handed_off{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> batches{0};
  /// Batches that mutated, each closed by one ack fence.
  std::atomic<std::uint64_t> batch_fences{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> removes{0};
  std::atomic<std::uint64_t> scans{0};
  /// Detectable-session traffic (docs/detectability.md): HELLO handshakes,
  /// RESOLVE queries, and replayed (deduplicated) detectable mutations.
  std::atomic<std::uint64_t> hellos{0};
  std::atomic<std::uint64_t> resolves{0};
  std::atomic<std::uint64_t> detect_dups{0};
};

class Server {
 public:
  /// Unsharded (N=1) server over one store — the pre-sharding configuration.
  Server(core::UPSkipList& store, ServerOptions opts);
  /// Sharded server: one listen socket and one worker pool in front of
  /// every shard. The ShardSet must outlive the server.
  Server(core::ShardSet& shards, ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the workers. False (with errno intact) if
  /// the socket could not be set up, or with errno EINVAL if
  /// ServerOptions::workers exceeds max_workers(); no threads are running
  /// then.
  bool start();

  /// Most workers the stores can serve with: every worker id
  /// (first_thread_id + i) needs an allocation arena on every shard, and
  /// a store's arenas are fixed when it is created.
  unsigned max_workers() const;

  /// Port actually bound (resolves port 0). Valid after start().
  std::uint16_t port() const { return bound_port_; }

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(stores_.size());
  }

  /// Request a graceful drain. Safe to call from any thread, repeatedly.
  void stop() { stop_.store(true, std::memory_order_release); }

  /// Blocks until every worker has drained and exited.
  void wait();

  bool running() const { return started_ && !stopped_; }

  const ServerStats& stats() const { return stats_; }

  /// Always false: acks are fenced per executed batch, never shared across
  /// connections. Kept, like data_plane(), for reports that print it.
  bool group_commit_enabled() const { return false; }

  /// Always 0: no ack waits on a commit window.
  std::uint32_t commit_window_us() const { return 0; }

  /// The data plane the workers run, as reported in STATS: always "epoll".
  const char* data_plane() const { return "epoll"; }

  /// Route SIGTERM/SIGINT to a process-wide stop flag every running Server
  /// polls (the handler only stores to an atomic — async-signal-safe).
  static void install_signal_handlers();
  /// The process-wide flag, for tests and for main()'s exit message.
  static bool signal_stop_requested();
  static void reset_signal_stop_for_testing();

 private:
  struct Conn;
  struct Worker;

  void worker_main(unsigned index);
  void handle_readable(Worker& w, Conn& c);
  bool execute_batch(Worker& w, Conn& c);
  /// Executes and answers the GET run w.gets collected, in order.
  void execute_gets(Worker& w, Conn& c);
  /// Gives an accepted socket to the least-loaded worker (w itself on a
  /// tie).
  void place(Worker& w, int fd);
  void adopt(Worker& w, int fd);
  void adopt_inbox(Worker& w);
  /// `allow_stream` permits SCANS to flush each chunk frame as soon as it
  /// is encoded (no earlier mutation in this batch is waiting on its fence).
  void execute_one(Worker& w, Conn& c, const struct Request& req,
                   std::vector<std::uint8_t>& out, bool* mutated,
                   bool allow_stream);
  void flush_out(Worker& w, Conn& c);
  void close_conn(Worker& w, Conn& c);
  void drain_worker(Worker& w);
  std::string stats_json() const;

  std::vector<core::UPSkipList*> stores_;  // one per shard; non-owning
  ServerOptions opts_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<Worker>> workers_;
  ServerStats stats_;
  /// Requests executed against each shard.
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_ops_;
};

}  // namespace upsl::server
