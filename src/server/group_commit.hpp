// Cross-connection group commit (docs/write-path.md).
//
// Every mutation batch the server executes defers its ack-gating line
// flushes into an AckBatch (pmem/ack_batch.hpp). Instead of fencing per
// batch, the worker hands the lines to this committer with submit() and
// receives a monotonically increasing ticket. A dedicated committer thread
// accumulates submissions, dedupes the cache lines across *all* of them,
// flushes once and issues one fence; committed() then covers every ticket up
// to the batch's highest. Acks release only after the covering fence retires
// — so N connections' mutations share one SFENCE instead of paying N.
//
// The window (UPSL_COMMIT_WINDOW_US) is an upper bound, not a fixed delay.
// Workers bracket each mutation batch with open_batch()/close_batch()
// (BatchScope); once something is pending, the committer fences as soon as
// no batch is open — nothing else can join this fence — and otherwise at
// the latest window_us after it woke for the first pending submission. A
// lone closed-loop client therefore pays no window at all, while a busy
// server (some batch always mid-execution) still batches up to the window.
//
// The class is deliberately standalone (no epoll types) so the crash-torture
// harness can drive the same commit protocol against a simulated-crash
// store: wait_durable() polls the crash-injection quiesce flag and throws
// CrashException so a waiter whose fence will never retire dies like any
// other surviving thread.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/crashpoint.hpp"
#include "pmem/ack_batch.hpp"
#include "pmem/flush_set.hpp"
#include "pmem/persist.hpp"

namespace upsl::server {

/// UPSL_DISABLE_GROUP_COMMIT kill switch (read per server start, not
/// cached: the server already constructs rarely, and tests flip it with
/// ScopedEnv between starts).
inline bool group_commit_disabled_by_env() {
  const char* v = std::getenv("UPSL_DISABLE_GROUP_COMMIT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Commit window from UPSL_COMMIT_WINDOW_US, else `fallback`.
inline std::uint32_t commit_window_us_from_env(std::uint32_t fallback) {
  if (const char* v = std::getenv("UPSL_COMMIT_WINDOW_US")) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(v, &end, 10);
    if (end != v) return static_cast<std::uint32_t>(n);
  }
  return fallback;
}

class GroupCommit {
 public:
  explicit GroupCommit(std::uint32_t window_us)
      : window_us_(window_us), committer_([this] { committer_main(); }) {}

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;
  ~GroupCommit() { shutdown(); }

  /// Commit everything pending, then stop the committer. Idempotent.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_) return;
      stop_ = true;
    }
    cv_.notify_all();
    if (committer_.joinable()) committer_.join();
  }

  /// Stop WITHOUT committing what is pending — the crash-simulation path:
  /// un-fenced submissions are dropped exactly like un-retired flushes in a
  /// power failure. Their waiters must already be dead (quiesced).
  void abandon() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      pending_.clear();
    }
    cv_.notify_all();
    if (committer_.joinable()) committer_.join();
  }

  /// Mark one mutation batch as executing: its submission is on the way, so
  /// the committer holds the pending fence for it (up to the window).
  void open_batch() { open_.fetch_add(1); }

  /// The batch opened by open_batch() has submitted (or given up). Closing
  /// the last open batch wakes the committer, but only if something is
  /// pending — a batch that ends with nothing to commit costs one atomic.
  void close_batch() {
    // seq_cst on open_ and submitted_: either the committer sees this
    // close, or this close sees the submission the committer is holding.
    if (open_.fetch_sub(1) == 1 && submitted_.load() > committed()) {
      // Taking the mutex orders this wake after the committer's predicate
      // check, so it cannot slip between that check and its sleep.
      { std::lock_guard<std::mutex> lk(mu_); }
      cv_.notify_all();
    }
  }

  /// Enqueue `mutations` operations whose ack waits on `lines` being
  /// durable. Returns the ticket the caller's acks must wait for.
  std::uint64_t submit(std::vector<const void*> lines,
                       std::uint64_t mutations) {
    std::uint64_t seq;
    bool first;
    {
      std::lock_guard<std::mutex> lk(mu_);
      seq = submitted_.load(std::memory_order_relaxed) + 1;
      submitted_.store(seq);
      first = pending_.empty();
      pending_.push_back({std::move(lines), mutations, seq});
    }
    // Only the first pending submission starts the committer; later ones
    // cannot change its window predicate (close_batch() does).
    if (first) cv_.notify_all();
    return seq;
  }

  /// Highest ticket whose covering fence has retired.
  std::uint64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }

  /// Block until `seq` is durable. Polls the crash-injection quiesce flag:
  /// if a simulated crash fires while we wait, the fence we are waiting for
  /// will never retire — die like every other surviving thread.
  void wait_durable(std::uint64_t seq) {
    std::unique_lock<std::mutex> lk(mu_);
    while (committed_.load(std::memory_order_acquire) < seq) {
      if (CrashPoints::instance().crashing()) throw CrashException{};
      done_cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
  }

  /// Wait until everything submitted so far is durable (drain path).
  void barrier() {
    const std::uint64_t target = submitted_.load();
    if (target > 0) wait_durable(target);
  }

  /// Register an eventfd poked (one write) after every commit, so epoll
  /// workers parked in epoll_wait learn that acks became releasable.
  void add_notify_fd(int fd) {
    std::lock_guard<std::mutex> lk(mu_);
    notify_fds_.push_back(fd);
  }

 private:
  struct Pending {
    std::vector<const void*> lines;
    std::uint64_t mutations;
    std::uint64_t seq;
  };

  void committer_main() {
    std::vector<Pending> batch;
    while (true) {
      bool early = true;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !pending_.empty(); });
        if (pending_.empty()) return;  // stop_ set and nothing left
        if (window_us_ > 0) {
          // Accumulation window, as an upper bound: while some worker is
          // mid-way through a mutation batch, its submission can still join
          // this fence. Fence as soon as none is open; a pending shutdown
          // skips the wait.
          early = cv_.wait_for(lk, std::chrono::microseconds(window_us_),
                               [this] { return stop_ || open_.load() == 0; });
        }
        batch.swap(pending_);
      }
      // abandon() may have emptied pending_ while the window ran.
      if (!batch.empty()) commit_batch(batch, early);
      batch.clear();
    }
  }

  void commit_batch(std::vector<Pending>& batch, bool early) {
    // Cross-connection line dedupe: two clients updating values in the same
    // node within one window flush that line once.
    std::vector<const void*> lines;
    std::unordered_set<const void*> seen;
    std::uint64_t mutations = 0;
    std::uint64_t deduped = 0;
    for (const Pending& p : batch) {
      mutations += p.mutations;
      for (const void* l : p.lines) {
        if (seen.insert(l).second)
          lines.push_back(l);
        else
          ++deduped;
      }
    }
    if (!lines.empty()) pmem::flush_lines(lines.data(), lines.size());
    pmem::fence();
    auto& st = pmem::Stats::instance();
    st.note_group_commit(mutations, early);
    if (deduped > 0)
      st.coalesced_lines_saved.fetch_add(deduped, std::memory_order_relaxed);
    committed_.store(batch.back().seq, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(mu_);
      const std::uint64_t one = 1;
      for (int fd : notify_fds_)
        [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
    }
    done_cv_.notify_all();
  }

  const std::uint32_t window_us_;
  std::mutex mu_;
  std::condition_variable cv_;       // submit/stop -> committer
  std::condition_variable done_cv_;  // commit -> waiters
  std::vector<Pending> pending_;
  std::vector<int> notify_fds_;
  std::atomic<int> open_{0};  // mutation batches between open and close
  std::atomic<std::uint64_t> submitted_{0};  // written under mu_
  std::atomic<std::uint64_t> committed_{0};
  bool stop_ = false;
  std::thread committer_;
};

/// RAII bracket around one mutation batch: open() on the first mutation
/// (idempotent), close on destruction or after submit — so every exit path
/// of the batch, including errors and exceptions, closes it. A null
/// committer makes it a no-op.
class BatchScope {
 public:
  explicit BatchScope(GroupCommit* gc) : gc_(gc) {}
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;
  ~BatchScope() { close(); }

  void open() {
    if (gc_ != nullptr && !open_) {
      gc_->open_batch();
      open_ = true;
    }
  }

  void close() {
    if (open_) {
      open_ = false;
      gc_->close_batch();
    }
  }

 private:
  GroupCommit* gc_;
  bool open_ = false;
};

}  // namespace upsl::server
