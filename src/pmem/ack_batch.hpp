// Minimally ordered (MOD-style) write path: deferred ack flushes.
//
// The core mutation path (docs/write-path.md) builds nodes out of place,
// flushes them with unordered CLWBs and publishes with a single ordered
// link + SFENCE. After the publish the only remaining durability work is the
// *ack* rule: the link/slot/value lines an operation dirtied must be durable
// before the operation is acknowledged to a client. Those lines need no
// ordering among themselves, so they can ride one deferred flush + fence per
// *batch* of operations.
//
// AckBatch is that deferral scope. While a thread has an AckBatch open,
// ack_persist() records the covered lines instead of flushing; the scope
// owner later commit_fenced()s them (one flush set + one fence) and only
// then acknowledges the batch — the server does this once per executed
// pipelined batch, so a mutation's response leaves only after its batch's
// commit_fenced(). Without an open scope ack_persist() is exactly persist(),
// so the embedded API keeps per-op durability-at-return semantics.
//
// UPSL_DISABLE_MOD_WRITES=1 restores the legacy ordered write path: the core
// persists in place at every legacy site and ack_persist() degrades to
// persist() even inside a scope (mirrors UPSL_DISABLE_FLUSH_COALESCING).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <vector>

#include "common/compiler.hpp"
#include "pmem/flush_set.hpp"
#include "pmem/persist.hpp"

namespace upsl::pmem {

namespace detail {
inline std::atomic<int>& mod_writes_flag() {
  static std::atomic<int> flag{-1};  // -1 = env not read yet
  return flag;
}
}  // namespace detail

inline bool mod_writes_enabled() {
  int v = detail::mod_writes_flag().load(std::memory_order_relaxed);
  if (UPSL_UNLIKELY(v < 0)) {
    const char* e = std::getenv("UPSL_DISABLE_MOD_WRITES");
    v = (e != nullptr && e[0] != '\0' && e[0] != '0') ? 0 : 1;
    detail::mod_writes_flag().store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

/// In-process kill-switch override for A/B benchmarking and tests.
inline void set_mod_writes_for_testing(bool on) {
  detail::mod_writes_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

/// Drop the cached decision so the next use re-reads the environment.
inline void reset_mod_writes_for_testing() {
  detail::mod_writes_flag().store(-1, std::memory_order_relaxed);
}

/// Thread-local deferred-ack scope. Records the unique cache lines covered
/// by every ack_persist() issued on this thread while the scope is open;
/// lines dedupe across *all* operations in the scope (a pipelined batch that
/// updates two values in one node flushes the line once).
class AckBatch {
 public:
  /// Plenty for a server batch (`max_batch` ops x a handful of lines each);
  /// overflow degrades to an immediate unfenced flush, still covered by the
  /// eventual batch fence.
  static constexpr std::size_t kMaxLines = 256;

  AckBatch() : prev_(tls()) { tls() = this; }
  AckBatch(const AckBatch&) = delete;
  AckBatch& operator=(const AckBatch&) = delete;

  ~AckBatch() {
    tls() = prev_;
    // Safety net: an abandoned scope still owes its callers durability —
    // unless the lines were taken by the caller, or we are unwinding a
    // simulated crash (in which case dropping the un-fenced lines is exactly
    // the power-failure semantics under test).
    if (!taken_ && adds_ > 0 && std::uncaught_exceptions() == 0)
      commit_fenced();
  }

  /// The innermost open scope on this thread, or nullptr.
  static AckBatch* current() { return tls(); }

  /// Record the lines covering [addr, addr+len); no flush, no fence.
  void add(const void* addr, std::size_t len) {
    if (len == 0) return;
    ++adds_;
    const auto p = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t first = p & ~(kCacheLineSize - 1);
    const std::uintptr_t last = (p + len - 1) & ~(kCacheLineSize - 1);
    for (std::uintptr_t line = first; line <= last; line += kCacheLineSize) {
      bool dup = false;
      for (std::size_t i = 0; i < n_; ++i) {
        if (lines_[i] == reinterpret_cast<const void*>(line)) {
          dup = true;
          ++deduped_;
          break;
        }
      }
      if (dup) continue;
      if (UPSL_UNLIKELY(n_ == kMaxLines)) {
        const void* one = reinterpret_cast<const void*>(line);
        flush_lines(&one, 1);
        continue;
      }
      lines_[n_++] = reinterpret_cast<const void*>(line);
    }
  }

  std::size_t adds() const { return adds_; }
  std::size_t lines() const { return n_; }

  /// Hand the recorded lines to a caller that flushes and fences them
  /// itself; the scope is done — its destructor will not flush. Dedupe
  /// savings are credited here since the lines skip the FlushSet path.
  std::vector<const void*> take_lines() {
    taken_ = true;
    credit_savings();
    std::vector<const void*> out(lines_, lines_ + n_);
    n_ = adds_ = deduped_ = 0;
    return out;
  }

  /// Flush every recorded unique line and issue the ack fence. Always
  /// fences, even with zero recorded lines: callers use this as the
  /// durability gate for a batch whose ops persisted eagerly (MOD off).
  void commit_fenced() {
    if (n_ > 0) flush_lines(lines_, n_);
    fence();
    credit_savings();
    n_ = adds_ = deduped_ = 0;
    taken_ = true;
  }

 private:
  static AckBatch*& tls() {
    thread_local AckBatch* cur = nullptr;
    return cur;
  }

  void credit_savings() {
    if (adds_ == 0) return;
    Stats& s = Stats::instance();
    s.coalesced_fences_saved.fetch_add(adds_ - 1, std::memory_order_relaxed);
    s.coalesced_lines_saved.fetch_add(deduped_, std::memory_order_relaxed);
  }

  const void* lines_[kMaxLines];
  std::size_t n_ = 0;
  std::size_t adds_ = 0;
  std::size_t deduped_ = 0;
  bool taken_ = false;
  AckBatch* prev_;
};

/// Persist-for-ack: durability required before the operation is acked, with
/// no ordering requirement against other ack lines. Inside an open AckBatch
/// scope (and with MOD writes enabled) the lines are deferred to the batch
/// fence; otherwise this is exactly persist().
inline void ack_persist(const void* addr, std::size_t len) {
  if (mod_writes_enabled()) {
    if (AckBatch* b = AckBatch::current()) {
      b->add(addr, len);
      return;
    }
  }
  persist(addr, len);
}

}  // namespace upsl::pmem
