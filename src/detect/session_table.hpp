// Detectable exactly-once mutations: the durable client-session table.
//
// Construction from *Practical Detectability for Persistent Lock-Free Data
// Structures* (PAPERS.md): every detectable mutation carries a client-chosen
// (client_id, seq) identity, and the store persists the operation's result
// in a per-client durable slot *in the same ack fence* as the mutation's own
// ack lines (pmem::ack_persist into the caller's AckBatch scope). A client
// that crashed or reconnected mid-pipeline can then ask the slot — not the
// data structure — whether an in-flight request landed, and a replayed seq
// is deduplicated instead of applied twice.
//
// Layout (pool 0 root area, after the magazine descriptors; all 64B-aligned):
//
//   TableHeader   1 line   magic, slot_count, ring_size
//   Slot[i]       5 lines  header line: client_id, session_epoch, last_seq
//                          ring: kRingSize x 32B {seq, result, status}
//
// The ring keeps the results of the client's most recent kRingSize sequence
// numbers — the unacked pipeline tail a detectable client may need to
// resolve after a drop. seq <= last_seq with the ring entry evicted still
// answers "applied" (dedup stays sound), just with the result unknown.
//
// Durability contract (docs/detectability.md): record() routes its lines
// through pmem::ack_persist, so inside a server batch the slot update rides
// the exact batch fence that acks the mutation — exactly-once costs no extra
// fences on the hot path. In kDiscardUnflushed crash mode a batch's deferred
// lines commit atomically (AckBatch::commit_fenced flushes and fences with
// no interior crash points), so the slot and the mutation's effect are
// always in agreement and resolve() answers are ground truth for the tested
// configuration.
//
// Sessions are single-writer: the server's connection ownership (one worker
// owns a connection for its life) means at most one thread mutates a given
// slot at a time; open_session() is the only cross-thread entry and takes a
// DRAM mutex. Slot reuse is epoch-stamped: a full table evicts the slot with
// the oldest claim stamp, and the claim protocol (free -> reset -> publish
// client_id, each step persisted) can never leave a new client_id over a
// previous session's dedup state.
//
// UPSL_DISABLE_DETECT=1 is the kill switch: the table still formats (layout
// is unconditional) but every runtime entry point reports "no session", so
// detectable opcodes degrade to their plain counterparts end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/compiler.hpp"

namespace upsl::detect {

namespace detail {
inline std::atomic<int>& detect_flag() {
  static std::atomic<int> flag{-1};  // -1 = env not read yet
  return flag;
}
}  // namespace detail

/// Kill switch (same cached-atomic idiom as UPSL_DISABLE_MOD_WRITES).
inline bool detect_enabled() {
  int v = detail::detect_flag().load(std::memory_order_relaxed);
  if (UPSL_UNLIKELY(v < 0)) {
    const char* e = std::getenv("UPSL_DISABLE_DETECT");
    v = (e != nullptr && e[0] != '\0' && e[0] != '0') ? 0 : 1;
    detail::detect_flag().store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

/// In-process kill-switch override for A/B benchmarking and tests.
inline void set_detect_for_testing(bool on) {
  detail::detect_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

/// Drop the cached decision so the next use re-reads the environment.
inline void reset_detect_for_testing() {
  detail::detect_flag().store(-1, std::memory_order_relaxed);
}

/// Answer of a result-slot query for one (client_id, seq).
struct ResolveResult {
  enum class State : std::uint32_t {
    kUnknownSession = 0,  // no slot holds this client_id
    kNotApplied = 1,      // seq > last_seq: the op never took effect
    kApplied = 2,         // applied; status/result are the original answer
    kAppliedUnknown = 3,  // applied, but the result ring evicted the entry
  };
  State state = State::kUnknownSession;
  std::uint32_t has_previous = 0;  // 1 = `result` holds the op's u64 answer
  std::uint64_t result = 0;
};

/// Durable per-client session slots with a small result ring each. All
/// methods operate on PMEM the caller mapped; the object itself is a
/// volatile view (re-created per open, like the allocators).
class SessionTable {
 public:
  static constexpr std::uint32_t kRingSize = 8;
  static constexpr std::uint32_t kDefaultMaxSlots = 256;
  /// Header line + per-slot stride, both in bytes (64B-aligned).
  static constexpr std::size_t kHeaderBytes = 64;
  static constexpr std::size_t kSlotBytes = 64 + kRingSize * 32ull;

  SessionTable() = default;

  /// Formats `bytes` of `base` as an empty table (create path). Slot count
  /// is what fits, capped at `max_slots` (0 = kDefaultMaxSlots). Returns an
  /// invalid table when even one slot does not fit.
  static SessionTable format(char* base, std::size_t bytes,
                             std::uint32_t max_slots);

  /// Reattaches to a previously formatted table (open path) and runs the
  /// recovery scan: live-session census + next claim stamp. Returns an
  /// invalid table when the region holds no table magic (legacy store).
  static SessionTable recover(char* base, std::size_t bytes);

  bool valid() const { return base_ != nullptr; }
  std::uint32_t slot_count() const { return slot_count_; }
  /// Live sessions found by the recovery scan (diagnostics / startup report).
  std::uint32_t recovered_sessions() const { return recovered_; }
  /// Slots whose header failed its integrity stamp during recover() and were
  /// durably reset to free (docs/integrity.md). Their clients re-handshake as
  /// unknown sessions instead of deduplicating against damaged state.
  std::uint32_t quarantined_sessions() const { return quarantined_; }

  /// Claims (or finds) the slot for `client_id`; reconnecting clients get
  /// their existing slot back with the dedup state intact. A full table
  /// evicts the slot with the oldest claim stamp. Returns -1 when the table
  /// is invalid or detect is disabled.
  std::int32_t open_session(std::uint64_t client_id);

  /// Slot currently owned by `client_id`, or -1.
  std::int32_t slot_of(std::uint64_t client_id) const;

  std::uint64_t client_id(std::uint32_t slot) const;
  std::uint64_t session_epoch(std::uint32_t slot) const;
  std::uint64_t last_seq(std::uint32_t slot) const;

  /// Dedup probe for the executor: what does the slot say about `seq`?
  /// (kUnknownSession is never returned here — the caller holds the slot.)
  /// Valid seqs start at 1; 0 is the ring's empty sentinel and always
  /// answers kNotApplied.
  ResolveResult lookup(std::uint32_t slot, std::uint64_t seq) const;

  /// Persist (seq, status, result) into the slot's ring and advance
  /// last_seq. Lines go through pmem::ack_persist: inside an AckBatch scope
  /// they ride the batch's ack fence; standalone they persist
  /// immediately. Call only with seq > last_seq(slot) and seq >= 1 (0 is
  /// the reserved empty sentinel — a no-op here), from the single thread
  /// owning the session.
  void record(std::uint32_t slot, std::uint64_t seq, std::uint32_t has_previous,
              std::uint64_t result);

  /// Operator/client-side query by identity (RESOLVE verb, reconnect path).
  ResolveResult resolve(std::uint64_t client_id, std::uint64_t seq) const;

 private:
  struct TableHeader;
  struct SlotHeader;
  struct RingEntry;

  SlotHeader* slot_header(std::uint32_t slot) const;
  RingEntry* ring_entry(std::uint32_t slot, std::uint64_t seq) const;

  char* base_ = nullptr;
  std::uint32_t slot_count_ = 0;
  std::uint32_t recovered_ = 0;
  std::uint32_t quarantined_ = 0;
  /// Next claim stamp (monotonic across the table; recover() seeds it from
  /// the durable maximum). Shared pointer semantics: SessionTable is a view,
  /// copied freely; the mutex/counter live once per store handle.
  std::shared_ptr<std::uint64_t> next_stamp_;
  std::shared_ptr<std::mutex> claim_mu_;
};

}  // namespace upsl::detect
