// Persistence primitives over emulated persistent memory.
//
// Model (DESIGN.md §2, §4): every pool may keep a *shadow* copy representing
// the persistence domain. CPU stores land in the live mapping (the "cache");
// persist() copies the covered 64-byte lines into the shadow (CLWB) and
// issues a release fence (SFENCE). A simulated power failure replaces live
// contents with the shadow, so stores that were never persisted are lost —
// exactly the failure states a real power cut exposes (thesis §2.1.4).
//
// All PMEM-resident words are accessed through std::atomic_ref so that
// concurrent access is well-defined and maps to the plain x86 loads/stores
// and LOCK CMPXCHG the thesis' algorithms assume.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/compiler.hpp"

namespace upsl::pmem {

/// Point-in-time copy of the global persistence counters. Phases that want
/// "persists during *this* section" subtract two snapshots instead of
/// resetting the live (process-global, concurrently bumped) counters — the
/// snapshot-delta idiom composes across nested/concurrent phases where
/// Stats::reset() silently corrupts any other observer.
struct StatsSnapshot {
  std::uint64_t persist_calls = 0;
  std::uint64_t persisted_lines = 0;
  std::uint64_t fences = 0;
  std::uint64_t coalesced_fences_saved = 0;
  std::uint64_t coalesced_lines_saved = 0;
  std::uint64_t index_hops = 0;
  std::uint64_t pmem_node_visits = 0;
  std::uint64_t dram_node_visits = 0;
  std::uint64_t index_rebuilds = 0;
  std::uint64_t index_rebuild_ns = 0;
  /// Always 0: fences of the retired cross-connection group commit. Every
  /// ack fence is now a server batch fence (ServerStats::batch_fences); the
  /// field stays for readers that add it in.
  std::uint64_t group_commits = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t quarantined_nodes = 0;
  std::uint64_t quarantined_blocks = 0;
  std::uint64_t quarantined_sessions = 0;
  std::uint64_t scan_nodes_visited = 0;
  std::uint64_t scan_entries_returned = 0;
  std::uint64_t scan_chunks = 0;
  std::uint64_t simd_scan_filters = 0;

  StatsSnapshot operator-(const StatsSnapshot& t0) const {
    StatsSnapshot d{persist_calls - t0.persist_calls,
                    persisted_lines - t0.persisted_lines,
                    fences - t0.fences,
                    coalesced_fences_saved - t0.coalesced_fences_saved,
                    coalesced_lines_saved - t0.coalesced_lines_saved,
                    index_hops - t0.index_hops,
                    pmem_node_visits - t0.pmem_node_visits,
                    dram_node_visits - t0.dram_node_visits,
                    index_rebuilds - t0.index_rebuilds,
                    index_rebuild_ns - t0.index_rebuild_ns};
    d.checksum_failures = checksum_failures - t0.checksum_failures;
    d.quarantined_nodes = quarantined_nodes - t0.quarantined_nodes;
    d.quarantined_blocks = quarantined_blocks - t0.quarantined_blocks;
    d.quarantined_sessions = quarantined_sessions - t0.quarantined_sessions;
    d.scan_nodes_visited = scan_nodes_visited - t0.scan_nodes_visited;
    d.scan_entries_returned = scan_entries_returned - t0.scan_entries_returned;
    d.scan_chunks = scan_chunks - t0.scan_chunks;
    d.simd_scan_filters = simd_scan_filters - t0.simd_scan_filters;
    return d;
  }

  /// Flat JSON object, e.g. for the server's STATS command or log lines.
  std::string to_json() const {
    auto field = [](const char* k, std::uint64_t v) {
      return "\"" + std::string(k) + "\": " + std::to_string(v);
    };
    return "{" + field("persist_calls", persist_calls) + ", " +
           field("persisted_lines", persisted_lines) + ", " +
           field("fences", fences) + ", " +
           field("coalesced_fences_saved", coalesced_fences_saved) + ", " +
           field("coalesced_lines_saved", coalesced_lines_saved) + ", " +
           field("index_hops", index_hops) + ", " +
           field("pmem_node_visits", pmem_node_visits) + ", " +
           field("dram_node_visits", dram_node_visits) + ", " +
           field("index_rebuilds", index_rebuilds) + ", " +
           field("index_rebuild_ns", index_rebuild_ns) + ", " +
           field("checksum_failures", checksum_failures) + ", " +
           field("quarantined_nodes", quarantined_nodes) + ", " +
           field("quarantined_blocks", quarantined_blocks) + ", " +
           field("quarantined_sessions", quarantined_sessions) + ", " +
           field("scan_nodes_visited", scan_nodes_visited) + ", " +
           field("scan_entries_returned", scan_entries_returned) + ", " +
           field("scan_chunks", scan_chunks) + ", " +
           field("simd_scan_filters", simd_scan_filters) + "}";
  }
};

/// Global persistence statistics (relaxed counters; cheap and useful for
/// explaining benchmark results in terms of flush counts).
struct Stats {
  std::atomic<std::uint64_t> persist_calls{0};
  std::atomic<std::uint64_t> persisted_lines{0};
  std::atomic<std::uint64_t> fences{0};
  /// Fences elided by FlushSet batching: for a commit covering N add()s the
  /// legacy sequence would have fenced N times, the coalesced one fences
  /// once, saving N-1.
  std::atomic<std::uint64_t> coalesced_fences_saved{0};
  /// Line flushes avoided because an operation touched a line twice (e.g.
  /// adjacent tower levels sharing one 64-byte line).
  std::atomic<std::uint64_t> coalesced_lines_saved{0};
  /// Traversal-path observability (DRAM search layer, docs/dram-index.md):
  /// index_hops counts node visits above level 0 in either index mode;
  /// dram_node_visits counts the subset served from the volatile index, so
  /// `index_hops - dram_node_visits` is the number of PMEM index reads —
  /// zero on the DRAM-index fast path. pmem_node_visits counts every
  /// PMEM-resident node touched (any level).
  std::atomic<std::uint64_t> index_hops{0};
  std::atomic<std::uint64_t> pmem_node_visits{0};
  std::atomic<std::uint64_t> dram_node_visits{0};
  /// DRAM-index reconstructions (one per open in DRAM mode) and their total
  /// wall-clock cost.
  std::atomic<std::uint64_t> index_rebuilds{0};
  std::atomic<std::uint64_t> index_rebuild_ns{0};
  /// Integrity layer (docs/integrity.md): CRC32C stamp mismatches observed
  /// on any durable surface, and the damage recovery routed into quarantine
  /// (lost node key-ranges, deliberately leaked allocator blocks, zeroed
  /// client-session slots) instead of trusting.
  std::atomic<std::uint64_t> checksum_failures{0};
  std::atomic<std::uint64_t> quarantined_nodes{0};
  std::atomic<std::uint64_t> quarantined_blocks{0};
  std::atomic<std::uint64_t> quarantined_sessions{0};
  /// Scan path (docs/scan.md): data-level nodes walked by SCAN, entries
  /// emitted to callers, chunks produced by the cursor API, and invocations
  /// of the SIMD range-filter kernel (one per <=1024-key block).
  std::atomic<std::uint64_t> scan_nodes_visited{0};
  std::atomic<std::uint64_t> scan_entries_returned{0};
  std::atomic<std::uint64_t> scan_chunks{0};
  std::atomic<std::uint64_t> simd_scan_filters{0};

  static Stats& instance() {
    static Stats s;
    return s;
  }

  StatsSnapshot snapshot() const {
    StatsSnapshot s{persist_calls.load(std::memory_order_relaxed),
                    persisted_lines.load(std::memory_order_relaxed),
                    fences.load(std::memory_order_relaxed),
                    coalesced_fences_saved.load(std::memory_order_relaxed),
                    coalesced_lines_saved.load(std::memory_order_relaxed),
                    index_hops.load(std::memory_order_relaxed),
                    pmem_node_visits.load(std::memory_order_relaxed),
                    dram_node_visits.load(std::memory_order_relaxed),
                    index_rebuilds.load(std::memory_order_relaxed),
                    index_rebuild_ns.load(std::memory_order_relaxed)};
    s.checksum_failures = checksum_failures.load(std::memory_order_relaxed);
    s.quarantined_nodes = quarantined_nodes.load(std::memory_order_relaxed);
    s.quarantined_blocks = quarantined_blocks.load(std::memory_order_relaxed);
    s.quarantined_sessions =
        quarantined_sessions.load(std::memory_order_relaxed);
    s.scan_nodes_visited = scan_nodes_visited.load(std::memory_order_relaxed);
    s.scan_entries_returned =
        scan_entries_returned.load(std::memory_order_relaxed);
    s.scan_chunks = scan_chunks.load(std::memory_order_relaxed);
    s.simd_scan_filters = simd_scan_filters.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    persist_calls.store(0, std::memory_order_relaxed);
    persisted_lines.store(0, std::memory_order_relaxed);
    fences.store(0, std::memory_order_relaxed);
    coalesced_fences_saved.store(0, std::memory_order_relaxed);
    coalesced_lines_saved.store(0, std::memory_order_relaxed);
    index_hops.store(0, std::memory_order_relaxed);
    pmem_node_visits.store(0, std::memory_order_relaxed);
    dram_node_visits.store(0, std::memory_order_relaxed);
    index_rebuilds.store(0, std::memory_order_relaxed);
    index_rebuild_ns.store(0, std::memory_order_relaxed);
    checksum_failures.store(0, std::memory_order_relaxed);
    quarantined_nodes.store(0, std::memory_order_relaxed);
    quarantined_blocks.store(0, std::memory_order_relaxed);
    quarantined_sessions.store(0, std::memory_order_relaxed);
    scan_nodes_visited.store(0, std::memory_order_relaxed);
    scan_entries_returned.store(0, std::memory_order_relaxed);
    scan_chunks.store(0, std::memory_order_relaxed);
    simd_scan_filters.store(0, std::memory_order_relaxed);
  }
};

/// Runtime knobs for the emulation.
struct Config {
  /// Spin-delay added to every persist() to model the PMEM write path
  /// (~94 ns on Optane per Izraelevitz et al.). 0 = off.
  std::uint32_t persist_delay_ns = 0;

  static Config& instance() {
    static Config c;
    return c;
  }
};

/// SFENCE analogue: order prior stores/flushes before subsequent ones.
inline void fence() {
  std::atomic_thread_fence(std::memory_order_release);
  Stats::instance().fences.fetch_add(1, std::memory_order_relaxed);
}

/// CLWB+SFENCE analogue; declared here, defined in pool.cpp (needs the pool
/// registry to locate the owning shadow).
void persist(const void* addr, std::size_t len);

/// Flush without the trailing fence (CLWB only); callers batch several of
/// these and then fence() once — the "link cache" style batching.
void flush(const void* addr, std::size_t len);

// ---- typed PMEM accessors -------------------------------------------------

template <typename T>
concept PmemWord = std::is_trivially_copyable_v<T> && sizeof(T) <= 8;

template <PmemWord T>
UPSL_ALWAYS_INLINE T pm_load(const T& word,
                             std::memory_order mo = std::memory_order_acquire) {
  return std::atomic_ref<const T>(word).load(mo);
}

template <PmemWord T>
UPSL_ALWAYS_INLINE void pm_store(T& word, T value,
                                 std::memory_order mo = std::memory_order_release) {
  std::atomic_ref<T>(word).store(value, mo);
}

template <PmemWord T>
UPSL_ALWAYS_INLINE bool pm_cas(T& word, T& expected, T desired) {
  return std::atomic_ref<T>(word).compare_exchange_strong(
      expected, desired, std::memory_order_acq_rel, std::memory_order_acquire);
}

/// CAS with by-value expected (Function 2 of the thesis): true iff swapped.
template <PmemWord T>
UPSL_ALWAYS_INLINE bool pm_cas_value(T& word, T expected, T desired) {
  return pm_cas(word, expected, desired);
}

template <PmemWord T>
UPSL_ALWAYS_INLINE T pm_fetch_add(T& word, T delta) {
  return std::atomic_ref<T>(word).fetch_add(delta, std::memory_order_acq_rel);
}

/// Store + persist of a single word — the common "write and flush" step.
template <PmemWord T>
inline void pm_store_persist(T& word, T value) {
  pm_store(word, value);
  persist(&word, sizeof(T));
}

}  // namespace upsl::pmem
