// ShardSet — N independent UPSkipList shards behind one routing facade.
//
// Horizontal sharding (ROADMAP item 1): the key space is partitioned by the
// fixed hash in common/shardmap.hpp across `shard_count` fully independent
// stores — each with its own pool set, chunk/block allocators and
// DRAM-index rebuild. Nothing is shared between shards but the process: no
// cross-shard locks, no shared allocator state, no shared epoch. In the
// server, shards are pure data partitions: one worker pool serves them all
// and routes each key to its owner (docs/server.md).
//
// Durability of the topology: every member store persists (shard_count,
// shard_index) in its root. open() re-validates that the pool sets on disk
// form exactly the topology being assembled — a swapped shard file, a
// missing shard, or a count mismatch is refused before any key is served
// from the wrong partition.
//
// Recovery: open() runs every shard's UPSkipList::open in parallel (they
// touch disjoint pools; the RIV runtime serializes its setup phase
// internally) and records per-shard wall-clock timings for the startup
// report. A 1-shard set behaves exactly like a bare UPSkipList.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/shardmap.hpp"
#include "core/upskiplist.hpp"

namespace upsl::core {

/// Cross-shard range scan over [lo, hi] in global key order: scans each of
/// the `n` shards (a hash partition scatters any key range across all of
/// them; each per-shard run comes back sorted) and k-way merges the runs,
/// stopping after `limit` entries (0 = unlimited). Returns the number of
/// entries appended to `out`. Shared by ShardSet and the server's SCAN verb.
std::size_t scan_merged(UPSkipList* const* shards, std::uint32_t n,
                        std::uint64_t lo, std::uint64_t hi, std::size_t limit,
                        std::vector<ScanEntry>& out);

/// Incremental cross-shard k-way merge (docs/scan.md). Instead of
/// materializing every shard's full run before merging, the cursor pulls
/// bounded chunks from each shard on demand (UPSkipList::scan_chunk) and
/// emits merged output as soon as every shard has a buffered head — so the
/// server's first SCAN frame leaves before any shard has been fully
/// scanned, and a scan truncated by a limit never does more per-shard work
/// than roughly the limit itself.
///
/// Merge invariant: a shard's buffer always holds that shard's smallest
/// un-emitted keys (its chunk covers a contiguous key range and is
/// refilled the moment it empties), so the linear head pick is globally
/// correct. Shards partition the key space, so no cross-shard dedup is
/// needed.
class MergedScanCursor {
 public:
  /// `refill` is the per-shard chunk size requested from scan_chunk
  /// (0 picks a default). The shard array must outlive the cursor.
  MergedScanCursor(UPSkipList* const* shards, std::uint32_t n,
                   std::uint64_t lo, std::uint64_t hi,
                   std::size_t refill = 0);

  /// Appends up to `max_entries` merged entries (in global key order,
  /// continuing where the previous call stopped) to `out`. Returns the
  /// number appended; 0 means the range is exhausted.
  std::size_t next(std::size_t max_entries, std::vector<ScanEntry>& out);

  /// True once every shard's range is fully emitted.
  bool exhausted() const;

  /// Smallest key not yet emitted — the `lo` a brand-new cursor (possibly
  /// in a later request) would need to continue this scan. Only meaningful
  /// while !exhausted().
  std::uint64_t resume_key() const;

 private:
  struct Run {
    std::vector<ScanEntry> buf;
    std::size_t head = 0;      // next un-emitted index into buf
    std::uint64_t resume = 0;  // next scan_chunk lo for this shard
    bool drained = false;      // shard range exhausted
  };

  void refill(std::uint32_t i);

  UPSkipList* const* shards_;
  std::uint32_t n_;
  std::uint64_t hi_;
  std::size_t refill_;
  std::vector<Run> runs_;
};

class ShardSet {
 public:
  /// Formats every shard's pools and creates the member stores. `pools[i]`
  /// is shard i's pool set (pool 0 of each holds that shard's root). The
  /// shard topology fields of `opts` are overwritten per member.
  static std::unique_ptr<ShardSet> create(
      std::vector<std::vector<pmem::Pool*>> pools, const Options& opts);

  /// Reconnects to an existing shard set, opening all members in parallel.
  /// Throws if any member's durable (shard_count, shard_index) disagrees
  /// with its position in `pools` — the on-disk topology is authoritative.
  static std::unique_ptr<ShardSet> open(
      std::vector<std::vector<pmem::Pool*>> pools);

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t shard_of(std::uint64_t key) const {
    return shard_of_key(key, shard_count());
  }
  UPSkipList& shard(std::uint32_t i) { return *shards_[i]; }
  UPSkipList& shard_for(std::uint64_t key) { return *shards_[shard_of(key)]; }

  /// Wall-clock cost of shard i's open() (0 for freshly created sets).
  std::uint64_t open_ns(std::uint32_t i) const { return open_ns_[i]; }

  // Key-routed single-key operations (same contracts as UPSkipList).
  std::optional<std::uint64_t> insert(std::uint64_t key, std::uint64_t value) {
    return shard_for(key).insert(key, value);
  }
  std::optional<std::uint64_t> search(std::uint64_t key) {
    return shard_for(key).search(key);
  }
  std::optional<std::uint64_t> remove(std::uint64_t key) {
    return shard_for(key).remove(key);
  }

  /// Range scan over [lo, hi] in global key order (see core::scan_merged).
  std::size_t scan(std::uint64_t lo, std::uint64_t hi, std::size_t limit,
                   std::vector<ScanEntry>& out);

  /// Sum of live keys across shards (O(n) diagnostic).
  std::size_t count_keys();

  /// check_invariants on every shard; throws on the first violation.
  void check_invariants();

  /// Merged open-time integrity verdict across members (docs/integrity.md).
  /// A CorruptionError thrown by a member's open (unrepairable damage)
  /// propagates out of open() instead, distinct from the runtime_error a
  /// topology mismatch raises.
  IntegrityReport integrity() const;

  /// Deep re-verification (fsck) of every member, merged into one report.
  IntegrityReport verify_deep();

 private:
  ShardSet() = default;

  std::vector<std::unique_ptr<UPSkipList>> shards_;
  std::vector<std::uint64_t> open_ns_;
};

}  // namespace upsl::core
