// UPSkipList — the Untitled Persistent Skip List (thesis chapter 4).
//
// A fully PMEM-resident, recoverable, NUMA-aware skip list derived from
// Herlihy et al.'s lock-free skip list, converted with the thesis' extension
// to RECIPE for lock-free algorithms with non-repairing, non-blocking
// writes: a PMEM-resident failure-free epoch id is recorded in every node
// touched by an in-flight operation, so a traversal can tell "inconsistent
// but someone is working on it" (same epoch) from "inconsistent because of a
// crash" (older epoch) and claim + repair the latter (§4.1.3).
//
// Nodes hold up to keys_per_node keys (unsorted after the first, §4.4) and
// are split concurrently and recoverably when full (§4.5.1). Removals write
// tombstones (§4.6). Traversals are wait-free reads; insert/update/remove
// are deadlock-free (the split lock is the only blocking component).
//
// Progress after a failure: open() bumps the epoch and the structure is
// immediately ready to serve; inconsistencies are repaired as encountered,
// throttled to `recovery_budget` incomplete-insert repairs per search
// traversal so post-crash throughput does not collapse (§4.4.1). Incomplete
// node splits are always repaired on sight.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/block_allocator.hpp"
#include "common/rng.hpp"
#include "core/dram_index.hpp"
#include "core/node.hpp"
#include "detect/session_table.hpp"

namespace upsl::core {

struct Options {
  std::uint32_t keys_per_node = 256;  // thesis' tuned value (§5.1.2)
  std::uint32_t max_height = 32;
  /// Highest thread id the store must support; sizes the arenas.
  std::uint32_t max_threads = 64;
  /// Incomplete-insert repairs a single search traversal may perform.
  std::uint32_t recovery_budget = 1;
  /// Sort keys when splitting a node and binary-search the sorted prefix —
  /// the thesis' future-work optimization borrowed from BzTree (§7).
  bool sorted_splits = false;
  /// Keep index levels (level >= 1) in a volatile DRAM search layer and
  /// persist only the data level (docs/dram-index.md). Overridden by the
  /// UPSL_DISABLE_DRAM_INDEX environment kill switch; the effective mode is
  /// recorded durably in the store root so reopens know whether the PMEM
  /// towers are trustworthy.
  bool dram_index = true;
  /// Horizontal sharding topology (common/shardmap.hpp): this store is shard
  /// `shard_index` of a `shard_count`-way key-space partition. Both are
  /// persisted in the store root so a reopen can validate that the pools on
  /// disk form the topology the caller is assembling (core::ShardSet does).
  /// A shard-set member never runs the single-pool RIV fast path even with
  /// one pool, because the process hosts sibling shards with other pool ids.
  /// shard_count <= 1 is the unsharded legacy configuration.
  std::uint32_t shard_count = 1;
  std::uint32_t shard_index = 0;
  /// Cap on durable client-session slots (docs/detectability.md). 0 = the
  /// SessionTable default (256); the table additionally shrinks to whatever
  /// fits in the root area after the allocator metadata. Tests use tiny caps
  /// to exercise slot eviction under client churn.
  std::uint32_t session_slots = 0;
  alloc::ChunkAllocatorConfig chunk;
};

/// Result row of a range scan.
struct ScanEntry {
  std::uint64_t key;
  std::uint64_t value;
};

/// What corruption-aware recovery found and did (docs/integrity.md). Damage
/// is never repaired in place — a node that fails its header stamp is
/// *quarantined*: the level-0 chain is bridged around it, its key coverage
/// is reported as a lost range, and its block is deliberately abandoned.
/// "Every acked key is recovered intact or listed here" is the contract the
/// corruption-torture shard checks.
struct IntegrityReport {
  /// Keys possibly lost to one quarantined node: the *open* interval
  /// (lo, hi) between the surviving neighbours' first keys. Conservative —
  /// the damaged node may have held only a subset.
  struct LostRange {
    std::uint64_t lo;
    std::uint64_t hi;
  };
  std::vector<LostRange> lost;
  /// RIVs of quarantined (bridged-around) data nodes.
  std::vector<std::uint64_t> quarantined_rivs;
  std::uint64_t nodes_checked = 0;
  std::uint64_t nodes_quarantined = 0;
  std::uint64_t sessions_quarantined = 0;
  std::uint64_t magazines_quarantined = 0;
  std::uint64_t blocks_quarantined = 0;
  /// The store-root stamp failed but the damage was confined to index_mode;
  /// the stamped value was restored and the index rebuilt defensively.
  bool root_mode_repaired = false;

  /// True when recovery found any damage at all (degraded-mode startup).
  bool degraded() const {
    return !lost.empty() || nodes_quarantined != 0 ||
           sessions_quarantined != 0 || magazines_quarantined != 0 ||
           blocks_quarantined != 0 || root_mode_repaired;
  }

  /// True iff `key` falls inside a reported lost range — i.e. the store is
  /// allowed to have forgotten it.
  bool covers(std::uint64_t key) const {
    for (const LostRange& r : lost)
      if (key > r.lo && key < r.hi) return true;
    return false;
  }

  void merge(const IntegrityReport& o) {
    lost.insert(lost.end(), o.lost.begin(), o.lost.end());
    quarantined_rivs.insert(quarantined_rivs.end(), o.quarantined_rivs.begin(),
                            o.quarantined_rivs.end());
    nodes_checked += o.nodes_checked;
    nodes_quarantined += o.nodes_quarantined;
    sessions_quarantined += o.sessions_quarantined;
    magazines_quarantined += o.magazines_quarantined;
    blocks_quarantined += o.blocks_quarantined;
    root_mode_repaired = root_mode_repaired || o.root_mode_repaired;
  }

  /// Flat JSON object (server STATS "integrity" section, fsck output).
  std::string to_json() const;
};

class UPSkipList {
 public:
  /// Formats `pools` and creates an empty store. Pool 0 holds the root.
  static std::unique_ptr<UPSkipList> create(std::vector<pmem::Pool*> pools,
                                            const Options& opts);

  /// Reconnects to an existing store after a restart/crash: bumps the
  /// failure-free epoch and returns immediately — recovery of in-flight
  /// operations is deferred into run time (§4.1.5). This is the whole of
  /// the "recovery time" measured in Table 5.4.
  static std::unique_ptr<UPSkipList> open(std::vector<pmem::Pool*> pools);

  UPSkipList(const UPSkipList&) = delete;
  UPSkipList& operator=(const UPSkipList&) = delete;

  /// Upsert (Function 13): inserts key->value, or updates and returns the
  /// previous value if the key is present. nullopt = key was newly inserted.
  std::optional<std::uint64_t> insert(std::uint64_t key, std::uint64_t value);

  /// Search (Function 9): wait-free read.
  std::optional<std::uint64_t> search(std::uint64_t key);

  /// Batched search: out[i] = search(keys[i]) for i < n, each linearized
  /// on its own. The DRAM-index descents of all n keys run interleaved
  /// (DramIndex::seek_many) so their cache misses overlap; each key then
  /// finishes through search()'s level-0 walk, validation and
  /// reader-forced persist. Towers mode searches key by key.
  void search_many(const std::uint64_t* keys, std::size_t n,
                   std::optional<std::uint64_t>* out);

  bool contains(std::uint64_t key) { return search(key).has_value(); }

  /// Remove (§4.6): tombstones the value. Returns the removed value.
  std::optional<std::uint64_t> remove(std::uint64_t key);

  /// Outcome of a detectable mutation (docs/detectability.md).
  struct DetectOutcome {
    /// True: `seq` was already applied for this session — the mutation did
    /// NOT run again; `previous` replays the original durable answer.
    bool duplicate = false;
    /// False only for a duplicate whose entry aged out of the result ring:
    /// the op is known applied but its original answer is gone.
    bool result_known = true;
    std::optional<std::uint64_t> previous;
  };

  /// Detectable upsert: dedups (slot, seq) against the session table, runs
  /// insert() when new, and records the durable result through the ambient
  /// pmem::AckBatch — the slot update rides the same batch ack fence as the
  /// mutation itself. With an invalid slot or the
  /// UPSL_DISABLE_DETECT kill switch set, degrades to plain insert().
  DetectOutcome insert_detect(std::uint64_t key, std::uint64_t value,
                              std::int32_t slot, std::uint64_t seq);

  /// Detectable remove; same contract as insert_detect.
  DetectOutcome remove_detect(std::uint64_t key, std::int32_t slot,
                              std::uint64_t seq);

  /// Durable client-session table (invalid on legacy stores whose root area
  /// predates it, or when the root area is too small for even one slot).
  detect::SessionTable& sessions() { return sessions_; }

  /// Range scan over [lo, hi] in key order (extension; §7 future work).
  /// Per-node atomic (validated by split counters), not globally atomic.
  /// Filters whole nodes with the SIMD range-mask kernel (docs/scan.md) and
  /// appends to `out` without any internal heap allocation.
  std::size_t scan(std::uint64_t lo, std::uint64_t hi,
                   std::vector<ScanEntry>& out);

  /// Cursor-style bounded scan: like scan(), but stops at the first node
  /// boundary once at least `limit` entries have been appended (so a chunk
  /// may exceed `limit` by up to keys_per_node - 1 entries; size request
  /// frames accordingly). On return *resume_key is the smallest key the
  /// walk has NOT covered — pass it back as `lo` to continue — or 0 when
  /// [lo, hi] is exhausted. Chunks from successive calls cover disjoint,
  /// ascending key ranges, so concatenating them needs no re-sort/dedup.
  /// limit == 0 means unbounded (identical to scan()).
  std::size_t scan_chunk(std::uint64_t lo, std::uint64_t hi,
                         std::size_t limit, std::vector<ScanEntry>& out,
                         std::uint64_t* resume_key);

  /// Number of live (non-tombstoned) keys — O(n) diagnostic walk.
  std::size_t count_keys();

  /// Structural invariant checks for tests: every node's tower is a prefix
  /// of the levels below, bottom level is sorted by first key, internal
  /// keys lie within (first_key, next.first_key). Throws on violation.
  void check_invariants();

  /// Nodes on the bottom level, excluding sentinels (diagnostic walk).
  std::size_t count_nodes();

  /// True iff the node holding `key` is linked on every level up to its
  /// stored height — i.e. its insert (or its recovery) fully completed.
  bool tower_complete(std::uint64_t key);

  /// Leak detector for tests: every block carved out of an allocated chunk
  /// must be on a free list or reachable as a node/sentinel. Call from a
  /// quiesced store after each thread id has performed at least one
  /// allocation in the current epoch (deferred log recovery, §4.1.4).
  void check_no_leaks();

  /// Diagnostic companion to check_no_leaks: names every carved block that
  /// is neither free (list or magazine-cached) nor a live node, with its
  /// durable state/owner/epoch stamps and any magazine-descriptor or
  /// thread-log slot still referencing it. Also reports double-accounted
  /// rivs (free AND live, or free-listed twice).
  std::string leak_report();

  std::uint64_t epoch() const { return pmem::pm_load(*epoch_word_); }
  const NodeLayout& layout() const { return layout_; }
  alloc::BlockAllocator& allocator() { return *block_alloc_; }
  /// ThreadRegistry ids below this have an allocation arena; a thread bound
  /// past it cannot allocate. Fixed by Options::max_threads at create time.
  std::uint32_t thread_capacity() const {
    return block_alloc_->arenas_per_pool() * block_alloc_->num_pools();
  }
  std::uint32_t num_pools() const {
    return static_cast<std::uint32_t>(pools_.size());
  }

  /// Durable shard topology recorded in the store root (>= 1 / index within
  /// it). Legacy stores created before sharding read back as 1 / 0.
  std::uint32_t shard_count() const { return opts_.shard_count; }
  std::uint32_t shard_index() const { return opts_.shard_index; }

  /// True iff this handle runs with the volatile DRAM search layer (index
  /// levels in DRAM, data level as sole durable ground truth).
  bool dram_index_enabled() const { return index_ != nullptr; }

  /// Data nodes currently registered in the DRAM index (0 when disabled).
  std::size_t index_entries() const {
    return index_ != nullptr ? index_->entries() : 0;
  }

  /// Wall-clock cost of the most recent DRAM-index rebuild on this handle
  /// (0 if none ran — e.g. freshly created store or index disabled).
  std::uint64_t last_index_rebuild_ns() const { return last_rebuild_ns_; }

  /// What corruption-aware recovery found and repaired around at open time
  /// (empty on a clean open, and always empty with UPSL_DISABLE_CHECKSUMS).
  const IntegrityReport& integrity() const { return integrity_; }

  /// Read-only deep integrity check (fsck / VERIFY): re-verifies every
  /// level-0 node header stamp plus the allocator quarantine counters, and
  /// merges the open-time report (whose repairs already happened). Requires
  /// a quiesced store; never mutates durable state.
  IntegrityReport verify_deep();

  /// fsck/test support: byte offsets of pool 0's durable metadata surfaces
  /// (from the pool base), so corruption tooling can target strikes exactly.
  struct DurableMap {
    std::size_t root_off;       // StoreRoot (two cache lines)
    std::size_t magazines_off;  // first MagazineDesc (kMaxThreads of them)
    std::size_t sessions_off;   // session table region
    std::size_t sessions_bytes; // 0 = store runs without a session table
  };
  DurableMap debug_durable_map() const;

  /// fsck/test support: riv of the level-0 data node whose key range covers
  /// `key` (0 when the store is empty or `key` precedes every node).
  /// Requires a quiesced store.
  std::uint64_t debug_node_riv_for(std::uint64_t key) const;

  /// Rebuild the DRAM index from the data level with `workers` parallel
  /// stripe builders (0 = UPSL_INDEX_REBUILD_WORKERS or a hardware-sized
  /// default). Requires a quiesced store. Returns the rebuild time in ns;
  /// no-op returning 0 when the index is disabled. open() runs this
  /// automatically — the explicit entry point exists for rebuild-scaling
  /// measurements and tests.
  std::uint64_t rebuild_dram_index(unsigned workers = 0);

 private:
  UPSkipList() = default;

  struct TraverseResult {
    std::uint64_t split_count = 0;
    std::int32_t key_index = -1;
    bool found = false;
  };

  enum class InsertStatus { kRestart, kNeedSplit, kDone };

  NodeView view(std::uint64_t riv) const {
    return NodeView(static_cast<char*>(riv::Runtime::instance().to_ptr(riv)),
                    &layout_);
  }

  /// Issue software prefetches for the two cache lines a traversal hop will
  /// touch in the node behind `riv`: the first line (epoch, lock, meta,
  /// first key) and the line holding its next-pointer for `level`. Called as
  /// soon as a successor RIV is known, so the fetches overlap the work still
  /// being done on the current node (§4.4's pointer-chase cost).
  void prefetch_node(std::uint64_t riv, std::uint32_t level) const {
    const char* p = static_cast<const char*>(riv::Runtime::instance().to_ptr(riv));
    UPSL_PREFETCH(p);
    UPSL_PREFETCH(p + layout_.next_offset() + 8ull * level);
  }

  /// Prefetch the leading lines of a node's key array ahead of
  /// scan_internal_keys (up to 4 lines; the scan kernels stream the rest).
  void prefetch_keys(NodeView node) const {
    const char* base = reinterpret_cast<const char*>(node.keys());
    const std::size_t bytes = 8ull * layout_.keys_per_node;
    UPSL_PREFETCH(base);
    if (bytes > 64) UPSL_PREFETCH(base + 64);
    if (bytes > 128) UPSL_PREFETCH(base + 128);
    if (bytes > 192) UPSL_PREFETCH(base + 192);
  }

  void attach(std::vector<pmem::Pool*> pools, bool creating,
              const Options* opts);
  void init_sentinels();
  std::uint64_t make_node(std::uint64_t pred_riv, std::uint64_t key,
                          std::uint64_t value, std::uint32_t height,
                          const std::uint64_t* succs);

  /// `hint`, when given, replaces the first DRAM-index seek (a restart
  /// re-seeks); it must be what DramIndex::seek returned for `key`, at any
  /// earlier time.
  TraverseResult traverse(std::uint64_t key, std::uint64_t* preds,
                          std::uint64_t* succs, std::uint32_t recovery_budget,
                          const riv::DataHandle* hint = nullptr);
  TraverseResult traverse_pmem(std::uint64_t key, std::uint64_t* preds,
                               std::uint64_t* succs,
                               std::uint32_t recovery_budget);
  TraverseResult traverse_dram(std::uint64_t key, std::uint64_t* preds,
                               std::uint64_t* succs,
                               std::uint32_t recovery_budget,
                               const riv::DataHandle* hint);
  std::optional<std::uint64_t> search_from(std::uint64_t key,
                                           const riv::DataHandle* hint);
  std::int32_t scan_internal_keys(NodeView node, std::uint64_t key) const;

  void register_in_index(std::uint64_t node_riv);
  void rebuild_persistent_towers();

  bool check_for_recovery(std::uint32_t level, std::uint64_t node_riv,
                          NodeView node, std::uint32_t* recoveries_done,
                          std::uint32_t budget);
  /// MOD write-path repair (docs/write-path.md): restore the free-slot
  /// representation on slots whose deferred key flush was lost while the
  /// value flush survived. Runs on the epoch-claim transition.
  void scrub_torn_slots(NodeView node);
  void check_node_split_recovery(NodeView node);
  void check_insert_recovery(std::uint32_t level, std::uint64_t node_riv,
                             NodeView node);

  std::optional<std::uint64_t> update_value(NodeView node, std::int32_t idx,
                                            std::uint64_t value);
  /// MOD publish step: one SFENCE retiring the out-of-place node's unordered
  /// writebacks, then the data-level link CAS and its persist. Returns false
  /// if the CAS lost.
  bool publish_data_link(NodeView pred, std::uint64_t expected,
                         std::uint64_t node_riv);
  bool create_head_successor(std::uint64_t key, std::uint64_t value,
                             std::uint64_t* preds, std::uint64_t* succs);
  InsertStatus insert_into_existing(std::uint64_t key, std::uint64_t value,
                                    std::uint64_t* preds,
                                    std::uint64_t split_count,
                                    std::optional<std::uint64_t>* old_out);
  InsertStatus split_node(std::uint64_t key, std::uint64_t value,
                          std::uint64_t* preds, std::uint64_t* succs,
                          std::optional<std::uint64_t>* old_out);
  void link_higher_levels(std::uint64_t* preds, std::uint64_t* succs,
                          std::uint64_t node_riv, std::uint32_t start_level,
                          std::uint32_t height);
  void populate_levels(const std::uint64_t* succs, NodeView node,
                       std::uint32_t start_level, std::uint32_t end_level);

  bool log_block_reachable(const alloc::ThreadLog& log);
  /// Stale-magazine-entry classifier: true iff the block is linked on the
  /// bottom level (or is a sentinel). See BlockAllocator::BlockReachabilityFn.
  bool block_reachable(std::uint64_t riv);

  /// Structural validation of a riv before dereferencing it: names a pool
  /// this store mapped, an ALLOCATED chunk, and a block-aligned offset
  /// inside it. A corrupted link can encode anything; to_ptr would resolve
  /// garbage offsets inside a mapped chunk without complaint.
  bool valid_node_riv(std::uint64_t riv) const;
  /// Header integrity of the node at `riv` (already riv-validated): sane
  /// height, self_riv match, plausible epoch, and the CRC32C stamp packed in
  /// meta's high 32 bits over the immutable (self_riv, key0, height) triple.
  bool node_header_ok(NodeView v, std::uint64_t riv) const;
  /// Open-time quarantine walk (docs/integrity.md): verifies every level-0
  /// node header, bridges the chain around damaged nodes, records lost key
  /// ranges in integrity_. Runs before any index rebuild can trust key0s.
  void quarantine_scan();

  Xoshiro256& thread_rng();

  std::vector<pmem::Pool*> pools_;
  std::vector<std::unique_ptr<alloc::ChunkAllocator>> chunk_allocs_;
  std::unique_ptr<alloc::BlockAllocator> block_alloc_;
  NodeLayout layout_{};
  Options opts_{};
  std::uint64_t* epoch_word_ = nullptr;  // PMEM-resident
  std::uint64_t* index_mode_word_ = nullptr;  // PMEM-resident (store root)
  std::uint64_t head_riv_ = 0;
  std::uint64_t tail_riv_ = 0;
  std::unique_ptr<DramIndex> index_;  // volatile; null in persistent mode
  std::uint64_t last_rebuild_ns_ = 0;
  detect::SessionTable sessions_;  // view over pool 0's root area
  IntegrityReport integrity_;  // open-time corruption findings/repairs
};

}  // namespace upsl::core
