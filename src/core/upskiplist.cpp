#include "core/upskiplist.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/checksum.hpp"
#include "common/crashpoint.hpp"
#include "common/simd.hpp"
#include "pmem/ack_batch.hpp"
#include "pmem/flush_set.hpp"

namespace upsl::core {

namespace {

/// Liveness diagnostic: converts an unexpected livelock in a retry loop
/// into an exception naming the loop instead of a silent spin. The bound is
/// far above anything a correct execution reaches.
///
/// Doubles as the quiesce hook for cooperative crash injection: when a
/// quiesce-armed crash has fired, every surviving thread must die at an
/// instruction boundary of the modeled machine before the harness snapshots
/// the persistence domain. Retry loops that spin on state owned by the dead
/// thread (a write lock it was holding, a split it never finished) contain
/// few or no crash points, so the guard polls the quiesce flag every 256
/// ticks — cheap enough for the per-hop traversal guard, prompt enough that
/// survivors die within microseconds instead of wedging until the livelock
/// bound.
struct SpinGuard {
  std::uint64_t n = 0;
  const char* where;
  explicit SpinGuard(const char* w) : where(w) {}
  void tick() {
    if (UPSL_UNLIKELY((++n & 255u) == 0)) CrashPoints::instance().poll();
    if (UPSL_UNLIKELY(n > (8u << 20)))
      throw std::runtime_error(std::string("livelock detected in ") + where);
  }
};

}  // namespace

using pmem::persist;
using pmem::pm_cas;
using pmem::pm_cas_value;
using pmem::pm_load;
using pmem::pm_store;

namespace {

constexpr std::uint64_t kStoreMagic = 0x5550534b49504c53ULL;  // "UPSKIPLS"

/// Persistent store root, at the start of pool 0's root area.
struct StoreRoot {
  std::uint64_t magic;
  std::uint64_t version;
  std::uint64_t epoch_id;
  std::uint64_t num_pools;
  std::uint64_t arenas_per_pool;
  std::uint64_t keys_per_node;
  std::uint64_t max_height;
  std::uint64_t block_size;
  std::uint64_t recovery_budget;
  std::uint64_t sorted_splits;
  std::uint64_t head_riv;
  std::uint64_t tail_riv;
  /// 1 = the store last ran with the DRAM search layer, so the PMEM index
  /// towers (next pointers above level 0) are stale and must be rebuilt
  /// before a persistent-tower session may trust them. Flipped durably only
  /// after the corresponding rebuild completed (mode-switch protocol in
  /// docs/dram-index.md).
  std::uint64_t index_mode;
  /// Durable shard topology (common/shardmap.hpp): this store is shard
  /// `shard_index` of a `shard_count`-way key-space partition. 0/0 in
  /// stores created before sharding, read back as the unsharded 1/0.
  /// core::ShardSet validates these at open so a mis-assembled pool set
  /// (wrong count, swapped shard files) is refused instead of served.
  std::uint64_t shard_count;
  std::uint64_t shard_index;
  /// CRC32C stamp (common/checksum.hpp conventions: 0 = unstamped) over
  /// every field except magic, epoch_id and the stamp itself. epoch_id is
  /// excluded because the open-time bump persists a different cache line;
  /// every *covered* mutable field (head_riv, tail_riv, index_mode) shares
  /// this word's 64-byte line, so a restamp always commits atomically with
  /// the field it covers under the line-granular persistence model.
  std::uint64_t checksum;
};

constexpr std::size_t kLogsOffset = 128;  // after StoreRoot, line-aligned
static_assert(sizeof(StoreRoot) <= kLogsOffset);
static_assert(offsetof(StoreRoot, recovery_budget) == 64 &&
                  offsetof(StoreRoot, checksum) == 120,
              "index_mode/head/tail/checksum must share the root's 2nd line");

/// Store-root integrity stamp, over the covered fields in declaration order
/// with `index_mode` substitutable (the verify fallback tries both legal
/// values to distinguish a damaged mode flag from deeper damage).
std::uint32_t root_stamp_with_mode(const StoreRoot& r, std::uint64_t mode) {
  const std::uint64_t w[13] = {
      pm_load(r.version),     pm_load(r.num_pools),
      pm_load(r.arenas_per_pool), pm_load(r.keys_per_node),
      pm_load(r.max_height),  pm_load(r.block_size),
      pm_load(r.recovery_budget), pm_load(r.sorted_splits),
      pm_load(r.head_riv),    pm_load(r.tail_riv),
      mode,                   pm_load(r.shard_count),
      pm_load(r.shard_index)};
  return upsl::checksum_stamp(w, sizeof(w));
}

std::uint32_t root_stamp(const StoreRoot& r) {
  return root_stamp_with_mode(r, pm_load(r.index_mode));
}

std::size_t arenas_offset() {
  return kLogsOffset + sizeof(alloc::ThreadLog) * kMaxThreads;
}

/// Per-thread magazine descriptors live after the arena headers. Both the
/// root area (4096-aligned) and the preceding structures are multiples of a
/// cache line, so the alignas(64) descriptors land naturally aligned.
std::size_t magazines_offset(std::size_t num_pools, std::size_t arenas_per_pool) {
  return arenas_offset() + sizeof(alloc::ArenaHeader) * num_pools * arenas_per_pool;
}

/// The durable client-session table (src/detect) occupies the root-area tail
/// after the magazine descriptors, rounded up to a cache line. Stores whose
/// root area is too small simply run without detectability (the table region
/// reads back without its magic, exactly like a legacy store).
std::size_t sessions_offset(std::size_t num_pools, std::size_t arenas_per_pool) {
  const std::size_t off = magazines_offset(num_pools, arenas_per_pool) +
                          sizeof(alloc::MagazineDesc) * kMaxThreads;
  return (off + 63) & ~std::size_t{63};
}

StoreRoot* root_of(alloc::ChunkAllocator& ca) {
  return reinterpret_cast<StoreRoot*>(ca.root_area());
}

/// Kill switch for the DRAM search layer (same contract as the SIMD /
/// magazine / flush-coalescing switches): set and non-"0" forces the
/// persistent-tower path. Read per attach so tests can flip it between
/// reopens of the same store.
bool dram_index_disabled_by_env() {
  const char* v = std::getenv("UPSL_DISABLE_DRAM_INDEX");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

unsigned default_rebuild_workers() {
  if (const char* v = std::getenv("UPSL_INDEX_REBUILD_WORKERS")) {
    const unsigned n = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(4u, hw == 0 ? 1u : hw);
}

/// Length of the leading populated, strictly ascending run of key slots —
/// the only prefix the sorted-prefix block search may trust. Every
/// sorted_count store clamps to this so no kNullKey hole or misordered key
/// can end up inside [0, sorted_count) (check_invariants asserts it).
/// Node-header meta word: height in the low byte (NodeView::height masks
/// with 0xff), CRC32C stamp over the node's immutable identity triple
/// (self_riv, key0, height) in the high 32 bits. The triple never changes
/// after make_node — key(0) is the node's routing key, which neither the
/// split erase loop (erases only keys >= the median, all > key0) nor split
/// recovery (nulls only keys duplicated in the successor, all > key0) can
/// touch — so every full-node persist re-flushes an unchanged stamp for
/// free. The packed word can never collide with MemBlock::kFreeState
/// (0xf2ee in bits 16..31; a real meta word has zeros there).
std::uint64_t node_meta_word(std::uint64_t self_riv, std::uint64_t key0,
                             std::uint32_t height) {
  const std::uint64_t w[3] = {self_riv, key0, height};
  return (static_cast<std::uint64_t>(upsl::checksum_stamp(w, sizeof(w)))
          << 32) |
         height;
}

std::uint32_t sorted_run_length(const NodeView& node, std::uint32_t K) {
  std::uint64_t prev_key = 0;
  std::uint32_t run = 0;
  for (std::uint32_t i = 0; i < K; ++i) {
    const std::uint64_t k = pmem::pm_load(node.key(i));
    if (k == kNullKey || (i > 0 && k <= prev_key)) break;
    prev_key = k;
    ++run;
  }
  return run;
}

}  // namespace

Xoshiro256& UPSkipList::thread_rng() {
  static thread_local Xoshiro256 rng(
      0x9e3779b97f4a7c15ULL ^
      (static_cast<std::uint64_t>(ThreadRegistry::id()) << 32) ^
      reinterpret_cast<std::uintptr_t>(this));
  return rng;
}

// ---------------------------------------------------------------------------
// Creation / reconnection
// ---------------------------------------------------------------------------

void UPSkipList::attach(std::vector<pmem::Pool*> pools, bool creating,
                        const Options* opts) {
  if (pools.empty()) throw std::invalid_argument("need at least one pool");
  pools_ = std::move(pools);

  if (creating) {
    for (pmem::Pool* p : pools_) alloc::ChunkAllocator::format(*p, opts->chunk);
  }
  for (pmem::Pool* p : pools_)
    chunk_allocs_.push_back(std::make_unique<alloc::ChunkAllocator>(*p));

  StoreRoot* root = root_of(*chunk_allocs_[0]);
  char* root_area = chunk_allocs_[0]->root_area();

  if (creating) {
    layout_ = NodeLayout{opts->keys_per_node, opts->max_height};
    opts_ = *opts;
    const std::uint32_t arenas_per_pool =
        (opts->max_threads + static_cast<std::uint32_t>(pools_.size()) - 1) /
        static_cast<std::uint32_t>(pools_.size());
    const std::size_t need =
        magazines_offset(pools_.size(), arenas_per_pool) +
        sizeof(alloc::MagazineDesc) * kMaxThreads;
    if (need > chunk_allocs_[0]->root_size())
      throw std::invalid_argument("root area too small");
    std::memset(root_area, 0, need);
    root->version = 1;
    root->epoch_id = 1;
    root->num_pools = pools_.size();
    root->arenas_per_pool = arenas_per_pool;
    root->keys_per_node = opts->keys_per_node;
    root->max_height = opts->max_height;
    root->block_size = layout_.node_size();
    root->recovery_budget = opts->recovery_budget;
    root->sorted_splits = opts->sorted_splits ? 1 : 0;
    root->index_mode =
        (opts->dram_index && !dram_index_disabled_by_env()) ? 1 : 0;
    root->shard_count = opts->shard_count;
    root->shard_index = opts->shard_index;
    root->checksum = root_stamp(*root);
    persist(root_area, need);
  } else {
    if (pm_load(root->magic) != kStoreMagic)
      throw std::runtime_error("store root not found (wrong pool set?)");
    if (root->num_pools != pools_.size())
      throw std::runtime_error("pool count mismatch with stored root");
    // Verify the root's integrity stamp before trusting any geometry field.
    // A mismatch confined to index_mode (the only covered field that flips
    // during normal operation) is repairable: restore the stamped value and
    // rebuild the index defensively. Anything else — or a zeroed second
    // line, which the head/tail null check catches despite the 0-means-
    // unstamped convention — is unrecoverable damage to the 128-byte root.
    const auto stored =
        static_cast<std::uint32_t>(pm_load(root->checksum));
    if (pm_load(root->head_riv) == 0 || pm_load(root->tail_riv) == 0)
      throw CorruptionError("store root head/tail sentinel rivs are null");
    if (checksums_enabled() && stored != 0 && stored != root_stamp(*root)) {
      pmem::Stats::instance().checksum_failures.fetch_add(
          1, std::memory_order_relaxed);
      std::int64_t restored = -1;
      for (std::uint64_t m : {std::uint64_t{0}, std::uint64_t{1}})
        if (root_stamp_with_mode(*root, m) == stored) restored = static_cast<std::int64_t>(m);
      if (restored < 0)
        throw CorruptionError(
            "store root checksum mismatch (pool 0 root area damaged)");
      pm_store(root->index_mode, static_cast<std::uint64_t>(restored));
      persist(&root->index_mode, sizeof(root->index_mode));
      integrity_.root_mode_repaired = true;
    }
    layout_ = NodeLayout{static_cast<std::uint32_t>(root->keys_per_node),
                         static_cast<std::uint32_t>(root->max_height)};
    opts_.keys_per_node = layout_.keys_per_node;
    opts_.max_height = layout_.max_height;
    opts_.recovery_budget =
        static_cast<std::uint32_t>(root->recovery_budget);
    opts_.sorted_splits = root->sorted_splits != 0;
    // Legacy stores (root memset at create, fields never written) read 0.
    opts_.shard_count =
        root->shard_count == 0 ? 1
                               : static_cast<std::uint32_t>(root->shard_count);
    opts_.shard_index = static_cast<std::uint32_t>(root->shard_index);
  }

  // Single-pool stores skip the RIV pool-lookup stage (§4.3.1): this is the
  // "striped device" configuration of the evaluation. A shard-set member
  // never takes it, even with one pool — single-pool mode aliases every
  // dispatch entry to this pool's table, which would corrupt RIV resolution
  // for the sibling shards living in the same process.
  riv::Runtime::instance().set_single_pool_mode(
      pools_.size() == 1 && opts_.shard_count <= 1, pools_[0]->id());

  epoch_word_ = &root->epoch_id;

  std::vector<alloc::ChunkAllocator*> cas;
  for (auto& ca : chunk_allocs_) cas.push_back(ca.get());
  alloc::BlockAllocator::Config acfg;
  acfg.block_size = root->block_size;
  acfg.arenas_per_pool = static_cast<std::uint32_t>(root->arenas_per_pool);
  // Magazine descriptors sit after the arena headers when the root area has
  // room for them (it always does with the default 1 MiB root; a store
  // created with a smaller custom root simply runs without magazines).
  const std::size_t mags_off = magazines_offset(
      pools_.size(), static_cast<std::size_t>(root->arenas_per_pool));
  alloc::MagazineDesc* mags = nullptr;
  if (mags_off + sizeof(alloc::MagazineDesc) * kMaxThreads <=
      chunk_allocs_[0]->root_size()) {
    mags = reinterpret_cast<alloc::MagazineDesc*>(root_area + mags_off);
  }
  block_alloc_ = std::make_unique<alloc::BlockAllocator>(
      std::move(cas),
      reinterpret_cast<alloc::ArenaHeader*>(root_area + arenas_offset()),
      reinterpret_cast<alloc::ThreadLog*>(root_area + kLogsOffset),
      epoch_word_, acfg, mags);
  block_alloc_->set_reachability_fn(
      [this](const alloc::ThreadLog& log) { return log_block_reachable(log); });
  block_alloc_->set_block_reachability_fn(
      [this](std::uint64_t riv) { return block_reachable(riv); });

  const std::size_t sess_off = sessions_offset(
      pools_.size(), static_cast<std::size_t>(root->arenas_per_pool));
  const std::size_t sess_bytes =
      sess_off < chunk_allocs_[0]->root_size()
          ? chunk_allocs_[0]->root_size() - sess_off
          : 0;

  if (creating) {
    block_alloc_->bootstrap();
    init_sentinels();
    root->head_riv = head_riv_;
    root->tail_riv = tail_riv_;
    root->checksum = root_stamp(*root);
    persist(root, sizeof(*root));
    // Session table before the magic: a crash mid-create leaves an
    // unopenable store, never one missing its detectability region.
    if (sess_bytes > 0) {
      sessions_ = detect::SessionTable::format(root_area + sess_off,
                                               sess_bytes,
                                               opts->session_slots);
    }
    // Magic last: a crash mid-create leaves an unopenable store, never a
    // half-initialized one.
    pm_store(root->magic, kStoreMagic);
    persist(&root->magic, sizeof(root->magic));
  } else {
    head_riv_ = root->head_riv;
    tail_riv_ = root->tail_riv;
    // Start a new failure-free epoch (§4.1.3). After this single persisted
    // increment the store is ready to serve; all repair is deferred — arena
    // tails are re-anchored lazily by each thread's first epoch sync.
    pm_store(root->epoch_id, pm_load(root->epoch_id) + 1);
    persist(&root->epoch_id, sizeof(root->epoch_id));
    // Quarantine walk before anything trusts the level-0 chain: the index
    // rebuilds below feed node key0s into traversal hints, and a corrupted
    // key0 entering the hint path turns misses silently wrong. No-op on a
    // clean store (one header verify per node).
    if (checksums_enabled()) quarantine_scan();
    // Stores too small for magazine descriptors never run that sync, so
    // their (few, tiny) free lists are repaired eagerly instead.
    if (mags == nullptr) block_alloc_->repair_tails();
  }

  // Session-table recovery scan, run alongside the DRAM-index rebuild below
  // (both are open-time, read-mostly passes over disjoint regions). The scan
  // is tiny — a few KiB census seeding the claim counter — so the thread is
  // about overlap, not speed-up of the scan itself.
  std::thread session_recovery;
  // Joins on every exit from attach — the rebuilds below may throw (crash
  // injection arms recovery paths) and an unjoined std::thread terminates.
  struct JoinGuard {
    std::thread& t;
    ~JoinGuard() {
      if (t.joinable()) t.join();
    }
  } join_guard{session_recovery};
  if (!creating && sess_bytes > 0) {
    session_recovery = std::thread([this, root_area, sess_off, sess_bytes] {
      sessions_ =
          detect::SessionTable::recover(root_area + sess_off, sess_bytes);
    });
  }

  // Index-mode selection (docs/dram-index.md): the durable index_mode flag
  // says whether the PMEM towers were maintained by the previous session;
  // the env kill switch picks the mode for this one. Crossing modes runs
  // the corresponding rebuild before the store serves, and the flag only
  // flips after that rebuild completed — a crash mid-rebuild redoes it.
  index_mode_word_ = &root->index_mode;
  const bool use_dram = creating
                            ? (opts->dram_index && !dram_index_disabled_by_env())
                            : !dram_index_disabled_by_env();
  if (use_dram) {
    index_ = std::make_unique<DramIndex>(layout_.max_height);
    if (!creating) {
      rebuild_dram_index(0);
      if (pm_load(root->index_mode) != 1 || integrity_.root_mode_repaired) {
        // PMEM towers go stale from here on; record that durably before
        // the first un-mirrored insert can run. The restamp shares the
        // flag's cache line, so both commit atomically under one flush.
        pm_store(root->index_mode, std::uint64_t{1});
        pm_store(root->checksum,
                 static_cast<std::uint64_t>(root_stamp(*root)));
        persist(&root->index_mode, sizeof(root->index_mode));
      }
    }
  } else if (!creating &&
             (pm_load(root->index_mode) != 0 || integrity_.root_mode_repaired ||
              integrity_.nodes_quarantined != 0)) {
    // nodes_quarantined forces the rebuild even in steady tower mode: the
    // quarantine walk re-bridged level 0 only, and stale tower pointers into
    // a bridged-around node must not survive into traversal.
    rebuild_persistent_towers();
    pm_store(root->index_mode, std::uint64_t{0});
    pm_store(root->checksum, static_cast<std::uint64_t>(root_stamp(*root)));
    persist(&root->index_mode, sizeof(root->index_mode));
  }

  // Fold the session-table scan's verdict into the open-time report (the
  // scan ran concurrently with the rebuilds above; join before reading it).
  if (session_recovery.joinable()) session_recovery.join();
  integrity_.sessions_quarantined += sessions_.quarantined_sessions();
}

std::unique_ptr<UPSkipList> UPSkipList::create(std::vector<pmem::Pool*> pools,
                                               const Options& opts) {
  if (opts.keys_per_node < 1 || opts.max_height < 2 || opts.max_height > 63)
    throw std::invalid_argument("bad UPSkipList options");
  auto list = std::unique_ptr<UPSkipList>(new UPSkipList);
  list->attach(std::move(pools), /*creating=*/true, &opts);
  return list;
}

std::unique_ptr<UPSkipList> UPSkipList::open(std::vector<pmem::Pool*> pools) {
  auto list = std::unique_ptr<UPSkipList>(new UPSkipList);
  list->attach(std::move(pools), /*creating=*/false, nullptr);
  return list;
}

void UPSkipList::init_sentinels() {
  const std::uint64_t epoch = pm_load(*epoch_word_);

  std::uint64_t tail_riv = 0;
  auto* traw = static_cast<char*>(block_alloc_->allocate(0, 0, &tail_riv));
  NodeView tail(traw, &layout_);
  pm_store(tail.meta(), node_meta_word(tail_riv, kTailKey, layout_.max_height));
  pm_store(tail.self_riv(), tail_riv);
  pm_store(tail.epoch_id(), epoch);
  pm_store(tail.key(0), kTailKey);
  for (std::uint32_t i = 0; i < layout_.keys_per_node; ++i)
    pm_store(tail.value(i), kTombstone);
  persist(traw, layout_.node_size());
  tail_riv_ = tail_riv;

  std::uint64_t head_riv = 0;
  auto* hraw = static_cast<char*>(block_alloc_->allocate(0, 0, &head_riv));
  NodeView head(hraw, &layout_);
  // The head's key(0) slot is never written and stays kNullKey.
  pm_store(head.meta(), node_meta_word(head_riv, kNullKey, layout_.max_height));
  pm_store(head.self_riv(), head_riv);
  pm_store(head.epoch_id(), epoch);
  for (std::uint32_t i = 0; i < layout_.keys_per_node; ++i)
    pm_store(head.value(i), kTombstone);
  for (std::uint32_t l = 0; l < layout_.max_height; ++l)
    pm_store(head.next(l), tail_riv);
  persist(hraw, layout_.node_size());
  head_riv_ = head_riv;
}

// ---------------------------------------------------------------------------
// Node construction
// ---------------------------------------------------------------------------

std::uint64_t UPSkipList::make_node(std::uint64_t pred_riv, std::uint64_t key,
                                    std::uint64_t value, std::uint32_t height,
                                    const std::uint64_t* succs) {
  // MakeLinkedObject (Function 4): the allocator logs the attempt and pops a
  // block; we initialize it as a node and persist everything with one flush
  // before it can become reachable (Function 18's single-persist argument).
  //
  // MOD write path (docs/write-path.md): the node is still private, so its
  // lines need no ordering among themselves or against anything else yet —
  // write them back unordered (CLWB without SFENCE) and let the publish
  // fence at the link site order all of them before the link can become
  // durable. Callers that keep mutating the node before publishing (the
  // split copy loop) re-flush; the fence still happens exactly once.
  std::uint64_t riv = 0;
  auto* raw = static_cast<char*>(block_alloc_->allocate(pred_riv, key, &riv));
  NodeView n(raw, &layout_);
  pm_store(n.meta(), node_meta_word(riv, key, height));
  pm_store(n.self_riv(), riv);
  pm_store(n.sorted_count(), std::uint64_t{1});
  pm_store(n.key(0), key);
  pm_store(n.value(0), value);
  for (std::uint32_t i = 1; i < layout_.keys_per_node; ++i)
    pm_store(n.value(i), kTombstone);
  for (std::uint32_t l = 0; l < height; ++l) pm_store(n.next(l), succs[l]);
  if (pmem::mod_writes_enabled()) {
    pmem::flush(raw, layout_.node_size());
    UPSL_CRASH_POINT("core.mod_built");
  } else {
    persist(raw, layout_.node_size());
  }
  return riv;
}

bool UPSkipList::publish_data_link(NodeView pred, std::uint64_t expected,
                                   std::uint64_t node_riv) {
  // The single ordered step of a MOD insert: one SFENCE retires every
  // unordered writeback of the out-of-place node, then the data-level link
  // CAS makes it reachable. The fence-before-CAS order guarantees the link
  // can never be durable ahead of the node contents it exposes. The link
  // persists at once rather than riding the ack batch: the moment the CAS
  // lands, other threads can insert into the new node and ack those keys
  // after their own batch fences, and a crash that lost the link would
  // take their acked keys with it. (In persistent-towers mode level 0 must
  // also be durable before level 1 links — the tower-prefix invariant.)
  pmem::fence();
  UPSL_CRASH_POINT("core.mod_prepublish");
  if (!pm_cas_value(pred.next(0), expected, node_riv)) return false;
  persist(&pred.next(0), sizeof(std::uint64_t));
  UPSL_CRASH_POINT("core.mod_published");
  return true;
}

// ---------------------------------------------------------------------------
// Traversal (Function 7) and recovery checks (Functions 10-12)
// ---------------------------------------------------------------------------

std::int32_t UPSkipList::scan_internal_keys(NodeView node,
                                            std::uint64_t key) const {
  const std::uint64_t* keys = node.keys();
  std::uint32_t first_unsorted = 1;
  if (opts_.sorted_splits) {
    // §7 optimization: nodes produced by a split are fully sorted up to
    // sorted_count; block-search that prefix (vectorized equality + early
    // exit once the prefix passes the key) and fall back to a scan of the
    // unsorted overflow slots. Unlike the binary search this replaces, the
    // block search stays correct if a kNullKey hole ever appears inside the
    // prefix — nulls compare as "keep going", never as a misordered key.
    const auto sc = static_cast<std::uint32_t>(pm_load(node.sorted_count()));
    if (sc > 1 && sc <= layout_.keys_per_node) {
      const std::int32_t idx = simd::find_sorted_u64(keys, 1, sc, key);
      if (idx >= 0) return idx;
      first_unsorted = sc;
    }
  }
  // Function 8: linear scan (index 0 was compared by the traversal),
  // vectorized — the hottest loop in search/insert/remove (§4.4).
  return simd::find_u64(keys, first_unsorted, layout_.keys_per_node, key);
}

UPSkipList::TraverseResult UPSkipList::traverse(
    std::uint64_t key, std::uint64_t* preds, std::uint64_t* succs,
    std::uint32_t recovery_budget, const riv::DataHandle* hint) {
  if (index_ != nullptr)
    return traverse_dram(key, preds, succs, recovery_budget, hint);
  return traverse_pmem(key, preds, succs, recovery_budget);
}

UPSkipList::TraverseResult UPSkipList::traverse_pmem(
    std::uint64_t key, std::uint64_t* preds, std::uint64_t* succs,
    std::uint32_t recovery_budget) {
  std::uint32_t recoveries = 0;
  std::uint64_t upper_visits = 0;
  std::uint64_t level0_visits = 0;
  SpinGuard restart_guard("traverse.restart");
restart:
  restart_guard.tick();
  std::uint64_t pred_riv = head_riv_;
  NodeView pred = view(pred_riv);
  TraverseResult res;

  for (std::int32_t level = static_cast<std::int32_t>(layout_.max_height) - 1;
       level >= 0; --level) {
    std::uint64_t cur_riv = pm_load(pred.next(static_cast<std::uint32_t>(level)));
    prefetch_node(cur_riv, static_cast<std::uint32_t>(level));
    SpinGuard level_guard("traverse.level");
    while (true) {
      level_guard.tick();
      NodeView cur = view(cur_riv);
      if (level > 0)
        ++upper_visits;
      else
        ++level0_visits;
      if (check_for_recovery(static_cast<std::uint32_t>(level), cur_riv, cur,
                             &recoveries, recovery_budget)) {
        goto restart;
      }
      // splitCount must be read before the key so the caller can validate
      // that what it read was not torn by a concurrent split (§4.4).
      const std::uint64_t sc = pm_load(cur.split_count());
      const std::uint64_t k0 = pm_load(cur.key(0));
      if (k0 <= key) {
        res.split_count = sc;
        pred_riv = cur_riv;
        pred = cur;
        cur_riv = pm_load(pred.next(static_cast<std::uint32_t>(level)));
        // Start pulling the successor's lines while this hop finishes; by
        // the time the loop dereferences it, its header is (partly) here.
        prefetch_node(cur_riv, static_cast<std::uint32_t>(level));
      } else {
        break;
      }
    }
    preds[level] = pred_riv;
    succs[level] = cur_riv;
  }

  if (pred_riv != head_riv_) {
    prefetch_keys(pred);
    if (pred.first_key() == key) {
      res.key_index = 0;
      res.found = true;
    } else {
      res.key_index = scan_internal_keys(pred, key);
      res.found = res.key_index >= 0;
    }
  }
  auto& st = pmem::Stats::instance();
  st.index_hops.fetch_add(upper_visits, std::memory_order_relaxed);
  st.pmem_node_visits.fetch_add(upper_visits + level0_visits,
                                std::memory_order_relaxed);
  return res;
}

UPSkipList::TraverseResult UPSkipList::traverse_dram(
    std::uint64_t key, std::uint64_t* preds, std::uint64_t* succs,
    std::uint32_t recovery_budget, const riv::DataHandle* hint) {
  std::uint32_t recoveries = 0;
  std::uint64_t dram_hops = 0;
  std::uint64_t pmem_visits = 0;
  SpinGuard restart_guard("traverse_dram.restart");
  TraverseResult res;
restart:
  restart_guard.tick();
  res = TraverseResult{};
  // Index levels live only in DRAM; the persistent pred/succ slots above
  // level 0 are bracketed by the sentinels so shared code (make_node's
  // upper next fillers) stays well-defined.
  for (std::uint32_t l = 1; l < layout_.max_height; ++l) {
    preds[l] = head_riv_;
    succs[l] = tail_riv_;
  }

  // A caller's hint stands in for the first seek only; a restart re-seeks.
  const riv::DataHandle start = hint != nullptr
                                    ? *std::exchange(hint, nullptr)
                                    : index_->seek(key, &dram_hops);
  std::uint64_t pred_riv;
  NodeView pred;
  if (!start.is_null()) {
    // First keys are immutable and data nodes are never removed, so the
    // hint's first_key <= key holds no matter how stale the registration
    // is. The hint node still needs the epoch check: a durably locked
    // stale node must be claimed and repaired before its keys are usable.
    pred_riv = start.riv;
    pred = NodeView(static_cast<char*>(start.ptr), &layout_);
    ++pmem_visits;
    if (check_for_recovery(0, pred_riv, pred, &recoveries, recovery_budget))
      goto restart;
    // splitCount before keys — same torn-read protocol as the PMEM walk.
    res.split_count = pm_load(pred.split_count());
  } else {
    pred_riv = head_riv_;
    pred = view(pred_riv);
  }

  {
    std::uint64_t cur_riv = pm_load(pred.next(0));
    prefetch_node(cur_riv, 0);
    SpinGuard level_guard("traverse_dram.level0");
    while (true) {
      level_guard.tick();
      NodeView cur = view(cur_riv);
      ++pmem_visits;
      if (check_for_recovery(0, cur_riv, cur, &recoveries, recovery_budget))
        goto restart;
      const std::uint64_t sc = pm_load(cur.split_count());
      const std::uint64_t k0 = pm_load(cur.key(0));
      if (k0 <= key) {
        res.split_count = sc;
        pred_riv = cur_riv;
        pred = cur;
        cur_riv = pm_load(pred.next(0));
        prefetch_node(cur_riv, 0);
      } else {
        break;
      }
    }
    preds[0] = pred_riv;
    succs[0] = cur_riv;
  }

  if (pred_riv != head_riv_) {
    prefetch_keys(pred);
    if (pred.first_key() == key) {
      res.key_index = 0;
      res.found = true;
    } else {
      res.key_index = scan_internal_keys(pred, key);
      res.found = res.key_index >= 0;
    }
  }
  auto& st = pmem::Stats::instance();
  st.index_hops.fetch_add(dram_hops, std::memory_order_relaxed);
  st.dram_node_visits.fetch_add(dram_hops, std::memory_order_relaxed);
  st.pmem_node_visits.fetch_add(pmem_visits, std::memory_order_relaxed);
  return res;
}

bool UPSkipList::check_for_recovery(std::uint32_t level, std::uint64_t node_riv,
                                    NodeView node,
                                    std::uint32_t* recoveries_done,
                                    std::uint32_t budget) {
  const std::uint64_t current = pm_load(*epoch_word_);
  const std::uint64_t node_epoch = pm_load(node.epoch_id());
  if (UPSL_LIKELY(node_epoch == current)) return false;
  // Mid-claim by another thread, which will repair it.
  if (node_epoch == (current | kClaimingBit)) return false;

  // Post-recovery throughput throttle (§4.4.1): a traversal repairs at most
  // `budget` incomplete inserts, but an interrupted split (detectable by the
  // durable lock state) must be repaired on sight — its duplicate keys make
  // traversal results unreliable until fixed.
  const bool lock_held = pm_load(node.lock_word()) != 0;
  if (*recoveries_done >= budget && !lock_held) return false;

  // Reset metadata from the dead epoch as part of the claim (Function 10
  // line 122): stale reader counts would otherwise block writers forever.
  // Live threads cannot interfere — the locks refuse the node until
  // end_claim, so the drain and the slot scrub run alone.
  UPSL_CRASH_POINT("core.recovery_draining");
  if (!node.begin_claim(node_epoch, current)) {
    return false;  // another thread claimed this node; it will repair it
  }
  scrub_torn_slots(node);
  // A writer bit seen while the node is still marked belongs to a split the
  // crash interrupted. Read it now: once the node is current, a live split
  // may take the lock, and repairing (and unlocking) that one would run a
  // second split over it.
  const bool split_interrupted = node.write_locked();
  node.end_claim(current);
  persist(&node.epoch_id(), sizeof(std::uint64_t));
  UPSL_CRASH_POINT("core.recovery_claimed");

  if (split_interrupted) check_node_split_recovery(node);
  check_insert_recovery(level, node_riv, node);
  UPSL_CRASH_POINT("core.node_recovered");
  ++*recoveries_done;
  return true;
}

void UPSkipList::scrub_torn_slots(NodeView node) {
  // MOD write path repair: a slot claim defers both its key and value
  // flushes to the ack fence with no ordering between them, so a crash can
  // leave a slot whose value line became durable while the key line
  // reverted to kNullKey. Re-assert the free-slot representation
  // (key == kNullKey ⇒ value == kTombstone) before this epoch can reuse
  // the slot — without this, a later claim of the slot could briefly
  // expose the orphaned value under a new key. Runs once per node, inside
  // the epoch claim: try_read_lock refuses the node until end_claim, so no
  // slot claim can race this scrub (one that did could have its value,
  // written between the scrub's key and value loads, overwritten here).
  // Idempotent (crashing mid-scrub just redoes it next epoch).
  pmem::FlushSet fs;
  for (std::uint32_t i = 0; i < layout_.keys_per_node; ++i) {
    if (pm_load(node.key(i)) == kNullKey &&
        pm_load(node.value(i)) != kTombstone) {
      pm_store(node.value(i), kTombstone);
      fs.add(&node.value(i), sizeof(std::uint64_t));
    }
  }
  fs.commit();
}

void UPSkipList::check_node_split_recovery(NodeView node) {
  // Function 11: a durable write-lock from a previous epoch means the node
  // was being split. The caller saw it during the claim, and no live thread
  // can take or drop the lock while it is set. The new node, if it was
  // linked, is next[0]; complete the erase phase by tombstoning every key
  // that was copied there — which is exactly every key at or above its
  // first key. Test that bound, not membership in next[0]: recovery is
  // lazy, so a traversal that reached the new node without passing this
  // one (a DRAM index hint, an upper level) may already have split it
  // again and moved some of the copies one node further on. With no new
  // node linked, next[0]'s first key bounds this node's keys and nothing
  // is erased.
  const std::uint64_t bound = view(pm_load(node.next(0))).first_key();
  for (std::uint32_t i = 0; i < layout_.keys_per_node; ++i) {
    // Mid-erase crash point: dying here leaves the node partially scrubbed
    // with the durable write lock still set, so the next epoch re-enters
    // this function and must tolerate already-punched holes (nulled keys
    // re-tombstone idempotently; the full-node persist below had not run,
    // so unflushed holes simply roll back).
    UPSL_CRASH_POINT("core.split_recover_scan");
    const std::uint64_t k = pm_load(node.key(i));
    if (k == kNullKey) {
      pm_store(node.value(i), kTombstone);
      continue;
    }
    if (k >= bound) {
      pm_store(node.key(i), kNullKey);
      pm_store(node.value(i), kTombstone);
    }
  }
  // The erase punched unknown holes; drop the sorted-prefix claim.
  pm_store(node.sorted_count(), std::uint64_t{0});
  persist(node.raw(), layout_.node_size());
  UPSL_CRASH_POINT("core.split_recovered");
  node.write_unlock();
  persist(&node.lock_word(), sizeof(std::uint64_t));
}

void UPSkipList::check_insert_recovery(std::uint32_t level,
                                       std::uint64_t node_riv, NodeView node) {
  // Function 12: Herlihy-style inserts link bottom-up and UPSkipList
  // persists each level before the next, so a node's linked levels are
  // always a prefix [0, top]. Encountering an old-epoch node first at
  // `level` means `level` is its topmost linked level; if its tower should
  // be taller, the insert was interrupted — finish it (§4.5.2).
  const std::uint32_t height = node.height();
  if (index_ != nullptr) {
    // DRAM mode: the tower lives in the volatile index, so re-registration
    // is the entire repair (idempotent — a rebuild-registered node is
    // simply found and left alone).
    if (height >= 2) {
      register_in_index(node_riv);
      UPSL_CRASH_POINT("core.insert_recovered");
    }
    return;
  }
  if (level + 1 >= height) return;
  std::uint64_t preds[64];
  std::uint64_t succs[64];
  // Fresh traversal for the node's own key: the caller's pred/succ arrays
  // describe the search key's path, which may bracket a different position.
  traverse(node.first_key(), preds, succs, /*recovery_budget=*/0);
  link_higher_levels(preds, succs, node_riv, level + 1, height);
  UPSL_CRASH_POINT("core.insert_recovered");
}

// ---------------------------------------------------------------------------
// Linking (Functions 17-19)
// ---------------------------------------------------------------------------

void UPSkipList::populate_levels(const std::uint64_t* succs, NodeView node,
                                 std::uint32_t start_level,
                                 std::uint32_t end_level) {
  // The refreshed pointers only need to be durable before the node becomes
  // reachable at these levels (the link CAS in the caller), so they can all
  // ride one fence. Adjacent levels share cache lines (8 next-words per
  // line), which the flush set dedupes as well.
  pmem::FlushSet fs;
  for (std::uint32_t l = start_level; l < end_level; ++l) {
    pm_store(node.next(l), succs[l]);
    fs.add(&node.next(l), sizeof(std::uint64_t));
  }
  fs.commit();
}

void UPSkipList::link_higher_levels(std::uint64_t* preds, std::uint64_t* succs,
                                    std::uint64_t node_riv,
                                    std::uint32_t start_level,
                                    std::uint32_t height) {
  NodeView node = view(node_riv);
  const std::uint64_t node_key = node.first_key();
  for (std::uint32_t level = start_level; level < height; ++level) {
    SpinGuard guard("link_higher_levels");
    while (true) {
      guard.tick();
      // If the traversal reached the node itself at this level, the node is
      // already linked here — possible when recovery is driven from below
      // the tower's true top (e.g. by a scan claiming at level 0). Linking
      // "again" would CAS the node's own next pointer into a self-loop.
      if (preds[level] == node_riv) break;
      NodeView pred = view(preds[level]);
      if (pm_load(pred.next(level)) == node_riv) break;  // already linked
      const std::uint64_t expected = pm_load(node.next(level));
      if (pm_cas_value(pred.next(level), expected, node_riv)) {
        // Changes to next pointers at a level must be persisted before
        // changes at higher levels (Function 17 line 233) — otherwise a
        // crash could leave a non-prefix tower, which recovery relies on
        // never happening.
        persist(&pred.next(level), sizeof(std::uint64_t));
        UPSL_CRASH_POINT("core.linked_level");
        break;
      }
      // The neighbourhood changed: recompute it and refresh this node's
      // remaining next pointers (Function 17 lines 235-237).
      traverse(node_key, preds, succs, /*recovery_budget=*/0);
      populate_levels(succs, node, level, height);
    }
  }
}

// ---------------------------------------------------------------------------
// DRAM search layer (docs/dram-index.md)
// ---------------------------------------------------------------------------

void UPSkipList::register_in_index(std::uint64_t node_riv) {
  // Publish a data node into the volatile index with ordinary CASes —
  // nothing here is flushed or fenced. A thread dying between the level-0
  // link and this call costs hops until the next rebuild, never
  // correctness (the level-0 walk finds the node regardless).
  // Sentinels are implicit (head = the seek miss, tail = null successor);
  // recovery claims them like any stale node, so filter them here.
  if (node_riv == head_riv_ || node_riv == tail_riv_) return;
  NodeView n = view(node_riv);
  const std::uint32_t h = n.height();
  if (h < 2) return;
  index_->insert(n.first_key(), node_riv, n.raw(), h);
}

std::uint64_t UPSkipList::rebuild_dram_index(unsigned workers) {
  if (index_ == nullptr) return 0;
  if (workers == 0) workers = default_rebuild_workers();
  const auto t0 = std::chrono::steady_clock::now();
  // The sequential part: snapshot (first_key, riv, address, height) of
  // every indexable data node, in level-0 (= ascending key) order. Heights
  // were persisted by make_node before the node could be linked, so they
  // are correct even right after a crash.
  std::vector<DramIndex::Entry> entries;
  std::uint64_t cur = pm_load(view(head_riv_).next(0));
  while (true) {
    NodeView v = view(cur);
    if (v.is_tail()) break;
    const std::uint32_t h = v.height();
    if (h >= 2) entries.push_back({v.first_key(), cur, v.raw(), h});
    cur = pm_load(v.next(0));
  }
  index_->rebuild(entries, workers);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  last_rebuild_ns_ = ns;
  auto& st = pmem::Stats::instance();
  st.index_rebuilds.fetch_add(1, std::memory_order_relaxed);
  st.index_rebuild_ns.fetch_add(ns, std::memory_order_relaxed);
  return ns;
}

void UPSkipList::rebuild_persistent_towers() {
  // Mode switch DRAM -> persistent towers: the PMEM next pointers above
  // level 0 were not maintained while the store ran with the DRAM index,
  // so rewrite every one of them from the data level. The spine holds, per
  // level, the last node written at that level; a node's own upper next
  // pointers are filled in when its level successor arrives (or by the
  // tail fix-up). index_mode flips to 0 only after this completes, so a
  // crash anywhere in here simply redoes the full rewrite.
  std::vector<std::uint64_t> spine(layout_.max_height, head_riv_);
  std::uint64_t cur = pm_load(view(head_riv_).next(0));
  while (true) {
    NodeView v = view(cur);
    if (v.is_tail()) break;
    const std::uint32_t h = std::min(v.height(), layout_.max_height);
    if (h >= 2) {
      pmem::FlushSet fs;
      for (std::uint32_t l = 1; l < h; ++l) {
        NodeView sp = view(spine[l]);
        pm_store(sp.next(l), cur);
        fs.add(&sp.next(l), sizeof(std::uint64_t));
        spine[l] = cur;
      }
      fs.commit();
      UPSL_CRASH_POINT("core.tower_rebuild");
    }
    cur = pm_load(v.next(0));
  }
  pmem::FlushSet fs;
  for (std::uint32_t l = 1; l < layout_.max_height; ++l) {
    NodeView sp = view(spine[l]);
    pm_store(sp.next(l), tail_riv_);
    fs.add(&sp.next(l), sizeof(std::uint64_t));
  }
  fs.commit();
}

// ---------------------------------------------------------------------------
// Reads (Functions 8-9)
// ---------------------------------------------------------------------------

std::optional<std::uint64_t> UPSkipList::search(std::uint64_t key) {
  if (key == kNullKey || key == kTailKey)
    throw std::invalid_argument("key out of user range");
  return search_from(key, nullptr);
}

void UPSkipList::search_many(const std::uint64_t* keys, std::size_t n,
                             std::optional<std::uint64_t>* out) {
  for (std::size_t i = 0; i < n; ++i)
    if (keys[i] == kNullKey || keys[i] == kTailKey)
      throw std::invalid_argument("key out of user range");
  if (index_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) out[i] = search_from(keys[i], nullptr);
    return;
  }
  // Hints stay valid however late they are used: a node's first key is
  // immutable and data nodes are never freed (docs/dram-index.md §1).
  riv::DataHandle hints[DramIndex::kSeekLanes];
  for (std::size_t base = 0; base < n; base += DramIndex::kSeekLanes) {
    const std::size_t m = std::min<std::size_t>(n - base, DramIndex::kSeekLanes);
    std::uint64_t hops = 0;
    index_->seek_many(keys + base, m, hints, &hops);
    auto& st = pmem::Stats::instance();
    st.index_hops.fetch_add(hops, std::memory_order_relaxed);
    st.dram_node_visits.fetch_add(hops, std::memory_order_relaxed);
    // The level-0 walks start at the hint nodes: pull in each one's header,
    // level-0 link and leading key lines before the first walk needs them.
    for (std::size_t i = 0; i < m; ++i) {
      if (hints[i].is_null()) continue;
      const NodeView v(static_cast<char*>(hints[i].ptr), &layout_);
      UPSL_PREFETCH(hints[i].ptr);
      UPSL_PREFETCH(&v.next(0));
      prefetch_keys(v);
    }
    for (std::size_t i = 0; i < m; ++i)
      out[base + i] = search_from(keys[base + i], &hints[i]);
  }
}

std::optional<std::uint64_t> UPSkipList::search_from(
    std::uint64_t key, const riv::DataHandle* hint) {
  std::uint64_t preds[64];
  std::uint64_t succs[64];
  SpinGuard guard("search");
  while (true) {
    guard.tick();
    const TraverseResult res = traverse(key, preds, succs,
                                        opts_.recovery_budget,
                                        std::exchange(hint, nullptr));
    NodeView node = view(preds[0]);
    if (!res.found) {
      if (preds[0] == head_riv_) return std::nullopt;
      // Validate the miss: a concurrent split may have moved the key to the
      // successor after we read next[0] but before we scanned the keys.
      // (The thesis' pseudocode validates only hits; misses need the same
      // splitCount check for strict linearizability.)
      if (node.write_locked()) continue;
      if (pm_load(node.split_count()) != res.split_count) continue;
      return std::nullopt;
    }
    if (node.write_locked()) continue;  // value unreliable mid-split
    const std::uint64_t value =
        pm_load(node.value(static_cast<std::uint32_t>(res.key_index)));
    if (pm_load(node.split_count()) != res.split_count) continue;
    // Reader-forced persistence: the insert's linearization point is the
    // persistence of the value; a reader returning it must make sure it is
    // durable first, or a crash could erase a value that was already
    // observed (§4.5). A tombstone is no different: the remove that wrote
    // it may not have flushed it yet, and an observed absence must not be
    // undone by a crash either.
    persist(&node.value(static_cast<std::uint32_t>(res.key_index)),
            sizeof(std::uint64_t));
    if (value == kTombstone) return std::nullopt;
    return value;
  }
}

// ---------------------------------------------------------------------------
// Writes (Functions 13-16, 20)
// ---------------------------------------------------------------------------

std::optional<std::uint64_t> UPSkipList::update_value(NodeView node,
                                                      std::int32_t idx,
                                                      std::uint64_t value) {
  // Function 14: CAS until success; total order over updates of this key.
  // Callers updating a key they did not claim themselves ack-persist its
  // key line first: the insert that claimed the slot may still hold that
  // line in its own unflushed ack batch, and a crash that lost the claim
  // would scrub the slot (scrub_torn_slots) and this acked value with it.
  auto& word = node.value(static_cast<std::uint32_t>(idx));
  SpinGuard guard("update_value");
  while (true) {
    guard.tick();
    std::uint64_t old = pm_load(word);
    if (pm_cas(word, old, value)) {
      pmem::ack_persist(&word, sizeof(word));
      UPSL_CRASH_POINT("core.updated_value");
      if (old == kTombstone) return std::nullopt;
      return old;
    }
  }
}

std::optional<std::uint64_t> UPSkipList::insert(std::uint64_t key,
                                                std::uint64_t value) {
  if (key == kNullKey || key == kTailKey)
    throw std::invalid_argument("key out of user range");
  if (value == kTombstone)
    throw std::invalid_argument("value reserved for tombstones");
  std::uint64_t preds[64];
  std::uint64_t succs[64];
  SpinGuard guard("insert");
  while (true) {
    guard.tick();
    const TraverseResult res = traverse(key, preds, succs, ~0u);
    NodeView pred = view(preds[0]);
    const std::uint64_t current = pm_load(*epoch_word_);

    if (res.found) {
      // Update path: the read lock excludes concurrent splits; the split
      // counter check rejects a split completed since the traversal.
      if (!pred.try_read_lock(current)) continue;
      if (pm_load(pred.split_count()) != res.split_count) {
        pred.read_unlock();
        continue;
      }
      pmem::ack_persist(&pred.key(static_cast<std::uint32_t>(res.key_index)),
                        sizeof(std::uint64_t));
      auto old = update_value(pred, res.key_index, value);
      pred.read_unlock();
      return old;
    }

    if (preds[0] == head_riv_) {
      if (create_head_successor(key, value, preds, succs)) return std::nullopt;
      continue;
    }

    std::optional<std::uint64_t> old;
    switch (insert_into_existing(key, value, preds, res.split_count, &old)) {
      case InsertStatus::kRestart:
        continue;
      case InsertStatus::kNeedSplit:
        if (split_node(key, value, preds, succs, &old) == InsertStatus::kDone)
          return old;
        continue;
      case InsertStatus::kDone:
        return old;
    }
  }
}

bool UPSkipList::create_head_successor(std::uint64_t key, std::uint64_t value,
                                       std::uint64_t* preds,
                                       std::uint64_t* succs) {
  // Function 15: the head stores no keys, so a key smaller than every
  // existing first key gets a brand-new node right after the head.
  const auto height = static_cast<std::uint32_t>(
      thread_rng().geometric_height(static_cast<int>(layout_.max_height)));
  const std::uint64_t succ = succs[0];
  const std::uint64_t node_riv = make_node(head_riv_, key, value, height, succs);
  UPSL_CRASH_POINT("core.head_succ_made");
  NodeView head = view(head_riv_);
  if (pmem::mod_writes_enabled()) {
    if (!publish_data_link(head, succ, node_riv)) {
      block_alloc_->deallocate(node_riv);
      return false;
    }
  } else {
    if (!pm_cas_value(head.next(0), succ, node_riv)) {
      block_alloc_->deallocate(node_riv);
      return false;
    }
    persist(&head.next(0), sizeof(std::uint64_t));
  }
  UPSL_CRASH_POINT("core.head_succ_linked");
  if (index_ != nullptr)
    register_in_index(node_riv);
  else
    link_higher_levels(preds, succs, node_riv, 1, height);
  return true;
}

UPSkipList::InsertStatus UPSkipList::insert_into_existing(
    std::uint64_t key, std::uint64_t value, std::uint64_t* preds,
    std::uint64_t split_count, std::optional<std::uint64_t>* old_out) {
  // Function 16: claim the first empty slot with a key CAS, then publish the
  // value. Claiming without rescanning for duplicates is safe because the
  // traversal scanned all keys and every concurrent inserter of this key
  // fights for the same first empty slot (§4.5).
  NodeView pred = view(preds[0]);
  const std::uint64_t current = pm_load(*epoch_word_);
  if (!pred.try_read_lock(current)) return InsertStatus::kRestart;
  if (pm_load(pred.split_count()) != split_count) {
    pred.read_unlock();
    return InsertStatus::kRestart;
  }
  for (std::uint32_t i = 0; i < layout_.keys_per_node; ++i) {
    std::uint64_t k = pm_load(pred.key(i));
    if (k == kNullKey) {
      if (pm_cas_value(pred.key(i), kNullKey, key)) {
        // The key and value lines only gate the ack, with no ordering
        // between them: a crash can leave any subset durable, and the one
        // torn combination (durable value under a reverted null key) is
        // scrubbed back to a free slot at claim time (scrub_torn_slots).
        pmem::ack_persist(&pred.key(i), sizeof(std::uint64_t));
        UPSL_CRASH_POINT("core.slot_claimed");
        *old_out = update_value(pred, static_cast<std::int32_t>(i), value);
        pred.read_unlock();
        return InsertStatus::kDone;
      }
      k = pm_load(pred.key(i));  // lost the slot race; did they insert `key`?
    }
    if (k == key) {
      pmem::ack_persist(&pred.key(i), sizeof(std::uint64_t));
      *old_out = update_value(pred, static_cast<std::int32_t>(i), value);
      pred.read_unlock();
      return InsertStatus::kDone;
    }
  }
  pred.read_unlock();
  return InsertStatus::kNeedSplit;
}

UPSkipList::InsertStatus UPSkipList::split_node(
    std::uint64_t key, std::uint64_t value, std::uint64_t* preds,
    std::uint64_t* succs, std::optional<std::uint64_t>* old_out) {
  // Function 20. The write lock only needs to be held while keys are
  // transferred and erased; the tower of the new node is built after the
  // lock is released (§4.2).
  NodeView pred = view(preds[0]);
  const std::uint64_t current = pm_load(*epoch_word_);
  if (!pred.try_write_lock(current))
    return InsertStatus::kRestart;  // someone else is progressing
  // Make the locked state durable before any destructive step: recovery
  // detects an interrupted split by this bit (Function 11).
  persist(&pred.lock_word(), sizeof(std::uint64_t));
  UPSL_CRASH_POINT("core.split_locked");

  const std::uint32_t K = layout_.keys_per_node;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  pairs.reserve(K);
  for (std::uint32_t i = 0; i < K; ++i) {
    const std::uint64_t k = pm_load(pred.key(i));
    if (k != kNullKey) pairs.emplace_back(k, pm_load(pred.value(i)));
  }
  if (pairs.size() < 2) {
    // A full single-key node (keys_per_node == 1) cannot be halved: insert
    // the new key as its own node right after pred instead — exactly the
    // classic Herlihy insert this configuration degenerates to (Fig 5.3).
    const auto height = static_cast<std::uint32_t>(
        thread_rng().geometric_height(static_cast<int>(layout_.max_height)));
    std::uint64_t node_succs[64];
    for (std::uint32_t l = 0; l < height; ++l) node_succs[l] = succs[l];
    node_succs[0] = pm_load(pred.next(0));
    // The neighbourhood may have changed between the traversal and taking
    // the lock (another single-key "split" can have inserted a node after
    // pred, possibly with this very key): re-validate under the lock.
    if (key >= view(node_succs[0]).first_key()) {
      pred.write_unlock();
      persist(&pred.lock_word(), sizeof(std::uint64_t));
      return InsertStatus::kRestart;
    }
    const std::uint64_t new_riv =
        make_node(preds[0], key, value, height, node_succs);
    if (pmem::mod_writes_enabled()) {
      if (!publish_data_link(pred, node_succs[0], new_riv)) {
        block_alloc_->deallocate(new_riv);
        pred.write_unlock();
        persist(&pred.lock_word(), sizeof(std::uint64_t));
        return InsertStatus::kRestart;
      }
    } else {
      if (!pm_cas_value(pred.next(0), node_succs[0], new_riv)) {
        block_alloc_->deallocate(new_riv);
        pred.write_unlock();
        persist(&pred.lock_word(), sizeof(std::uint64_t));
        return InsertStatus::kRestart;
      }
      persist(&pred.next(0), sizeof(std::uint64_t));
    }
    pred.write_unlock();
    // The unlock flush only gates the ack: a crash that loses it re-runs
    // split recovery on pred, which finds nothing to erase (no key moved)
    // and unlocks again — idempotent.
    pmem::ack_persist(&pred.lock_word(), sizeof(std::uint64_t));
    if (index_ != nullptr) {
      register_in_index(new_riv);
    } else {
      traverse(key, preds, succs, ~0u);
      link_higher_levels(preds, succs, new_riv, 1, height);
    }
    *old_out = std::nullopt;
    return InsertStatus::kDone;
  }
  std::sort(pairs.begin(), pairs.end());
  const std::size_t mid = pairs.size() / 2;

  const auto height = static_cast<std::uint32_t>(
      thread_rng().geometric_height(static_cast<int>(layout_.max_height)));
  // The new node's successors: every recorded successor of the traversal has
  // a first key greater than every key in pred, so the arrays are valid for
  // the median key as well (see DESIGN.md).
  std::uint64_t node_succs[64];
  for (std::uint32_t l = 0; l < height; ++l) node_succs[l] = succs[l];
  node_succs[0] = pm_load(pred.next(0));

  const std::uint64_t new_riv =
      make_node(preds[0], pairs[mid].first, pairs[mid].second, height,
                node_succs);
  NodeView nn = view(new_riv);
  for (std::size_t i = mid; i < pairs.size(); ++i) {
    pm_store(nn.key(static_cast<std::uint32_t>(i - mid)), pairs[i].first);
    pm_store(nn.value(static_cast<std::uint32_t>(i - mid)), pairs[i].second);
  }
  // The copied half is sorted and hole-free, so the run normally equals
  // pairs.size() - mid; computing it from the slots clamps sorted_count to
  // the populated prefix no matter what the copy produced.
  pm_store(nn.sorted_count(),
           static_cast<std::uint64_t>(sorted_run_length(nn, K)));
  if (pmem::mod_writes_enabled()) {
    // Out-of-place build, second pass: the copied upper half and the
    // sorted_count landed after make_node's writeback, so re-flush the
    // whole node — still unordered; the publish fence below is the single
    // ordering point for everything the new node contains.
    pmem::flush(nn.raw(), layout_.node_size());
    UPSL_CRASH_POINT("core.mod_built");
  } else {
    persist(nn.raw(), layout_.node_size());
  }
  UPSL_CRASH_POINT("core.split_node_made");

  const std::uint64_t expected_next = pm_load(nn.next(0));
  if (pmem::mod_writes_enabled()) {
    pmem::fence();  // publish: new node fully durable before it is linked
    UPSL_CRASH_POINT("core.mod_prepublish");
  }
  if (!pm_cas_value(pred.next(0), expected_next, new_riv)) {
    // Cannot happen while we hold the split lock and nodes are never
    // removed, but stay faithful to the pseudocode's guard (line 258).
    block_alloc_->deallocate(new_riv);
    pred.write_unlock();
    persist(&pred.lock_word(), sizeof(std::uint64_t));
    return InsertStatus::kRestart;
  }
  // The link and the split-counter bump commit under one fence: readers are
  // already fended off by the durable write lock, and the only extra crash
  // state the batching admits — a durable counter bump with a lost link —
  // is benign (a spuriously bumped counter can only cause a retry, and
  // split recovery keys off the lock word, not the counter).
  {
    pmem::FlushSet fs;
    fs.add(&pred.next(0), sizeof(std::uint64_t));
    pm_store(pred.split_count(), pm_load(pred.split_count()) + 1);
    fs.add(&pred.split_count(), sizeof(std::uint64_t));
    fs.commit();
  }
  UPSL_CRASH_POINT("core.split_linked");

  // Erase the moved upper half from the original node.
  for (std::uint32_t i = 0; i < K; ++i) {
    const std::uint64_t k = pm_load(pred.key(i));
    if (k >= pairs[mid].first && k != kNullKey) {
      pm_store(pred.key(i), kNullKey);
      pm_store(pred.value(i), kTombstone);
    }
  }
  // The surviving sorted prefix is whatever leading run stayed non-null and
  // ascending (erasure punched holes into the old prefix).
  pm_store(pred.sorted_count(),
           static_cast<std::uint64_t>(sorted_run_length(pred, K)));
  persist(pred.raw(), layout_.node_size());
  UPSL_CRASH_POINT("core.split_erased");
  pred.write_unlock();
  // Deferrable like the single-key branch: losing the unlock flush re-runs
  // the (idempotent) erase scan on recovery; every moved key is already
  // durable in the new node, so nothing acked can be lost.
  pmem::ack_persist(&pred.lock_word(), sizeof(std::uint64_t));

  // Build the new node's tower outside the lock (Function 20 lines 269-270).
  if (index_ != nullptr) {
    register_in_index(new_riv);
  } else {
    traverse(pm_load(nn.key(0)), preds, succs, ~0u);
    link_higher_levels(preds, succs, new_riv, 1, height);
  }
  // The calling Insert retries and lands in the old or the new node.
  return InsertStatus::kRestart;
}

std::optional<std::uint64_t> UPSkipList::remove(std::uint64_t key) {
  // §4.6: removals tombstone the value, behaving as updates.
  if (key == kNullKey || key == kTailKey)
    throw std::invalid_argument("key out of user range");
  std::uint64_t preds[64];
  std::uint64_t succs[64];
  SpinGuard guard("remove");
  while (true) {
    guard.tick();
    const TraverseResult res = traverse(key, preds, succs, ~0u);
    NodeView node = view(preds[0]);
    if (!res.found) {
      if (preds[0] == head_riv_) return std::nullopt;
      if (node.write_locked()) continue;
      if (pm_load(node.split_count()) != res.split_count) continue;
      return std::nullopt;
    }
    const std::uint64_t current = pm_load(*epoch_word_);
    if (!node.try_read_lock(current)) continue;
    if (pm_load(node.split_count()) != res.split_count) {
      node.read_unlock();
      continue;
    }
    auto& word = node.value(static_cast<std::uint32_t>(res.key_index));
    std::optional<std::uint64_t> removed;
    while (true) {
      std::uint64_t old = pm_load(word);
      if (old == kTombstone) {
        // Already absent — but the remove that wrote the tombstone may not
        // have flushed it yet, or may have died before it could. Acking
        // "absent" makes the tombstone ours to persist.
        pmem::ack_persist(&word, sizeof(word));
        break;
      }
      if (pm_cas(word, old, kTombstone)) {
        UPSL_CRASH_POINT("core.removed_cas");
        pmem::ack_persist(&word, sizeof(word));
        UPSL_CRASH_POINT("core.removed_value");
        removed = old;
        break;
      }
    }
    node.read_unlock();
    return removed;
  }
}

// ---------------------------------------------------------------------------
// Detectable mutations (docs/detectability.md)
// ---------------------------------------------------------------------------

namespace {

/// Shared dedup preamble: true if the outcome is already decided by the
/// session table (replayed seq, or detectability unavailable → run plain).
bool detect_dedup(detect::SessionTable& sessions, std::int32_t slot,
                  std::uint64_t seq, bool* plain,
                  UPSkipList::DetectOutcome* out) {
  using State = detect::ResolveResult::State;
  *plain = !sessions.valid() || !detect::detect_enabled() || slot < 0;
  if (*plain) return false;
  const detect::ResolveResult r =
      sessions.lookup(static_cast<std::uint32_t>(slot), seq);
  if (r.state == State::kApplied) {
    out->duplicate = true;
    if (r.has_previous != 0) out->previous = r.result;
    return true;
  }
  if (r.state == State::kAppliedUnknown) {
    out->duplicate = true;
    out->result_known = false;
    return true;
  }
  return false;
}

}  // namespace

UPSkipList::DetectOutcome UPSkipList::insert_detect(std::uint64_t key,
                                                    std::uint64_t value,
                                                    std::int32_t slot,
                                                    std::uint64_t seq) {
  DetectOutcome out;
  bool plain = false;
  if (detect_dedup(sessions_, slot, seq, &plain, &out)) return out;
  out.previous = insert(key, value);
  if (plain) return out;
  // The record's lines join the ambient AckBatch: slot and mutation become
  // durable under the same batch ack fence.
  sessions_.record(static_cast<std::uint32_t>(slot), seq,
                   out.previous.has_value() ? 1 : 0,
                   out.previous.value_or(0));
  return out;
}

UPSkipList::DetectOutcome UPSkipList::remove_detect(std::uint64_t key,
                                                    std::int32_t slot,
                                                    std::uint64_t seq) {
  DetectOutcome out;
  bool plain = false;
  if (detect_dedup(sessions_, slot, seq, &plain, &out)) return out;
  out.previous = remove(key);
  if (plain) return out;
  sessions_.record(static_cast<std::uint32_t>(slot), seq,
                   out.previous.has_value() ? 1 : 0,
                   out.previous.value_or(0));
  return out;
}

// ---------------------------------------------------------------------------
// Scans and diagnostics
// ---------------------------------------------------------------------------

std::size_t UPSkipList::scan(std::uint64_t lo, std::uint64_t hi,
                             std::vector<ScanEntry>& out) {
  std::uint64_t resume = 0;
  return scan_chunk(lo, hi, 0, out, &resume);
}

std::size_t UPSkipList::scan_chunk(std::uint64_t lo, std::uint64_t hi,
                                   std::size_t limit,
                                   std::vector<ScanEntry>& out,
                                   std::uint64_t* resume_key) {
  *resume_key = 0;
  if (lo > hi) return 0;
  if (lo == kNullKey) lo = 1;                // kNullKey is never a user key
  if (hi >= kTailKey) hi = kTailKey - 1;     // keeps hi + 1 overflow-free
  if (limit == 0) limit = std::numeric_limits<std::size_t>::max();
  std::uint64_t preds[64];
  std::uint64_t succs[64];
  traverse(lo, preds, succs, opts_.recovery_budget);
  std::uint64_t cur_riv = preds[0];
  const std::size_t before = out.size();

  // One kernel call covers up to 1024 keys (16 mask words on the stack);
  // larger nodes are filtered in blocks. No heap allocation on this path.
  constexpr std::uint32_t kBlock = 1024;
  std::uint64_t mask[kBlock / 64];
  const std::uint32_t kpn = layout_.keys_per_node;
  std::uint64_t nodes_visited = 0;
  std::uint64_t kernel_calls = 0;

  SpinGuard walk_guard("scan.walk");
  while (cur_riv != 0) {
    walk_guard.tick();
    NodeView node = view(cur_riv);
    if (node.is_tail()) break;
    if (node.first_key() > hi) break;  // rest of the level is beyond hi
    std::uint64_t next_riv = 0;
    if (cur_riv == head_riv_) {
      next_riv = pm_load(node.next(0));
    } else {
      ++nodes_visited;
      const std::size_t node_start = out.size();
      // Per-node atomic filter, validated by the split counter: the kernel
      // reads the key slots with plain loads, and any concurrent split
      // bumps the counter and sends us around again.
      SpinGuard guard("scan.filter");
      while (true) {
        guard.tick();
        out.resize(node_start);  // discard a half-filtered failed attempt
        const std::uint64_t sc = pm_load(node.split_count());
        if (node.write_locked()) {
          // A durably locked node from a dead epoch never unlocks by
          // itself — claim and repair it (a live split unlocks shortly).
          std::uint32_t recoveries = 0;
          check_for_recovery(0, cur_riv, node, &recoveries, ~0u);
          continue;
        }
        next_riv = pm_load(node.next(0));
        // Overlap the successor's key-line fetches with this node's filter.
        std::uint64_t next_first = kTailKey;
        if (next_riv != 0) {
          NodeView next = view(next_riv);
          prefetch_keys(next);
          if (!next.is_tail()) next_first = next.first_key();
        }
        // Fully-inside fast path: internal keys lie in (first_key,
        // next.first_key), so when those bounds already sit inside [lo, hi]
        // the kernel only has to reject kNullKey holes — no per-key range
        // compare against the caller's bounds at all.
        std::uint64_t flo = lo;
        std::uint64_t fhi = hi;
        if (node.first_key() >= lo && next_first <= hi + 1) {
          flo = 1;
          fhi = kTailKey;
        }
        const std::uint64_t* keys = node.keys();
        for (std::uint32_t base = 0; base < kpn; base += kBlock) {
          const std::uint32_t blk = std::min(kBlock, kpn - base);
          simd::range_mask_u64(keys + base, blk, flo, fhi, mask);
          ++kernel_calls;
          for (std::uint32_t w = 0; w < (blk + 63) / 64; ++w) {
            std::uint64_t bits = mask[w];
            while (bits != 0) {
              const std::uint32_t idx =
                  base + w * 64 +
                  static_cast<std::uint32_t>(__builtin_ctzll(bits));
              bits &= bits - 1;
              // Under an unchanged split counter a claimed slot's key is
              // immutable, so this re-read matches what the kernel saw.
              const std::uint64_t k = pm_load(node.key(idx));
              const std::uint64_t v = pm_load(node.value(idx));
              if (v != kTombstone) out.push_back({k, v});
            }
          }
        }
        if (pm_load(node.split_count()) == sc) break;
      }
      if (out.size() - before >= limit) {
        // Stop at a node boundary: every key below next_first is covered,
        // so the continuation picks up exactly there.
        if (next_riv != 0) {
          NodeView next = view(next_riv);
          if (!next.is_tail() && next.first_key() <= hi)
            *resume_key = next.first_key();
        }
        cur_riv = 0;
        continue;
      }
    }
    cur_riv = next_riv;
  }

  std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
            [](const ScanEntry& a, const ScanEntry& b) { return a.key < b.key; });
  // A key that migrated right during the walk can be collected twice; keep
  // the first occurrence.
  auto* first = out.data() + before;
  const auto n = static_cast<std::size_t>(out.size() - before);
  std::size_t w = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (w > 0 && first[r].key == first[w - 1].key) continue;
    first[w++] = first[r];
  }
  out.resize(before + w);

  auto& st = pmem::Stats::instance();
  st.scan_nodes_visited.fetch_add(nodes_visited, std::memory_order_relaxed);
  st.simd_scan_filters.fetch_add(kernel_calls, std::memory_order_relaxed);
  st.scan_entries_returned.fetch_add(w, std::memory_order_relaxed);
  st.scan_chunks.fetch_add(1, std::memory_order_relaxed);
  return w;
}

std::size_t UPSkipList::count_keys() {
  std::vector<ScanEntry> entries;
  return scan(1, kTailKey - 1, entries);
}

void UPSkipList::check_invariants() {
  // Bottom level: strictly increasing first keys, internal keys bounded by
  // (first_key, successor.first_key), tombstone values on every null slot.
  NodeView node = view(head_riv_);
  std::uint64_t cur = pm_load(node.next(0));
  std::uint64_t prev_first = 0;
  std::size_t bottom_count = 0;
  while (true) {
    NodeView v = view(cur);
    if (v.is_tail()) break;
    ++bottom_count;
    const std::uint64_t first = v.first_key();
    if (first <= prev_first)
      throw std::logic_error("bottom level not strictly sorted");
    prev_first = first;
    NodeView succ = view(pm_load(v.next(0)));
    const std::uint64_t bound = succ.first_key();
    for (std::uint32_t i = 0; i < layout_.keys_per_node; ++i) {
      const std::uint64_t k = pm_load(v.key(i));
      if (k == kNullKey) {
        // A non-tombstone value under a null key is a torn MOD slot claim:
        // legal only on a node the current epoch has not claimed yet
        // (scrub_torn_slots repairs it at claim time).
        if (pm_load(v.value(i)) != kTombstone &&
            pm_load(v.epoch_id()) == pm_load(*epoch_word_))
          throw std::logic_error("null key slot without tombstone value");
        continue;
      }
      if (k < first || k >= bound)
        throw std::logic_error("internal key outside node bounds");
    }
    // Sorted-prefix invariant (what the block search in scan_internal_keys
    // relies on for its early exit): slots [0, sorted_count) are populated
    // and strictly ascending.
    const std::uint64_t sc = pm_load(v.sorted_count());
    if (sc > layout_.keys_per_node)
      throw std::logic_error("sorted_count exceeds keys_per_node");
    std::uint64_t prev_sorted = 0;
    for (std::uint64_t i = 0; i < sc; ++i) {
      const std::uint64_t k = pm_load(v.key(static_cast<std::uint32_t>(i)));
      if (k == kNullKey)
        throw std::logic_error("null key inside sorted prefix");
      if (i > 0 && k <= prev_sorted)
        throw std::logic_error("sorted prefix not strictly ascending");
      prev_sorted = k;
    }
    if (v.height() == 0 || v.height() > layout_.max_height)
      throw std::logic_error("node height out of range");
    cur = pm_load(v.next(0));
  }
  if (index_ != nullptr) {
    // DRAM mode: the PMEM towers are stale by design — validate the
    // volatile index against the data level instead. On a quiesced store
    // every height >= 2 node is registered exactly once with matching
    // identity, and the index's own levels are properly nested.
    index_->check_invariants();
    std::vector<DramIndex::Entry> expect;
    std::uint64_t c = pm_load(view(head_riv_).next(0));
    while (true) {
      NodeView v = view(c);
      if (v.is_tail()) break;
      if (v.height() >= 2) expect.push_back({v.first_key(), c, v.raw(), v.height()});
      c = pm_load(v.next(0));
    }
    std::vector<DramIndex::Entry> got;
    index_->for_each([&](const DramIndex::Entry& e) { got.push_back(e); });
    if (got.size() != expect.size())
      throw std::logic_error(
          "dram index entries (" + std::to_string(got.size()) +
          ") != indexable data nodes (" + std::to_string(expect.size()) + ")");
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].key != expect[i].key || got[i].riv != expect[i].riv)
        throw std::logic_error("dram index entry mismatches data level");
      if (got[i].height != std::min(expect[i].height, layout_.max_height))
        throw std::logic_error("dram index height mismatches node meta");
    }
    return;
  }
  // Every higher level must be a sorted sub-sequence of the level below.
  for (std::uint32_t l = 1; l < layout_.max_height; ++l) {
    std::uint64_t upper = pm_load(view(head_riv_).next(l));
    std::uint64_t lower = pm_load(view(head_riv_).next(l - 1));
    while (upper != tail_riv_) {
      while (lower != tail_riv_ && lower != upper)
        lower = pm_load(view(lower).next(l - 1));
      if (lower == tail_riv_)
        throw std::logic_error("upper level node missing from lower level");
      if (view(upper).height() <= l)
        throw std::logic_error("node linked above its height");
      upper = pm_load(view(upper).next(l));
    }
  }
}

std::size_t UPSkipList::count_nodes() {
  std::size_t n = 0;
  std::uint64_t cur = pm_load(view(head_riv_).next(0));
  while (true) {
    NodeView v = view(cur);
    if (v.is_tail()) return n;
    ++n;
    cur = pm_load(v.next(0));
  }
}

bool UPSkipList::tower_complete(std::uint64_t key) {
  std::uint64_t preds[64];
  std::uint64_t succs[64];
  const TraverseResult res = traverse(key, preds, succs, 0);
  if (!res.found) return false;
  const std::uint64_t node_riv = preds[0];
  NodeView node = view(node_riv);
  if (index_ != nullptr) {
    // Level 0 is proven by the traversal having found the node; the rest of
    // the tower is the DRAM registration.
    if (node.height() < 2) return true;
    return index_->complete(node.first_key(), node.height() - 1);
  }
  for (std::uint32_t l = 0; l < node.height(); ++l) {
    std::uint64_t cur = pm_load(view(head_riv_).next(l));
    bool found = false;
    while (cur != tail_riv_) {
      if (cur == node_riv) {
        found = true;
        break;
      }
      cur = pm_load(view(cur).next(l));
    }
    if (!found) return false;
  }
  return true;
}

void UPSkipList::check_no_leaks() {
  std::size_t total_blocks = 0;
  for (auto& ca : chunk_allocs_) {
    for (std::uint32_t c = 0; c < ca->header().max_chunks; ++c)
      if (ca->dir_entry(c).state == alloc::ChunkState::kAllocated)
        total_blocks += ca->chunk_data_size() / block_alloc_->block_size();
  }
  const std::size_t free_blocks = block_alloc_->count_all_free_blocks();
  const std::size_t live = count_nodes() + 2;  // + head and tail sentinels
  if (free_blocks + live != total_blocks)
    throw std::logic_error(
        "block leak: " + std::to_string(total_blocks) + " carved, " +
        std::to_string(free_blocks) + " free + " + std::to_string(live) +
        " live");
}

std::string UPSkipList::leak_report() {
  std::vector<std::uint64_t> free_rivs;
  block_alloc_->collect_free_rivs(&free_rivs);
  std::unordered_map<std::uint64_t, int> free_count;
  for (std::uint64_t r : free_rivs) ++free_count[r];

  std::unordered_set<std::uint64_t> live;
  live.insert(head_riv_);
  live.insert(tail_riv_);
  {
    std::uint64_t cur = pm_load(view(head_riv_).next(0));
    while (cur != 0) {
      NodeView v = view(cur);
      live.insert(cur);
      if (v.is_tail()) break;
      cur = pm_load(v.next(0));
    }
  }

  std::ostringstream os;
  for (const auto& [r, n] : free_count) {
    if (n > 1) os << "double-free: riv " << r << " accounted " << n << "x\n";
    if (live.count(r) != 0) os << "free-and-live: riv " << r << "\n";
  }

  const int hw = ThreadRegistry::high_water();
  auto referencing_slots = [&](std::uint64_t r) {
    std::string refs;
    for (int t = 0; t < hw; ++t) {
      const alloc::ThreadLog& log = block_alloc_->log_of(t);
      if (pm_load(log.block) == r)
        refs += " log[tid=" + std::to_string(t) +
                ",epoch=" + std::to_string(pm_load(log.epoch)) + "]";
      const alloc::MagazineDesc& d = block_alloc_->magazine_of(t);
      for (std::uint32_t i = 0; i < alloc::kMagazineSlots; ++i) {
        if (pm_load(d.alloc_rivs[i]) == r)
          refs += " mag[tid=" + std::to_string(t) + ",alloc_slot=" +
                  std::to_string(i) + ",epoch=" +
                  std::to_string(pm_load(d.epoch)) + "]";
        if (pm_load(d.ret_rivs[i]) == r)
          refs += " mag[tid=" + std::to_string(t) + ",ret_slot=" +
                  std::to_string(i) + ",epoch=" +
                  std::to_string(pm_load(d.epoch)) + "]";
      }
    }
    return refs.empty() ? std::string(" <no descriptor references>") : refs;
  };

  std::size_t leaked = 0;
  const std::uint64_t bs = block_alloc_->block_size();
  for (auto& ca : chunk_allocs_) {
    for (std::uint32_t c = 0; c < ca->header().max_chunks; ++c) {
      if (ca->dir_entry(c).state != alloc::ChunkState::kAllocated) continue;
      const std::uint64_t nblocks = ca->chunk_data_size() / bs;
      char* data = ca->chunk_data(c);
      for (std::uint64_t i = 0; i < nblocks; ++i) {
        const std::uint64_t r = ca->riv_of(data + i * bs);
        if (free_count.count(r) != 0 || live.count(r) != 0) continue;
        ++leaked;
        const auto* b = reinterpret_cast<const alloc::MemBlock*>(data + i * bs);
        os << "leaked riv " << r << ": state=" << std::hex
           << pm_load(b->state) << std::dec
           << " owner_tag=" << pm_load(b->owner_tag)
           << " epoch=" << pm_load(b->epoch_id)
           << " key0=" << pm_load(view(r).key(0)) << referencing_slots(r)
           << "\n";
      }
    }
  }
  os << leaked << " leaked blocks total (epoch now "
     << pm_load(*epoch_word_) << ")\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Allocation-log reachability (Function 3 lines 15-22)
// ---------------------------------------------------------------------------

bool UPSkipList::block_reachable(std::uint64_t riv) {
  // Classifier for stale magazine-descriptor entries: unlike kNodeAlloc logs
  // there is no recorded predecessor, so walk the bottom level from the head
  // until the key range passes the candidate's first key. The walk only runs
  // on blocks with durable non-free contents, and a node can only be linked
  // after its full initialization persisted (make_node), so key(0) of any
  // reachable candidate is durably correct — even under random-eviction
  // crashes.
  if (riv == head_riv_ || riv == tail_riv_) return true;
  const std::uint64_t key = pm_load(view(riv).key(0));
  std::uint64_t cur = pm_load(view(head_riv_).next(0));
  SpinGuard guard("block_reachable");
  while (cur != 0) {
    guard.tick();
    if (cur == riv) return true;
    NodeView v = view(cur);
    if (v.is_tail()) return false;
    if (v.first_key() > key) return false;
    cur = pm_load(v.next(0));
  }
  return false;
}

bool UPSkipList::log_block_reachable(const alloc::ThreadLog& log) {
  if (log.pred == 0) return true;  // sentinel bootstrap allocations
  std::uint64_t cur = log.pred;
  while (cur != 0) {
    if (cur == log.block) return true;
    NodeView v = view(cur);
    if (v.is_tail()) return false;
    if (cur != head_riv_ && v.first_key() > log.key) return false;
    cur = pm_load(v.next(0));
  }
  return false;
}

// ---------------------------------------------------------------------------
// Corruption-aware recovery (docs/integrity.md)
// ---------------------------------------------------------------------------

bool UPSkipList::valid_node_riv(std::uint64_t riv) const {
  if (riv == 0) return false;
  const riv::Decoded d = riv::decode(riv);
  const alloc::ChunkAllocator* ca = nullptr;
  for (const auto& c : chunk_allocs_)
    if (c->pool().id() == d.pool) {
      ca = c.get();
      break;
    }
  if (ca == nullptr) return false;
  if (d.chunk >= ca->header().max_chunks) return false;
  if (ca->dir_entry(d.chunk).state != alloc::ChunkState::kAllocated)
    return false;
  constexpr std::uint32_t kHdr =
      static_cast<std::uint32_t>(alloc::ChunkAllocator::kChunkHeaderSize);
  if (d.offset < kHdr) return false;
  const std::uint64_t bs = block_alloc_->block_size();
  const std::uint64_t data_off = d.offset - kHdr;
  if (data_off % bs != 0) return false;
  return data_off + bs <= ca->chunk_data_size();
}

bool UPSkipList::node_header_ok(NodeView v, std::uint64_t riv) const {
  const std::uint64_t meta = pm_load(v.meta());
  const auto height = static_cast<std::uint32_t>(meta & 0xff);
  // Semantic checks first: they hold for every legally written header and
  // catch a zeroed header line (height 0, self_riv 0) even though a zeroed
  // stamp reads as "unstamped" under the kill-switch-compatible convention.
  if (height < 1 || height > layout_.max_height) return false;
  if ((meta & 0xffffff00ull) != 0) return false;  // bits 8..31 always zero
  if (pm_load(v.self_riv()) != riv) return false;
  const std::uint64_t w[3] = {riv, pm_load(v.key(0)), height};
  return checksum_verify(w, sizeof(w),
                         static_cast<std::uint32_t>(meta >> 32));
}

void UPSkipList::quarantine_scan() {
  // The sentinels anchor everything — there is no structure to repair
  // around them, so damage there is detected-fatal, not quarantined.
  if (!valid_node_riv(head_riv_) || !valid_node_riv(tail_riv_) ||
      !node_header_ok(view(head_riv_), head_riv_) ||
      !node_header_ok(view(tail_riv_), tail_riv_))
    throw CorruptionError("sentinel node failed its header integrity check");

  auto& st = pmem::Stats::instance();
  NodeView pred = view(head_riv_);
  std::uint64_t last_good_key = kNullKey;  // head's routing key
  std::uint64_t cur = pm_load(pred.next(0));
  bool bridging = false;       // at least one node quarantined since `pred`
  std::uint64_t run_hops = 0;  // consecutive quarantined hops
  std::uint64_t total = 0;

  auto quarantine = [&](std::uint64_t riv, bool stamp_failed) {
    integrity_.quarantined_rivs.push_back(riv);
    ++integrity_.nodes_quarantined;
    st.quarantined_nodes.fetch_add(1, std::memory_order_relaxed);
    if (stamp_failed)
      st.checksum_failures.fetch_add(1, std::memory_order_relaxed);
  };
  auto amputate = [&] {
    // The chain past `pred` is unusable (unresolvable link or a cycle of
    // damage): bridge straight to the tail and report everything above the
    // last good key as lost. Conservative, but sound for the contract —
    // nothing is silently wrong, only explicitly lost.
    pm_store(pred.next(0), tail_riv_);
    persist(&pred.next(0), sizeof(std::uint64_t));
    integrity_.lost.push_back({last_good_key, kTailKey});
  };

  while (true) {
    if (cur == tail_riv_) {
      if (bridging) {
        pm_store(pred.next(0), tail_riv_);
        persist(&pred.next(0), sizeof(std::uint64_t));
        integrity_.lost.push_back({last_good_key, kTailKey});
      }
      break;
    }
    if (++total > (64ull << 20) || run_hops > 256) {
      amputate();
      break;
    }
    if (!valid_node_riv(cur)) {
      // The link itself is garbage: nothing safe to dereference, so the
      // rest of the chain is unreachable.
      quarantine(cur, /*stamp_failed=*/false);
      amputate();
      break;
    }
    NodeView v = view(cur);
    const bool header_ok = node_header_ok(v, cur);
    const std::uint64_t k0 = pm_load(v.key(0));
    // A good node must also sit in key order: a stamped-valid node whose
    // key0 is not strictly above the last good key means the *link* was
    // redirected (e.g. into an earlier node, a cycle seed) — hop through
    // rather than trust it here.
    if (header_ok && k0 > last_good_key && k0 < kTailKey) {
      if (bridging) {
        pm_store(pred.next(0), cur);
        persist(&pred.next(0), sizeof(std::uint64_t));
        integrity_.lost.push_back({last_good_key, k0});
        bridging = false;
      }
      ++integrity_.nodes_checked;
      pred = v;
      last_good_key = k0;
      run_hops = 0;
      cur = pm_load(v.next(0));
      continue;
    }
    quarantine(cur, /*stamp_failed=*/!header_ok);
    bridging = true;
    ++run_hops;
    cur = pm_load(v.next(0));
  }
}

IntegrityReport UPSkipList::verify_deep() {
  IntegrityReport r = integrity_;
  if (checksums_enabled()) {
    std::uint64_t last_key = kNullKey;
    std::uint64_t cur = pm_load(view(head_riv_).next(0));
    std::uint64_t total = 0;
    while (cur != tail_riv_) {
      if (!valid_node_riv(cur) || ++total > (64ull << 20)) {
        r.quarantined_rivs.push_back(cur);
        ++r.nodes_quarantined;
        r.lost.push_back({last_key, kTailKey});
        break;
      }
      NodeView v = view(cur);
      if (node_header_ok(v, cur)) {
        ++r.nodes_checked;
        last_key = pm_load(v.key(0));
      } else {
        r.quarantined_rivs.push_back(cur);
        ++r.nodes_quarantined;
        r.lost.push_back({last_key, kTailKey});
        break;
      }
      cur = pm_load(v.next(0));
    }
  }
  const auto& ac = block_alloc_->counters();
  r.magazines_quarantined +=
      ac.quarantined_magazines.load(std::memory_order_relaxed);
  r.blocks_quarantined +=
      ac.quarantined_blocks.load(std::memory_order_relaxed);
  return r;
}

UPSkipList::DurableMap UPSkipList::debug_durable_map() const {
  const alloc::ChunkAllocator& ca = *chunk_allocs_[0];
  const auto* root = reinterpret_cast<const StoreRoot*>(ca.root_area());
  const std::size_t root_off =
      static_cast<std::size_t>(ca.root_area() - ca.pool().base());
  const std::size_t num_pools = pm_load(root->num_pools);
  const std::size_t apc = pm_load(root->arenas_per_pool);
  const std::size_t sess_off = sessions_offset(num_pools, apc);
  const std::size_t root_size = ca.root_size();
  DurableMap m;
  m.root_off = root_off;
  m.magazines_off = root_off + magazines_offset(num_pools, apc);
  m.sessions_off = root_off + sess_off;
  m.sessions_bytes = sess_off < root_size ? root_size - sess_off : 0;
  return m;
}

std::uint64_t UPSkipList::debug_node_riv_for(std::uint64_t key) const {
  std::uint64_t best = 0;
  std::uint64_t cur = pm_load(view(head_riv_).next(0));
  while (cur != tail_riv_) {
    NodeView v = view(cur);
    if (pm_load(v.key(0)) > key) break;
    best = cur;
    cur = pm_load(v.next(0));
  }
  return best;
}

std::string IntegrityReport::to_json() const {
  std::ostringstream os;
  os << "{\"degraded\": " << (degraded() ? "true" : "false")
     << ", \"nodes_checked\": " << nodes_checked
     << ", \"nodes_quarantined\": " << nodes_quarantined
     << ", \"sessions_quarantined\": " << sessions_quarantined
     << ", \"magazines_quarantined\": " << magazines_quarantined
     << ", \"blocks_quarantined\": " << blocks_quarantined
     << ", \"root_mode_repaired\": " << (root_mode_repaired ? "true" : "false")
     << ", \"lost_ranges\": [";
  for (std::size_t i = 0; i < lost.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"lo\": " << lost[i].lo << ", \"hi\": " << lost[i].hi << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace upsl::core
