// Volatile DRAM search layer for UPSkipList (selective persistence).
//
// UPSkipList's recoverability depends only on the bottom (data) level: index
// towers are pure search acceleration and are fully reconstructible from the
// sorted level-0 chain. This class keeps all index levels (level >= 1) in
// DRAM as a concurrent skip list over (first_key -> data node), so the
// traversal hot path walks compact DRAM nodes with plain pointers — no RIV
// `to_ptr` dispatch, no epoch/dirty checks, no PMEM flush traffic — until it
// drops to the durable data level.
//
// Two structural invariants of the data level make the index trivially
// safe:
//   * data nodes are never removed (removals tombstone values), and
//   * a node's first key is immutable after make_node (splits move the
//     *upper* half out; split recovery never nulls key(0)).
// So the index is insert-only — no deletion, no marks — and ANY subset of
// registrations is correct: the index only supplies a starting hint for the
// level-0 walk, which alone completes every operation. A missed or lost
// registration costs hops, never correctness; the next rebuild restores it.
//
// Memory: nodes are carved from append-only slab arenas and freed only when
// the whole index is dropped (close or rebuild). Index memory is never
// flushed and dies with the process — `rebuild()` reconstructs it from a
// sorted snapshot of the data level, in parallel (per-worker stripe build +
// deterministic pointer merge, cf. deterministic skiplist construction).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/compiler.hpp"
#include "riv/riv.hpp"

namespace upsl::core {

class DramIndex {
 public:
  /// One data-level node to (re)register: its immutable first key, its RIV,
  /// its current virtual address and its stored tower height (>= 2, or the
  /// node has no index presence).
  struct Entry {
    std::uint64_t key;
    std::uint64_t riv;
    char* ptr;
    std::uint32_t height;
  };

  explicit DramIndex(std::uint32_t max_height);
  ~DramIndex();
  DramIndex(const DramIndex&) = delete;
  DramIndex& operator=(const DramIndex&) = delete;

  /// Greatest indexed key <= `key`, as a resolved data-level handle
  /// ({kNull, nullptr} if no indexed key qualifies — start at the head).
  /// Adds the number of DRAM nodes visited to *hops. Wait-free.
  riv::DataHandle seek(std::uint64_t key, std::uint64_t* hops) const;

  /// Batched seek: out[i] = seek(keys[i]) for i < n, with the same hop
  /// total. Up to kSeekLanes descents run interleaved, one hop per lane per
  /// round, and each lane prefetches the node it visits next, so the lanes'
  /// cache misses overlap instead of serialising. Wait-free.
  void seek_many(const std::uint64_t* keys, std::size_t n,
                 riv::DataHandle* out, std::uint64_t* hops) const;
  static constexpr unsigned kSeekLanes = 16;

  /// Register a data node (idempotent — concurrent and repeated calls for
  /// the same key collapse to one entry; the slot-0 CAS is the linearization
  /// point). Ordinary volatile CASes, nothing is flushed. No-op for
  /// height < 2.
  void insert(std::uint64_t key, std::uint64_t riv, char* ptr,
              std::uint32_t height);

  /// Drop everything and rebuild from `sorted` (ascending by key, unique —
  /// the data level's natural order). Heights come from the durable node
  /// meta, so the result is identical regardless of `workers`: each worker
  /// builds a contiguous stripe, then the stripes are stitched level by
  /// level. Not thread-safe against concurrent readers/writers (runs during
  /// open/recovery, before the store serves).
  void rebuild(const std::vector<Entry>& sorted, unsigned workers);

  /// Registered entries (indexed data nodes).
  std::size_t entries() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// True iff `key` is registered and linked at slot levels [0, levels)
  /// — the DRAM analogue of a complete persistent tower.
  bool complete(std::uint64_t key, std::uint32_t levels) const;

  /// Structural self-check (test/diagnostic; call quiesced): every slot
  /// level strictly ascending, every level a subsequence of the level
  /// below, slot counts consistent with the registered height. Throws on
  /// violation.
  void check_invariants() const;

  /// Visit every registered entry in ascending key order (quiesced walks
  /// only — used by invariant checks and diagnostics).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const IndexNode* n = slot_load(head_, 0); n != nullptr;
         n = slot_load(n, 0)) {
      fn(Entry{n->key, n->data_riv, n->data_ptr, n->levels + 1});
    }
  }

 private:
  /// A volatile index node: header + `levels` forward pointers. Slot i
  /// carries skip-list level i + 1 (level 0 lives in PMEM), so a data node
  /// of tower height h owns h - 1 slots. Slots are raw pointers accessed
  /// through std::atomic_ref, matching the codebase's PMEM-word idiom.
  struct IndexNode {
    std::uint64_t key;
    std::uint64_t data_riv;
    char* data_ptr;
    std::uint32_t levels;
    IndexNode** slots() {
      return reinterpret_cast<IndexNode**>(this + 1);
    }
    IndexNode* const* slots() const {
      return reinterpret_cast<IndexNode* const*>(this + 1);
    }
  };
  static_assert(sizeof(IndexNode) % alignof(IndexNode*) == 0);

  /// Append-only slab allocator; nodes are trivially destructible and are
  /// reclaimed only when the arena is dropped.
  struct Arena {
    static constexpr std::size_t kSlabBytes = 64 << 10;
    std::vector<std::unique_ptr<char[]>> slabs;
    std::size_t used = 0;
    void* allocate(std::size_t bytes);
    void absorb(Arena&& other);
  };

  static IndexNode* slot_load(const IndexNode* n, std::uint32_t i) {
    return std::atomic_ref<IndexNode* const>(n->slots()[i])
        .load(std::memory_order_acquire);
  }
  static void slot_store(IndexNode* n, std::uint32_t i, IndexNode* v) {
    std::atomic_ref<IndexNode*>(n->slots()[i])
        .store(v, std::memory_order_release);
  }
  static bool slot_cas(IndexNode* n, std::uint32_t i, IndexNode* expected,
                       IndexNode* desired) {
    return std::atomic_ref<IndexNode*>(n->slots()[i])
        .compare_exchange_strong(expected, desired,
                                 std::memory_order_acq_rel,
                                 std::memory_order_acquire);
  }

  static IndexNode* make_node(Arena& arena, std::uint64_t key,
                              std::uint64_t riv, char* ptr,
                              std::uint32_t levels);

  /// Fill preds/succs for `key` at every slot level; true iff an exact
  /// match exists (returned in *match).
  bool find(std::uint64_t key, IndexNode** preds, IndexNode** succs,
            IndexNode** match) const;

  void raise_top(std::uint32_t level);
  void clear_unlocked();

  std::uint32_t max_slots_;       // max_height - 1
  IndexNode* head_ = nullptr;     // key-less sentinel with max_slots_ slots
  std::atomic<std::uint32_t> top_{0};  // highest slot index in use + 1
  std::atomic<std::size_t> count_{0};
  Arena arena_;
  std::mutex arena_mu_;  // guards arena_ on the (rare) insert path
};

}  // namespace upsl::core
