// UPSkipList node structure (thesis §4.2).
//
// A node overlays exactly one allocator block. The layout keeps the hot
// metadata — split lock, split counter, epoch id, height — and the node's
// first key inside the first cache line, so the traversal's recovery check
// and first-key comparison cost no extra fetches (§4.4):
//
//   off  0  split_lock    reader-writer lock guarding node splits
//   off  8  split_count   bumped on every completed split; validates reads
//   off 16  epoch_id      failure-free epoch (shared offset with MemBlock)
//   off 24  meta          packed height; never equals MemBlock::kFreeState
//   off 32  owner_tag     allocator ownership stamp (shared with MemBlock)
//   off 40  self_riv      this node's own RIV
//   off 48  reserved
//   off 56  keys[0]       first of keys_per_node keys (rest follow)
//   ...     values[keys_per_node]
//   ...     next[max_height] RIVs
//
// keys_per_node and max_height are store-creation parameters, so field
// offsets are computed through a NodeLayout rather than a static struct.
#pragma once

#include <cstdint>

#include "alloc/block.hpp"
#include "common/compiler.hpp"
#include "pmem/persist.hpp"
#include "riv/riv.hpp"

namespace upsl::core {

/// Key 0 marks an empty slot (freshly allocated blocks are zeroed, so a CAS
/// 0 -> key claims a slot); UINT64_MAX is the tail sentinel's first key.
/// User keys therefore live in [1, UINT64_MAX - 1].
inline constexpr std::uint64_t kNullKey = 0;
inline constexpr std::uint64_t kTailKey = ~0ULL;
/// Value UINT64_MAX marks a removed / never-inserted slot (§4.6).
inline constexpr std::uint64_t kTombstone = ~0ULL;

struct NodeLayout {
  std::uint32_t keys_per_node;
  std::uint32_t max_height;

  static constexpr std::size_t kKeysOffset = 56;

  std::size_t values_offset() const {
    return kKeysOffset + 8ull * keys_per_node;
  }
  std::size_t next_offset() const {
    return values_offset() + 8ull * keys_per_node;
  }
  std::size_t node_size() const {
    return align_up(next_offset() + 8ull * max_height, kCacheLineSize);
  }
};

/// Split-lock word: bit 63 = writer, low 32 bits = reader count. The word is
/// PMEM-resident; the writer bit is persisted when taken (so an interrupted
/// split is detectable after a crash, Function 11), reader counts are not
/// (stale counts are drained during recovery, Function 10 line 122).
inline constexpr std::uint64_t kWriterBit = 1ULL << 63;
inline constexpr std::uint64_t kReaderMask = 0xffffffffULL;

/// Set in a node's epoch word while one recovering thread drains it: the
/// word is then neither stale nor current, so the locks refuse the node and
/// other recovering threads leave it alone.
inline constexpr std::uint64_t kClaimingBit = 1ULL << 63;

/// Cheap typed view over a node's raw memory.
class NodeView {
 public:
  NodeView() = default;
  NodeView(char* p, const NodeLayout* layout) : p_(p), layout_(layout) {}

  char* raw() const { return p_; }
  bool valid() const { return p_ != nullptr; }

  std::uint64_t& lock_word() const { return word(0); }
  std::uint64_t& split_count() const { return word(8); }
  std::uint64_t& epoch_id() const { return word(16); }
  std::uint64_t& meta() const { return word(24); }
  std::uint64_t& owner_tag() const { return word(32); }
  std::uint64_t& self_riv() const { return word(40); }
  /// Number of leading key slots known to be sorted (set when a split
  /// produces a fully sorted node; enables the §7 binary-search
  /// optimization when Options::sorted_splits is on).
  std::uint64_t& sorted_count() const { return word(48); }

  std::uint64_t& key(std::uint32_t i) const {
    return word(NodeLayout::kKeysOffset + 8ull * i);
  }
  /// Raw key-slot array for the vectorized scan kernels (common/simd.hpp).
  /// Slots are naturally aligned 8-byte words; see simd.hpp for why plain
  /// vector loads of them are sound under concurrent slot-claim CASes.
  const std::uint64_t* keys() const {
    return reinterpret_cast<const std::uint64_t*>(p_ + NodeLayout::kKeysOffset);
  }
  std::uint64_t& value(std::uint32_t i) const {
    return word(layout_->values_offset() + 8ull * i);
  }
  std::uint64_t& next(std::uint32_t level) const {
    return word(layout_->next_offset() + 8ull * level);
  }

  std::uint32_t height() const {
    return static_cast<std::uint32_t>(pmem::pm_load(meta()) & 0xff);
  }
  std::uint64_t first_key() const { return pmem::pm_load(key(0)); }
  bool is_tail() const { return first_key() == kTailKey; }

  // ---- split lock -----------------------------------------------------

  bool write_locked() const {
    return (pmem::pm_load(lock_word()) & kWriterBit) != 0;
  }

  /// Try-lock semantics (Function 16 line 200): fails instead of waiting,
  /// and refuses to lock a node whose epoch is stale — the caller must
  /// re-traverse, which claims and repairs the node first. This is what
  /// makes the recovery's reader-drain race-free: no live reader can be
  /// incrementing the count of a stale node.
  bool try_read_lock(std::uint64_t current_epoch) const {
    while (true) {
      if (pmem::pm_load(epoch_id()) != current_epoch) return false;
      std::uint64_t w = pmem::pm_load(lock_word());
      if ((w & kWriterBit) != 0) return false;
      if (pmem::pm_cas(lock_word(), w, w + 1)) return true;
    }
  }

  void read_unlock() const {
    pmem::pm_fetch_add(lock_word(), ~std::uint64_t{0});  // -1
  }

  bool try_write_lock(std::uint64_t current_epoch) const {
    if (pmem::pm_load(epoch_id()) != current_epoch) return false;
    std::uint64_t expected = 0;
    return pmem::pm_cas(lock_word(), expected, kWriterBit);
  }

  void write_unlock() const {
    pmem::pm_store(lock_word(), std::uint64_t{0});
  }

  /// Begin claiming a node last stamped in `stale_epoch` for
  /// `current_epoch` (Function 10). False if another thread got there
  /// first. Until end_claim() the epoch word holds the claiming mark, so no
  /// live thread can lock the node and only the winner touches it: the
  /// stale reader counts are drained here, and the caller may repair slots
  /// no live insert can be claiming. The drain must come after the claim:
  /// a thread that lost the race could otherwise drain once live readers
  /// hold the lock, and with one stale and one live reader the word reads
  /// 1 both times, so its CAS would wipe the live count (a split then runs
  /// under that reader, whose unlock underflows the word into a writer bit
  /// nobody owns).
  bool begin_claim(std::uint64_t stale_epoch,
                   std::uint64_t current_epoch) const {
    std::uint64_t expected = stale_epoch;
    if (!pmem::pm_cas(epoch_id(), expected, current_epoch | kClaimingBit))
      return false;
    drain_stale_readers();
    return true;
  }

  void end_claim(std::uint64_t current_epoch) const {
    pmem::pm_store(epoch_id(), current_epoch);
  }

  /// DrainReaders (Function 10): clear a stale reader count left by threads
  /// that died in the crash, preserving a durable writer bit. Uses CAS, not
  /// a blind store — the blind-store version was one of the two bugs the
  /// thesis' linearizability testing caught (§6.3).
  void drain_stale_readers() const {
    while (true) {
      const std::uint64_t w = pmem::pm_load(lock_word());
      if ((w & kReaderMask) == 0) return;
      std::uint64_t expected = w;
      if (pmem::pm_cas(lock_word(), expected, w & kWriterBit)) return;
    }
  }

 private:
  std::uint64_t& word(std::size_t off) const {
    return *reinterpret_cast<std::uint64_t*>(p_ + off);
  }

  char* p_ = nullptr;
  const NodeLayout* layout_ = nullptr;
};

static_assert(alloc::kObjEpochOffset == 16 && alloc::kObjStateOffset == 24 &&
                  alloc::kObjOwnerOffset == 32,
              "node layout must keep allocator-shared offsets");

}  // namespace upsl::core
