#include "core/dram_index.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace upsl::core {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

void* DramIndex::Arena::allocate(std::size_t bytes) {
  bytes = (bytes + 7) & ~std::size_t{7};
  const std::size_t cap = slabs.empty() ? 0 : kSlabBytes;
  if (slabs.empty() || used + bytes > cap) {
    slabs.push_back(std::make_unique<char[]>(std::max(kSlabBytes, bytes)));
    used = 0;
  }
  void* p = slabs.back().get() + used;
  used += bytes;
  return p;
}

void DramIndex::Arena::absorb(Arena&& other) {
  // Keep the current bump slab last so allocate() keeps appending to it.
  if (other.slabs.empty()) return;
  if (slabs.empty()) {
    slabs = std::move(other.slabs);
    used = other.used;
  } else {
    slabs.insert(slabs.end() - 1,
                 std::make_move_iterator(other.slabs.begin()),
                 std::make_move_iterator(other.slabs.end()));
  }
  other.slabs.clear();
  other.used = 0;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

DramIndex::IndexNode* DramIndex::make_node(Arena& arena, std::uint64_t key,
                                           std::uint64_t riv, char* ptr,
                                           std::uint32_t levels) {
  auto* n = static_cast<IndexNode*>(
      arena.allocate(sizeof(IndexNode) + sizeof(IndexNode*) * levels));
  n->key = key;
  n->data_riv = riv;
  n->data_ptr = ptr;
  n->levels = levels;
  std::memset(static_cast<void*>(n->slots()), 0, sizeof(IndexNode*) * levels);
  return n;
}

DramIndex::DramIndex(std::uint32_t max_height)
    : max_slots_(max_height > 1 ? max_height - 1 : 1) {
  head_ = make_node(arena_, 0, 0, nullptr, max_slots_);
}

DramIndex::~DramIndex() = default;

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

riv::DataHandle DramIndex::seek(std::uint64_t key, std::uint64_t* hops) const {
  const IndexNode* pred = head_;
  std::uint64_t h = 0;
  for (std::int32_t level =
           static_cast<std::int32_t>(top_.load(std::memory_order_acquire)) - 1;
       level >= 0; --level) {
    while (true) {
      const IndexNode* cur = slot_load(pred, static_cast<std::uint32_t>(level));
      if (cur == nullptr) break;
      ++h;
      if (cur->key > key) break;
      UPSL_PREFETCH(cur->slots());
      pred = cur;
    }
  }
  *hops += h;
  if (pred == head_) return {};
  return {pred->data_riv, pred->data_ptr};
}

void DramIndex::seek_many(const std::uint64_t* keys, std::size_t n,
                          riv::DataHandle* out, std::uint64_t* hops) const {
  // One descent per lane, in the same steps as seek(): `cur` is the node
  // the lane reads next (already prefetched), at slot level `level` below
  // `pred`. A step reads it, counts the hop, and moves right or down.
  struct Lane {
    std::uint64_t key;
    std::size_t idx;
    const IndexNode* pred;
    const IndexNode* cur;
    std::int32_t level;
  };
  // Find the lane's next node: the first non-null slot of pred at or below
  // the lane's level. Reads only pred, which the lane already holds. False
  // once the lane is past level 0.
  auto advance = [](Lane& ln) {
    for (; ln.level >= 0; --ln.level) {
      ln.cur = slot_load(ln.pred, static_cast<std::uint32_t>(ln.level));
      if (ln.cur != nullptr) {
        UPSL_PREFETCH(ln.cur);
        UPSL_PREFETCH(ln.cur->slots() + ln.level);
        return true;
      }
    }
    return false;
  };
  auto finish = [&](const Lane& ln) {
    out[ln.idx] = ln.pred == head_
                      ? riv::DataHandle{}
                      : riv::DataHandle{ln.pred->data_riv, ln.pred->data_ptr};
  };
  const auto top =
      static_cast<std::int32_t>(top_.load(std::memory_order_acquire));
  std::size_t next = 0;
  // Start the next unstarted key on `ln`; keys whose descent is empty
  // finish at once. False when no key is left.
  auto refill = [&](Lane& ln) {
    while (next < n) {
      ln = Lane{keys[next], next, head_, nullptr, top - 1};
      ++next;
      if (advance(ln)) return true;
      finish(ln);
    }
    return false;
  };

  Lane lanes[kSeekLanes];
  unsigned active = 0;
  while (active < kSeekLanes && refill(lanes[active])) ++active;
  std::uint64_t h = 0;
  for (unsigned i = 0; active > 0; i = i + 1 < active ? i + 1 : 0) {
    Lane& ln = lanes[i];
    ++h;
    if (ln.cur->key > ln.key)
      --ln.level;
    else
      ln.pred = ln.cur;
    if (advance(ln)) continue;
    finish(ln);
    if (!refill(ln)) {
      // Retire the lane: the last active lane moves into its place, and
      // the loop revisits this index next.
      ln = lanes[--active];
      if (active == 0) break;
      i = i == 0 ? active - 1 : i - 1;
    }
  }
  *hops += h;
}

bool DramIndex::find(std::uint64_t key, IndexNode** preds, IndexNode** succs,
                     IndexNode** match) const {
  // Cover every slot level (not just [0, top_)): an inserter taller than the
  // current top needs valid head/null brackets above it.
  IndexNode* pred = head_;
  for (std::int32_t level = static_cast<std::int32_t>(max_slots_) - 1;
       level >= 0; --level) {
    IndexNode* cur = slot_load(pred, static_cast<std::uint32_t>(level));
    while (cur != nullptr && cur->key < key) {
      pred = cur;
      cur = slot_load(pred, static_cast<std::uint32_t>(level));
    }
    preds[level] = pred;
    succs[level] = cur;
  }
  *match = (succs[0] != nullptr && succs[0]->key == key) ? succs[0] : nullptr;
  return *match != nullptr;
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void DramIndex::raise_top(std::uint32_t levels) {
  std::uint32_t cur = top_.load(std::memory_order_relaxed);
  while (cur < levels &&
         !top_.compare_exchange_weak(cur, levels, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
  }
}

void DramIndex::insert(std::uint64_t key, std::uint64_t riv, char* ptr,
                       std::uint32_t height) {
  if (height < 2) return;
  const std::uint32_t levels = std::min(height - 1, max_slots_);
  IndexNode* preds[64];
  IndexNode* succs[64];
  IndexNode* match = nullptr;
  if (find(key, preds, succs, &match)) return;  // already registered

  IndexNode* node;
  {
    std::lock_guard<std::mutex> lk(arena_mu_);
    node = make_node(arena_, key, riv, ptr, levels);
  }
  for (std::uint32_t i = 0; i < levels; ++i) slot_store(node, i, succs[i]);

  // Slot-0 CAS is the linearization point. Keys are unique (one data node
  // per first key, nodes never removed), so the loser that finds the key
  // present simply abandons its node — the arena reclaims it at the next
  // rebuild. The list is insert-only, so the CAS is ABA-free.
  while (!slot_cas(preds[0], 0, succs[0], node)) {
    if (find(key, preds, succs, &match)) return;
    for (std::uint32_t i = 0; i < levels; ++i) slot_store(node, i, succs[i]);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  raise_top(levels);

  for (std::uint32_t i = 1; i < levels; ++i) {
    while (true) {
      if (succs[i] == node) break;  // a helper re-find saw us linked here
      if (slot_load(preds[i], i) == node) break;
      slot_store(node, i, succs[i]);
      if (slot_cas(preds[i], i, succs[i], node)) break;
      find(key, preds, succs, &match);
    }
  }
}

// ---------------------------------------------------------------------------
// Rebuild (open/recovery path; store not yet serving)
// ---------------------------------------------------------------------------

void DramIndex::rebuild(const std::vector<Entry>& sorted, unsigned workers) {
  arena_ = Arena{};
  head_ = make_node(arena_, 0, 0, nullptr, max_slots_);
  top_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);

  std::vector<Entry> indexed;
  indexed.reserve(sorted.size());
  for (const Entry& e : sorted)
    if (e.height >= 2) indexed.push_back(e);
  if (indexed.empty()) return;

  // Per-worker contiguous stripe: a private arena and a spine of last-seen
  // nodes per level gives an O(n) single-pass build with plain stores. The
  // deterministic merge threads stripe boundary pointers together level by
  // level, so the final structure depends only on the entries (heights come
  // from durable node meta), never on the worker count or interleaving.
  struct Stripe {
    Arena arena;
    std::vector<IndexNode*> first, last;
    std::uint32_t top = 0;
  };
  const unsigned W = static_cast<unsigned>(std::clamp<std::size_t>(
      workers == 0 ? 1 : workers, 1, indexed.size()));
  std::vector<Stripe> stripes(W);

  auto build_stripe = [&](unsigned w) {
    Stripe& s = stripes[w];
    s.first.assign(max_slots_, nullptr);
    s.last.assign(max_slots_, nullptr);
    const std::size_t begin = indexed.size() * w / W;
    const std::size_t end = indexed.size() * (w + 1) / W;
    for (std::size_t i = begin; i < end; ++i) {
      const Entry& e = indexed[i];
      const std::uint32_t levels = std::min(e.height - 1, max_slots_);
      IndexNode* n = make_node(s.arena, e.key, e.riv, e.ptr, levels);
      for (std::uint32_t l = 0; l < levels; ++l) {
        if (s.last[l] != nullptr)
          s.last[l]->slots()[l] = n;
        else
          s.first[l] = n;
        s.last[l] = n;
      }
      s.top = std::max(s.top, levels);
    }
  };

  if (W == 1) {
    build_stripe(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(W);
    for (unsigned w = 0; w < W; ++w) threads.emplace_back(build_stripe, w);
    for (auto& t : threads) t.join();
  }

  std::vector<IndexNode*> tail_at(max_slots_, head_);
  std::uint32_t top = 0;
  for (Stripe& s : stripes) {
    for (std::uint32_t l = 0; l < max_slots_; ++l) {
      if (s.first[l] == nullptr) continue;
      tail_at[l]->slots()[l] = s.first[l];
      tail_at[l] = s.last[l];
    }
    top = std::max(top, s.top);
    arena_.absorb(std::move(s.arena));
  }
  top_.store(top, std::memory_order_release);
  count_.store(indexed.size(), std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

bool DramIndex::complete(std::uint64_t key, std::uint32_t levels) const {
  for (std::uint32_t l = 0; l < std::min(levels, max_slots_); ++l) {
    const IndexNode* cur = slot_load(head_, l);
    bool found = false;
    while (cur != nullptr && cur->key <= key) {
      if (cur->key == key) {
        found = true;
        break;
      }
      cur = slot_load(cur, l);
    }
    if (!found) return false;
  }
  return true;
}

void DramIndex::check_invariants() const {
  std::size_t at_slot0 = 0;
  for (std::uint32_t l = 0; l < max_slots_; ++l) {
    std::uint64_t prev = 0;
    bool have_prev = false;
    for (const IndexNode* n = slot_load(head_, l); n != nullptr;
         n = slot_load(n, l)) {
      if (have_prev && n->key <= prev)
        throw std::logic_error("dram index level not strictly ascending");
      prev = n->key;
      have_prev = true;
      if (n->levels <= l)
        throw std::logic_error("dram index node linked above its height");
      if (l == 0) ++at_slot0;
      if (l > 0) {
        // Subsequence check: the node must appear on the level below.
        const IndexNode* below = slot_load(head_, l - 1);
        while (below != nullptr && below != n && below->key <= n->key)
          below = slot_load(below, l - 1);
        if (below != n)
          throw std::logic_error("dram index node missing from lower level");
      }
    }
  }
  if (at_slot0 != entries())
    throw std::logic_error("dram index entry count mismatch");
}

}  // namespace upsl::core
