#include "bztree/bztree.hpp"

#include <algorithm>
#include <cstring>

#include "common/crashpoint.hpp"
#include <map>
#include <stdexcept>

namespace upsl::bztree {

using pmem::persist;
using pmem::pm_fetch_add;
using pmem::pm_load;
using pmem::pm_store;

namespace {
constexpr std::uint64_t kMagic = 0x425a545245453231ULL;  // "BZTREE21"
constexpr std::uint64_t kFrozenBit = 1ULL << 48;
constexpr std::uint64_t kCountMask = 0xffffffffULL;
constexpr std::uint64_t kVisible = 1;
}  // namespace

/// Pool header for a BzTree store.
struct BzHeader {
  std::uint64_t magic;
  std::uint64_t root;  // pool offset of root node (PMwCAS target)
  std::uint64_t desc_off;
  std::uint64_t desc_count;
  std::uint64_t heap_next;
  std::uint64_t heap_end;
  std::uint64_t leaf_capacity;
  std::uint64_t internal_capacity;
};

/// Node: header + three parallel arrays (keys, values, meta). Internal
/// nodes keep all entries sorted and immutable; leaves have a sorted prefix
/// [0, sorted_count) and an append-only unsorted suffix.
struct BzTree::Node {
  std::uint64_t status;  // frozen bit | record count (PMwCAS target)
  std::uint32_t capacity;
  std::uint32_t sorted_count;
  std::uint32_t is_leaf;
  std::uint32_t pad;

  std::uint64_t* keys() { return reinterpret_cast<std::uint64_t*>(this + 1); }
  std::uint64_t* values() { return keys() + capacity; }
  std::uint64_t* metas() { return values() + capacity; }

  static std::uint64_t bytes(std::uint32_t capacity) {
    return align_up(sizeof(Node) + 24ull * capacity, kCacheLineSize);
  }
  std::uint32_t count(std::uint64_t status_word) const {
    return static_cast<std::uint32_t>(status_word & kCountMask);
  }
  static bool frozen(std::uint64_t status_word) {
    return (status_word & kFrozenBit) != 0;
  }
};

BzTree::Node* BzTree::node_at(std::uint64_t off) const {
  return reinterpret_cast<Node*>(pool_.base() + off);
}

std::uint64_t* BzTree::root_word() const {
  return &reinterpret_cast<BzHeader*>(pool_.base())->root;
}

std::uint64_t BzTree::alloc_node(std::uint32_t capacity, bool leaf) {
  auto* h = reinterpret_cast<BzHeader*>(pool_.base());
  const std::uint64_t size = Node::bytes(capacity);
  const std::uint64_t off = pm_fetch_add(h->heap_next, size);
  if (off + size > h->heap_end) throw std::bad_alloc();
  persist(&h->heap_next, sizeof(h->heap_next));
  Node* n = node_at(off);
  std::memset(n, 0, size);
  n->capacity = capacity;
  n->is_leaf = leaf ? 1 : 0;
  return off;
}

BzTree::BzTree(pmem::Pool& pool, bool creating, const Config* cfg)
    : pool_(pool) {
  auto* h = reinterpret_cast<BzHeader*>(pool.base());
  if (creating) {
    const std::uint64_t desc_off = align_up(sizeof(BzHeader), kCacheLineSize);
    const std::uint64_t heap_start = align_up(
        desc_off + sizeof(pmwcas::Descriptor) * cfg->descriptor_count, 4096);
    if (heap_start + (64 << 10) > pool.size())
      throw std::invalid_argument("pool too small for BzTree");
    std::memset(h, 0, sizeof(BzHeader));
    h->desc_off = desc_off;
    h->desc_count = cfg->descriptor_count;
    h->heap_next = heap_start;
    h->heap_end = pool.size();
    h->leaf_capacity = cfg->leaf_capacity;
    h->internal_capacity = cfg->internal_capacity;
    pmwcas::DescriptorPool::format(pool, desc_off, cfg->descriptor_count);
    persist(h, sizeof(BzHeader));
    cfg_ = *cfg;
    descs_ = std::make_unique<pmwcas::DescriptorPool>(
        pool, desc_off, cfg->descriptor_count);
    h->root = alloc_node(cfg->leaf_capacity, /*leaf=*/true);
    persist(node_at(h->root), Node::bytes(cfg->leaf_capacity));
    persist(&h->root, sizeof(h->root));
    pm_store(h->magic, kMagic);
    persist(&h->magic, sizeof(h->magic));
  } else {
    if (pm_load(h->magic) != kMagic)
      throw std::runtime_error("pool is not a BzTree");
    cfg_.leaf_capacity = static_cast<std::uint32_t>(h->leaf_capacity);
    cfg_.internal_capacity = static_cast<std::uint32_t>(h->internal_capacity);
    cfg_.descriptor_count = static_cast<std::uint32_t>(h->desc_count);
    descs_ = std::make_unique<pmwcas::DescriptorPool>(
        pool, h->desc_off, cfg_.descriptor_count);
    // The whole of BzTree recovery: descriptor-pool scan (Table 5.4).
    descs_->recover();
  }
}

std::unique_ptr<BzTree> BzTree::create(pmem::Pool& pool, const Config& cfg) {
  return std::unique_ptr<BzTree>(new BzTree(pool, true, &cfg));
}

std::unique_ptr<BzTree> BzTree::open(pmem::Pool& pool) {
  return std::unique_ptr<BzTree>(new BzTree(pool, false, nullptr));
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

std::uint64_t BzTree::find_leaf(std::uint64_t key,
                                std::vector<PathEntry>& path) {
  path.clear();
  std::uint64_t off = descs_->read(root_word());
  while (true) {
    Node* n = node_at(off);
    if (n->is_leaf != 0) return off;
    // Internal nodes are immutable and fully sorted: binary search for the
    // first separator >= key; its child covers the key.
    // PMwCAS-aware: an in-flight child swap parks a descriptor pointer in
    // the status word, whose low bits are not a record count.
    const auto cnt = n->count(descs_->read(&n->status));
    std::uint32_t lo = 0;
    std::uint32_t hi = cnt - 1;  // last separator is always UINT64_MAX
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (n->keys()[mid] >= key) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    path.push_back({off, lo});
    off = descs_->read(&n->values()[lo]);
  }
}

std::int32_t BzTree::find_in_leaf(Node* leaf, std::uint64_t key) {
  const std::uint64_t status = descs_->read(&leaf->status);
  const auto cnt = leaf->count(status);
  // Newest-wins: scan the unsorted overflow region backwards first.
  for (std::int32_t i = static_cast<std::int32_t>(cnt) - 1;
       i >= static_cast<std::int32_t>(leaf->sorted_count); --i) {
    if ((descs_->read(&leaf->metas()[i]) & kVisible) == 0) continue;
    if (pm_load(leaf->keys()[i]) == key) return i;
  }
  if (leaf->sorted_count == 0) return -1;
  // Binary search in the sorted region.
  std::int32_t lo = 0;
  std::int32_t hi = static_cast<std::int32_t>(leaf->sorted_count) - 1;
  while (lo <= hi) {
    const std::int32_t mid = (lo + hi) / 2;
    const std::uint64_t k = pm_load(leaf->keys()[mid]);
    if (k == key) {
      if ((descs_->read(&leaf->metas()[mid]) & kVisible) == 0) return -1;
      return mid;
    }
    if (k < key) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

std::optional<std::uint64_t> BzTree::search(std::uint64_t key) {
  while (true) {
    std::vector<PathEntry> path;
    const std::uint64_t leaf_off = find_leaf(key, path);
    Node* leaf = node_at(leaf_off);
    const std::int32_t idx = find_in_leaf(leaf, key);
    if (idx < 0) {
      // A frozen leaf still contains every record it ever had (SMOs copy,
      // never erase) and no insert becomes visible elsewhere until the
      // parent pointer is swapped — a miss here is a genuine miss.
      return std::nullopt;
    }
    const std::uint64_t v = descs_->read(&leaf->values()[idx]);
    if (v == kTombstone) return std::nullopt;
    persist(&leaf->values()[idx], sizeof(std::uint64_t));
    return v;
  }
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

bool BzTree::try_append(Node* leaf, std::uint64_t /*leaf_off*/,
                        std::uint64_t key, std::uint64_t value) {
  // Reserve a slot: PMwCAS bump of the record count in the status word.
  const std::uint64_t status = descs_->read(&leaf->status);
  if (Node::frozen(status)) return false;
  const std::uint32_t cnt = leaf->count(status);
  if (cnt >= leaf->capacity) return false;
  if (!descs_->mwcas({{&leaf->status, status, status + 1}})) return false;

  // Write the record payload, persist, then flip it visible with a PMwCAS
  // that also re-verifies the node was not frozen meanwhile.
  UPSL_CRASH_POINT("bztree.slot_reserved");
  pm_store(leaf->keys()[cnt], key);
  pm_store(leaf->values()[cnt], value);
  persist(&leaf->keys()[cnt], sizeof(std::uint64_t));
  persist(&leaf->values()[cnt], sizeof(std::uint64_t));
  UPSL_CRASH_POINT("bztree.payload_written");
  while (true) {
    const std::uint64_t s2 = descs_->read(&leaf->status);
    if (Node::frozen(s2)) {
      // The consolidator will not copy this invisible record; retry whole op.
      return false;
    }
    if (descs_->mwcas({{&leaf->status, s2, s2},
                       {&leaf->metas()[cnt], 0, kVisible}})) {
      UPSL_CRASH_POINT("bztree.visible");
      return true;
    }
  }
}

std::optional<std::uint64_t> BzTree::insert(std::uint64_t key,
                                            std::uint64_t value) {
  if (value >= kTombstone)
    throw std::invalid_argument("BzTree values must be below 2^62 - 1");
  while (true) {
    std::vector<PathEntry> path;
    const std::uint64_t leaf_off = find_leaf(key, path);
    Node* leaf = node_at(leaf_off);
    const std::uint64_t status = descs_->read(&leaf->status);
    if (Node::frozen(status)) {
      smo(leaf_off, path);  // complete/renew the SMO, then retry
      continue;
    }
    const std::int32_t idx = find_in_leaf(leaf, key);
    if (idx >= 0) {
      // In-place update through PMwCAS (the thesis: "a BzTree thread needs
      // to use PMwCAS to change the key value ... safely", §5.2.1).
      while (true) {
        const std::uint64_t old = descs_->read(&leaf->values()[idx]);
        const std::uint64_t s2 = descs_->read(&leaf->status);
        if (Node::frozen(s2)) break;  // retry from the top
        if (descs_->mwcas({{&leaf->status, s2, s2},
                           {&leaf->values()[idx], old, value}})) {
          return old == kTombstone ? std::nullopt
                                   : std::optional<std::uint64_t>(old);
        }
      }
      continue;
    }
    if (try_append(leaf, leaf_off, key, value)) return std::nullopt;
    if (leaf->count(descs_->read(&leaf->status)) >= leaf->capacity)
      smo(leaf_off, path);
  }
}

std::optional<std::uint64_t> BzTree::remove(std::uint64_t key) {
  while (true) {
    std::vector<PathEntry> path;
    const std::uint64_t leaf_off = find_leaf(key, path);
    Node* leaf = node_at(leaf_off);
    const std::int32_t idx = find_in_leaf(leaf, key);
    if (idx < 0) return std::nullopt;
    const std::uint64_t old = descs_->read(&leaf->values()[idx]);
    if (old == kTombstone) return std::nullopt;
    const std::uint64_t s2 = descs_->read(&leaf->status);
    if (Node::frozen(s2)) {
      smo(leaf_off, path);
      continue;
    }
    if (descs_->mwcas({{&leaf->status, s2, s2},
                       {&leaf->values()[idx], old, kTombstone}})) {
      return old;
    }
  }
}

// ---------------------------------------------------------------------------
// Structure modification: consolidate / split
// ---------------------------------------------------------------------------

void BzTree::smo(std::uint64_t leaf_off, const std::vector<PathEntry>& path) {
  Node* leaf = node_at(leaf_off);
  // Freeze the node (idempotent: fails harmlessly if already frozen).
  while (true) {
    const std::uint64_t status = descs_->read(&leaf->status);
    if (Node::frozen(status)) break;
    if (descs_->mwcas({{&leaf->status, status, status | kFrozenBit}})) break;
  }

  // Collect live records (visible, newest slot wins, tombstones dropped).
  std::map<std::uint64_t, std::uint64_t> live;
  const std::uint32_t cnt = leaf->count(descs_->read(&leaf->status));
  for (std::uint32_t i = 0; i < cnt; ++i) {
    if ((descs_->read(&leaf->metas()[i]) & kVisible) == 0) continue;
    live[pm_load(leaf->keys()[i])] = descs_->read(&leaf->values()[i]);
  }
  for (auto it = live.begin(); it != live.end();) {
    if (it->second == kTombstone) {
      it = live.erase(it);
    } else {
      ++it;
    }
  }

  auto fill = [&](std::uint64_t off, auto begin, auto end) {
    Node* n = node_at(off);
    std::uint32_t i = 0;
    for (auto it = begin; it != end; ++it, ++i) {
      n->keys()[i] = it->first;
      n->values()[i] = it->second;
      n->metas()[i] = kVisible;
    }
    n->sorted_count = i;
    n->status = i;  // count, not frozen
    persist(n, Node::bytes(n->capacity));
  };

  std::vector<std::pair<std::uint64_t, std::uint64_t>> repl;  // (sep, child)
  if (live.size() <= cfg_.leaf_capacity / 2 + 1) {
    // Consolidate into a single fresh leaf.
    const std::uint64_t fresh = alloc_node(cfg_.leaf_capacity, true);
    fill(fresh, live.begin(), live.end());
    repl.push_back({0 /*keep old separator*/, fresh});
  } else {
    // Split into two leaves around the median.
    auto mid = live.begin();
    std::advance(mid, static_cast<std::ptrdiff_t>(live.size() / 2));
    const std::uint64_t left = alloc_node(cfg_.leaf_capacity, true);
    const std::uint64_t right = alloc_node(cfg_.leaf_capacity, true);
    fill(left, live.begin(), mid);
    fill(right, mid, live.end());
    const std::uint64_t sep = std::prev(mid)->first;
    repl.push_back({sep, left});
    repl.push_back({0 /*keep old separator*/, right});
  }
  UPSL_CRASH_POINT("bztree.smo_built");
  // Publish; on failure another SMO won the race — the retry loop in the
  // caller re-traverses. Our fresh nodes are retired (bounded leak; the
  // original reclaims them with epoch GC).
  replace_child(path, leaf_off, repl);
  UPSL_CRASH_POINT("bztree.smo_published");
}

bool BzTree::replace_child(
    const std::vector<PathEntry>& path, std::uint64_t old_child,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& replacements) {
  if (path.empty()) {
    // old_child is the root.
    if (replacements.size() == 1) {
      return descs_->mwcas(
          {{root_word(), old_child, replacements[0].second}});
    }
    // Root split: new internal root with two children.
    const std::uint64_t new_root = alloc_node(cfg_.internal_capacity, false);
    Node* r = node_at(new_root);
    r->keys()[0] = replacements[0].first;
    r->values()[0] = replacements[0].second;
    r->metas()[0] = kVisible;
    r->keys()[1] = ~0ULL;
    r->values()[1] = replacements[1].second;
    r->metas()[1] = kVisible;
    r->sorted_count = 2;
    r->status = 2;
    persist(r, Node::bytes(r->capacity));
    return descs_->mwcas({{root_word(), old_child, new_root}});
  }

  const PathEntry tail = path.back();
  Node* parent = node_at(tail.node_off);
  const std::uint64_t pstatus = descs_->read(&parent->status);
  if (Node::frozen(pstatus)) {
    // The parent is mid-replacement; help it along so a crashed or slow
    // SMO owner cannot wedge the subtree, then have the caller retraverse.
    std::vector<PathEntry> ppath(path.begin(), std::prev(path.end()));
    smo_internal(tail.node_off, ppath);
    return false;
  }
  const std::uint32_t pcnt = parent->count(pstatus);
  if (descs_->read(&parent->values()[tail.child_idx]) != old_child)
    return false;  // someone already replaced it

  if (replacements.size() == 1) {
    // In-place child pointer swap (separator unchanged) — 2-word PMwCAS.
    return descs_->mwcas(
        {{&parent->status, pstatus, pstatus},
         {&parent->values()[tail.child_idx], old_child,
          replacements[0].second}});
  }

  // Child split: copy-on-write the parent with one extra entry.
  if (pcnt + 1 > parent->capacity) {
    // Parent itself is full: freeze and split it recursively, then retry
    // from the caller.
    std::vector<PathEntry> ppath(path.begin(), std::prev(path.end()));
    smo_internal(tail.node_off, ppath);
    return false;
  }
  // Freeze the old parent *before* copying it, and in the same PMwCAS check
  // that the child is still ours. In-place child swaps keep the status word
  // unchanged, so freezing after the copy could silently drop a swap that
  // landed in between (and the records inserted into the swapped-in leaf).
  if (!descs_->mwcas({{&parent->status, pstatus, pstatus | kFrozenBit},
                      {&parent->values()[tail.child_idx], old_child,
                       old_child}}))
    return false;
  const std::uint64_t fresh = alloc_node(cfg_.internal_capacity, false);
  Node* f = node_at(fresh);
  std::uint32_t w = 0;
  for (std::uint32_t i = 0; i < pcnt; ++i) {
    if (i == tail.child_idx) {
      f->keys()[w] = replacements[0].first;
      f->values()[w] = replacements[0].second;
      f->metas()[w] = kVisible;
      ++w;
      f->keys()[w] = pm_load(parent->keys()[i]);  // old separator
      f->values()[w] = replacements[1].second;
      f->metas()[w] = kVisible;
      ++w;
    } else {
      f->keys()[w] = pm_load(parent->keys()[i]);
      f->values()[w] = descs_->read(&parent->values()[i]);
      f->metas()[w] = kVisible;
      ++w;
    }
  }
  f->sorted_count = w;
  f->status = w;
  persist(f, Node::bytes(f->capacity));

  // Swap the copy in for the (frozen) old parent in the grandparent.
  std::vector<PathEntry> ppath(path.begin(), std::prev(path.end()));
  return replace_child(ppath, tail.node_off, {{0, fresh}});
}

void BzTree::smo_internal(std::uint64_t node_off,
                          const std::vector<PathEntry>& path) {
  // Split a full internal node copy-on-write into two halves.
  Node* n = node_at(node_off);
  while (true) {
    const std::uint64_t status = descs_->read(&n->status);
    if (Node::frozen(status)) break;
    if (descs_->mwcas({{&n->status, status, status | kFrozenBit}})) break;
  }
  const std::uint32_t cnt = n->count(descs_->read(&n->status));
  if (cnt < 4) {
    // Too small to split (frozen during a failed copy-on-write, not by
    // fullness): replace with a plain unfrozen copy so progress resumes.
    const std::uint64_t fresh = alloc_node(cfg_.internal_capacity, false);
    Node* f = node_at(fresh);
    for (std::uint32_t i = 0; i < cnt; ++i) {
      f->keys()[i] = pm_load(n->keys()[i]);
      f->values()[i] = descs_->read(&n->values()[i]);
      f->metas()[i] = kVisible;
    }
    f->sorted_count = cnt;
    f->status = cnt;
    persist(f, Node::bytes(f->capacity));
    replace_child(path, node_off, {{0, fresh}});
    return;
  }
  const std::uint32_t half = cnt / 2;
  const std::uint64_t left = alloc_node(cfg_.internal_capacity, false);
  const std::uint64_t right = alloc_node(cfg_.internal_capacity, false);
  Node* l = node_at(left);
  Node* r = node_at(right);
  for (std::uint32_t i = 0; i < half; ++i) {
    l->keys()[i] = pm_load(n->keys()[i]);
    l->values()[i] = descs_->read(&n->values()[i]);
    l->metas()[i] = kVisible;
  }
  l->sorted_count = half;
  l->status = half;
  for (std::uint32_t i = half; i < cnt; ++i) {
    r->keys()[i - half] = pm_load(n->keys()[i]);
    r->values()[i - half] = descs_->read(&n->values()[i]);
    r->metas()[i - half] = kVisible;
  }
  r->sorted_count = cnt - half;
  r->status = cnt - half;
  persist(l, Node::bytes(l->capacity));
  persist(r, Node::bytes(r->capacity));
  replace_child(path, node_off,
                {{l->keys()[half - 1], left}, {0, right}});
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

std::size_t BzTree::count_keys() {
  std::size_t total = 0;
  std::vector<std::uint64_t> stack{descs_->read(root_word())};
  while (!stack.empty()) {
    Node* n = node_at(stack.back());
    stack.pop_back();
    const std::uint32_t cnt = n->count(descs_->read(&n->status));
    if (n->is_leaf != 0) {
      std::map<std::uint64_t, std::uint64_t> live;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        if ((descs_->read(&n->metas()[i]) & kVisible) == 0) continue;
        live[pm_load(n->keys()[i])] = descs_->read(&n->values()[i]);
      }
      for (const auto& [k, v] : live)
        if (v != kTombstone) ++total;
    } else {
      for (std::uint32_t i = 0; i < cnt; ++i)
        stack.push_back(descs_->read(&n->values()[i]));
    }
  }
  return total;
}

std::uint32_t BzTree::tree_height() {
  std::uint32_t h = 1;
  std::uint64_t off = descs_->read(root_word());
  while (node_at(off)->is_leaf == 0) {
    ++h;
    off = descs_->read(&node_at(off)->values()[0]);
  }
  return h;
}

void BzTree::check_invariants() {
  // Every leaf's sorted region is sorted; internal separators are sorted and
  // children partition the key space.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stack{
      {descs_->read(root_word()), ~0ULL}};
  while (!stack.empty()) {
    auto [off, upper] = stack.back();
    stack.pop_back();
    Node* n = node_at(off);
    const std::uint32_t cnt = n->count(descs_->read(&n->status));
    if (n->is_leaf != 0) {
      for (std::uint32_t i = 1; i < n->sorted_count; ++i)
        if (pm_load(n->keys()[i - 1]) >= pm_load(n->keys()[i]))
          throw std::logic_error("leaf sorted region not sorted");
      for (std::uint32_t i = 0; i < cnt; ++i)
        if ((descs_->read(&n->metas()[i]) & kVisible) != 0 &&
            pm_load(n->keys()[i]) > upper)
          throw std::logic_error("leaf key above separator bound");
    } else {
      std::uint64_t prev = 0;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        const std::uint64_t sep = pm_load(n->keys()[i]);
        if (i > 0 && sep <= prev)
          throw std::logic_error("internal separators not sorted");
        prev = sep;
        stack.push_back({descs_->read(&n->values()[i]), sep});
      }
      // The last separator is the node's upper bound (it is +inf only on
      // the rightmost spine of the tree).
      if (prev != upper)
        throw std::logic_error("last separator must equal the node bound");
    }
  }
}

}  // namespace upsl::bztree
