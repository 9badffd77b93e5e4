#include "lockskiplist/lock_skiplist.hpp"

#include <algorithm>
#include <vector>

namespace upsl::lsl {

using pmem::persist;
using pmem::pm_load;
using pmem::pm_store;

LockSkipList::LockSkipList(pmem::Pool& pool, bool creating) {
  if (creating) pmdk::ObjStore::format(pool);
  store_ = std::make_unique<pmdk::ObjStore>(pool);
  if (creating) {
    // Head and tail sentinels, fully linked from the start.
    const pmdk::Oid tail_oid = store_->alloc(sizeof(Node));
    Node* tail = node(tail_oid);
    tail->key = kTailKey;
    tail->height = kMaxHeight;
    tail->flags = Node::kFullyLinked;
    persist(tail, sizeof(Node));

    const pmdk::Oid head_oid = store_->alloc(sizeof(Node));
    Node* head = node(head_oid);
    head->key = 0;
    head->height = kMaxHeight;
    head->flags = Node::kFullyLinked;
    for (std::uint32_t l = 0; l < kMaxHeight; ++l) head->next[l] = tail_oid;
    persist(head, sizeof(Node));
    store_->set_root(head_oid);
  }
  head_ = store_->root();
  if (head_.is_null()) throw std::runtime_error("no skip list in pool");
}

std::unique_ptr<LockSkipList> LockSkipList::create(pmem::Pool& pool) {
  return std::unique_ptr<LockSkipList>(new LockSkipList(pool, true));
}

std::unique_ptr<LockSkipList> LockSkipList::open(pmem::Pool& pool) {
  return std::unique_ptr<LockSkipList>(new LockSkipList(pool, false));
}

std::uint32_t LockSkipList::random_height() {
  static thread_local Xoshiro256 rng(
      0x2545f4914f6cdd1dULL ^
      (static_cast<std::uint64_t>(ThreadRegistry::id()) << 20));
  return static_cast<std::uint32_t>(
      rng.geometric_height(static_cast<int>(kMaxHeight)));
}

int LockSkipList::find(std::uint64_t key, pmdk::Oid* preds, pmdk::Oid* succs) {
  int found = -1;
  pmdk::Oid pred = head_;
  for (int level = static_cast<int>(kMaxHeight) - 1; level >= 0; --level) {
    pmdk::Oid cur = node(pred)->next[level];
    while (true) {
      Node* c = node(cur);
      const std::uint64_t k = pm_load(c->key);
      if (k < key) {
        pred = cur;
        cur = c->next[level];
      } else {
        if (k == key && found == -1) found = level;
        break;
      }
    }
    preds[level] = pred;
    succs[level] = cur;
  }
  return found;
}

std::optional<std::uint64_t> LockSkipList::search(std::uint64_t key) {
  pmdk::Oid preds[kMaxHeight];
  pmdk::Oid succs[kMaxHeight];
  const int lvl = find(key, preds, succs);
  if (lvl < 0) return std::nullopt;
  Node* n = node(succs[lvl]);
  if (!n->fully_linked() || n->marked()) return std::nullopt;
  const std::uint64_t v = pm_load(n->value);
  // Reader-forced persistence, as in UPSkipList's reads.
  persist(&n->value, sizeof(n->value));
  return v;
}

std::optional<std::uint64_t> LockSkipList::insert(std::uint64_t key,
                                                  std::uint64_t value) {
  while (true) {
    pmdk::Oid preds[kMaxHeight];
    pmdk::Oid succs[kMaxHeight];
    const int lfound = find(key, preds, succs);
    if (lfound >= 0) {
      // Update path: lock the node, re-validate, transactional write.
      const pmdk::Oid victim = succs[lfound];
      Node* n = node(victim);
      if (!n->fully_linked()) continue;  // someone mid-insert; retry
      std::scoped_lock guard(shard(victim));
      if (n->marked()) continue;
      if (pm_load(n->key) != key) continue;
      const std::uint64_t old = pm_load(n->value);
      pmdk::ObjStore::Tx tx(*store_);
      store_->tx_add(&n->value, sizeof(n->value));
      pm_store(n->value, value);
      tx.commit();
      return old;
    }

    const std::uint32_t height = random_height();
    // Collect and sort the lock shard set (deadlock-free under sharding).
    std::vector<std::size_t> shard_idx;
    for (std::uint32_t l = 0; l < height; ++l)
      shard_idx.push_back((preds[l].off >> 6) % kShards);
    std::sort(shard_idx.begin(), shard_idx.end());
    shard_idx.erase(std::unique(shard_idx.begin(), shard_idx.end()),
                    shard_idx.end());
    std::vector<std::unique_lock<std::mutex>> guards;
    guards.reserve(shard_idx.size());
    for (std::size_t idx : shard_idx)
      guards.emplace_back(shards_[idx]);

    // Validate: the optimistic neighbourhood must still hold.
    bool valid = true;
    for (std::uint32_t l = 0; l < height && valid; ++l) {
      Node* p = node(preds[l]);
      Node* s = node(succs[l]);
      valid = !p->marked() && !s->marked() && p->next[l] == succs[l];
    }
    if (!valid) continue;  // guards release via RAII

    // One transaction covers the allocation and every link write: a crash
    // rolls the whole insert back (the PMDK conversion recipe).
    pmdk::ObjStore::Tx tx(*store_);
    const pmdk::Oid node_oid = store_->alloc(sizeof(Node));
    Node* n = node(node_oid);
    n->key = key;
    n->value = value;
    n->height = height;
    for (std::uint32_t l = 0; l < height; ++l) n->next[l] = succs[l];
    persist(n, sizeof(Node));
    for (std::uint32_t l = 0; l < height; ++l) {
      Node* p = node(preds[l]);
      store_->tx_add(&p->next[l], sizeof(pmdk::Oid));
      p->next[l] = node_oid;
    }
    // fully_linked last: readers treat the node as present only after all
    // levels are in place.
    pm_store(n->flags, Node::kFullyLinked);
    persist(&n->flags, sizeof(n->flags));
    tx.commit();
    return std::nullopt;
  }
}

std::optional<std::uint64_t> LockSkipList::remove(std::uint64_t key) {
  while (true) {
    pmdk::Oid preds[kMaxHeight];
    pmdk::Oid succs[kMaxHeight];
    const int lfound = find(key, preds, succs);
    if (lfound < 0) return std::nullopt;
    const pmdk::Oid victim = succs[lfound];
    Node* v = node(victim);
    if (!v->fully_linked()) continue;
    if (v->marked()) return std::nullopt;
    const std::uint32_t height = v->height;

    std::vector<std::size_t> shard_idx{(victim.off >> 6) % kShards};
    for (std::uint32_t l = 0; l < height; ++l)
      shard_idx.push_back((preds[l].off >> 6) % kShards);
    std::sort(shard_idx.begin(), shard_idx.end());
    shard_idx.erase(std::unique(shard_idx.begin(), shard_idx.end()),
                    shard_idx.end());
    std::vector<std::unique_lock<std::mutex>> guards;
    for (std::size_t idx : shard_idx) guards.emplace_back(shards_[idx]);

    if (v->marked()) return std::nullopt;
    bool valid = true;
    for (std::uint32_t l = 0; l < height && valid; ++l) {
      Node* p = node(preds[l]);
      valid = !p->marked() && p->next[l] == victim;
    }
    if (!valid) continue;

    const std::uint64_t old = pm_load(v->value);
    pmdk::ObjStore::Tx tx(*store_);
    store_->tx_add(&v->flags, sizeof(v->flags));
    pm_store(v->flags, pm_load(v->flags) | Node::kMarked);  // linearization
    for (std::uint32_t l = 0; l < height; ++l) {
      Node* p = node(preds[l]);
      store_->tx_add(&p->next[l], sizeof(pmdk::Oid));
      p->next[l] = v->next[l];
    }
    tx.commit();
    // The unlinked node is not freed: finds take no locks, so a concurrent
    // traversal can still stand on it or hold it as a pred/succ to validate
    // against. Freeing it at once let the allocator hand the block straight
    // back out — zeroed, or with the free-list link written over its key —
    // which broke those traversals, let validation pass on a recycled
    // address (ABA) and raced the lock-free free list. The original would
    // reclaim it with epoch-based GC; here removed nodes stay allocated (no
    // benchmark workload removes from this baseline).
    return old;
  }
}

std::size_t LockSkipList::count_keys() {
  std::size_t n = 0;
  pmdk::Oid cur = node(head_)->next[0];
  while (pm_load(node(cur)->key) != kTailKey) {
    if (!node(cur)->marked()) ++n;
    cur = node(cur)->next[0];
  }
  return n;
}

void LockSkipList::check_invariants() {
  std::uint64_t prev = 0;
  pmdk::Oid cur = node(head_)->next[0];
  while (pm_load(node(cur)->key) != kTailKey) {
    const std::uint64_t k = pm_load(node(cur)->key);
    if (k <= prev) throw std::logic_error("lock skiplist not sorted");
    prev = k;
    cur = node(cur)->next[0];
  }
  for (std::uint32_t l = 1; l < kMaxHeight; ++l) {
    pmdk::Oid upper = node(head_)->next[l];
    while (pm_load(node(upper)->key) != kTailKey) {
      if (node(upper)->height <= l)
        throw std::logic_error("node above its height");
      upper = node(upper)->next[l];
    }
  }
}

}  // namespace upsl::lsl
