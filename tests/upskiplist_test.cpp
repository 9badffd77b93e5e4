// UPSkipList functional tests: single-threaded semantics against a reference
// model, node splits, tower building, scans, invariants, and multi-threaded
// smoke tests. Crash-recovery behaviour has its own suite (crash_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "test_util.hpp"

namespace upsl::core {
namespace {

using test::StoreHarness;
using test::small_options;

TEST(UPSkipList, EmptySearch) {
  StoreHarness h;
  EXPECT_FALSE(h.store().search(42).has_value());
  EXPECT_FALSE(h.store().contains(1));
  EXPECT_EQ(h.store().count_keys(), 0u);
}

TEST(UPSkipList, InsertThenSearch) {
  StoreHarness h;
  EXPECT_FALSE(h.store().insert(5, 500).has_value());
  auto v = h.store().search(5);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 500u);
}

TEST(UPSkipList, InsertIsUpsert) {
  StoreHarness h;
  EXPECT_FALSE(h.store().insert(5, 500).has_value());
  auto old = h.store().insert(5, 501);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, 500u);
  EXPECT_EQ(*h.store().search(5), 501u);
  EXPECT_EQ(h.store().count_keys(), 1u);
}

TEST(UPSkipList, RemoveTombstones) {
  StoreHarness h;
  h.store().insert(7, 70);
  auto removed = h.store().remove(7);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 70u);
  EXPECT_FALSE(h.store().search(7).has_value());
  EXPECT_FALSE(h.store().remove(7).has_value()) << "second remove is a no-op";
  // Re-insert after removal.
  EXPECT_FALSE(h.store().insert(7, 71).has_value());
  EXPECT_EQ(*h.store().search(7), 71u);
}

TEST(UPSkipList, RemoveMissingKey) {
  StoreHarness h;
  h.store().insert(10, 1);
  EXPECT_FALSE(h.store().remove(11).has_value());
  EXPECT_FALSE(h.store().remove(9).has_value());
}

TEST(UPSkipList, RejectsReservedKeysAndValues) {
  StoreHarness h;
  EXPECT_THROW(h.store().insert(0, 1), std::invalid_argument);
  EXPECT_THROW(h.store().insert(kTailKey, 1), std::invalid_argument);
  EXPECT_THROW(h.store().insert(1, kTombstone), std::invalid_argument);
  EXPECT_THROW(h.store().search(0), std::invalid_argument);
  EXPECT_THROW(h.store().remove(kTailKey), std::invalid_argument);
}

TEST(UPSkipList, DescendingInsertsCreateHeadSuccessors) {
  StoreHarness h;
  for (std::uint64_t k = 100; k >= 1; --k) h.store().insert(k, k * 10);
  for (std::uint64_t k = 1; k <= 100; ++k) {
    auto v = h.store().search(k);
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_EQ(*v, k * 10);
  }
  h.store().check_invariants();
}

TEST(UPSkipList, AscendingInsertsFillNodesAndSplit) {
  StoreHarness h(small_options(/*keys_per_node=*/4));
  for (std::uint64_t k = 1; k <= 200; ++k) h.store().insert(k, k);
  EXPECT_EQ(h.store().count_keys(), 200u);
  for (std::uint64_t k = 1; k <= 200; ++k) EXPECT_EQ(*h.store().search(k), k);
  h.store().check_invariants();
}

TEST(UPSkipList, SingleKeyPerNodeMode) {
  // keys_per_node = 1: every insert that lands in a full node splits it —
  // the degenerate configuration of Figure 5.3.
  StoreHarness h(small_options(/*keys_per_node=*/1));
  for (std::uint64_t k = 1; k <= 120; ++k) h.store().insert(k * 3, k);
  for (std::uint64_t k = 1; k <= 120; ++k)
    EXPECT_EQ(*h.store().search(k * 3), k);
  EXPECT_FALSE(h.store().search(4).has_value());
  h.store().check_invariants();
}

TEST(UPSkipList, ScanRange) {
  StoreHarness h(small_options(4));
  for (std::uint64_t k = 10; k <= 100; k += 10) h.store().insert(k, k + 1);
  std::vector<ScanEntry> out;
  EXPECT_EQ(h.store().scan(25, 75, out), 5u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().key, 30u);
  EXPECT_EQ(out.back().key, 70u);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LT(out[i - 1].key, out[i].key) << "sorted output";
}

TEST(UPSkipList, ScanSkipsTombstones) {
  StoreHarness h(small_options(4));
  for (std::uint64_t k = 1; k <= 20; ++k) h.store().insert(k, k);
  for (std::uint64_t k = 2; k <= 20; k += 2) h.store().remove(k);
  std::vector<ScanEntry> out;
  EXPECT_EQ(h.store().scan(1, 20, out), 10u);
  for (const auto& e : out) EXPECT_EQ(e.key % 2, 1u);
}

TEST(UPSkipList, ScanEmptyAndInvertedRanges) {
  StoreHarness h;
  h.store().insert(5, 5);
  std::vector<ScanEntry> out;
  EXPECT_EQ(h.store().scan(6, 10, out), 0u);
  EXPECT_EQ(h.store().scan(10, 6, out), 0u);
}

TEST(UPSkipList, ScanChunkWalksRangeInDisjointResumableChunks) {
  StoreHarness h(small_options(4));
  for (std::uint64_t k = 1; k <= 300; ++k) h.store().insert(k * 3, k);

  std::vector<ScanEntry> reference;
  h.store().scan(1, 900, reference);
  ASSERT_EQ(reference.size(), 300u);

  std::vector<ScanEntry> all;
  std::vector<ScanEntry> chunk;
  std::uint64_t lo = 1;
  std::uint64_t resume = ~0ULL;
  std::size_t chunks = 0;
  while (true) {
    chunk.clear();
    h.store().scan_chunk(lo, 900, /*limit=*/5, chunk, &resume);
    // A chunk stops at a node boundary: at most limit + keys_per_node - 1.
    EXPECT_LE(chunk.size(), 5u + 4u - 1u);
    for (std::size_t i = 1; i < chunk.size(); ++i)
      EXPECT_LT(chunk[i - 1].key, chunk[i].key);
    if (!all.empty() && !chunk.empty())
      EXPECT_LT(all.back().key, chunk.front().key) << "chunks overlap";
    if (resume != 0 && !chunk.empty())
      EXPECT_LT(chunk.back().key, resume) << "resume key already covered";
    all.insert(all.end(), chunk.begin(), chunk.end());
    ++chunks;
    if (resume == 0) break;
    lo = resume;
  }
  EXPECT_GT(chunks, 10u) << "limit 5 over 300 keys must take many chunks";
  ASSERT_EQ(all.size(), reference.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].key, reference[i].key);
    EXPECT_EQ(all[i].value, reference[i].value);
  }
}

TEST(UPSkipList, ScanChunkLimitZeroMatchesScan) {
  StoreHarness h(small_options(8));
  for (std::uint64_t k = 5; k <= 500; k += 5) h.store().insert(k, k + 1);
  for (std::uint64_t k = 10; k <= 500; k += 10) h.store().remove(k);

  std::vector<ScanEntry> want;
  h.store().scan(7, 493, want);
  std::vector<ScanEntry> got;
  std::uint64_t resume = ~0ULL;
  EXPECT_EQ(h.store().scan_chunk(7, 493, 0, got, &resume), want.size());
  EXPECT_EQ(resume, 0u) << "unbounded chunk covers the whole range";
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].key, want[i].key);
}

TEST(UPSkipList, ScanChunkResumesPastTombstoneRuns) {
  StoreHarness h(small_options(4));
  for (std::uint64_t k = 1; k <= 200; ++k) h.store().insert(k, k);
  // Tombstone a long interior run; chunked walks must hop it and terminate.
  for (std::uint64_t k = 50; k <= 150; ++k) h.store().remove(k);

  std::vector<ScanEntry> all, chunk;
  std::uint64_t lo = 1, resume = ~0ULL;
  do {
    chunk.clear();
    h.store().scan_chunk(lo, 200, 8, chunk, &resume);
    all.insert(all.end(), chunk.begin(), chunk.end());
    lo = resume;
  } while (resume != 0);
  ASSERT_EQ(all.size(), 99u);
  for (const auto& e : all) EXPECT_TRUE(e.key < 50 || e.key > 150) << e.key;
}

TEST(UPSkipList, CleanReopenPreservesData) {
  StoreHarness h(small_options(4));
  for (std::uint64_t k = 1; k <= 50; ++k) h.store().insert(k, k * 2);
  const auto epoch_before = h.store().epoch();
  h.clean_reopen();
  EXPECT_EQ(h.store().epoch(), epoch_before + 1);
  for (std::uint64_t k = 1; k <= 50; ++k) EXPECT_EQ(*h.store().search(k), k * 2);
  h.store().check_invariants();
  // And the store remains writable.
  h.store().insert(1000, 1);
  EXPECT_TRUE(h.store().contains(1000));
}

// ---- property tests against a reference model -----------------------------

struct PropParam {
  std::uint32_t keys_per_node;
  std::uint32_t max_height;
  std::uint64_t key_space;
  std::uint64_t seed;
  bool sorted_splits = false;
};

class UPSkipListProperty : public ::testing::TestWithParam<PropParam> {};

TEST_P(UPSkipListProperty, MatchesReferenceModel) {
  const PropParam p = GetParam();
  auto opts = small_options(p.keys_per_node, p.max_height);
  opts.sorted_splits = p.sorted_splits;
  StoreHarness h(opts);
  std::map<std::uint64_t, std::uint64_t> model;
  Xoshiro256 rng(p.seed);

  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t key = 1 + rng.next_below(p.key_space);
    const double dice = rng.next_double();
    if (dice < 0.5) {
      const std::uint64_t value = rng.next() >> 1;
      auto old = h.store().insert(key, value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(old.has_value()) << "key " << key;
      } else {
        ASSERT_TRUE(old.has_value()) << "key " << key;
        EXPECT_EQ(*old, it->second);
      }
      model[key] = value;
    } else if (dice < 0.8) {
      auto got = h.store().search(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got.has_value()) << "key " << key;
      } else {
        ASSERT_TRUE(got.has_value()) << "key " << key;
        EXPECT_EQ(*got, it->second);
      }
    } else {
      auto removed = h.store().remove(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(removed.has_value()) << "key " << key;
      } else {
        ASSERT_TRUE(removed.has_value());
        EXPECT_EQ(*removed, it->second);
        model.erase(it);
      }
    }
  }
  EXPECT_EQ(h.store().count_keys(), model.size());
  std::vector<ScanEntry> out;
  h.store().scan(1, kTailKey - 1, out);
  ASSERT_EQ(out.size(), model.size());
  auto it = model.begin();
  for (const auto& e : out) {
    EXPECT_EQ(e.key, it->first);
    EXPECT_EQ(e.value, it->second);
    ++it;
  }
  h.store().check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, UPSkipListProperty,
    ::testing::Values(PropParam{1, 8, 200, 1}, PropParam{2, 8, 200, 2},
                      PropParam{4, 12, 500, 3}, PropParam{8, 12, 500, 4},
                      PropParam{16, 12, 2000, 5}, PropParam{8, 4, 300, 6},
                      PropParam{32, 16, 10000, 7}, PropParam{4, 12, 50, 8}),
    [](const auto& info) {
      return "K" + std::to_string(info.param.keys_per_node) + "_H" +
             std::to_string(info.param.max_height) + "_S" +
             std::to_string(info.param.key_space);
    });

// Same workloads with sorted splits + prefix block-search enabled: the §7
// extension (and its SIMD sorted kernel) must stay semantically invisible
// across every node geometry, not just the one config covered above.
INSTANTIATE_TEST_SUITE_P(
    SortedConfigs, UPSkipListProperty,
    ::testing::Values(PropParam{2, 8, 200, 12, true},
                      PropParam{4, 12, 500, 13, true},
                      PropParam{8, 12, 500, 14, true},
                      PropParam{16, 12, 2000, 15, true},
                      PropParam{32, 16, 10000, 17, true},
                      PropParam{4, 12, 50, 18, true}),
    [](const auto& info) {
      return "K" + std::to_string(info.param.keys_per_node) + "_H" +
             std::to_string(info.param.max_height) + "_S" +
             std::to_string(info.param.key_space);
    });

// ---- concurrency smoke tests ----------------------------------------------

TEST(UPSkipListConcurrent, DisjointKeyInserts) {
  StoreHarness h(small_options(4, 12, /*max_threads=*/8));
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadRegistry::instance().bind(t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t key = 1 + i * kThreads + static_cast<std::uint64_t>(t);
        ASSERT_FALSE(h.store().insert(key, key * 7).has_value());
      }
    });
  }
  for (auto& th : threads) th.join();
  ThreadRegistry::instance().bind(0);
  EXPECT_EQ(h.store().count_keys(), kThreads * kPerThread);
  for (std::uint64_t k = 1; k <= kThreads * kPerThread; ++k)
    EXPECT_EQ(*h.store().search(k), k * 7) << k;
  h.store().check_invariants();
}

TEST(UPSkipListConcurrent, ContendedUpserts) {
  StoreHarness h(small_options(4, 12, 8));
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeySpace = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadRegistry::instance().bind(t);
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 99);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t key = 1 + rng.next_below(kKeySpace);
        switch (rng.next_below(3)) {
          case 0:
            h.store().insert(key, rng.next() >> 1);
            break;
          case 1:
            h.store().search(key);
            break;
          default:
            h.store().remove(key);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ThreadRegistry::instance().bind(0);
  h.store().check_invariants();
  EXPECT_LE(h.store().count_keys(), kKeySpace);
}

TEST(UPSkipListConcurrent, ReadersDuringSplits) {
  StoreHarness h(small_options(4, 12, 8));
  for (std::uint64_t k = 2; k <= 400; k += 2) h.store().insert(k, k);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    ThreadRegistry::instance().bind(1);
    while (!stop.load()) {
      for (std::uint64_t k = 2; k <= 400; k += 2) {
        auto v = h.store().search(k);
        ASSERT_TRUE(v.has_value()) << k;
        ASSERT_EQ(*v, k);
      }
    }
  });
  // Odd-key inserts force slot claims and splits under the reader's feet.
  ThreadRegistry::instance().bind(0);
  for (std::uint64_t k = 1; k <= 399; k += 2) h.store().insert(k, k);
  stop.store(true);
  reader.join();
  ThreadRegistry::instance().bind(0);
  EXPECT_EQ(h.store().count_keys(), 400u);
  h.store().check_invariants();
}

/// Scans racing splits and removes, differentially checked against what a
/// single-threaded model can guarantee: output strictly ascending (no dupes,
/// no reordering), every stable key present with its value, and nothing ever
/// returned that was never inserted. Runs in both search-layer modes — the
/// DRAM index and persistent towers walk different level structures over the
/// same data level.
void scan_differential_under_churn(bool dram_index) {
  test::ScopedEnv pin("UPSL_DISABLE_DRAM_INDEX", dram_index ? "0" : "1");
  core::Options o = small_options(4, 12, 8);
  o.dram_index = dram_index;
  StoreHarness h(o);
  ASSERT_EQ(h.store().dram_index_enabled(), dram_index);

  // Stable keys: odd in [1, 1199], never touched by the writers.
  for (std::uint64_t k = 1; k < 1200; k += 2) h.store().insert(k, k * 7);

  std::atomic<bool> stop{false};
  // Writer 1: ascending even inserts — continuous node splits.
  std::thread splitter([&] {
    ThreadRegistry::instance().bind(1);
    std::uint64_t k = 2;
    while (!stop.load(std::memory_order_relaxed) && k < 1200) {
      h.store().insert(k, k * 7);
      k += 2;
    }
  });
  // Writer 2: churns a fixed even subset with remove/reinsert cycles.
  std::thread churner([&] {
    ThreadRegistry::instance().bind(2);
    Xoshiro256 rng(17);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = 600 + 2 * rng.next_below(100);  // evens 600..798
      if (rng.next_below(2) == 0)
        h.store().remove(k);
      else
        h.store().insert(k, k * 7);
    }
  });

  ThreadRegistry::instance().bind(0);
  std::vector<ScanEntry> out, chunk;
  for (int iter = 0; iter < 40; ++iter) {
    // Full scan and chunked walk alternate so both paths race the writers.
    out.clear();
    if (iter % 2 == 0) {
      h.store().scan(1, 1200, out);
    } else {
      std::uint64_t lo = 1, resume = ~0ULL;
      do {
        chunk.clear();
        h.store().scan_chunk(lo, 1200, 16, chunk, &resume);
        out.insert(out.end(), chunk.begin(), chunk.end());
        lo = resume;
      } while (resume != 0);
    }
    for (std::size_t i = 1; i < out.size(); ++i)
      ASSERT_LT(out[i - 1].key, out[i].key) << "iter " << iter;
    std::size_t odd = 0;
    for (const auto& e : out) {
      ASSERT_EQ(e.value, e.key * 7) << "iter " << iter;
      if (e.key % 2 == 1) ++odd;
    }
    ASSERT_EQ(odd, 600u) << "stable keys missing, iter " << iter;
  }
  stop.store(true);
  splitter.join();
  churner.join();
  ThreadRegistry::instance().bind(0);
  h.store().check_invariants();
}

TEST(UPSkipListConcurrent, ScanDifferentialUnderChurnDramIndex) {
  scan_differential_under_churn(true);
}

TEST(UPSkipListConcurrent, ScanDifferentialUnderChurnPersistentTowers) {
  scan_differential_under_churn(false);
}

TEST(UPSkipList, SortedSplitsMatchesReferenceModel) {
  // The §7 sorted-splits + binary-search extension must be semantically
  // invisible: run the same randomized workload with it on and off.
  auto opts = small_options(/*keys_per_node=*/16, /*max_height=*/12);
  opts.sorted_splits = true;
  StoreHarness h(opts);
  std::map<std::uint64_t, std::uint64_t> model;
  Xoshiro256 rng(77);
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t key = 1 + rng.next_below(800);
    if (rng.next_below(2) == 0) {
      const std::uint64_t v = rng.next() >> 1;
      auto old = h.store().insert(key, v);
      auto it = model.find(key);
      EXPECT_EQ(old.has_value(), it != model.end()) << key;
      model[key] = v;
    } else {
      auto got = h.store().search(key);
      auto it = model.find(key);
      ASSERT_EQ(got.has_value(), it != model.end()) << key;
      if (got) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_EQ(h.store().count_keys(), model.size());
  h.store().check_invariants();
  // Survives a crash like the default configuration.
  h.crash_and_reopen();
  for (const auto& [k, v] : model) EXPECT_EQ(*h.store().search(k), v);
}

TEST(UPSkipList, SortedSplitsPrefixStaysWellFormedUnderHeavySplits) {
  // Regression for the sorted_count/kNullKey inconsistency: removals punch
  // tombstones into nodes, and a later split must clamp the surviving nodes'
  // sorted_count to the actually-populated ascending prefix — otherwise the
  // prefix block-search can binary-search over null slots and miss keys.
  // check_invariants() asserts the prefix invariant on every bottom node.
  auto opts = small_options(/*keys_per_node=*/8, /*max_height=*/12);
  opts.sorted_splits = true;
  StoreHarness h(opts);
  std::map<std::uint64_t, std::uint64_t> model;
  Xoshiro256 rng(4242);
  // Descending then interleaved inserts with bursts of removals: maximizes
  // splits of nodes whose key slots contain tombstoned/null gaps.
  for (std::uint64_t k = 2000; k >= 1; --k) {
    h.store().insert(k, k * 3);
    model[k] = k * 3;
  }
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t key = 1 + rng.next_below(2500);
      if (rng.next_below(3) == 0) {
        auto removed = h.store().remove(key);
        auto it = model.find(key);
        ASSERT_EQ(removed.has_value(), it != model.end()) << key;
        if (it != model.end()) model.erase(it);
      } else {
        const std::uint64_t v = rng.next() >> 1;
        h.store().insert(key, v);
        model[key] = v;
      }
    }
    h.store().check_invariants();
  }
  EXPECT_EQ(h.store().count_keys(), model.size());
  for (const auto& [k, v] : model) {
    auto got = h.store().search(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, v);
  }
  h.crash_and_reopen();
  EXPECT_EQ(h.store().count_keys(), model.size());
  h.store().check_invariants();
}

TEST(UPSkipList, NodeLayoutOffsets) {
  NodeLayout layout{8, 12};
  EXPECT_EQ(NodeLayout::kKeysOffset, 56u);
  EXPECT_EQ(layout.values_offset(), 56u + 64u);
  EXPECT_EQ(layout.next_offset(), 56u + 128u);
  EXPECT_EQ(layout.node_size() % kCacheLineSize, 0u);
  EXPECT_GE(layout.node_size(), layout.next_offset() + 8 * 12);
}

TEST(UPSkipList, RecoveryClaimDrainsOnlyWhileNoReaderCanLock) {
  // Function 10's drain, and the slot scrub after it, must never meet a
  // live thread. While one thread claims a stale node, the epoch word is
  // neither stale nor current: the locks refuse the node, and a second
  // recovering thread that loaded the stale epoch earlier loses the claim
  // without touching the lock word.
  NodeLayout layout{4, 4};
  alignas(kCacheLineSize) char buf[512] = {};
  ASSERT_LE(layout.node_size(), sizeof buf);
  NodeView node(buf, &layout);
  constexpr std::uint64_t kStale = 3;
  constexpr std::uint64_t kCurrent = 4;

  node.epoch_id() = kStale;
  node.lock_word() = kWriterBit | 2;  // dead writer + two dead readers
  ASSERT_TRUE(node.begin_claim(kStale, kCurrent));
  EXPECT_EQ(node.lock_word(), kWriterBit) << "stale readers must be drained";
  node.lock_word() = 1;  // pretend one dead reader is still counted
  EXPECT_FALSE(node.try_read_lock(kCurrent));
  EXPECT_FALSE(node.try_write_lock(kCurrent));
  EXPECT_FALSE(node.begin_claim(kStale, kCurrent));
  EXPECT_EQ(node.lock_word(), 1u) << "a losing claim touched the lock word";
  node.lock_word() = 0;
  node.end_claim(kCurrent);
  EXPECT_EQ(node.epoch_id(), kCurrent);

  ASSERT_TRUE(node.try_read_lock(kCurrent));
  EXPECT_FALSE(node.begin_claim(kStale, kCurrent));  // a late loser
  EXPECT_EQ(node.lock_word(), 1u) << "a live reader's count was wiped";
  node.read_unlock();
  EXPECT_FALSE(node.write_locked());
}


/// search_many answers exactly what per-key search answers: hits, misses
/// below, between and past the stored keys, and tombstoned keys, for every
/// batch size around the index's lane width. Both search-layer modes: the
/// DRAM index seeks the batch interleaved, towers mode searches key by key.
TEST(UPSkipList, SearchManyMatchesSearch) {
  for (const bool dram_index : {true, false}) {
    SCOPED_TRACE(dram_index ? "dram index" : "persistent towers");
    test::ScopedEnv pin("UPSL_DISABLE_DRAM_INDEX", dram_index ? "0" : "1");
    core::Options o = small_options(4, 12, 8);
    o.dram_index = dram_index;
    StoreHarness h(o);
    ASSERT_EQ(h.store().dram_index_enabled(), dram_index);
    for (std::uint64_t k = 10; k <= 1200; k += 2) h.store().insert(k, k * 3);
    for (std::uint64_t k = 12; k <= 1200; k += 12) h.store().remove(k);

    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= 1300; k += 7) keys.push_back(k);
    for (std::uint64_t k = 12; k <= 1200; k += 60) keys.push_back(k);
    std::vector<std::optional<std::uint64_t>> want;
    for (const std::uint64_t k : keys) want.push_back(h.store().search(k));

    for (const std::size_t batch : {1, 2, 15, 16, 17, 64, 1000}) {
      std::vector<std::optional<std::uint64_t>> got(keys.size());
      for (std::size_t base = 0; base < keys.size(); base += batch) {
        const std::size_t n = std::min(batch, keys.size() - base);
        h.store().search_many(keys.data() + base, n, got.data() + base);
      }
      for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "key " << keys[i] << " batch " << batch;
    }
    const std::uint64_t reserved[] = {5, 0};
    std::optional<std::uint64_t> out[2];
    EXPECT_THROW(h.store().search_many(reserved, 2, out),
                 std::invalid_argument);
  }
}

/// Hints from a batch's index seek are used after other keys' level-0
/// walks, so splits land between a key's seek and its walk. Every preloaded
/// key must still be found with its value while an inserter splits the
/// nodes under the readers.
TEST(UPSkipList, SearchManyUnderConcurrentSplits) {
  StoreHarness h(small_options(4, 12, 8));
  constexpr std::uint64_t kMax = 8000;
  for (std::uint64_t k = 4; k <= kMax; k += 4) h.store().insert(k, k + 1);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};
  std::vector<std::thread> readers;
  for (int t = 1; t <= 2; ++t) {
    readers.emplace_back([&, t] {
      ThreadRegistry::instance().bind(t);
      Xoshiro256 rng(static_cast<std::uint64_t>(t));
      std::uint64_t keys[40];
      std::optional<std::uint64_t> got[40];
      while (!stop.load()) {
        for (std::uint64_t& k : keys) k = 4 * (1 + rng.next_below(kMax / 4));
        h.store().search_many(keys, 40, got);
        for (int i = 0; i < 40; ++i)
          ASSERT_EQ(got[i], std::optional<std::uint64_t>(keys[i] + 1))
              << "key " << keys[i];
        batches.fetch_add(1);
      }
    });
  }
  // Keys between the preloaded ones fill every node and force splits.
  ThreadRegistry::instance().bind(0);
  for (int i = 0; i < 2000 && batches.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (std::uint64_t k = 1; k <= kMax; ++k)
    if (k % 4 != 0) h.store().insert(k, k + 1);
  stop.store(true);
  for (auto& r : readers) r.join();
  ThreadRegistry::instance().bind(0);
  EXPECT_EQ(h.store().count_keys(), kMax);
  h.store().check_invariants();
}

}  // namespace
}  // namespace upsl::core
