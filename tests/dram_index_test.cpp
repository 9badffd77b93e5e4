// Tests for the volatile DRAM search layer (src/core/dram_index.*).
//
//   * Differential: a seeded mixed workload (inserts, updates, removes,
//     scans — small nodes, so plenty of splits) replayed on a DRAM-index
//     store and on a persistent-towers store produces identical results op
//     by op, and both agree with a std::map model.
//   * Recovery equivalence: crash mid-insert / mid-split, reopen (which
//     rebuilds the index — asserted via the index_rebuilds counter), then
//     flip to persistent towers and back; every mode transition must expose
//     the same full key range through search and scan.
//   * Durable index_mode protocol: a crash *inside* the persistent-tower
//     rebuild leaves index_mode=1, so the next open redoes the rebuild.
//   * Rebuild determinism across worker counts (the stripe merge stitches a
//     worker-count-independent result; check_invariants compares the index
//     against a full level-0 walk).
//   * Kill switch: UPSL_DISABLE_DRAM_INDEX pins persistent towers, flipping
//     it between reopens migrates the store in both directions losslessly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/crashpoint.hpp"
#include "common/rng.hpp"
#include "common/thread_registry.hpp"
#include "core/upskiplist.hpp"
#include "pmem/persist.hpp"
#include "test_util.hpp"

namespace upsl {
namespace {

// ---- differential replay ---------------------------------------------------

/// One op's observable outcome. Scans are folded to an FNV signature of the
/// returned (key, value) sequence so the trace stays one word per op.
using OpResult = std::optional<std::uint64_t>;

std::uint64_t scan_signature(const std::vector<core::ScanEntry>& out) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const core::ScanEntry& e : out) {
    h = (h ^ e.key) * 1099511628211ULL;
    h = (h ^ e.value) * 1099511628211ULL;
  }
  return h;
}

/// Replays the seeded workload on a fresh store; when `model` is non-null,
/// every result is additionally checked against it inline.
std::vector<OpResult> replay(std::uint64_t seed, std::uint64_t ops,
                             std::map<std::uint64_t, std::uint64_t>* model) {
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4));
  std::vector<OpResult> results;
  results.reserve(ops);
  Xoshiro256 rng(seed);
  const std::uint64_t keyspace = 500;
  std::uint64_t value_seq = 1;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t key = 1 + rng.next_below(keyspace);
    const std::uint64_t dice = rng.next_below(100);
    OpResult r;
    if (dice < 45) {
      const std::uint64_t val = value_seq++;
      r = h.store().insert(key, val);
      if (model != nullptr) {
        const auto it = model->find(key);
        const OpResult want =
            it != model->end() ? OpResult(it->second) : std::nullopt;
        EXPECT_EQ(r, want) << "insert key " << key << " op " << i;
        (*model)[key] = val;
      }
    } else if (dice < 70) {
      r = h.store().search(key);
      if (model != nullptr) {
        const auto it = model->find(key);
        const OpResult want =
            it != model->end() ? OpResult(it->second) : std::nullopt;
        EXPECT_EQ(r, want) << "search key " << key << " op " << i;
      }
    } else if (dice < 90) {
      r = h.store().remove(key);
      if (model != nullptr) {
        const auto it = model->find(key);
        const OpResult want =
            it != model->end() ? OpResult(it->second) : std::nullopt;
        EXPECT_EQ(r, want) << "remove key " << key << " op " << i;
        model->erase(key);
      }
    } else {
      const std::uint64_t lo = 1 + rng.next_below(keyspace);
      const std::uint64_t hi = lo + rng.next_below(40);
      std::vector<core::ScanEntry> out;
      h.store().scan(lo, hi, out);
      r = scan_signature(out);
      if (model != nullptr) {
        std::vector<core::ScanEntry> want;
        for (auto it = model->lower_bound(lo);
             it != model->end() && it->first <= hi; ++it)
          want.push_back({it->first, it->second});
        EXPECT_EQ(*r, scan_signature(want))
            << "scan [" << lo << ", " << hi << "] op " << i;
      }
    }
    results.push_back(r);
    if (::testing::Test::HasFailure()) break;  // don't cascade a mismatch
  }
  h.store().check_invariants();
  return results;
}

TEST(DramIndexDifferential, ReplayMatchesPersistentTowersAndModel) {
  // Pin DRAM mode: this test is about the DRAM layer itself, so it must
  // hold even when the CI matrix exports UPSL_DISABLE_DRAM_INDEX=1.
  test::ScopedEnv pin_dram("UPSL_DISABLE_DRAM_INDEX", "0");
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::map<std::uint64_t, std::uint64_t> model;
    const std::vector<OpResult> with_index = replay(seed, 4000, &model);
    if (::testing::Test::HasFailure()) return;
    test::ScopedEnv off("UPSL_DISABLE_DRAM_INDEX", "1");
    const std::vector<OpResult> without_index = replay(seed, 4000, nullptr);
    ASSERT_EQ(with_index, without_index);
  }
}

// ---- recovery equivalence --------------------------------------------------

/// Full observable state: one search per key over the touched universe plus
/// a whole-range scan signature.
struct KeyRangeView {
  std::vector<OpResult> by_key;
  std::uint64_t scan_sig = 0;

  bool operator==(const KeyRangeView&) const = default;
};

KeyRangeView observe(core::UPSkipList& store, std::uint64_t key_hi) {
  KeyRangeView v;
  v.by_key.reserve(key_hi);
  for (std::uint64_t k = 1; k <= key_hi; ++k)
    v.by_key.push_back(store.search(k));
  std::vector<core::ScanEntry> out;
  store.scan(1, key_hi, out);
  v.scan_sig = scan_signature(out);
  return v;
}

class DramIndexRecovery : public ::testing::TestWithParam<const char*> {};

/// Crash an insert workload at the parameterized point with the DRAM index
/// live, reopen (rebuild), and require the DRAM-index traversal and the
/// persistent-towers traversal to expose the same key range.
TEST_P(DramIndexRecovery, CrashRebuildMatchesPersistentTowers) {
  // Pin DRAM mode: this test is about the DRAM layer itself, so it must
  // hold even when the CI matrix exports UPSL_DISABLE_DRAM_INDEX=1.
  test::ScopedEnv pin_dram("UPSL_DISABLE_DRAM_INDEX", "0");
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4));
  ASSERT_TRUE(h.store().dram_index_enabled());
  Xoshiro256 rng(7);
  const std::uint64_t keyspace = 400;
  for (std::uint64_t i = 0; i < 150; ++i)
    h.store().insert(1 + rng.next_below(keyspace), i + 1);
  h.mark_persisted();

  CrashPoints::ArmSpec spec;
  spec.tag = crash_tag(GetParam());
  spec.skip = 3;
  CrashPoints::instance().arm(spec);
  bool fired = false;
  try {
    for (std::uint64_t i = 0; i < 2000; ++i)
      h.store().insert(1 + rng.next_below(keyspace), 1000 + i);
  } catch (const CrashException&) {
    fired = true;
  }
  CrashPoints::instance().reset();
  if (!fired) GTEST_SKIP() << GetParam() << " did not fire";

  const std::uint64_t rebuilds0 =
      pmem::Stats::instance().snapshot().index_rebuilds;
  h.crash_and_reopen();
  ASSERT_TRUE(h.store().dram_index_enabled());
  EXPECT_GT(pmem::Stats::instance().snapshot().index_rebuilds, rebuilds0)
      << "reopen did not rebuild the DRAM index";

  // Drain lazy repairs so both traversal paths see a settled store.
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t k = 1; k <= keyspace; ++k) h.store().search(k);
  h.store().check_invariants();
  const KeyRangeView dram_view = observe(h.store(), keyspace);

  {
    // Flip to persistent towers: this open must rewrite the (stale) PMEM
    // index levels before serving, per the durable index_mode protocol.
    test::ScopedEnv off("UPSL_DISABLE_DRAM_INDEX", "1");
    h.clean_reopen();
    ASSERT_FALSE(h.store().dram_index_enabled());
    h.store().check_invariants();
    EXPECT_EQ(observe(h.store(), keyspace), dram_view);
  }

  // And back: the next open rebuilds the DRAM layer from the data level.
  h.clean_reopen();
  ASSERT_TRUE(h.store().dram_index_enabled());
  h.store().check_invariants();
  EXPECT_EQ(observe(h.store(), keyspace), dram_view);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, DramIndexRecovery,
                         ::testing::Values("core.slot_claimed",
                                           "core.split_locked",
                                           "core.split_node_made",
                                           "core.split_linked",
                                           "core.split_erased",
                                           "core.updated_value"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

TEST(DramIndexRecovery, CrashDuringPersistentTowerRebuildIsRedone) {
  // Pin DRAM mode: this test is about the DRAM layer itself, so it must
  // hold even when the CI matrix exports UPSL_DISABLE_DRAM_INDEX=1.
  test::ScopedEnv pin_dram("UPSL_DISABLE_DRAM_INDEX", "0");
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4));
  Xoshiro256 rng(13);
  const std::uint64_t keyspace = 300;
  for (std::uint64_t i = 0; i < 200; ++i)
    h.store().insert(1 + rng.next_below(keyspace), i + 1);
  const KeyRangeView before = observe(h.store(), keyspace);

  test::ScopedEnv off("UPSL_DISABLE_DRAM_INDEX", "1");
  CrashPoints::ArmSpec spec;
  spec.tag = crash_tag("core.tower_rebuild");
  spec.skip = 3;
  CrashPoints::instance().arm(spec);
  bool fired = false;
  try {
    // The open under the kill switch finds index_mode=1 and starts the
    // persistent-tower rebuild; the armed point kills it partway through.
    h.clean_reopen();
  } catch (const CrashException&) {
    fired = true;
  }
  CrashPoints::instance().reset();
  ASSERT_TRUE(fired) << "core.tower_rebuild never fired";

  // index_mode only flips after a *complete* rebuild, so this open must
  // redo it from scratch over the half-written towers.
  h.crash_and_reopen();
  ASSERT_FALSE(h.store().dram_index_enabled());
  h.store().check_invariants();
  EXPECT_EQ(observe(h.store(), keyspace), before);
}

// ---- rebuild determinism and kill switch -----------------------------------

TEST(DramIndex, RebuildDeterministicAcrossWorkerCounts) {
  // Pin DRAM mode: this test is about the DRAM layer itself, so it must
  // hold even when the CI matrix exports UPSL_DISABLE_DRAM_INDEX=1.
  test::ScopedEnv pin_dram("UPSL_DISABLE_DRAM_INDEX", "0");
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4));
  Xoshiro256 rng(29);
  for (std::uint64_t i = 0; i < 1500; ++i)
    h.store().insert(1 + rng.next_below(5000), i + 1);
  const std::size_t entries = h.store().index_entries();
  ASSERT_GT(entries, 0u);
  for (const unsigned workers : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    h.store().rebuild_dram_index(workers);
    // check_invariants compares the index entry-by-entry (key, riv, height)
    // against a sequential level-0 walk — the worker-count-independent
    // ground truth — so passing here means the stripe merge is exact.
    h.store().check_invariants();
    EXPECT_EQ(h.store().index_entries(), entries);
  }
}

TEST(DramIndex, KillSwitchPinsPersistentTowersAcrossReopens) {
  // Pin DRAM mode: this test is about the DRAM layer itself, so it must
  // hold even when the CI matrix exports UPSL_DISABLE_DRAM_INDEX=1.
  test::ScopedEnv pin_dram("UPSL_DISABLE_DRAM_INDEX", "0");
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4));
  ASSERT_TRUE(h.store().dram_index_enabled());
  const std::uint64_t keyspace = 300;
  for (std::uint64_t k = 1; k <= keyspace; k += 2) h.store().insert(k, k * 7);

  {
    test::ScopedEnv off("UPSL_DISABLE_DRAM_INDEX", "1");
    h.clean_reopen();
    ASSERT_FALSE(h.store().dram_index_enabled());
    EXPECT_EQ(h.store().index_entries(), 0u);
    // Mutations in persistent mode must keep the PMEM towers live.
    for (std::uint64_t k = 2; k <= keyspace; k += 2) h.store().insert(k, k * 7);
    h.store().check_invariants();
    for (std::uint64_t k = 1; k <= keyspace; ++k)
      ASSERT_EQ(h.store().search(k), std::optional<std::uint64_t>(k * 7));
  }

  h.clean_reopen();
  ASSERT_TRUE(h.store().dram_index_enabled());
  h.store().check_invariants();
  for (std::uint64_t k = 1; k <= keyspace; ++k)
    ASSERT_EQ(h.store().search(k), std::optional<std::uint64_t>(k * 7));
}

TEST(DramIndex, TraversalCountersSplitByMode) {
  // Pin DRAM mode: this test is about the DRAM layer itself, so it must
  // hold even when the CI matrix exports UPSL_DISABLE_DRAM_INDEX=1.
  test::ScopedEnv pin_dram("UPSL_DISABLE_DRAM_INDEX", "0");
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4));
  Xoshiro256 rng(31);
  for (std::uint64_t i = 0; i < 800; ++i)
    h.store().insert(1 + rng.next_below(2000), i + 1);

  pmem::StatsSnapshot t0 = pmem::Stats::instance().snapshot();
  for (std::uint64_t i = 0; i < 200; ++i)
    h.store().search(1 + rng.next_below(2000));
  pmem::StatsSnapshot d = pmem::Stats::instance().snapshot() - t0;
  EXPECT_GT(d.index_hops, 0u);
  // Every index-level hop was served from DRAM: zero PMEM index reads.
  EXPECT_EQ(d.index_hops, d.dram_node_visits);
  EXPECT_GT(d.pmem_node_visits, 0u);  // the data level is still PMEM

  test::ScopedEnv off("UPSL_DISABLE_DRAM_INDEX", "1");
  h.clean_reopen();
  t0 = pmem::Stats::instance().snapshot();
  for (std::uint64_t i = 0; i < 200; ++i)
    h.store().search(1 + rng.next_below(2000));
  d = pmem::Stats::instance().snapshot() - t0;
  EXPECT_GT(d.index_hops, 0u);
  EXPECT_EQ(d.dram_node_visits, 0u);
}


/// seek_many must return, for every batch size around its lane width, the
/// handles per-key seek returns and the same hop total, so traversal
/// counters stay comparable between the two.
TEST(DramIndex, SeekManyMatchesSeek) {
  core::DramIndex idx(/*max_height=*/12);
  // Fake handles: seek never dereferences a data pointer.
  auto ptr_of = [](std::uint64_t key) {
    return reinterpret_cast<char*>(static_cast<std::uintptr_t>(key) << 6);
  };
  {
    // An empty index answers every key with the head (a null handle).
    const std::uint64_t keys[] = {1, 50, ~0ULL - 1};
    riv::DataHandle out[3];
    std::uint64_t hops = 0;
    idx.seek_many(keys, 3, out, &hops);
    for (const riv::DataHandle& h : out) EXPECT_TRUE(h.is_null());
    EXPECT_EQ(hops, 0u);
  }
  Xoshiro256 rng(17);
  constexpr std::uint64_t kEntries = 3000;
  for (std::uint64_t i = 1; i <= kEntries; ++i) {
    const std::uint64_t key = i * 10;
    std::uint32_t height = 2;
    while (height < 12 && rng.next_below(2) == 0) ++height;
    idx.insert(key, key + 7, ptr_of(key), height);
  }
  // Below the first key, exact hits, between entries, past the last.
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t slot = 1 + rng.next_below(kEntries);
    switch (i % 4) {
      case 0: keys.push_back(1 + rng.next_below(9)); break;
      case 1: keys.push_back(slot * 10); break;
      case 2: keys.push_back(slot * 10 + 1 + rng.next_below(9)); break;
      default: keys.push_back(kEntries * 10 + 1 + rng.next_below(1000));
    }
  }
  for (const std::size_t n : {1, 2, 15, 16, 17, 64}) {
    for (std::size_t base = 0; base + n <= keys.size(); base += n) {
      std::vector<riv::DataHandle> got(n);
      std::uint64_t many_hops = 0;
      idx.seek_many(keys.data() + base, n, got.data(), &many_hops);
      std::uint64_t one_hops = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const riv::DataHandle want = idx.seek(keys[base + i], &one_hops);
        ASSERT_EQ(got[i].riv, want.riv) << "key " << keys[base + i];
        ASSERT_EQ(got[i].ptr, want.ptr) << "key " << keys[base + i];
      }
      ASSERT_EQ(many_hops, one_hops) << "batch of " << n << " at " << base;
    }
  }
}

}  // namespace
}  // namespace upsl
