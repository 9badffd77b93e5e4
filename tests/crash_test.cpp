// Crash-recovery tests for UPSkipList (thesis §6.1): inject a crash at every
// instrumented point of every operation, drop all unflushed cache lines
// (full-power-failure semantics), reconnect, and verify
//  (1) durability: every operation acknowledged before the crash is intact,
//  (2) consistency: structural invariants hold after recovery runs,
//  (3) completeness: interrupted inserts/splits are finished on discovery,
//  (4) no leaks: every block is accounted for after deferred log recovery.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "pmem/ack_batch.hpp"
#include "test_util.hpp"

namespace upsl::core {
namespace {

using test::StoreHarness;
using test::small_options;

/// All crash points reachable from insert-heavy workloads.
const char* const kCorePoints[] = {
    "core.head_succ_made",     "core.head_succ_linked",
    "core.slot_claimed",       "core.updated_value",
    "core.split_locked",       "core.split_node_made",
    "core.split_linked",       "core.split_erased",
    "core.linked_level",       "alloc.after_log",
    "alloc.after_pop",         "alloc.mag_refill_logged",
    "alloc.mag_refill_popped", "core.mod_built",
    "core.mod_prepublish",     "core.mod_published",
};

/// Points on the legacy per-block allocation path, which the magazine fast
/// path bypasses: run their workloads with magazines disabled so they still
/// fire.
bool needs_legacy_allocator(const char* point) {
  return std::string(point) == "alloc.after_pop";
}

/// Points on the persistent-tower linking path, which the DRAM search layer
/// bypasses: pin those workloads to UPSL_DISABLE_DRAM_INDEX=1 so they still
/// fire (the DRAM-mode insert/recovery paths are covered by
/// dram_index_test and the torture shards).
bool needs_persistent_towers(const char* point) {
  return std::string(point) == "core.linked_level";
}

/// The one operation in flight when a crash fired. Unacknowledged, so
/// under strict linearizability it may take effect or not (§2.2) — e.g. a
/// crash right after update_value's persist leaves its value durable.
struct InflightOp {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// Runs inserts until the armed crash point fires (or ops run out).
/// Returns the acknowledged key->value map; `inflight` (when non-null)
/// receives the operation interrupted by the crash.
std::map<std::uint64_t, std::uint64_t> insert_until_crash(
    core::UPSkipList& store, std::uint64_t tag, std::uint64_t skip,
    int max_ops, std::uint64_t seed, bool* fired,
    InflightOp* inflight = nullptr) {
  CrashPoints::instance().reset();
  CrashPoints::instance().arm(tag, skip);
  std::map<std::uint64_t, std::uint64_t> acked;
  Xoshiro256 rng(seed);
  *fired = false;
  try {
    for (int i = 0; i < max_ops; ++i) {
      const std::uint64_t key = 1 + rng.next_below(500);
      const std::uint64_t value = 1 + (rng.next() >> 1);
      if (inflight != nullptr) *inflight = {key, value};
      store.insert(key, value);
      acked[key] = value;  // acknowledged: must survive any later crash
    }
  } catch (const CrashException&) {
    *fired = true;
  }
  CrashPoints::instance().disarm();
  return acked;
}

void verify_recovered(StoreHarness& h,
                      const std::map<std::uint64_t, std::uint64_t>& acked,
                      const InflightOp* inflight = nullptr) {
  // Durability of acknowledged operations (strict linearizability: the
  // crash is the deadline by which completed operations must have taken
  // effect, §2.2). The in-flight operation's key admits both outcomes.
  for (const auto& [k, v] : acked) {
    auto got = h.store().search(k);
    ASSERT_TRUE(got.has_value()) << "acknowledged key " << k << " lost";
    if (inflight != nullptr && k == inflight->key) {
      EXPECT_TRUE(*got == v || *got == inflight->value)
          << "key " << k << ": got " << *got << ", want acked " << v
          << " or in-flight " << inflight->value;
    } else {
      EXPECT_EQ(*got, v) << "acknowledged value lost for key " << k;
    }
  }
  // The store must remain fully usable: mixed follow-up workload.
  for (std::uint64_t k = 10001; k <= 10100; ++k)
    EXPECT_FALSE(h.store().insert(k, k).has_value());
  for (std::uint64_t k = 10001; k <= 10100; ++k)
    EXPECT_EQ(*h.store().search(k), k);
  for (std::uint64_t k = 10001; k <= 10100; k += 2) h.store().remove(k);
  h.store().check_invariants();
  // After this thread id allocated again, its stale log has been resolved —
  // nothing may be leaked (§4.1.4).
  h.store().check_no_leaks();
}

class CrashAtPoint : public ::testing::TestWithParam<const char*> {};

TEST_P(CrashAtPoint, InsertWorkloadRecovers) {
  // Several skip counts per point: hit the point in different structural
  // contexts (first occurrence, mid-churn occurrence). Rare points (e.g.
  // head-successor creation, which happens only ~ln(keyspace) times) simply
  // stop firing at higher skips.
  bool fired_any = false;
  const bool legacy = needs_legacy_allocator(GetParam());
  const bool env_was_set = std::getenv("UPSL_DISABLE_MAGAZINES") != nullptr;
  if (legacy) ::setenv("UPSL_DISABLE_MAGAZINES", "1", 1);
  std::optional<test::ScopedEnv> tower_pin;
  if (needs_persistent_towers(GetParam()))
    tower_pin.emplace("UPSL_DISABLE_DRAM_INDEX", "1");
  for (std::uint64_t skip : {0u, 5u, 23u}) {
    SCOPED_TRACE(std::string(GetParam()) + " skip=" + std::to_string(skip));
    StoreHarness h(small_options(/*keys_per_node=*/4, /*max_height=*/10));
    bool fired = false;
    InflightOp inflight;
    auto acked = insert_until_crash(h.store(), crash_tag(GetParam()), skip,
                                    4000, /*seed=*/skip + 7, &fired, &inflight);
    if (!fired) break;
    fired_any = true;
    h.crash_and_reopen();
    verify_recovered(h, acked, &inflight);
  }
  if (legacy && !env_was_set) ::unsetenv("UPSL_DISABLE_MAGAZINES");
  if (!fired_any) GTEST_SKIP() << "crash point not reached by this workload";
}

INSTANTIATE_TEST_SUITE_P(AllPoints, CrashAtPoint,
                         ::testing::ValuesIn(kCorePoints),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s)
                             if (c == '.') c = '_';
                           return s;
                         });

TEST(Crash, AnyNthPersistBoundary) {
  // Tag 0 matches every crash point: crash at the Nth instrumented step,
  // sweeping N — a coarse-grained analogue of exhaustive crash-state
  // enumeration.
  for (std::uint64_t n = 0; n < 60; n += 3) {
    SCOPED_TRACE("nth=" + std::to_string(n));
    StoreHarness h(small_options(4, 10));
    bool fired = false;
    InflightOp inflight;
    auto acked =
        insert_until_crash(h.store(), 0, n, 4000, n + 1, &fired, &inflight);
    if (!fired) break;
    h.crash_and_reopen();
    verify_recovered(h, acked, &inflight);
  }
}

TEST(Crash, RandomEvictionSurvival) {
  // Random-eviction crashes: an arbitrary subset of unflushed lines became
  // durable anyway (real caches evict without being asked). Acknowledged
  // operations must still be intact, recovery must still converge.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    StoreHarness h(small_options(4, 10));
    bool fired = false;
    auto acked = insert_until_crash(h.store(), crash_tag("core.split_linked"),
                                    seed, 4000, seed, &fired);
    if (!fired) GTEST_SKIP();
    h.crash_and_reopen(pmem::CrashMode::kRandomEvict, seed);
    verify_recovered(h, acked);
  }
}

TEST(Crash, InterruptedSplitLeavesNoDuplicates) {
  StoreHarness h(small_options(4, 10));
  bool fired = false;
  auto acked = insert_until_crash(h.store(), crash_tag("core.split_linked"), 0,
                                  4000, 3, &fired);
  ASSERT_TRUE(fired);
  h.crash_and_reopen();
  // Scanning forces traversal over the half-split node; split recovery must
  // erase the duplicated upper half before any key can be seen twice.
  std::vector<ScanEntry> out;
  h.store().scan(1, kTailKey - 1, out);
  for (std::size_t i = 1; i < out.size(); ++i)
    ASSERT_LT(out[i - 1].key, out[i].key) << "duplicate key after recovery";
  verify_recovered(h, acked);
}

TEST(Crash, SplitRecoveryErasesCopiesTheNewNodeMovedOn) {
  // A split that crashes right after linking its new node N leaves N's keys
  // duplicated in the old node P until P's recovery erases them. Recovery
  // is lazy: with the DRAM index, an insert into N's range starts at N's
  // hint (whenever N has a tower) and never passes P, so N can fill and
  // split again first, moving some of the copies on to a third node. P's
  // recovery must still erase every copy. Keys are spaced 1000 apart so
  // fresh keys fit into every gap, and the gaps fill top-down so N's range
  // fills before anything traverses P. Each skip interrupts another split.
  // The scenario needs the DRAM index, so pin it on under the towers leg.
  test::ScopedEnv pin_dram("UPSL_DISABLE_DRAM_INDEX", "0");
  for (std::uint64_t skip = 0; skip < 16; ++skip) {
    SCOPED_TRACE("skip=" + std::to_string(skip));
    StoreHarness h(small_options(/*keys_per_node=*/4, /*max_height=*/10));
    ASSERT_TRUE(h.store().dram_index_enabled());
    CrashPoints::instance().reset();
    CrashPoints::instance().arm(crash_tag("core.split_linked"), skip);
    std::map<std::uint64_t, std::uint64_t> acked;
    Xoshiro256 rng(skip + 41);
    bool fired = false;
    try {
      for (std::uint64_t i = 1; i <= 4000; ++i) {
        const std::uint64_t key = 1000 * (1 + rng.next_below(200));
        h.store().insert(key, i);
        acked[key] = i;
      }
    } catch (const CrashException&) {
      fired = true;
    }
    CrashPoints::instance().disarm();
    ASSERT_TRUE(fired);
    h.crash_and_reopen();
    for (std::uint64_t gap = 200; gap >= 1; --gap) {
      for (std::uint64_t k = gap * 1000 + 501; k <= gap * 1000 + 503; ++k) {
        h.store().insert(k, k);
        acked[k] = k;
      }
    }
    verify_recovered(h, acked);
  }
}

TEST(Crash, InterruptedTowerIsRebuiltOnTraversal) {
  // Exercises the persistent tower-linking repair, which only exists with
  // the DRAM index off (its DRAM-mode analogue lives in dram_index_test).
  test::ScopedEnv tower_pin("UPSL_DISABLE_DRAM_INDEX", "1");
  StoreHarness h(small_options(4, 10));
  bool fired = false;
  auto acked = insert_until_crash(h.store(), crash_tag("core.linked_level"), 2,
                                  4000, 11, &fired);
  ASSERT_TRUE(fired);
  h.crash_and_reopen();
  // Touch every key so traversals discover and repair every stale node
  // (search budget = 1 repair per traversal; repeat to drain).
  for (int round = 0; round < 64; ++round)
    for (const auto& [k, v] : acked) h.store().search(k);
  for (const auto& [k, v] : acked)
    EXPECT_TRUE(h.store().tower_complete(k)) << "key " << k;
  verify_recovered(h, acked);
}

TEST(Crash, RepeatedCrashesAcrossEpochs) {
  // Crash, recover a little, crash again — five failure-free epochs. The
  // epoch mechanism must keep recoveries of recoveries sound (idempotent
  // DeleteLinkedObject, §4.3.3).
  StoreHarness h(small_options(4, 10));
  std::map<std::uint64_t, std::uint64_t> acked;
  for (std::uint64_t round = 0; round < 5; ++round) {
    bool fired = false;
    InflightOp inflight;
    auto more = insert_until_crash(h.store(), 0, 10 + round * 7, 2000,
                                   round + 21, &fired, &inflight);
    for (const auto& [k, v] : more) acked[k] = v;
    h.crash_and_reopen();
    EXPECT_EQ(h.store().epoch(), 2 + round);
    if (!fired) continue;
    // Resolve this round's in-flight op before the next round can bury it:
    // either outcome is legal, and the read persists whichever value
    // survived (reader-forced persistence), pinning it for later rounds.
    auto got = h.store().search(inflight.key);
    const auto it = acked.find(inflight.key);
    if (got.has_value() && *got == inflight.value) {
      acked[inflight.key] = inflight.value;
    } else if (it != acked.end()) {
      ASSERT_TRUE(got.has_value()) << "acked key " << inflight.key << " lost";
      EXPECT_EQ(*got, it->second) << "key " << inflight.key;
    } else {
      EXPECT_FALSE(got.has_value())
          << "key " << inflight.key << " recovered to a value that was "
          << "neither absent nor the in-flight write";
    }
  }
  verify_recovered(h, acked);
}

TEST(Crash, CrashDuringRecoveryItself) {
  // First crash interrupts a split; second crash interrupts the *recovery*
  // of that split. Recovery must be re-runnable (§4.3.3: "allowing recovery
  // from a failed recovery").
  StoreHarness h(small_options(4, 10));
  bool fired = false;
  auto acked = insert_until_crash(h.store(), crash_tag("core.split_linked"), 0,
                                  4000, 5, &fired);
  ASSERT_TRUE(fired);
  h.crash_and_reopen();
  CrashPoints::instance().arm(crash_tag("core.split_recovered"));
  try {
    for (const auto& [k, v] : acked) h.store().search(k);
    // The recovery point may legitimately not fire if the split completed.
  } catch (const CrashException&) {
  }
  CrashPoints::instance().disarm();
  h.crash_and_reopen();
  verify_recovered(h, acked);
}

/// Crash points on the recovery paths themselves: the nested-crash sweep
/// arms each of these while the recovery of an earlier crash is being
/// driven, so recovery is interrupted *inside* recovery.
const char* const kRecoveryPoints[] = {
    "core.recovery_draining",     "core.recovery_claimed",
    "core.split_recover_scan",    "core.split_recovered",
    "core.insert_recovered",      "core.node_recovered",
    "alloc.mag_recover_mid",      "alloc.mag_reclaim_block",
    "alloc.mag_recover_retiring", "alloc.stale_log_resolved",
    "alloc.recover_converted",    "alloc.sweep_pending",
};

class CrashDuringRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(CrashDuringRecovery, NestedRecoveryCrashesConverge) {
  // First crash lands mid-workload (anywhere); recovery is then re-crashed
  // at the parameterized recovery point three times in a row, alternating
  // crash modes. However many times recovery is interrupted, the next pass
  // must converge: acked writes intact, invariants hold, and exact block
  // conservation (no leak, no double-free) — i.e. every recovery step is
  // idempotent. The point may legitimately stop firing once the repair it
  // guards has completed.
  for (std::uint64_t skip : {0u, 2u}) {
    SCOPED_TRACE(std::string(GetParam()) + " skip=" + std::to_string(skip));
    StoreHarness h(small_options(/*keys_per_node=*/4, /*max_height=*/10));
    bool fired = false;
    InflightOp inflight;
    auto acked = insert_until_crash(h.store(), 0, 150 + skip * 77, 4000,
                                    11 + skip, &fired, &inflight);
    ASSERT_TRUE(fired);
    h.crash_and_reopen();
    for (int round = 0; round < 3; ++round) {
      CrashPoints::instance().arm(crash_tag(GetParam()), skip);
      try {
        // Searches claim and repair stale nodes; the fresh-range inserts
        // additionally run the deferred allocator recovery (magazine scan,
        // stale log, pending-chunk sweep) and allocate new blocks.
        for (const auto& [k, v] : acked) h.store().search(k);
        const std::uint64_t base = 20000 + static_cast<std::uint64_t>(round) * 100;
        for (std::uint64_t k = base; k < base + 8; ++k) h.store().insert(k, k);
      } catch (const CrashException&) {
      }
      CrashPoints::instance().disarm();
      h.crash_and_reopen(round % 2 == 0 ? pmem::CrashMode::kRandomEvict
                                        : pmem::CrashMode::kDiscardUnflushed,
                         static_cast<std::uint64_t>(round) + 3);
    }
    verify_recovered(h, acked, &inflight);
  }
}

INSTANTIATE_TEST_SUITE_P(RecoverySweep, CrashDuringRecovery,
                         ::testing::ValuesIn(kRecoveryPoints));

TEST(Crash, MagazineRecoveryCrashConservesBlocks) {
  // Crash while the magazine fast path has live descriptor slots, then
  // crash again *inside* the magazine descriptor recovery
  // (alloc.mag_recover_mid sits between the alloc-side and return-side
  // scans). After the second recovery pass, every block must be accounted
  // for: reclaim guards must tolerate the half-scanned descriptor without
  // leaking or double-freeing (§4.1.4 extended to the magazine layer).
  if (std::getenv("UPSL_DISABLE_MAGAZINES") != nullptr)
    GTEST_SKIP() << "magazine fast path disabled; refill points cannot fire";
  StoreHarness h(small_options(/*keys_per_node=*/4, /*max_height=*/10));
  bool fired = false;
  auto acked = insert_until_crash(
      h.store(), crash_tag("alloc.mag_refill_popped"), 2, 4000, 17, &fired);
  ASSERT_TRUE(fired) << "magazine refill never happened";
  h.crash_and_reopen();
  CrashPoints::instance().arm(crash_tag("alloc.mag_recover_mid"));
  try {
    // First allocation by this thread id triggers the deferred magazine
    // recovery, which the armed point interrupts mid-scan.
    for (std::uint64_t k = 30000; k < 30016; ++k) h.store().insert(k, k);
  } catch (const CrashException&) {
  }
  EXPECT_TRUE(CrashPoints::instance().fired());
  CrashPoints::instance().disarm();
  h.crash_and_reopen();
  // Second (uninterrupted) recovery pass, then exact conservation.
  verify_recovered(h, acked);
  // A third recovery epoch must converge to the same accounting.
  h.crash_and_reopen();
  for (std::uint64_t k = 31000; k < 31008; ++k) h.store().insert(k, k);
  h.store().check_invariants();
  h.store().check_no_leaks();
}

TEST(Crash, DanglingArenaTailRepairedBeforeReuse) {
  // A crash inside LinkInTail between the chain CAS and the tail advance
  // can leave the CAS line durable on its own under partial-eviction
  // crashes, so ah.tail lags mid-list. Pops never consult the tail, so a
  // later refill can pop the lagging tail block itself — after which every
  // chain recovery links through ah.tail is orphaned, unreachable from the
  // head. The per-epoch tail repair must re-anchor the tail before any pop.
  // Sweep eviction seeds: each gives a different surviving-line pattern.
  for (std::uint64_t evict_seed = 1; evict_seed <= 6; ++evict_seed) {
    SCOPED_TRACE("evict_seed " + std::to_string(evict_seed));
    StoreHarness h(small_options(/*keys_per_node=*/4, /*max_height=*/10));
    // Wide keyspace: enough nodes to exhaust the bootstrap chunk so chunk
    // provisioning (and with it LinkInTail) is guaranteed to run.
    CrashPoints::instance().reset();
    CrashPoints::instance().arm(crash_tag("alloc.link_after_cas"));
    bool fired = false;
    std::map<std::uint64_t, std::uint64_t> acked;
    try {
      for (std::uint64_t k = 1; k <= 4000; ++k) {
        h.store().insert(k * 7, k);
        acked[k * 7] = k;
      }
    } catch (const CrashException&) {
      fired = true;
    }
    CrashPoints::instance().disarm();
    ASSERT_TRUE(fired) << "workload never reached LinkInTail";
    h.crash_and_reopen(pmem::CrashMode::kRandomEvict, evict_seed);
    // Recovery + refills: without the repair these pops could consume the
    // lagging tail block.
    for (std::uint64_t k = 100000; k < 100100; ++k) h.store().insert(k, k);
    // Crash again mid-magazine so the next epoch's recovery must reclaim
    // blocks via LinkInTail — exactly the links a dangling tail orphans.
    CrashPoints::instance().arm(crash_tag("alloc.mag_refill_popped"));
    try {
      for (std::uint64_t k = 200000; k < 204000; ++k) h.store().insert(k, k);
    } catch (const CrashException&) {
    }
    CrashPoints::instance().disarm();
    h.crash_and_reopen(pmem::CrashMode::kDiscardUnflushed, evict_seed + 100);
    verify_recovered(h, acked);
  }
}

TEST(Crash, DeferredAckLinesLostBeforeTheGroupFence) {
  // MOD write path + batch fence (docs/write-path.md): a batch's
  // ack-gating lines only become durable at the batch's one fence.
  // Crashing before that fence (modeled by taking the lines and dropping
  // them) must leave every op in the batch unacked-in-flight: each may have
  // taken effect or not, but never partially, and recovery must converge.
  if (!pmem::mod_writes_enabled())
    GTEST_SKIP() << "legacy ordered write path: nothing defers";
  StoreHarness h(small_options(4, 10));
  for (std::uint64_t k = 1; k <= 40; ++k) h.store().insert(k, k);
  h.mark_persisted();
  {
    pmem::AckBatch ab;
    h.store().insert(7, 100);    // update of a durable value
    h.store().insert(1000, 5);   // fresh insert (out-of-place publish)
    h.store().remove(9);         // tombstone write
    auto lines = ab.take_lines();  // lines the fence never covered
    EXPECT_GT(lines.size(), 0u);
  }
  h.crash_and_reopen();
  auto v7 = h.store().search(7);
  ASSERT_TRUE(v7.has_value());
  EXPECT_TRUE(*v7 == 7 || *v7 == 100) << *v7;
  auto v1000 = h.store().search(1000);
  EXPECT_TRUE(!v1000.has_value() || *v1000 == 5);
  auto v9 = h.store().search(9);
  EXPECT_TRUE(!v9.has_value() || *v9 == 9);
  // The untouched preload must be fully intact, and the store usable.
  for (std::uint64_t k = 1; k <= 40; ++k) {
    if (k == 7 || k == 9) continue;
    EXPECT_EQ(*h.store().search(k), k);
  }
  // Fresh allocations run the deferred allocator recovery for this thread
  // id; only then is exact block conservation checkable.
  for (std::uint64_t k = 2000; k < 2050; ++k) h.store().insert(k, k);
  h.store().check_invariants();
  h.store().check_no_leaks();
}

TEST(Crash, AcksNeverWaitOnAnotherThreadsBatchFence) {
  // A batch's deferred lines gate only that batch's own acks, yet other
  // threads act on its unfenced writes at once: they can insert into the
  // node it just linked after the head, or update a key it just claimed,
  // and ack their own ops before the batch fences. A crash that drops the
  // batch's lines must not take those acked ops with it.
  if (!pmem::mod_writes_enabled())
    GTEST_SKIP() << "legacy ordered write path: nothing defers";
  // 16 keys per node: a slot's key and value words sit on different lines.
  StoreHarness h(small_options(16, 10));
  for (std::uint64_t k = 1; k <= 20; ++k) h.store().insert(k * 1000, k);
  h.mark_persisted();
  {
    pmem::AckBatch ab;
    h.store().insert(5, 50);       // below every key: a new head successor
    h.store().insert(1005, 1);     // fresh key claimed in an existing node
    std::thread other([&] {
      ThreadRegistry::instance().bind(1);
      h.store().insert(6, 60);     // lands in the head successor
      h.store().insert(1005, 2);   // updates the batch's claimed key
    });
    other.join();
    (void)ab.take_lines();  // the batch never fences
  }
  h.crash_and_reopen();
  EXPECT_EQ(h.store().search(6), std::optional<std::uint64_t>(60))
      << "acked insert into an unfenced head successor lost";
  EXPECT_EQ(h.store().search(1005), std::optional<std::uint64_t>(2))
      << "acked update of an unfenced claim lost";
  h.store().check_invariants();
}

TEST(Crash, ModPublishSurvivesRandomEviction) {
  // Partial-eviction crashes at the publish boundary: an arbitrary subset
  // of the out-of-place node's unordered writebacks may have retired on
  // their own. The epoch guard (stale-epoch claim + torn-slot scrub) must
  // make every surviving combination recoverable.
  for (const char* point : {"core.mod_built", "core.mod_published"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(point) + " seed=" + std::to_string(seed));
      StoreHarness h(small_options(4, 10));
      bool fired = false;
      auto acked = insert_until_crash(h.store(), crash_tag(point), seed, 4000,
                                      seed + 40, &fired);
      if (!fired) GTEST_SKIP() << "mod write path disabled";
      h.crash_and_reopen(pmem::CrashMode::kRandomEvict, seed);
      verify_recovered(h, acked);
    }
  }
}

TEST(Crash, UpdateDurabilityAcknowledged) {
  // An acknowledged update must survive; an unacknowledged one may or may
  // not, but the store must return one of the two values, never garbage.
  StoreHarness h(small_options(4, 10));
  h.store().insert(42, 1);
  h.mark_persisted();
  CrashPoints::instance().arm(crash_tag("core.updated_value"));
  try {
    h.store().insert(42, 2);  // crashes right after the CAS+persist
  } catch (const CrashException&) {
  }
  CrashPoints::instance().disarm();
  h.crash_and_reopen();
  auto got = h.store().search(42);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == 1 || *got == 2) << *got;
}

TEST(Crash, RemoveDurability) {
  StoreHarness h(small_options(4, 10));
  for (std::uint64_t k = 1; k <= 50; ++k) h.store().insert(k, k);
  for (std::uint64_t k = 1; k <= 50; k += 2) {
    auto removed = h.store().remove(k);
    ASSERT_TRUE(removed.has_value());
  }
  h.crash_and_reopen();  // removals were acknowledged -> durable
  for (std::uint64_t k = 1; k <= 50; ++k) {
    if (k % 2 == 1) {
      EXPECT_FALSE(h.store().search(k).has_value()) << k;
    } else {
      EXPECT_EQ(*h.store().search(k), k);
    }
  }
}

/// A remove that dies between its tombstone CAS and the flush leaves the
/// tombstone visible but not durable. An operation that then acks the key
/// as absent must make that absence durable; otherwise the crash brings
/// back a value the client was told is gone.
void ack_absent_after_inflight_remove(bool via_search) {
  StoreHarness h(small_options(4, 10));
  h.store().insert(42, 1);
  h.mark_persisted();
  CrashPoints::instance().arm(crash_tag("core.removed_cas"));
  try {
    h.store().remove(42);  // dies before persisting its tombstone
  } catch (const CrashException&) {
  }
  ASSERT_TRUE(CrashPoints::instance().fired());
  CrashPoints::instance().disarm();
  if (via_search)
    EXPECT_FALSE(h.store().search(42).has_value());
  else
    EXPECT_FALSE(h.store().remove(42).has_value());
  h.crash_and_reopen();
  EXPECT_FALSE(h.store().search(42).has_value())
      << "acknowledged absence undone by the crash";
}

TEST(Crash, RemoveFindingAnUnflushedTombstonePersistsIt) {
  ack_absent_after_inflight_remove(/*via_search=*/false);
}

TEST(Crash, SearchFindingAnUnflushedTombstonePersistsIt) {
  ack_absent_after_inflight_remove(/*via_search=*/true);
}

TEST(Crash, EpochBumpIsTheOnlyRecoveryCost) {
  // Table 5.4's claim: reconnect + one persisted epoch increment, no scan.
  StoreHarness h(small_options(8, 12));
  for (std::uint64_t k = 1; k <= 2000; ++k) h.store().insert(k, k);
  pmem::Stats::instance().reset();
  h.crash_and_reopen();
  // Opening persisted only O(1) lines regardless of the 2000 keys.
  EXPECT_LE(pmem::Stats::instance().persist_calls.load(), 8u);
  EXPECT_EQ(*h.store().search(1234), 1234u);
}

}  // namespace
}  // namespace upsl::core
