// Unit tests for the emulated persistent-memory substrate: shadow
// persistence-domain semantics, crash modes, registry lookups, remapping.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "pmem/ack_batch.hpp"
#include "pmem/flush_set.hpp"
#include "pmem/pool.hpp"

namespace upsl::pmem {
namespace {

std::string tmp_file(const char* name) {
  return (std::filesystem::path("/tmp") /
          (std::string("upsl_pmem_") + name + "_" + std::to_string(::getpid())))
      .string();
}

TEST(Pool, CreateZeroed) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  for (std::size_t i = 0; i < 4096; ++i) EXPECT_EQ(p->base()[i], 0);
  EXPECT_EQ(p->size(), 4096u);
  EXPECT_TRUE(p->tracking());
}

TEST(Pool, UnpersistedStoresAreLostOnCrash) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  auto* words = reinterpret_cast<std::uint64_t*>(p->base());
  words[0] = 11;
  persist(&words[0], 8);
  words[1] = 22;  // never persisted
  p->simulate_crash();
  EXPECT_EQ(words[0], 11u);
  EXPECT_EQ(words[1], 0u);
}

TEST(Pool, PersistCoversWholeCacheLines) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  auto* words = reinterpret_cast<std::uint64_t*>(p->base());
  words[0] = 1;
  words[7] = 7;   // same 64-byte line as words[0]
  words[8] = 8;   // next line
  persist(&words[0], 8);
  p->simulate_crash();
  EXPECT_EQ(words[0], 1u);
  EXPECT_EQ(words[7], 7u) << "flush granularity is the cache line";
  EXPECT_EQ(words[8], 0u);
}

TEST(Pool, PersistRangeSpanningLines) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  std::memset(p->base(), 0xab, 300);
  persist(p->base() + 10, 200);  // covers lines 0..3
  p->simulate_crash();
  EXPECT_EQ(static_cast<unsigned char>(p->base()[10]), 0xabu);
  EXPECT_EQ(static_cast<unsigned char>(p->base()[209]), 0xabu);
  EXPECT_EQ(static_cast<unsigned char>(p->base()[299]), 0u);
}

TEST(Pool, SecondCrashKeepsDurableState) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  auto* words = reinterpret_cast<std::uint64_t*>(p->base());
  words[0] = 5;
  persist(&words[0], 8);
  p->simulate_crash();
  words[8] = 9;  // unpersisted after first crash
  p->simulate_crash();
  EXPECT_EQ(words[0], 5u);
  EXPECT_EQ(words[8], 0u);
}

TEST(Pool, MarkAllPersisted) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  std::memset(p->base(), 0x5a, 4096);
  p->mark_all_persisted();
  p->simulate_crash();
  EXPECT_EQ(static_cast<unsigned char>(p->base()[1234]), 0x5au);
}

TEST(Pool, RandomEvictCrashKeepsSubsetOfLines) {
  auto p = Pool::create_anonymous(0, 1 << 16, {.crash_tracking = true});
  std::memset(p->base(), 0x11, p->size());  // nothing flushed
  p->simulate_crash(CrashMode::kRandomEvict, /*seed=*/42, /*evict_prob=*/0.5);
  std::size_t survivors = 0;
  for (std::size_t line = 0; line < p->size(); line += kCacheLineSize)
    if (static_cast<unsigned char>(p->base()[line]) == 0x11) ++survivors;
  const std::size_t lines = p->size() / kCacheLineSize;
  EXPECT_GT(survivors, lines / 4);
  EXPECT_LT(survivors, lines * 3 / 4);
}

TEST(Pool, RacingFlushesOfOneLineNeverUndoAPersist) {
  // Each thread stores its own word of one shared line and persists it,
  // then every round crashes and checks each word reads back. Flushes of
  // the line race with each other's stores; none may copy a stale word
  // over one that another thread's returned persist already made durable.
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  auto* words = reinterpret_cast<std::uint64_t*>(p->base());
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRounds = 100000;
  std::uint64_t round = 1;
  std::uint64_t undone = 0;
  std::barrier sync(kThreads, [&]() noexcept {
    p->simulate_crash();  // every thread is parked at the barrier
    for (int t = 0; t < kThreads; ++t)
      if (std::atomic_ref<std::uint64_t>(words[t]).load() != round) ++undone;
    ++round;
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t r = 1; r <= kRounds; ++r) {
        std::atomic_ref<std::uint64_t>(words[t]).store(r);
        persist(&words[t], sizeof(std::uint64_t));
        sync.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(undone, 0u) << "persisted words lost to a racing flush";
}

TEST(Pool, NonTrackingPoolPersistIsNoop) {
  auto p = Pool::create_anonymous(0, 4096, {});
  auto* words = reinterpret_cast<std::uint64_t*>(p->base());
  words[0] = 3;
  persist(&words[0], 8);  // must not crash
  EXPECT_THROW(p->simulate_crash(), std::logic_error);
}

TEST(Pool, FileBackedSurvivesReopen) {
  const std::string path = tmp_file("reopen");
  {
    auto p = Pool::create(path, 3, 8192, {});
    reinterpret_cast<std::uint64_t*>(p->base())[5] = 77;
  }
  {
    auto p = Pool::open(path, 3, {.crash_tracking = true});
    EXPECT_EQ(reinterpret_cast<std::uint64_t*>(p->base())[5], 77u);
    // open() treats file contents as durable.
    p->simulate_crash();
    EXPECT_EQ(reinterpret_cast<std::uint64_t*>(p->base())[5], 77u);
  }
  std::filesystem::remove(path);
}

TEST(Pool, RemapMovesMappingKeepsContents) {
  const std::string path = tmp_file("remap");
  auto p = Pool::create(path, 4, 1 << 20, {});
  reinterpret_cast<std::uint64_t*>(p->base())[9] = 99;
  p->remap();
  EXPECT_EQ(reinterpret_cast<std::uint64_t*>(p->base())[9], 99u);
  std::filesystem::remove(path);
}

TEST(PoolRegistry, FindByAddressAndId) {
  auto a = Pool::create_anonymous(10, 4096, {});
  auto b = Pool::create_anonymous(11, 4096, {});
  EXPECT_EQ(PoolRegistry::instance().by_id(10), a.get());
  EXPECT_EQ(PoolRegistry::instance().by_id(11), b.get());
  EXPECT_EQ(PoolRegistry::instance().find(a->base() + 100), a.get());
  EXPECT_EQ(PoolRegistry::instance().find(b->base() + 100), b.get());
  int local = 0;
  EXPECT_EQ(PoolRegistry::instance().find(&local), nullptr);
}

TEST(PoolRegistry, UnregisteredOnDestruction) {
  {
    auto p = Pool::create_anonymous(20, 4096, {});
    EXPECT_NE(PoolRegistry::instance().by_id(20), nullptr);
  }
  EXPECT_EQ(PoolRegistry::instance().by_id(20), nullptr);
}

TEST(Persist, StatsCount) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  Stats::instance().reset();
  persist(p->base(), 8);
  persist(p->base() + 64, 128);
  EXPECT_EQ(Stats::instance().persist_calls.load(), 2u);
  EXPECT_EQ(Stats::instance().persisted_lines.load(), 3u);
}

TEST(Persist, AtomicHelpers) {
  auto p = Pool::create_anonymous(0, 4096, {});
  auto& w = *reinterpret_cast<std::uint64_t*>(p->base());
  pm_store(w, std::uint64_t{41});
  EXPECT_EQ(pm_load(w), 41u);
  EXPECT_TRUE(pm_cas_value(w, std::uint64_t{41}, std::uint64_t{42}));
  EXPECT_FALSE(pm_cas_value(w, std::uint64_t{41}, std::uint64_t{43}));
  EXPECT_EQ(pm_fetch_add(w, std::uint64_t{8}), 42u);
  EXPECT_EQ(pm_load(w), 50u);
}

TEST(Pool, RejectsBadSizes) {
  EXPECT_THROW(Pool::create_anonymous(0, 0, {}), std::invalid_argument);
  EXPECT_THROW(Pool::create_anonymous(0, 100, {}), std::invalid_argument);
}

class FlushSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_flush_coalescing_for_testing(true);
    pool_ = Pool::create_anonymous(0, 1 << 16, {.crash_tracking = true});
    words_ = reinterpret_cast<std::uint64_t*>(pool_->base());
    Stats::instance().reset();
  }
  void TearDown() override { reset_flush_coalescing_for_testing(); }

  std::unique_ptr<Pool> pool_;
  std::uint64_t* words_ = nullptr;
};

TEST_F(FlushSetTest, OneFencePerCommitAndLineDedupe) {
  // Eight adds spanning two cache lines (words 0..7 share a line, word 8
  // starts the next): one batched flush, one fence.
  {
    FlushSet fs;
    for (int i = 0; i < 9; ++i) {
      words_[i] = 100 + i;
      fs.add(&words_[i], 8);
    }
    fs.commit();
  }
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  EXPECT_EQ(Stats::instance().persist_calls.load(), 1u);
  EXPECT_EQ(Stats::instance().persisted_lines.load(), 2u);
  EXPECT_EQ(Stats::instance().coalesced_fences_saved.load(), 8u);
  EXPECT_EQ(Stats::instance().coalesced_lines_saved.load(), 7u);
}

TEST_F(FlushSetTest, CommittedStoresSurviveCrash) {
  {
    FlushSet fs;
    words_[0] = 1;
    fs.add(&words_[0], 8);
    words_[64] = 2;  // a different line
    fs.add(&words_[64], 8);
    fs.commit();
  }
  words_[128] = 3;  // never added
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 1u);
  EXPECT_EQ(words_[64], 2u);
  EXPECT_EQ(words_[128], 0u);
}

TEST_F(FlushSetTest, DestructorCommitsAsSafetyNet) {
  {
    FlushSet fs;
    words_[0] = 9;
    fs.add(&words_[0], 8);
    // no explicit commit()
  }
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 9u);
}

TEST_F(FlushSetTest, CommitIsIdempotentAndEmptyCommitIsFree) {
  FlushSet fs;
  fs.commit();  // nothing recorded: no flush, no fence
  EXPECT_EQ(Stats::instance().fences.load(), 0u);
  words_[0] = 4;
  fs.add(&words_[0], 8);
  fs.commit();
  fs.commit();  // second commit has nothing left to do
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  EXPECT_EQ(Stats::instance().persist_calls.load(), 1u);
}

TEST_F(FlushSetTest, RangeSpanningLinesIsCovered) {
  std::memset(words_, 0x7c, 300);
  {
    FlushSet fs;
    fs.add(words_, 300);  // lines 0..4
    fs.commit();
  }
  EXPECT_EQ(Stats::instance().persisted_lines.load(), 5u);
  pool_->simulate_crash();
  EXPECT_EQ(reinterpret_cast<unsigned char*>(words_)[299], 0x7cu);
}

TEST_F(FlushSetTest, OverflowDegradesToImmediateFlushNotDataLoss) {
  // Touch kMaxLines + 8 distinct lines in one set: the excess lines are
  // flushed immediately (unfenced) and the commit fence still covers them.
  const std::size_t lines = FlushSet::kMaxLines + 8;
  {
    FlushSet fs;
    for (std::size_t i = 0; i < lines; ++i) {
      words_[i * 8] = i + 1;
      fs.add(&words_[i * 8], 8);
    }
    fs.commit();
  }
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  pool_->simulate_crash();
  for (std::size_t i = 0; i < lines; ++i) EXPECT_EQ(words_[i * 8], i + 1);
}

TEST_F(FlushSetTest, KillSwitchRestoresLegacyPersistSequence) {
  set_flush_coalescing_for_testing(false);
  {
    FlushSet fs;
    words_[0] = 6;
    fs.add(&words_[0], 8);  // behaves exactly like persist()
    words_[1] = 7;
    fs.add(&words_[1], 8);
    fs.commit();  // no-op
  }
  EXPECT_EQ(Stats::instance().persist_calls.load(), 2u);
  EXPECT_EQ(Stats::instance().fences.load(), 2u);
  EXPECT_EQ(Stats::instance().coalesced_fences_saved.load(), 0u);
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 6u);
  EXPECT_EQ(words_[1], 7u);
}

class AckBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_mod_writes_for_testing(true);
    pool_ = Pool::create_anonymous(0, 1 << 16, {.crash_tracking = true});
    words_ = reinterpret_cast<std::uint64_t*>(pool_->base());
    Stats::instance().reset();
  }
  void TearDown() override { reset_mod_writes_for_testing(); }

  std::unique_ptr<Pool> pool_;
  std::uint64_t* words_ = nullptr;
};

TEST_F(AckBatchTest, LinesDedupeAcrossOpsOneFencePerBatch) {
  // Three "pipelined operations" in one batch scope: ops 1 and 2 dirty the
  // same cache line (two values in one node), op 3 a different line. The
  // whole batch must cost one flush call over two lines and one fence.
  {
    AckBatch ab;
    words_[0] = 1;
    ack_persist(&words_[0], 8);  // op 1
    words_[3] = 2;
    ack_persist(&words_[3], 8);  // op 2: same line as op 1
    words_[8] = 3;
    ack_persist(&words_[8], 8);  // op 3: next line
    EXPECT_EQ(ab.adds(), 3u);
    EXPECT_EQ(ab.lines(), 2u) << "same-line acks must dedupe across ops";
    ab.commit_fenced();
  }
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  EXPECT_EQ(Stats::instance().persist_calls.load(), 1u);
  EXPECT_EQ(Stats::instance().persisted_lines.load(), 2u);
  EXPECT_EQ(Stats::instance().coalesced_fences_saved.load(), 2u);
  EXPECT_EQ(Stats::instance().coalesced_lines_saved.load(), 1u);
}

TEST_F(AckBatchTest, CommittedAcksSurviveCrash) {
  {
    AckBatch ab;
    words_[0] = 11;
    ack_persist(&words_[0], 8);
    words_[64] = 22;
    ack_persist(&words_[64], 8);
    ab.commit_fenced();
  }
  words_[128] = 33;  // never acked
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 11u);
  EXPECT_EQ(words_[64], 22u);
  EXPECT_EQ(words_[128], 0u);
}

TEST_F(AckBatchTest, TakenLinesAreNotDurableUntilTheGroupFence) {
  // take_lines() hands the batch's lines to a caller that fences them
  // itself: the scope no longer owes durability, so a crash before that
  // fence drops the writes — exactly the unacked-op-in-flight semantics.
  std::vector<const void*> lines;
  {
    AckBatch ab;
    words_[0] = 5;
    ack_persist(&words_[0], 8);
    lines = ab.take_lines();
  }
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(Stats::instance().fences.load(), 0u) << "no fence before commit";
  auto copy = lines;  // the taker's side of the handoff
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 0u) << "un-fenced ticket lines must not survive";
  // After the taker flushes + fences, the line is durable.
  words_[0] = 5;
  flush_lines(copy.data(), copy.size());
  fence();
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 5u);
}

TEST_F(AckBatchTest, NoOpenScopeFallsBackToImmediatePersist) {
  // The embedded API path: without a scope, ack_persist IS persist, so
  // every mutation is durable at return.
  words_[0] = 7;
  ack_persist(&words_[0], 8);
  EXPECT_EQ(Stats::instance().persist_calls.load(), 1u);
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 7u);
}

TEST_F(AckBatchTest, KillSwitchBypassesAnOpenScope) {
  // UPSL_DISABLE_MOD_WRITES restores the legacy ordered write path even if
  // a batch scope is open: nothing defers, nothing is recorded.
  set_mod_writes_for_testing(false);
  {
    AckBatch ab;
    words_[0] = 9;
    ack_persist(&words_[0], 8);
    EXPECT_EQ(ab.lines(), 0u);
    EXPECT_EQ(Stats::instance().persist_calls.load(), 1u);
    EXPECT_EQ(Stats::instance().fences.load(), 1u);
  }
  EXPECT_EQ(Stats::instance().fences.load(), 1u) << "empty scope: no fence";
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 9u);
}

TEST_F(AckBatchTest, EmptyCommitStillFencesAsTheAckGate) {
  // A batch whose ops all persisted eagerly (e.g. MOD off) still uses
  // commit_fenced() as the acknowledgement gate: the fence must be issued.
  AckBatch ab;
  ab.commit_fenced();
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  EXPECT_EQ(Stats::instance().persist_calls.load(), 0u);
}

TEST_F(AckBatchTest, DestructorIsTheSafetyNet) {
  {
    AckBatch ab;
    words_[0] = 13;
    ack_persist(&words_[0], 8);
    // no explicit commit; normal (non-crash) exit must still flush+fence
  }
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
  pool_->simulate_crash();
  EXPECT_EQ(words_[0], 13u);
}

TEST_F(AckBatchTest, NestedScopesRestoreTheOuterOne) {
  AckBatch outer;
  EXPECT_EQ(AckBatch::current(), &outer);
  {
    AckBatch inner;
    EXPECT_EQ(AckBatch::current(), &inner);
    words_[0] = 1;
    ack_persist(&words_[0], 8);
    EXPECT_EQ(inner.lines(), 1u);
    inner.commit_fenced();
  }
  EXPECT_EQ(AckBatch::current(), &outer);
  words_[8] = 2;
  ack_persist(&words_[8], 8);
  EXPECT_EQ(outer.lines(), 1u);
  outer.commit_fenced();
}

TEST(Persist, PersistCountsItsFence) {
  auto p = Pool::create_anonymous(0, 4096, {.crash_tracking = true});
  Stats::instance().reset();
  persist(p->base(), 8);
  EXPECT_EQ(Stats::instance().fences.load(), 1u);
}

}  // namespace
}  // namespace upsl::pmem
