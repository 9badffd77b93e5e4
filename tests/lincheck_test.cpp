// Linearizability analyzer tests (thesis chapter 6):
//  * unit tests of check_strict on hand-built histories, including every
//    violation class it must detect,
//  * the thesis' analyzer-validation methodology: take a real linearizable
//    log and mutate read values at random — all mutations must be flagged
//    (§6.3),
//  * end-to-end crash trials: concurrent upserts/reads on UPSkipList with
//    persistent history logging, a mid-operation crash, recovery, a second
//    execution phase, then strict-linearizability analysis of the combined
//    cross-crash history (the thesis ran 30+ power-cycle trials and found
//    none non-linearizable once its two bugs were fixed).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "lincheck/lincheck.hpp"
#include "pmdk/pmemlog.hpp"
#include "test_util.hpp"

namespace upsl::lincheck {
namespace {

Operation write_op(std::uint32_t tid, std::uint64_t key, std::uint64_t arg,
                   std::uint64_t ret, std::uint64_t inv, std::uint64_t resp,
                   std::uint64_t epoch = 1, bool completed = true) {
  Operation op{};
  op.kind = OpKind::kWrite;
  op.completed = completed;
  op.tid = tid;
  op.key = key;
  op.arg = arg;
  op.ret = ret;
  op.inv_ts = inv;
  op.resp_ts = resp;
  op.epoch = epoch;
  return op;
}

Operation read_op(std::uint32_t tid, std::uint64_t key, std::uint64_t ret,
                  std::uint64_t inv, std::uint64_t resp,
                  std::uint64_t epoch = 1) {
  Operation op{};
  op.kind = OpKind::kRead;
  op.completed = true;
  op.tid = tid;
  op.key = key;
  op.ret = ret;
  op.inv_ts = inv;
  op.resp_ts = resp;
  op.epoch = epoch;
  return op;
}

TEST(LinCheck, EmptyAndTrivialHistories) {
  EXPECT_TRUE(check_strict({}).linearizable);
  EXPECT_TRUE(check_strict({write_op(0, 1, 10, kInitialValue, 1, 2)})
                  .linearizable);
  EXPECT_TRUE(check_strict({read_op(0, 1, kInitialValue, 1, 2)}).linearizable);
}

TEST(LinCheck, SequentialChainIsLinearizable) {
  EXPECT_TRUE(check_strict({
                               write_op(0, 1, 10, kInitialValue, 1, 2),
                               write_op(0, 1, 20, 10, 3, 4),
                               read_op(1, 1, 20, 5, 6),
                               write_op(1, 1, 30, 20, 7, 8),
                           })
                  .linearizable);
}

TEST(LinCheck, ReadOfNeverWrittenValue) {
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 1, 2),
      read_op(1, 1, 77, 3, 4),
  });
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("never written"), std::string::npos);
}

TEST(LinCheck, ForkedSwapChain) {
  // Two completed swaps claim to have replaced the same previous value.
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 1, 2),
      write_op(1, 1, 20, kInitialValue, 3, 4),
  });
  EXPECT_FALSE(r.linearizable);
}

TEST(LinCheck, UnreachableCompletedSwap) {
  // A completed swap observed a previous value that never existed.
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 1, 2),
      write_op(1, 1, 20, 99, 3, 4),
  });
  EXPECT_FALSE(r.linearizable);
}

TEST(LinCheck, ChainContradictsRealTime) {
  // w(20) is chained after w(10) but completed before w(10) was invoked.
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 10, 12),
      write_op(1, 1, 20, 10, 1, 2),
  });
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("real-time"), std::string::npos);
}

TEST(LinCheck, StaleReadAfterReplacement) {
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 1, 2),
      write_op(0, 1, 20, 10, 3, 4),
      read_op(1, 1, 10, 5, 6),  // starts after w(20) completed
  });
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("stale"), std::string::npos);
}

TEST(LinCheck, ReadBeforeWriteInvoked) {
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 10, 11),
      read_op(1, 1, 10, 1, 2),  // completed before the write was invoked
  });
  EXPECT_FALSE(r.linearizable);
}

TEST(LinCheck, ConcurrentReadOfInFlightWriteIsFine) {
  EXPECT_TRUE(check_strict({
                               write_op(0, 1, 10, kInitialValue, 1, 10),
                               read_op(1, 1, 10, 2, 3),  // overlaps the write
                           })
                  .linearizable);
}

TEST(LinCheck, PendingWriteMayOrMayNotTakeEffect) {
  // Pending write never observed: fine.
  EXPECT_TRUE(check_strict({
                               write_op(0, 1, 10, kInitialValue, 1, 2),
                               write_op(1, 1, 20, 0, 3, 0, 1, false),
                           })
                  .linearizable);
  // Pending write observed by a later read in the same epoch: fine.
  EXPECT_TRUE(check_strict({
                               write_op(1, 1, 20, 0, 1, 0, 1, false),
                               read_op(0, 1, 20, 2, 3, 1),
                           })
                  .linearizable);
}

TEST(LinCheck, TwoObservedPendingWritesSpliceInRealTimeOrder) {
  // Two writes in flight at one crash, each observed by a later completed
  // swap. Splicing 20 first gives 10 -> 20 -> 40 -> 30 -> 35, which
  // contradicts real time (35 completed before 40 was invoked); splicing 30
  // first gives the legal 10 -> 30 -> 35 -> 20 -> 40. The checker must find
  // the legal order whatever order it meets the bridges in.
  EXPECT_TRUE(check_strict({
                               write_op(0, 1, 10, kInitialValue, 1, 2),
                               write_op(1, 1, 30, 0, 3, 0, 1, false),
                               write_op(0, 1, 35, 30, 4, 5),
                               write_op(2, 1, 20, 0, 6, 0, 1, false),
                               write_op(1, 1, 40, 20, 1, 2, 2),
                           })
                  .linearizable);
  // A late swap that observed 10 forces both bridges after it, but both
  // swaps that observed them completed before it was invoked: no splice
  // order is legal.
  EXPECT_FALSE(check_strict({
                                write_op(0, 1, 10, kInitialValue, 1, 2),
                                write_op(1, 1, 30, 0, 3, 0, 1, false),
                                write_op(0, 1, 35, 30, 4, 5),
                                write_op(2, 1, 20, 0, 6, 0, 1, false),
                                write_op(0, 1, 40, 20, 7, 8),
                                write_op(3, 1, 50, 10, 100, 101),
                            })
                   .linearizable);
}

TEST(LinCheck, StrictViolationEffectAfterCrash) {
  // A write pending at the epoch-1 crash is observed as coming *after* an
  // epoch-2 write — it took effect after the crash: strict violation.
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 5, 0, 1, false),  // pending, epoch 1
      write_op(1, 1, 20, kInitialValue, 1, 2, 2),         // epoch 2
      write_op(1, 1, 30, 20, 3, 4, 2),
      write_op(1, 1, 40, 10, 5, 6, 2),  // observed the pending write's value
  });
  // The chain init->20->30 and init->10 forks; either way it's flagged.
  EXPECT_FALSE(r.linearizable);
}

TEST(LinCheck, CrossEpochChainOrder) {
  EXPECT_TRUE(check_strict({
                               write_op(0, 1, 10, kInitialValue, 1, 2, 1),
                               write_op(0, 1, 20, 10, 1, 2, 2),  // after crash
                               read_op(1, 1, 20, 3, 4, 2),
                           })
                  .linearizable);
  const auto r = check_strict({
      write_op(0, 1, 10, kInitialValue, 1, 2, 2),
      write_op(0, 1, 20, 10, 1, 2, 1),  // epoch goes backwards along chain
  });
  EXPECT_FALSE(r.linearizable);
}

// ---- end-to-end crash trials over UPSkipList ------------------------------

/// Persistent per-thread history recorder over PmemLog.
class Recorder {
 public:
  static constexpr std::size_t kThreads = 3;
  static constexpr std::size_t kRegion = 1 << 20;

  explicit Recorder(pmem::Pool& pool, bool fresh) : pool_(pool) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      char* region = pool.base() + t * kRegion;
      logs_.emplace_back(fresh ? pmdk::PmemLog::format(region, kRegion)
                               : pmdk::PmemLog(region));
    }
  }

  std::uint32_t next_seq(std::uint32_t tid) {
    std::uint32_t max_seq = 0;
    logs_[tid].for_each<LogRecord>([&](const LogRecord& r) {
      if (r.seq > max_seq) max_seq = r.seq;
    });
    return max_seq + 1;
  }

  void invoke(std::uint32_t tid, std::uint32_t seq, OpKind kind,
              std::uint64_t key, std::uint64_t arg, std::uint64_t epoch) {
    LogRecord rec{1, static_cast<std::uint32_t>(kind), tid, seq,
                  key, arg, ts_.fetch_add(1), epoch};
    logs_[tid].append(&rec, sizeof(rec));
  }
  void respond(std::uint32_t tid, std::uint32_t seq, OpKind kind,
               std::uint64_t key, std::uint64_t ret, std::uint64_t epoch) {
    LogRecord rec{0, static_cast<std::uint32_t>(kind), tid, seq,
                  key, ret, ts_.fetch_add(1), epoch};
    logs_[tid].append(&rec, sizeof(rec));
  }

  std::vector<std::vector<LogRecord>> dump() {
    std::vector<std::vector<LogRecord>> out(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
      logs_[t].for_each<LogRecord>(
          [&](const LogRecord& r) { out[t].push_back(r); });
    return out;
  }

 private:
  pmem::Pool& pool_;
  std::vector<pmdk::PmemLog> logs_;
  std::atomic<std::uint64_t> ts_{1};
};

/// One phase of recorded concurrent operations; stops early if a crash
/// point fires in any thread.
void run_phase(test::StoreHarness& h, Recorder& rec, std::uint64_t epoch,
               std::atomic<std::uint64_t>& value_seq, int ops_per_thread,
               std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < Recorder::kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadRegistry::instance().bind(static_cast<int>(t));
      Xoshiro256 rng(seed * 97 + t);
      std::uint32_t seq = rec.next_seq(t);
      for (int i = 0; i < ops_per_thread && !stop.load(); ++i, ++seq) {
        const std::uint64_t key = 1 + rng.next_below(40);
        try {
          if (rng.next_below(2) == 0) {
            const std::uint64_t v = value_seq.fetch_add(1);
            rec.invoke(t, seq, OpKind::kWrite, key, v, epoch);
            auto old = h.store().insert(key, v);
            rec.respond(t, seq, OpKind::kWrite, key,
                        old.value_or(kInitialValue), epoch);
          } else {
            rec.invoke(t, seq, OpKind::kRead, key, 0, epoch);
            auto got = h.store().search(key);
            rec.respond(t, seq, OpKind::kRead, key,
                        got.value_or(kInitialValue), epoch);
          }
        } catch (const CrashException&) {
          stop.store(true);  // this thread dies mid-operation
          break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ThreadRegistry::instance().bind(0);
}

TEST(LinCheckCrashTrials, UPSkipListIsStrictlyLinearizable) {
  for (std::uint64_t trial = 1; trial <= 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    test::StoreHarness h(test::small_options(4, 10, 4));
    auto history_pool = pmem::Pool::create_anonymous(
        60, Recorder::kThreads * Recorder::kRegion, {.crash_tracking = true});
    Recorder rec(*history_pool, /*fresh=*/true);
    std::atomic<std::uint64_t> value_seq{1000 * trial};

    // Phase 1: run until a crash fires somewhere inside the store. Quiesce
    // on fire: survivors die at their next crash point / spin-guard poll
    // instead of wedging on a lock the crashed thread still holds.
    CrashPoints::instance().reset();
    CrashPoints::ArmSpec spec;
    spec.skip = 40 + trial * 13;
    spec.quiesce = true;
    CrashPoints::instance().arm(spec);
    run_phase(h, rec, h.store().epoch(), value_seq, 500, trial);
    CrashPoints::instance().disarm();

    // Power failure on both the store and the history pools.
    history_pool->simulate_crash();
    h.crash_and_reopen(trial % 2 == 0 ? pmem::CrashMode::kRandomEvict
                                      : pmem::CrashMode::kDiscardUnflushed,
                       trial);
    Recorder rec2(*history_pool, /*fresh=*/false);

    // Phase 2: post-crash threads reuse the ids and re-touch all keys.
    run_phase(h, rec2, h.store().epoch(), value_seq, 200, trial + 77);

    const auto ops = assemble(rec2.dump());
    const CheckResult result = check_strict(ops);
    EXPECT_TRUE(result.linearizable) << result.reason;
    EXPECT_GT(result.ops_checked, 100u);
  }
}

TEST(LinCheckCrashTrials, SeededBugsAreDetected) {
  // §6.3's analyzer validation: record a real history, then corrupt read
  // return values at random — the analyzer must flag every corruption.
  test::StoreHarness h(test::small_options(4, 10, 4));
  auto history_pool = pmem::Pool::create_anonymous(
      60, Recorder::kThreads * Recorder::kRegion, {.crash_tracking = true});
  Recorder rec(*history_pool, true);
  std::atomic<std::uint64_t> value_seq{1};
  run_phase(h, rec, h.store().epoch(), value_seq, 400, 5);

  auto base_records = rec.dump();
  ASSERT_TRUE(check_strict(assemble(base_records)).linearizable);

  int detected = 0;
  Xoshiro256 rng(9);
  for (int mutation = 0; mutation < 20; ++mutation) {
    auto records = base_records;
    // Corrupt one random read response.
    auto& stream = records[rng.next_below(records.size())];
    std::vector<std::size_t> read_resps;
    for (std::size_t i = 0; i < stream.size(); ++i)
      if (stream[i].kind_invoke == 0 &&
          stream[i].op == static_cast<std::uint32_t>(OpKind::kRead) &&
          stream[i].value != kInitialValue)
        read_resps.push_back(i);
    if (read_resps.empty()) continue;
    auto& rec_to_break = stream[read_resps[rng.next_below(read_resps.size())]];
    rec_to_break.value += 1000000 + rng.next_below(1000);
    if (!check_strict(assemble(records)).linearizable) ++detected;
  }
  EXPECT_GE(detected, 15) << "mutated histories must be flagged";
}

}  // namespace
}  // namespace upsl::lincheck
