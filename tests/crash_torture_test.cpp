// Concurrent crash–recovery torture: the in-process analogue of the thesis'
// overnight power-cycle campaign (§6.1.2). Each seeded iteration runs ≥4
// worker threads of mixed inserts/reads/removes/scans against one store,
// fires an injected crash in one (or a random) worker while the others are
// genuinely mid-operation, quiesces the survivors at their next crash point,
// snapshots the persistence domain under one of the two crash modes, and
// then re-crashes the *recovery itself* up to three nested times before the
// final verification:
//
//   * the durable-linearizability oracle (lincheck/oracle.hpp) replays the
//     DRAM invoke/ack history against the recovered store — every acked
//     write durable, every in-flight write atomic;
//   * check_invariants() — structural health;
//   * check_no_leaks() — exact block conservation, after every thread id
//     has re-allocated once so all deferred allocator recovery has run.
//
// Reproduction: every failure message carries the iteration seed; re-run
// with UPSL_TORTURE_SEED0=<seed> UPSL_TORTURE_ITERS=1 and the same shard
// filter (see docs/crash-testing.md).
//
// Knobs: UPSL_TORTURE_ITERS (iterations per shard, default 50),
// UPSL_TORTURE_THREADS (workers, default 4, min 4),
// UPSL_TORTURE_SEED0 (base seed, default 1).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/checksum.hpp"
#include "common/corruption.hpp"
#include "common/crashpoint.hpp"
#include "common/rng.hpp"
#include "common/thread_registry.hpp"
#include "core/upskiplist.hpp"
#include "lincheck/oracle.hpp"
#include "pmem/ack_batch.hpp"
#include "test_util.hpp"

namespace upsl {
namespace {

using lincheck::DurableOracle;
using EvKind = DurableOracle::EvKind;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

int torture_threads() {
  const auto t = static_cast<int>(env_u64("UPSL_TORTURE_THREADS", 4));
  return t < 4 ? 4 : (t > 8 ? 8 : t);
}

/// Crash points that sit on the recovery paths themselves; the nested phase
/// arms one of these so a crash lands *inside* recovery.
constexpr const char* kRecoveryPoints[] = {
    "core.recovery_draining",  "core.recovery_claimed",
    "core.split_recover_scan", "core.split_recovered",
    "core.insert_recovered",   "core.node_recovered",
    "alloc.mag_recover_mid",   "alloc.mag_reclaim_block",
    "alloc.mag_recover_retiring", "alloc.stale_log_resolved",
    "alloc.recover_converted", "alloc.sweep_pending",
};

struct IterOutcome {
  bool main_crash_fired = false;
  int nested_crashes_fired = 0;
  /// Batch-fence mode: committed batches that carried two or more
  /// mutations, i.e. fences that acked several ops at once.
  std::uint64_t multi_mutation_commits = 0;
};

/// Phase-1 workload shared by the single-store and sharded iterations. Each
/// op is invoked in the oracle, run, and parked in `done` until its ack.
/// Without `batch_fence` every op is acked as soon as it returns (the store
/// persists it before returning). With `batch_fence` the thread runs the
/// server's ack protocol: batches of 1-16 ops execute under one
/// pmem::AckBatch, which defers every mutation's ack lines; the whole batch
/// is acked only after commit_fenced() returns. A crash anywhere before that
/// unwinds the scope without committing and leaves the whole batch pending
/// in the oracle. Committed batches with two or more mutations count in
/// `multi`.
template <typename Store>
void run_phase1_ops(Store& store, DurableOracle& oracle, std::uint32_t tid,
                    Xoshiro256& trng, std::uint64_t keyspace,
                    std::atomic<std::uint64_t>& next_value, bool batch_fence,
                    std::atomic<std::uint64_t>& multi) {
  std::vector<std::pair<std::size_t, std::optional<std::uint64_t>>> done;
  unsigned mutations = 0;
  auto one_op = [&] {
    CrashPoints::instance().poll();
    const std::uint64_t key = 1 + trng.next_below(keyspace);
    const std::uint64_t dice = trng.next_below(100);
    if (dice < 50) {
      const std::uint64_t val = next_value.fetch_add(1);
      const std::size_t ev = oracle.invoke(tid, EvKind::kWrite, key, val);
      done.emplace_back(ev, store.insert(key, val));
      ++mutations;
    } else if (dice < 80) {
      const std::size_t ev = oracle.invoke(tid, EvKind::kRead, key);
      done.emplace_back(ev, store.search(key));
    } else if (dice < 95) {
      const std::size_t ev = oracle.invoke(tid, EvKind::kRemove, key);
      done.emplace_back(ev, store.remove(key));
      ++mutations;
    } else {
      std::vector<core::ScanEntry> out;  // unrecorded structural stress
      if constexpr (std::is_same_v<Store, core::ShardSet>)
        store.scan(1, keyspace, 0, out);  // cross-shard merge
      else
        store.scan(1, keyspace, out);
    }
  };
  for (int op = 0; op < 600;) {
    if (!batch_fence) {
      one_op();
      ++op;
    } else {
      const int k = 1 + static_cast<int>(trng.next_below(16));
      pmem::AckBatch ab;
      for (int i = 0; i < k && op < 600; ++i, ++op) one_op();
      ab.commit_fenced();
      if (mutations >= 2) multi.fetch_add(1);
    }
    for (const auto& [ev, ret] : done) oracle.ack_at(tid, ev, ret);
    done.clear();
    mutations = 0;
  }
}

/// One complete torture iteration. Everything random derives from `seed`.
/// With `batch_fence`, phase-1 ops run the server's ack protocol
/// (run_phase1_ops): the injected crash lands while acked durability was
/// provided by batch fences alone, and the oracle still demands every acked
/// write survive.
IterOutcome run_iteration(std::uint64_t seed, pmem::CrashMode first_mode,
                          bool batch_fence = false) {
  const int threads = torture_threads();
  Xoshiro256 rng(seed);
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4,
                                           /*max_height=*/10,
                                           /*max_threads=*/8));
  DurableOracle oracle(static_cast<std::uint32_t>(threads));
  std::atomic<std::uint64_t> next_value{1};
  const std::uint64_t keyspace = 120 + rng.next_below(200);

  // Preload a third of the keyspace (acked writes by thread 0) so removes
  // and splits have material from the first armed operation onward.
  for (std::uint64_t i = 0; i < keyspace / 3; ++i) {
    const std::uint64_t key = 1 + rng.next_below(keyspace);
    const std::uint64_t val = next_value.fetch_add(1);
    oracle.invoke(0, EvKind::kWrite, key, val);
    oracle.ack(0, h.store().insert(key, val));
  }

  // ---- phase 1: concurrent workload, one injected crash, quiesce --------
  CrashPoints::ArmSpec spec;
  spec.quiesce = true;
  // A worker's 600 ops pass a few hundred to ~2000 crash points (reads hit
  // none, updates ~2, splits ~10), so keep the fire window inside that.
  if (rng.next_below(3) == 0) {
    spec.probability = 1.0 / 128.0;  // probabilistic arming
    spec.seed = seed;
  } else {
    spec.skip = 10 + rng.next_below(250);
  }
  // Usually target one worker (the crash fires in it while the other N-1
  // are mid-operation); sometimes let any thread win the race.
  spec.thread = rng.next_below(4) == 0
                    ? -1
                    : static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(threads)));
  CrashPoints::instance().arm(spec);

  std::atomic<std::uint64_t> multi{0};
  auto worker = [&](int t) {
    ThreadRegistry::instance().bind(t);
    Xoshiro256 trng(seed * 1000003 + static_cast<std::uint64_t>(t));
    try {
      run_phase1_ops(h.store(), oracle, static_cast<std::uint32_t>(t), trng,
                     keyspace, next_value, batch_fence, multi);
    } catch (const CrashException&) {
      // Died at a crash point — either as "the crash" or as a quiesced
      // survivor; its open ops stay pending in the oracle.
    }
  };
  {
    std::vector<std::thread> ws;
    for (int t = 0; t < threads; ++t) ws.emplace_back(worker, t);
    for (auto& w : ws) w.join();
  }
  IterOutcome out;
  out.multi_mutation_commits = multi.load();
  out.main_crash_fired = CrashPoints::instance().fired();
  CrashPoints::instance().reset();
  oracle.on_crash();

  // Every reopen must rebuild the DRAM search layer before serving (when
  // the index is enabled) — the torture campaign exercises the rebuild on
  // every cycle, not just in dedicated tests.
  const auto reopen_checked = [&](pmem::CrashMode mode, std::uint64_t s) {
    const std::uint64_t rebuilds0 =
        pmem::Stats::instance().snapshot().index_rebuilds;
    h.crash_and_reopen(mode, s);
    if (h.store().dram_index_enabled()) {
      EXPECT_GT(pmem::Stats::instance().snapshot().index_rebuilds, rebuilds0)
          << "reopen did not rebuild the DRAM index [seed=" << seed << "]";
    }
  };
  reopen_checked(first_mode, seed ^ 0x9e3779b97f4a7c15ULL);

  // ---- phase 2: re-crash the recovery itself, up to 3 nested times ------
  const int nested = static_cast<int>(rng.next_below(4));
  for (int round = 0; round < nested; ++round) {
    CrashPoints::ArmSpec rspec;
    rspec.tag = crash_tag(
        kRecoveryPoints[rng.next_below(std::size(kRecoveryPoints))]);
    rspec.skip = rng.next_below(20);
    rspec.quiesce = true;
    CrashPoints::instance().arm(rspec);

    // Drive the deferred recovery from every thread id: searches claim and
    // repair stale nodes, inserts additionally run the per-thread allocator
    // recovery (magazines, stale logs, pending-chunk sweeps).
    auto driver = [&](int t) {
      ThreadRegistry::instance().bind(t);
      Xoshiro256 trng(seed * 7919 + static_cast<std::uint64_t>(round * 131 + t));
      const auto tid = static_cast<std::uint32_t>(t);
      try {
        for (int op = 0; op < 40; ++op) {
          CrashPoints::instance().poll();
          const std::uint64_t key = 1 + trng.next_below(keyspace);
          if (trng.next_below(2) == 0) {
            const std::uint64_t val = next_value.fetch_add(1);
            oracle.invoke(tid, EvKind::kWrite, key, val);
            oracle.ack(tid, h.store().insert(key, val));
          } else {
            oracle.invoke(tid, EvKind::kRead, key);
            oracle.ack(tid, h.store().search(key));
          }
        }
      } catch (const CrashException&) {
      }
    };
    std::vector<std::thread> ds;
    for (int t = 0; t < threads; ++t) ds.emplace_back(driver, t);
    for (auto& d : ds) d.join();

    if (CrashPoints::instance().fired()) ++out.nested_crashes_fired;
    CrashPoints::instance().reset();
    oracle.on_crash();
    // Alternate the crash mode across nested rounds for mixed coverage.
    const pmem::CrashMode mode =
        (round % 2 == 0) ? pmem::CrashMode::kRandomEvict : first_mode;
    reopen_checked(mode, seed + static_cast<std::uint64_t>(round) + 1);
  }

  // ---- phase 3: quiesced verification -----------------------------------
  CrashPoints::instance().reset();
  // Force the deferred per-thread allocator recovery for every worker id:
  // each inserts a run of fresh keys into its own empty key range, which
  // must split a node (keys_per_node=4 < 8 fresh keys through one gap) and
  // therefore allocate under that id. Sequential threads, distinct ids.
  for (int t = 0; t < threads; ++t) {
    std::thread tickler([&, t] {
      ThreadRegistry::instance().bind(t);
      const std::uint64_t base =
          1'000'000 + static_cast<std::uint64_t>(t) * 10'000;
      for (std::uint64_t i = 0; i < 8; ++i)
        h.store().insert(base + i, next_value.fetch_add(1));
    });
    tickler.join();
  }
  // Drain remaining lazy repairs so the structural checks see a settled
  // store (recovery is budgeted per traversal).
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t k = 1; k <= keyspace; ++k) h.store().search(k);

  const DurableOracle::Verdict verdict = oracle.verify(
      [&](std::uint64_t key) { return h.store().search(key); });
  EXPECT_TRUE(verdict.ok) << "oracle: " << verdict.reason
                          << " [seed=" << seed << "]";
  EXPECT_NO_THROW(h.store().check_invariants()) << "[seed=" << seed << "]";
  try {
    h.store().check_no_leaks();
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what() << " [seed=" << seed << "]\n"
                  << h.store().leak_report();
  }
  return out;
}

/// Sharded torture iteration: the same three-phase campaign against a 4-way
/// ShardSet. Mutations route by key, so the injected crash lands while
/// in-flight ops are spread across every shard; with `batch_fence`, one
/// batch's mutations span shards under one AckBatch, as a server batch of
/// routed ops does, and its single fence acks all of them. Reopen is the
/// parallel ShardSet::open, which re-validates the durable topology every
/// cycle; verification is the global oracle (each key lives on exactly one
/// shard, so per-key durable linearizability is per-shard durable
/// linearizability) plus per-shard structural and leak checks.
IterOutcome run_sharded_iteration(std::uint64_t seed, pmem::CrashMode first_mode,
                                  bool batch_fence = false) {
  constexpr std::uint32_t kShards = 4;
  const int threads = torture_threads();
  Xoshiro256 rng(seed);
  test::ShardHarness h(kShards, test::small_options(/*keys_per_node=*/4,
                                                    /*max_height=*/10,
                                                    /*max_threads=*/8));
  DurableOracle oracle(static_cast<std::uint32_t>(threads));
  std::atomic<std::uint64_t> next_value{1};
  const std::uint64_t keyspace = 120 + rng.next_below(200);

  for (std::uint64_t i = 0; i < keyspace / 3; ++i) {
    const std::uint64_t key = 1 + rng.next_below(keyspace);
    const std::uint64_t val = next_value.fetch_add(1);
    oracle.invoke(0, EvKind::kWrite, key, val);
    oracle.ack(0, h.set().insert(key, val));
  }
  h.mark_persisted();

  // ---- phase 1: concurrent routed workload, one injected crash -----------
  CrashPoints::ArmSpec spec;
  spec.quiesce = true;
  if (rng.next_below(3) == 0) {
    spec.probability = 1.0 / 128.0;
    spec.seed = seed;
  } else {
    spec.skip = 10 + rng.next_below(250);
  }
  spec.thread = rng.next_below(4) == 0
                    ? -1
                    : static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(threads)));
  CrashPoints::instance().arm(spec);

  std::atomic<std::uint64_t> multi{0};
  auto worker = [&](int t) {
    ThreadRegistry::instance().bind(t);
    Xoshiro256 trng(seed * 1000003 + static_cast<std::uint64_t>(t));
    try {
      run_phase1_ops(h.set(), oracle, static_cast<std::uint32_t>(t), trng,
                     keyspace, next_value, batch_fence, multi);
    } catch (const CrashException&) {
    }
  };
  {
    std::vector<std::thread> ws;
    for (int t = 0; t < threads; ++t) ws.emplace_back(worker, t);
    for (auto& w : ws) w.join();
  }
  IterOutcome out;
  out.multi_mutation_commits = multi.load();
  out.main_crash_fired = CrashPoints::instance().fired();
  CrashPoints::instance().reset();
  oracle.on_crash();

  // Every cycle re-runs the parallel recovery and re-validates the durable
  // shard topology (a mismatch throws out of ShardSet::open and fails the
  // test via the harness).
  const auto reopen_checked = [&](pmem::CrashMode mode, std::uint64_t s) {
    const std::uint64_t rebuilds0 =
        pmem::Stats::instance().snapshot().index_rebuilds;
    h.crash_and_reopen(mode, s);
    if (h.set().shard(0).dram_index_enabled()) {
      EXPECT_GE(pmem::Stats::instance().snapshot().index_rebuilds,
                rebuilds0 + kShards)
          << "reopen did not rebuild every shard's DRAM index [seed=" << seed
          << "]";
    }
  };
  reopen_checked(first_mode, seed ^ 0x9e3779b97f4a7c15ULL);

  // ---- phase 2: re-crash the recovery itself ----------------------------
  const int nested = static_cast<int>(rng.next_below(4));
  for (int round = 0; round < nested; ++round) {
    CrashPoints::ArmSpec rspec;
    rspec.tag = crash_tag(
        kRecoveryPoints[rng.next_below(std::size(kRecoveryPoints))]);
    rspec.skip = rng.next_below(20);
    rspec.quiesce = true;
    CrashPoints::instance().arm(rspec);

    auto driver = [&](int t) {
      ThreadRegistry::instance().bind(t);
      Xoshiro256 trng(seed * 7919 + static_cast<std::uint64_t>(round * 131 + t));
      const auto tid = static_cast<std::uint32_t>(t);
      try {
        for (int op = 0; op < 40; ++op) {
          CrashPoints::instance().poll();
          const std::uint64_t key = 1 + trng.next_below(keyspace);
          if (trng.next_below(2) == 0) {
            const std::uint64_t val = next_value.fetch_add(1);
            oracle.invoke(tid, EvKind::kWrite, key, val);
            oracle.ack(tid, h.set().insert(key, val));
          } else {
            oracle.invoke(tid, EvKind::kRead, key);
            oracle.ack(tid, h.set().search(key));
          }
        }
      } catch (const CrashException&) {
      }
    };
    std::vector<std::thread> ds;
    for (int t = 0; t < threads; ++t) ds.emplace_back(driver, t);
    for (auto& d : ds) d.join();

    if (CrashPoints::instance().fired()) ++out.nested_crashes_fired;
    CrashPoints::instance().reset();
    oracle.on_crash();
    const pmem::CrashMode mode =
        (round % 2 == 0) ? pmem::CrashMode::kRandomEvict : first_mode;
    reopen_checked(mode, seed + static_cast<std::uint64_t>(round) + 1);
  }

  // ---- phase 3: quiesced verification -----------------------------------
  CrashPoints::instance().reset();
  // check_no_leaks needs every (thread id, shard) pair to have re-allocated
  // once: any worker may have allocated on any shard pre-crash (routed
  // ops), so each tickler thread inserts a run of fresh keys *owned by each
  // shard* — scan a disjoint candidate range for keys the map sends to s.
  for (int t = 0; t < threads; ++t) {
    std::thread tickler([&, t] {
      ThreadRegistry::instance().bind(t);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        std::uint64_t k = 1'000'000 + static_cast<std::uint64_t>(t) * 100'000;
        for (int placed = 0; placed < 8; ++k) {
          if (h.set().shard_of(k) != s) continue;
          h.set().insert(k, next_value.fetch_add(1));
          ++placed;
        }
      }
    });
    tickler.join();
  }
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t k = 1; k <= keyspace; ++k) h.set().search(k);

  const DurableOracle::Verdict verdict =
      oracle.verify([&](std::uint64_t key) { return h.set().search(key); });
  EXPECT_TRUE(verdict.ok) << "oracle: " << verdict.reason
                          << " [seed=" << seed << "]";
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_NO_THROW(h.set().shard(s).check_invariants())
        << "shard " << s << " [seed=" << seed << "]";
    try {
      h.set().shard(s).check_no_leaks();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "shard " << s << ": " << e.what() << " [seed=" << seed
                    << "]\n"
                    << h.set().shard(s).leak_report();
    }
  }
  return out;
}

/// Detectable-sessions iteration (docs/detectability.md): workers are
/// durable client sessions pipelining 1–4 detectable mutations per
/// batch fence. After the crash the harness replays the server's
/// reconnect-and-resolve protocol and holds the campaign to *exactly-once*
/// instead of either-outcome: every un-acked detectable op is resolved
/// through the session table, the per-session answers must form an applied
/// prefix of the issued seq order, resolved-applied ops feed the oracle
/// their durable results, resolved not-applied ops are cancelled and
/// replayed with the *same* seq (the replay must not dedup), and every op
/// still inside the result ring is probed with a duplicate replay that must
/// return the original result without re-applying. Discard mode only: a
/// detectable op's session record and its publish/ack lines ride one commit
/// ticket, so dropping un-fenced lines keeps them in agreement; random
/// eviction can persist one side without the other — the table stays
/// structurally sound there (detect_test sweeps those crash points), but the
/// strict op/record coupling this shard asserts does not hold.
IterOutcome run_detect_iteration(std::uint64_t seed) {
  // The shard *is* the detect campaign: pin the kill switch on so the CI's
  // UPSL_DISABLE_DETECT matrix leg doesn't silently degrade it to plain ops.
  test::ScopedDetect detect_on(true);
  const int threads = torture_threads();
  Xoshiro256 rng(seed);
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4,
                                           /*max_height=*/10,
                                           /*max_threads=*/8));
  DurableOracle oracle(static_cast<std::uint32_t>(threads));
  std::atomic<std::uint64_t> next_value{1};
  const std::uint64_t keyspace = 120 + rng.next_below(200);

  for (std::uint64_t i = 0; i < keyspace / 3; ++i) {
    const std::uint64_t key = 1 + rng.next_below(keyspace);
    const std::uint64_t val = next_value.fetch_add(1);
    oracle.invoke(0, EvKind::kWrite, key, val);
    oracle.ack(0, h.store().insert(key, val));
  }
  h.mark_persisted();

  // One issued detectable op: the seq stamped on the wire, its oracle event
  // index, and — once the covering fence retires or a post-crash RESOLVE
  // answers — the result the client holds for it.
  struct IssuedOp {
    std::uint64_t seq = 0;
    std::size_t ev = 0;
    bool is_insert = true;
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::optional<std::uint64_t> prev;
  };
  struct SessionLog {
    std::uint64_t client_id = 0;
    std::vector<IssuedOp> ops;  // issue order == seq order
    std::size_t acked = 0;      // ops[0..acked) fence-covered and acked
  };
  std::vector<SessionLog> logs(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    logs[static_cast<std::size_t>(t)].client_id =
        1000 + static_cast<std::uint64_t>(t);

  // ---- phase 1: pipelined detectable workload, one injected crash --------
  CrashPoints::ArmSpec spec;
  spec.quiesce = true;
  if (rng.next_below(3) == 0) {
    spec.probability = 1.0 / 128.0;
    spec.seed = seed;
  } else {
    spec.skip = 10 + rng.next_below(250);
  }
  spec.thread = rng.next_below(4) == 0
                    ? -1
                    : static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(threads)));
  CrashPoints::instance().arm(spec);

  std::atomic<std::uint64_t> multi{0};
  auto worker = [&](int t) {
    ThreadRegistry::instance().bind(t);
    SessionLog& log = logs[static_cast<std::size_t>(t)];
    Xoshiro256 trng(seed * 1000003 + static_cast<std::uint64_t>(t));
    const auto tid = static_cast<std::uint32_t>(t);
    try {
      const std::int32_t slot = h.store().sessions().open_session(log.client_id);
      if (slot < 0) {
        ADD_FAILURE() << "session table refused client " << log.client_id
                      << " [seed=" << seed << "]";
        return;
      }
      std::uint64_t seq = 0;
      for (int batch = 0; batch < 150; ++batch) {
        CrashPoints::instance().poll();
        // Pipeline k ops under one AckBatch, acked by its one fence; keep k
        // well below the result-ring depth (8) so no pending result can age
        // out.
        const int k = 1 + static_cast<int>(trng.next_below(4));
        const std::size_t first = log.ops.size();
        {
          pmem::AckBatch ab;
          for (int i = 0; i < k; ++i) {
            IssuedOp op;
            op.seq = ++seq;
            op.key = 1 + trng.next_below(keyspace);
            op.is_insert = trng.next_below(100) < 70;
            if (op.is_insert) {
              op.value = next_value.fetch_add(1);
              op.ev = oracle.invoke(tid, EvKind::kWrite, op.key, op.value);
            } else {
              op.ev = oracle.invoke(tid, EvKind::kRemove, op.key);
            }
            // Log before the call: dying mid-op leaves it issued-unresolved.
            log.ops.push_back(op);
            const core::UPSkipList::DetectOutcome r =
                op.is_insert
                    ? h.store().insert_detect(op.key, op.value, slot, op.seq)
                    : h.store().remove_detect(op.key, slot, op.seq);
            EXPECT_FALSE(r.duplicate)
                << "fresh seq " << op.seq << " deduped [seed=" << seed << "]";
            log.ops.back().prev = r.previous;
          }
          ab.commit_fenced();
        }
        if (k >= 2) multi.fetch_add(1);
        for (std::size_t i = first; i < log.ops.size(); ++i)
          oracle.ack_at(tid, log.ops[i].ev, log.ops[i].prev);
        log.acked = log.ops.size();
      }
    } catch (const CrashException&) {
      // Died at a crash point; its un-acked tail stays issued-unresolved.
    }
  };
  {
    std::vector<std::thread> ws;
    for (int t = 0; t < threads; ++t) ws.emplace_back(worker, t);
    for (auto& w : ws) w.join();
  }
  IterOutcome out;
  out.multi_mutation_commits = multi.load();
  out.main_crash_fired = CrashPoints::instance().fired();
  CrashPoints::instance().reset();
  oracle.on_crash();

  {
    const std::uint64_t rebuilds0 =
        pmem::Stats::instance().snapshot().index_rebuilds;
    h.crash_and_reopen(pmem::CrashMode::kDiscardUnflushed,
                       seed ^ 0x9e3779b97f4a7c15ULL);
    if (h.store().dram_index_enabled()) {
      EXPECT_GT(pmem::Stats::instance().snapshot().index_rebuilds, rebuilds0)
          << "reopen did not rebuild the DRAM index [seed=" << seed << "]";
    }
  }
  EXPECT_TRUE(h.store().sessions().valid())
      << "session table did not recover [seed=" << seed << "]";

  // ---- phase 2: reconnect-and-resolve, exactly-once ----------------------
  for (int t = 0; t < threads; ++t) {
    std::thread resolver([&, t] {
      ThreadRegistry::instance().bind(t);
      SessionLog& log = logs[static_cast<std::size_t>(t)];
      if (log.ops.empty()) return;
      const auto tid = static_cast<std::uint32_t>(t);
      const std::int32_t slot = h.store().sessions().open_session(log.client_id);
      if (slot < 0) {
        ADD_FAILURE() << "session " << log.client_id
                      << " vanished across the crash [seed=" << seed << "]";
        return;
      }
      bool not_applied_seen = false;
      for (std::size_t i = log.acked; i < log.ops.size(); ++i) {
        IssuedOp& op = log.ops[i];
        const detect::ResolveResult r =
            h.store().sessions().resolve(log.client_id, op.seq);
        switch (r.state) {
          case detect::ResolveResult::State::kApplied:
            // Exactly-once: per-session answers must be an applied prefix of
            // the issued order (a later op durable while an earlier one was
            // dropped would mean an op outran its predecessor's fence).
            EXPECT_FALSE(not_applied_seen)
                << "seq " << op.seq << " applied after an earlier seq was "
                << "not [seed=" << seed << "]";
            op.prev = r.has_previous != 0
                          ? std::optional<std::uint64_t>(r.result)
                          : std::nullopt;
            oracle.resolve_applied(tid, op.ev, op.prev);
            break;
          case detect::ResolveResult::State::kNotApplied: {
            not_applied_seen = true;
            oracle.resolve_not_applied(tid, op.ev);
            // Replay with the same seq and a fresh payload — the durable
            // answer said the original never took effect, so the replay must
            // apply (a dedup here would be a lost mutation).
            core::UPSkipList::DetectOutcome d;
            std::size_t ev;
            if (op.is_insert) {
              op.value = next_value.fetch_add(1);
              ev = oracle.invoke(tid, EvKind::kWrite, op.key, op.value);
              d = h.store().insert_detect(op.key, op.value, slot, op.seq);
            } else {
              ev = oracle.invoke(tid, EvKind::kRemove, op.key);
              d = h.store().remove_detect(op.key, slot, op.seq);
            }
            EXPECT_FALSE(d.duplicate)
                << "replay of not-applied seq " << op.seq
                << " deduped [seed=" << seed << "]";
            oracle.ack_at(tid, ev, d.previous);
            op.prev = d.previous;
            break;
          }
          case detect::ResolveResult::State::kAppliedUnknown:
            ADD_FAILURE() << "seq " << op.seq << " aged out of the result "
                          << "ring with <= 4 ops in flight [seed=" << seed
                          << "]";
            oracle.resolve_not_applied(tid, op.ev);
            break;
          case detect::ResolveResult::State::kUnknownSession:
            ADD_FAILURE() << "session " << log.client_id
                          << " unknown though it issued ops [seed=" << seed
                          << "]";
            oracle.resolve_not_applied(tid, op.ev);
            break;
        }
      }
      // Duplicate probes: every op still inside the ring window must dedup —
      // same seq, different payload, byte-identical original result, and no
      // second application (a re-applied payload would surface as a
      // never-written value in the oracle's readback).
      const std::uint64_t highest = log.ops.back().seq;
      for (const IssuedOp& op : log.ops) {
        if (op.seq + detect::SessionTable::kRingSize <= highest) continue;
        const core::UPSkipList::DetectOutcome d =
            op.is_insert ? h.store().insert_detect(
                               op.key, next_value.fetch_add(1), slot, op.seq)
                         : h.store().remove_detect(op.key, slot, op.seq);
        EXPECT_TRUE(d.duplicate)
            << "probe of seq " << op.seq << " re-applied [seed=" << seed
            << "]";
        EXPECT_TRUE(d.result_known)
            << "probe of seq " << op.seq << " lost its result [seed=" << seed
            << "]";
        EXPECT_TRUE(d.previous == op.prev)
            << "probe of seq " << op.seq
            << " returned a different result [seed=" << seed << "]";
      }
    });
    resolver.join();
  }

  // ---- phase 3: quiesced verification -----------------------------------
  CrashPoints::instance().reset();
  for (int t = 0; t < threads; ++t) {
    std::thread tickler([&, t] {
      ThreadRegistry::instance().bind(t);
      const std::uint64_t base =
          1'000'000 + static_cast<std::uint64_t>(t) * 10'000;
      for (std::uint64_t i = 0; i < 8; ++i)
        h.store().insert(base + i, next_value.fetch_add(1));
    });
    tickler.join();
  }
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t k = 1; k <= keyspace; ++k) h.store().search(k);

  const DurableOracle::Verdict verdict = oracle.verify(
      [&](std::uint64_t key) { return h.store().search(key); });
  EXPECT_TRUE(verdict.ok) << "oracle: " << verdict.reason
                          << " [seed=" << seed << "]";
  EXPECT_NO_THROW(h.store().check_invariants()) << "[seed=" << seed << "]";
  try {
    h.store().check_no_leaks();
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what() << " [seed=" << seed << "]\n"
                  << h.store().leak_report();
  }
  return out;
}

/// Corruption-torture iteration (docs/integrity.md): the usual concurrent
/// workload and injected crash, then — between the crash and the reopen —
/// a seeded medium strike against a stamp-covered durable surface of one
/// victim node (header words meta/self_riv/key0, or the whole header line
/// zeroed). The reopen's quarantine scan must detect the damage, bridge
/// around it, and report the lost key range; the oracle then holds the
/// campaign to the corruption contract: every acked key is recovered intact
/// or explicitly reported lost — never silently wrong. Leak checks are
/// skipped by design: quarantine leaks the damaged node's blocks on
/// purpose rather than trusting its contents.
struct CorruptionOutcome {
  bool main_crash_fired = false;
  bool struck = false;
  bool quarantined = false;
  std::string strike_desc;
};

CorruptionOutcome run_corruption_iteration(std::uint64_t seed,
                                           pmem::CrashMode mode) {
  // The shard *is* the integrity campaign: pin stamps on so the CI's
  // UPSL_DISABLE_CHECKSUMS matrix leg doesn't degrade detection to noise.
  test::ScopedChecksums checksums_on(true);
  const int threads = torture_threads();
  Xoshiro256 rng(seed);
  test::StoreHarness h(test::small_options(/*keys_per_node=*/4,
                                           /*max_height=*/10,
                                           /*max_threads=*/8));
  DurableOracle oracle(static_cast<std::uint32_t>(threads));
  std::atomic<std::uint64_t> next_value{1};
  const std::uint64_t keyspace = 120 + rng.next_below(200);

  for (std::uint64_t i = 0; i < keyspace / 3; ++i) {
    const std::uint64_t key = 1 + rng.next_below(keyspace);
    const std::uint64_t val = next_value.fetch_add(1);
    oracle.invoke(0, EvKind::kWrite, key, val);
    oracle.ack(0, h.store().insert(key, val));
  }

  // ---- phase 1: concurrent workload, one injected crash ------------------
  CrashPoints::ArmSpec spec;
  spec.quiesce = true;
  if (rng.next_below(3) == 0) {
    spec.probability = 1.0 / 128.0;
    spec.seed = seed;
  } else {
    spec.skip = 10 + rng.next_below(250);
  }
  spec.thread = rng.next_below(4) == 0
                    ? -1
                    : static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(threads)));
  CrashPoints::instance().arm(spec);

  auto worker = [&](int t) {
    ThreadRegistry::instance().bind(t);
    Xoshiro256 trng(seed * 1000003 + static_cast<std::uint64_t>(t));
    const auto tid = static_cast<std::uint32_t>(t);
    try {
      for (int op = 0; op < 600; ++op) {
        CrashPoints::instance().poll();
        const std::uint64_t key = 1 + trng.next_below(keyspace);
        const std::uint64_t dice = trng.next_below(100);
        if (dice < 50) {
          const std::uint64_t val = next_value.fetch_add(1);
          oracle.invoke(tid, EvKind::kWrite, key, val);
          oracle.ack(tid, h.store().insert(key, val));
        } else if (dice < 85) {
          oracle.invoke(tid, EvKind::kRead, key);
          oracle.ack(tid, h.store().search(key));
        } else {
          oracle.invoke(tid, EvKind::kRemove, key);
          oracle.ack(tid, h.store().remove(key));
        }
      }
    } catch (const CrashException&) {
    }
  };
  {
    std::vector<std::thread> ws;
    for (int t = 0; t < threads; ++t) ws.emplace_back(worker, t);
    for (auto& w : ws) w.join();
  }
  CorruptionOutcome out;
  out.main_crash_fired = CrashPoints::instance().fired();
  CrashPoints::instance().reset();
  oracle.on_crash();

  // ---- phase 2: strike a stamp-covered surface, then reopen --------------
  // Victim: the level-0 node (in the pre-crash mapping, still valid until
  // the remap inside crash_corrupt_reopen) owning a random workload key.
  // Only stamp-covered header words are struck — meta@24, self_riv@40,
  // key0@56, or the whole header line — so detection is guaranteed by
  // design rather than probabilistic (in-node key/value payload is
  // deliberately uncovered, docs/integrity.md).
  const std::uint64_t victim_key = 1 + rng.next_below(keyspace);
  const std::uint64_t victim_riv = h.store().debug_node_riv_for(victim_key);
  char* victim = victim_riv != 0
                     ? static_cast<char*>(
                           riv::Runtime::instance().to_ptr(victim_riv))
                     : nullptr;
  const std::uint64_t shape = rng.next_below(4);
  const std::uint64_t draw = rng.next() | 1;
  h.crash_corrupt_reopen(
      [&](std::vector<pmem::Pool*>) {
        if (victim == nullptr) return;
        CorruptionHit hit{};
        switch (shape) {
          case 0:
            hit = CorruptionPoints::bit_flip(victim + 24, 8, draw);
            break;
          case 1:
            hit = CorruptionPoints::bit_flip(victim + 40, 8, draw);
            break;
          case 2:
            hit = CorruptionPoints::torn_word(victim + 56, 8, draw);
            break;
          default:
            hit = CorruptionPoints::zero_line(victim, 64, 0);
        }
        out.struck = true;
        std::ostringstream os;
        os << corruption_kind_name(hit.kind) << " on node riv 0x" << std::hex
           << victim_riv << " header word +" << std::dec
           << (shape == 0 ? 24 : shape == 1 ? 40 : shape == 2 ? 56 : 0)
           << " (before=0x" << std::hex << hit.before << " after=0x"
           << hit.after << std::dec << ")";
        out.strike_desc = os.str();
      },
      mode, seed ^ 0x9e3779b97f4a7c15ULL);

  // The report must be captured before phase 3: verify_deep() would also
  // work, but the open-time verdict is what a restarting server acts on.
  const core::IntegrityReport report = h.store().integrity();
  out.quarantined = report.degraded();
  if (out.struck && out.quarantined) {
    EXPECT_GE(report.nodes_quarantined + (report.root_mode_repaired ? 1 : 0),
              1u)
        << "[seed=" << seed << " " << out.strike_desc << "]";
  }

  // ---- phase 3: quiesced verification ------------------------------------
  CrashPoints::instance().reset();
  for (int t = 0; t < threads; ++t) {
    std::thread tickler([&, t] {
      ThreadRegistry::instance().bind(t);
      const std::uint64_t base =
          1'000'000 + static_cast<std::uint64_t>(t) * 10'000;
      for (std::uint64_t i = 0; i < 8; ++i)
        h.store().insert(base + i, next_value.fetch_add(1));
    });
    tickler.join();
  }
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t k = 1; k <= keyspace; ++k) h.store().search(k);

  const DurableOracle::Verdict verdict = oracle.verify(
      [&](std::uint64_t key) { return h.store().search(key); },
      [&](std::uint64_t key) { return report.covers(key); });
  EXPECT_TRUE(verdict.ok) << "oracle: " << verdict.reason << " [seed=" << seed
                          << (out.struck ? " " + out.strike_desc : "") << "]";
  EXPECT_NO_THROW(h.store().check_invariants())
      << "[seed=" << seed << (out.struck ? " " + out.strike_desc : "") << "]";
  // No check_no_leaks: quarantine leaks the victim's blocks on purpose.
  return out;
}


/// Runs `iters` seeded iterations under `mode` and reports the failing seed
/// (the CI greps for "failing seed" on error).
void run_shard(const char* shard, std::uint64_t seed_base,
               pmem::CrashMode mode, bool batch_fence = false,
               bool sharded_store = false) {
  const std::uint64_t iters = env_u64("UPSL_TORTURE_ITERS", 50);
  // An explicit UPSL_TORTURE_SEED0 is an absolute seed (what a failure
  // message printed); the default campaign offsets each shard so the eight
  // shards cover disjoint seed ranges.
  const bool explicit_seed = std::getenv("UPSL_TORTURE_SEED0") != nullptr;
  const std::uint64_t seed0 =
      explicit_seed ? env_u64("UPSL_TORTURE_SEED0", 1) : 1 + seed_base;
  std::uint64_t fired = 0;
  std::uint64_t nested_fired = 0;
  std::uint64_t multi = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = seed0 + i;
    SCOPED_TRACE(std::string(shard) + " iteration " + std::to_string(i) +
                 " seed " + std::to_string(seed));
    const IterOutcome out = sharded_store
                                ? run_sharded_iteration(seed, mode, batch_fence)
                                : run_iteration(seed, mode, batch_fence);
    fired += out.main_crash_fired ? 1 : 0;
    nested_fired += static_cast<std::uint64_t>(out.nested_crashes_fired);
    multi += out.multi_mutation_commits;
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "\n*** crash_torture failing seed: %llu (shard %s, "
                   "reproduce with UPSL_TORTURE_SEED0=%llu "
                   "UPSL_TORTURE_ITERS=1) ***\n\n",
                   static_cast<unsigned long long>(seed), shard,
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
  // The campaign is only meaningful if crashes actually land mid-workload:
  // require the injected crash to fire in the large majority of iterations
  // (a miss — the fire window outrunning a read-heavy worker's hits — is
  // still a valid clean-crash iteration) and the nested recovery re-crash
  // to fire at least sometimes.
  EXPECT_GE(fired * 5, iters * 4)
      << "main crash fired in only " << fired << "/" << iters
      << " iterations";
  if (iters >= 20) {
    EXPECT_GT(nested_fired, 0u)
        << "recovery-path crash never fired across " << iters
        << " iterations";
    // Batches draw 1-16 ops: some fences must have acked several
    // mutations at once, or the mode degraded to per-op persists.
    if (batch_fence) {
      EXPECT_GT(multi, 0u) << "no batch fence acked two mutations across "
                           << iters << " iterations";
    }
  }
}

TEST(CrashTorture, DiscardModeShardA) {
  run_shard("discard-a", 0, pmem::CrashMode::kDiscardUnflushed);
}

TEST(CrashTorture, DiscardModeShardB) {
  run_shard("discard-b", 100'000, pmem::CrashMode::kDiscardUnflushed);
}

TEST(CrashTorture, EvictModeShardA) {
  run_shard("evict-a", 200'000, pmem::CrashMode::kRandomEvict);
}

TEST(CrashTorture, EvictModeShardB) {
  run_shard("evict-b", 300'000, pmem::CrashMode::kRandomEvict);
}

// The four shards above run with the DRAM search layer on (the default), so
// the durable-linearizability oracle gates the index path and every cycle
// exercises the rebuild. This shard pins the legacy persistent-towers mode
// so both traversal/recovery paths stay under the campaign.
TEST(CrashTorture, DiscardModePersistentTowers) {
  test::ScopedEnv off("UPSL_DISABLE_DRAM_INDEX", "1");
  run_shard("discard-towers", 400'000, pmem::CrashMode::kDiscardUnflushed);
}

// Batch-fence shard (the name predates the retired cross-connection
// committer; "group commit" is now the batch's shared fence): acked
// durability in phase 1 is provided by one AckBatch::commit_fenced() per
// batch of 1-16 ops, the server's ack protocol (docs/write-path.md), instead
// of per-op persists. The oracle's acked-writes-survive check gates the MOD
// write path + AckBatch combination under injected crashes, including
// crashes mid-batch that must leave the whole batch pending.
TEST(CrashTorture, DiscardModeGroupCommit) {
  run_shard("discard-batchfence", 500'000,
            pmem::CrashMode::kDiscardUnflushed, /*batch_fence=*/true);
}

// Sharded-store shard: the whole campaign against a 4-way ShardSet, with
// batch fences whose batches route across shards — crashes land with
// in-flight mutations spread across shards, every reopen runs the parallel
// recovery and re-validates the durable topology, and the leak/invariant
// checks run per shard.
TEST(CrashTorture, DiscardModeShardedStore) {
  run_shard("discard-sharded", 600'000, pmem::CrashMode::kDiscardUnflushed,
            /*batch_fence=*/true, /*sharded_store=*/true);
}

// Detectable-sessions shard: phase 1 runs pipelined detectable mutations
// in batches acked by one batch fence each, and the post-crash phase
// upgrades the oracle from either-outcome to exactly-once — every un-acked
// op is resolved through the durable session table, not-applied ops replay
// under the same seq, and duplicate probes must return original results
// without re-applying. No nested recovery re-crash: the resolve/replay protocol
// itself is the recovery under test (run_detect_iteration for the details).
TEST(CrashTorture, DiscardModeDetectableSessions) {
  const std::uint64_t iters = env_u64("UPSL_TORTURE_ITERS", 50);
  const bool explicit_seed = std::getenv("UPSL_TORTURE_SEED0") != nullptr;
  const std::uint64_t seed0 =
      explicit_seed ? env_u64("UPSL_TORTURE_SEED0", 1) : 1 + 700'000;
  std::uint64_t fired = 0;
  std::uint64_t multi = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = seed0 + i;
    SCOPED_TRACE("discard-detect iteration " + std::to_string(i) + " seed " +
                 std::to_string(seed));
    const IterOutcome out = run_detect_iteration(seed);
    fired += out.main_crash_fired ? 1 : 0;
    multi += out.multi_mutation_commits;
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "\n*** crash_torture failing seed: %llu (shard "
                   "discard-detect, reproduce with UPSL_TORTURE_SEED0=%llu "
                   "UPSL_TORTURE_ITERS=1) ***\n\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
  EXPECT_GE(fired * 5, iters * 4)
      << "main crash fired in only " << fired << "/" << iters
      << " iterations";
  // Batches carry 1-4 ops: some fences must have acked several at once.
  if (iters >= 20) {
    EXPECT_GT(multi, 0u) << "no batch fence acked two detectable mutations "
                         << "across " << iters << " iterations";
  }
}

// Corruption-torture shard: crash + seeded medium strike on a stamp-covered
// node-header surface + reopen, verified against the corruption contract
// (intact or explicitly reported lost, never silently wrong) in both crash
// modes. A failure prints the seed AND the exact strike (kind, riv, word,
// before/after) for one-command reproduction.
TEST(CrashTorture, CorruptionQuarantine) {
  const std::uint64_t iters = env_u64("UPSL_TORTURE_ITERS", 50);
  const bool explicit_seed = std::getenv("UPSL_TORTURE_SEED0") != nullptr;
  const std::uint64_t seed0 =
      explicit_seed ? env_u64("UPSL_TORTURE_SEED0", 1) : 1 + 800'000;
  std::uint64_t fired = 0;
  std::uint64_t struck = 0;
  std::uint64_t quarantined = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = seed0 + i;
    const pmem::CrashMode mode = (seed % 2 == 0)
                                     ? pmem::CrashMode::kRandomEvict
                                     : pmem::CrashMode::kDiscardUnflushed;
    SCOPED_TRACE("discard-corrupt iteration " + std::to_string(i) + " seed " +
                 std::to_string(seed));
    const CorruptionOutcome out = run_corruption_iteration(seed, mode);
    fired += out.main_crash_fired ? 1 : 0;
    struck += out.struck ? 1 : 0;
    quarantined += out.quarantined ? 1 : 0;
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "\n*** crash_torture failing seed: %llu (shard "
                   "discard-corrupt, strike: %s, reproduce with "
                   "UPSL_TORTURE_SEED0=%llu UPSL_TORTURE_ITERS=1) ***\n\n",
                   static_cast<unsigned long long>(seed),
                   out.struck ? out.strike_desc.c_str() : "none",
                   static_cast<unsigned long long>(seed));
      return;
    }
  }
  EXPECT_GE(fired * 5, iters * 4)
      << "main crash fired in only " << fired << "/" << iters
      << " iterations";
  // The campaign is only meaningful if strikes actually land on durable
  // reachable nodes and the quarantine path actually runs.
  EXPECT_GE(struck * 2, iters)
      << "medium strike landed in only " << struck << "/" << iters
      << " iterations";
  if (iters >= 20) {
    EXPECT_GT(quarantined, 0u)
        << "corruption was never detected/quarantined across " << iters
        << " iterations";
  }
}

}  // namespace
}  // namespace upsl
