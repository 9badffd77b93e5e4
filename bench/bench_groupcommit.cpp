// Fences-per-mutation A/B for the MOD write path + cross-connection group
// commit (BENCH_groupcommit.json).
//
// Two self-hosted legs over identical mixed-write load (10% read / 60%
// update / 30% insert, zipfian), 16 client threads by default:
//
//   baseline    — legacy ordered write path (mod writes off), per-batch ack
//                 fence in the server (group commit off): every mutation
//                 pays its own persist fences at the store sites.
//   groupcommit — out-of-place build + single publish fence in the core,
//                 ack lines deferred through AckBatch and fenced once per
//                 group commit across all connections. The committer fences
//                 as soon as no mutation batch is open, at the latest one
//                 commit window after the first pending submission; with 16
//                 clients some batch is nearly always open, so fences still
//                 fill up.
//
// The headline metric is total pmem fences divided by client-issued
// mutations (reader-forced persists included — it is the honest whole-store
// number). The PR's acceptance gate: >= 5x fewer fences per mutation at 16
// clients, with p999 batch latency not regressed beyond the commit window.
//
// Knobs: UPSL_BENCH_RECORDS (default 20000), UPSL_BENCH_OPS (default 40000),
// UPSL_SERVER_CLIENTS (default 16), UPSL_SERVER_DEPTH (default 8),
// UPSL_COMMIT_WINDOW_US (upper bound on the committer window, default 50).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "common/histogram.hpp"
#include "pmem/ack_batch.hpp"
#include "server/client.hpp"
#include "server/group_commit.hpp"
#include "server/server.hpp"
#include "ycsb/workload.hpp"

namespace {

using namespace upsl;
using bench::JsonBenchWriter;

// Write-heavy mix: enough mutations that fences-per-mutation is a stable
// quotient, enough reads to keep reader-forced persists in the picture.
constexpr ycsb::WorkloadSpec kMixedWrite{"mixed-write", 0.10, 0.60, 0.30,
                                         ycsb::Distribution::kZipfian};

struct Target {
  std::string host;
  std::uint16_t port = 0;
};

bool connect_with_retry(server::Client& c, const Target& t, int attempts = 50) {
  for (int i = 0; i < attempts; ++i) {
    if (c.connect(t.host, t.port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

bool preload(const Target& t, std::uint64_t records) {
  server::Client c;
  if (!connect_with_retry(c, t)) return false;
  constexpr std::uint32_t kDepth = 128;
  std::vector<server::Response> resp;
  std::uint64_t v = 1;
  for (std::uint64_t i = 0; i < records; ++i) {
    c.queue({server::Opcode::kPut, ycsb::key_of(i), v++});
    if (c.queued() == kDepth || i + 1 == records) c.flush(&resp);
  }
  return true;
}

struct WorkloadResult {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t mutations = 0;
  bench::LatencyRecorder latency;
  bool ok = true;
};

WorkloadResult run_workload(const Target& t, std::uint64_t records,
                            std::uint64_t total_ops, unsigned clients,
                            std::uint32_t depth) {
  std::vector<WorkloadResult> per_thread(clients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      WorkloadResult& r = per_thread[i];
      server::Client c;
      if (!connect_with_retry(c, t, 30)) {
        r.ok = false;
        return;
      }
      ycsb::OpGenerator gen(kMixedWrite, records, /*seed=*/9000 + i, i,
                            clients);
      std::uint64_t remaining = total_ops / clients;
      std::vector<server::Response> resp;
      try {
        while (remaining > 0) {
          const std::uint32_t batch = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(depth, remaining));
          std::uint32_t muts = 0;
          for (std::uint32_t b = 0; b < batch; ++b) {
            const ycsb::Op op = gen.next();
            if (op.type == ycsb::OpType::kRead) {
              c.queue({server::Opcode::kGet, op.key});
            } else {
              c.queue({server::Opcode::kPut, op.key, op.value});
              ++muts;
            }
          }
          const auto s = std::chrono::steady_clock::now();
          c.flush(&resp);
          const auto ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - s)
                  .count());
          for (std::uint32_t b = 0; b < batch; ++b) r.latency.record_ns(ns);
          r.ops += batch;
          r.mutations += muts;
          remaining -= batch;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %u: %s\n", i, e.what());
        r.ok = false;
      }
    });
  }
  for (auto& th : threads) th.join();

  WorkloadResult total;
  total.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const WorkloadResult& r : per_thread) {
    total.ops += r.ops;
    total.mutations += r.mutations;
    total.latency.merge(r.latency);
    total.ok = total.ok && r.ok;
  }
  return total;
}

struct LegResult {
  WorkloadResult wl;
  double fences_per_mutation = 0;
  std::uint64_t group_commits = 0;
  std::uint64_t group_commit_mutations = 0;
  bool started = true;
};

/// One self-hosted leg: fresh store + server with the requested write-path
/// configuration, wire preload, measured mixed-write run.
LegResult run_leg(bool mod_writes, bool group_commit, std::uint64_t records,
                  std::uint64_t ops, unsigned clients, std::uint32_t depth) {
  LegResult leg;
  pmem::set_mod_writes_for_testing(mod_writes);
  bench::UPSLAdapter adapter(records, 1, 64, /*max_threads=*/clients + 8);
  server::ServerOptions sopts;
  sopts.port = 0;
  sopts.workers = 4;
  sopts.group_commit = group_commit;
  server::Server srv(adapter.store(), sopts);
  if (!srv.start()) {
    std::fprintf(stderr, "cannot start in-process server\n");
    leg.started = false;
    return leg;
  }
  const Target t{"127.0.0.1", srv.port()};
  if (!preload(t, records)) {
    std::fprintf(stderr, "preload failed\n");
    leg.started = false;
    srv.stop();
    srv.wait();
    return leg;
  }
  bench::StatsDelta delta;
  delta.begin();
  leg.wl = run_workload(t, records, ops, clients, depth);
  const pmem::StatsSnapshot d = pmem::Stats::instance().snapshot() - delta.t0;
  srv.stop();
  srv.wait();
  leg.fences_per_mutation =
      leg.wl.mutations > 0
          ? static_cast<double>(d.fences) /
                static_cast<double>(leg.wl.mutations)
          : 0;
  leg.group_commits = d.group_commits;
  leg.group_commit_mutations = d.group_commit_mutations;
  return leg;
}

void print_leg(const char* name, const LegResult& leg) {
  const double ops_s = leg.wl.seconds > 0
                           ? static_cast<double>(leg.wl.ops) / leg.wl.seconds
                           : 0;
  std::printf(
      "  %-12s %8.0f ops/s  %7.3f fences/mutation  p50 %7llu ns  "
      "p99 %7llu ns  p999 %7llu ns\n",
      name, ops_s, leg.fences_per_mutation,
      static_cast<unsigned long long>(leg.wl.latency.p50_ns()),
      static_cast<unsigned long long>(leg.wl.latency.p99_ns()),
      static_cast<unsigned long long>(leg.wl.latency.p999_ns()));
}

void add_entry(JsonBenchWriter& out, const char* name, const LegResult& leg,
               unsigned clients, std::uint32_t depth, std::uint64_t records,
               std::uint32_t window_us, JsonBenchWriter::Config extra) {
  char buf[32];
  JsonBenchWriter::Config cfg;
  std::snprintf(buf, sizeof buf, "%.4f", leg.fences_per_mutation);
  cfg.emplace_back("fences_per_mutation", buf);
  cfg.emplace_back("mutations", std::to_string(leg.wl.mutations));
  cfg.emplace_back("group_commits", std::to_string(leg.group_commits));
  if (leg.group_commits > 0) {
    std::snprintf(buf, sizeof buf, "%.2f",
                  static_cast<double>(leg.group_commit_mutations) /
                      static_cast<double>(leg.group_commits));
    cfg.emplace_back("gc_batch_avg", buf);
  }
  cfg.emplace_back("clients", std::to_string(clients));
  cfg.emplace_back("depth", std::to_string(depth));
  cfg.emplace_back("records", std::to_string(records));
  cfg.emplace_back("window_us", std::to_string(window_us));
  cfg.emplace_back("workload", kMixedWrite.name);
  for (auto& kv : extra) cfg.push_back(std::move(kv));
  bench::append_build_config(cfg);
  const double ops_s = leg.wl.seconds > 0
                           ? static_cast<double>(leg.wl.ops) / leg.wl.seconds
                           : 0;
  out.add(name, std::move(cfg), ops_s, leg.wl.latency.histogram());
}

}  // namespace

int main() {
  bench::apply_persist_delay();
  const std::uint64_t records = bench::env_u64("UPSL_BENCH_RECORDS", 20000);
  const std::uint64_t ops = bench::env_u64("UPSL_BENCH_OPS", 40000);
  const auto clients =
      static_cast<unsigned>(bench::env_u64("UPSL_SERVER_CLIENTS", 16));
  const auto depth =
      static_cast<std::uint32_t>(bench::env_u64("UPSL_SERVER_DEPTH", 8));
  const std::uint32_t window_us = server::commit_window_us_from_env(50);

  ThreadRegistry::instance().bind(0);
  bench::print_header("group commit: fences per mutation A/B",
                      "MOD write path + cross-connection ack fences");
  std::printf("  records=%llu ops=%llu clients=%u depth=%u window=%uus\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops), clients, depth, window_us);

  const LegResult base = run_leg(/*mod_writes=*/false, /*group_commit=*/false,
                                 records, ops, clients, depth);
  const LegResult gc = run_leg(/*mod_writes=*/true, /*group_commit=*/true,
                               records, ops, clients, depth);
  pmem::reset_mod_writes_for_testing();
  if (!base.started || !gc.started) return 1;

  print_leg("baseline", base);
  print_leg("groupcommit", gc);

  const double reduction = gc.fences_per_mutation > 0
                               ? base.fences_per_mutation /
                                     gc.fences_per_mutation
                               : 0;
  std::printf("  fence reduction: %.1fx (%llu group commits, avg batch "
              "%.2f mutations)\n",
              reduction, static_cast<unsigned long long>(gc.group_commits),
              gc.group_commits > 0
                  ? static_cast<double>(gc.group_commit_mutations) /
                        static_cast<double>(gc.group_commits)
                  : 0.0);

  JsonBenchWriter out("groupcommit");
  add_entry(out, "baseline", base, clients, depth, records, window_us,
            {{"mod_writes", "off"}, {"group_commit", "off"}});
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", reduction);
  add_entry(out, "groupcommit", gc, clients, depth, records, window_us,
            {{"mod_writes", "on"},
             {"group_commit", "on"},
             {"fence_reduction_x", buf}});
  out.write();

  bool all_ok = base.wl.ok && gc.wl.ok;
  // Gates (only at meaningful scale — smoke runs with tiny op counts are
  // for wiring, not statistics).
  if (ops >= 20000) {
    if (reduction < 5.0) {
      std::fprintf(stderr,
                   "FAIL: fence reduction %.2fx < 5x acceptance floor\n",
                   reduction);
      all_ok = false;
    }
    // p999 must not regress beyond noise + the commit window a batch may
    // wait for company.
    const double p999_base = static_cast<double>(base.wl.latency.p999_ns());
    const double p999_gc = static_cast<double>(gc.wl.latency.p999_ns());
    const double allowed = p999_base * 1.5 + 2.0 * 1000.0 * window_us;
    if (p999_gc > allowed) {
      std::fprintf(stderr,
                   "FAIL: groupcommit p999 %.0f ns vs baseline %.0f ns "
                   "(allowed %.0f)\n",
                   p999_gc, p999_base, allowed);
      all_ok = false;
    }
    if (gc.group_commits == 0) {
      std::fprintf(stderr, "FAIL: group committer never fenced\n");
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
