// Detectability tax A/B: what do exactly-once mutations cost on the wire
// path (BENCH_detect.json)?
//
// Two self-hosted legs over identical mixed-write load, both on the server's
// one ack path (MOD writes + one ack fence per executed batch):
//
//   baseline — plain PUT mutations: durable data, but a replayed request
//              after a dropped connection applies twice.
//   detect   — DPUT mutations carrying (client_id, seq): the server records
//              the durable result in the client's session slot inside the
//              same AckBatch the publish rides, so replays deduplicate and
//              return the original answer.
//
// The detect leg adds two ack lines per mutation (result-ring entry +
// last_seq word) to a batch that already fences once, so the marginal fence
// cost must be noise. Acceptance gate (at >= 20000 ops): detect
// fences/mutation within 10% of the plain per-batch-fence baseline.
//
// Knobs: UPSL_BENCH_RECORDS (default 20000), UPSL_BENCH_OPS (default 40000),
// UPSL_SERVER_CLIENTS (default 16), UPSL_SERVER_DEPTH (default 8, also the
// per-session un-acked cap — must stay <= the result ring depth).
#include <algorithm>
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
#include "detect/session_table.hpp"
#include "pmem/ack_batch.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "ycsb/workload.hpp"

namespace {

using namespace upsl;
using bench::JsonBenchWriter;

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

/// Mixed-write run; `detectable` switches mutations from PUT to session-
/// stamped DPUT (one durable identity per client thread).
WorkloadResult run_workload(const Target& t, std::uint64_t records,
                            std::uint64_t total_ops, unsigned clients,
                            std::uint32_t depth, bool detectable) {
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
        if (detectable) c.hello(1000 + i);
        while (remaining > 0) {
          const std::uint32_t batch = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(depth, remaining));
          std::uint32_t muts = 0;
          for (std::uint32_t b = 0; b < batch; ++b) {
            const ycsb::Op op = gen.next();
            if (op.type == ycsb::OpType::kRead) {
              c.queue({server::Opcode::kGet, op.key});
            } else {
              if (detectable) {
                c.queue_dput(op.key, op.value);
              } else {
                c.queue({server::Opcode::kPut, op.key, op.value});
              }
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
  std::uint64_t dedup_hits = 0;
  bool started = true;
};

/// One self-hosted leg on the per-batch-fence ack path; `detectable` selects
/// the mutation opcode the clients issue.
LegResult run_leg(bool detectable, std::uint64_t records, std::uint64_t ops,
                  unsigned clients, std::uint32_t depth) {
  LegResult leg;
  bench::UPSLAdapter adapter(records, 1, 64, /*max_threads=*/clients + 8);
  server::ServerOptions sopts;
  sopts.port = 0;
  sopts.workers = 4;
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
  leg.wl = run_workload(t, records, ops, clients, depth, detectable);
  const pmem::StatsSnapshot d = pmem::Stats::instance().snapshot() - delta.t0;
  leg.dedup_hits = srv.stats().detect_dups.load();
  srv.stop();
  srv.wait();
  leg.fences_per_mutation =
      leg.wl.mutations > 0
          ? static_cast<double>(d.fences) /
                static_cast<double>(leg.wl.mutations)
          : 0;
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
               JsonBenchWriter::Config extra) {
  char buf[32];
  JsonBenchWriter::Config cfg;
  std::snprintf(buf, sizeof buf, "%.4f", leg.fences_per_mutation);
  cfg.emplace_back("fences_per_mutation", buf);
  cfg.emplace_back("mutations", std::to_string(leg.wl.mutations));
  cfg.emplace_back("dedup_hits", std::to_string(leg.dedup_hits));
  cfg.emplace_back("clients", std::to_string(clients));
  cfg.emplace_back("depth", std::to_string(depth));
  cfg.emplace_back("records", std::to_string(records));
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
  auto depth =
      static_cast<std::uint32_t>(bench::env_u64("UPSL_SERVER_DEPTH", 8));
  // A batch deeper than the result ring would age its own head out of the
  // dedup window before the ack; cap instead of measuring a broken config.
  depth = std::min<std::uint32_t>(depth, detect::SessionTable::kRingSize);

  // Both legs need the session table; the kill switch would silently turn
  // the detect leg into the baseline and the A/B would measure nothing.
  detect::set_detect_for_testing(true);

  ThreadRegistry::instance().bind(0);
  bench::print_header("detectability tax: fences per mutation A/B",
                      "durable sessions + request dedup on the wire path");
  std::printf("  records=%llu ops=%llu clients=%u depth=%u\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops), clients, depth);

  const LegResult base =
      run_leg(/*detectable=*/false, records, ops, clients, depth);
  const LegResult det =
      run_leg(/*detectable=*/true, records, ops, clients, depth);
  detect::reset_detect_for_testing();
  if (!base.started || !det.started) return 1;

  print_leg("baseline", base);
  print_leg("detect", det);

  const double tax = base.fences_per_mutation > 0
                         ? det.fences_per_mutation / base.fences_per_mutation
                         : 0;
  std::printf("  detect fence tax: %.3fx baseline\n", tax);

  JsonBenchWriter out("detect");
  add_entry(out, "baseline", base, clients, depth, records,
            {{"detect", "off"}});
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", tax);
  add_entry(out, "detect", det, clients, depth, records,
            {{"detect", "on"}, {"fence_tax_x", buf}});
  out.write();

  bool all_ok = base.wl.ok && det.wl.ok;
  // Gate only at meaningful scale — smoke runs are for wiring.
  if (ops >= 20000) {
    if (tax > 1.10) {
      std::fprintf(stderr,
                   "FAIL: detect fences/mutation %.4f is %.3fx the plain "
                   "per-batch-fence baseline %.4f (allowed 1.10x)\n",
                   det.fences_per_mutation, tax, base.fences_per_mutation);
      all_ok = false;
    }
    if (det.dedup_hits != 0) {
      // Nothing replays in this workload: a dedup hit means seq streams
      // collided, i.e. the bench measured the wrong thing.
      std::fprintf(stderr, "FAIL: %llu unexpected dedup hits\n",
                   static_cast<unsigned long long>(det.dedup_hits));
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
