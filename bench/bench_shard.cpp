// Shard-scaling sweep for the sharded server (BENCH_shard.json).
//
// Three self-hosted legs — 1, 2, and 4 shards — under the SAME total load:
// N topology-aware clients (server::ShardedClient) drive a mixed YCSB-B
// workload with per-shard pipelining, so each request goes straight to the
// shard that owns its key and the legs differ only in how many independent
// stores/worker-groups the key space is spread across.
//
// The headline metric is the throughput ratio of the 4-shard leg over the
// 1-shard leg. Acceptance gate (sharding PR): >= 2.5x at 16+ clients. The
// gate arms only at meaningful scale — enough clients to congest one shard,
// enough cores that four worker groups can actually run in parallel, and a
// non-smoke op count; tiny CI smoke runs just exercise the wiring.
//
// Knobs: UPSL_BENCH_RECORDS (default 20000), UPSL_BENCH_OPS (default 40000),
// UPSL_SERVER_CLIENTS (default 16), UPSL_SERVER_DEPTH (default 8),
// UPSL_SHARD_SWEEP (space-separated shard counts, default "1 2 4").
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
#include "server/client.hpp"
#include "server/server.hpp"
#include "ycsb/workload.hpp"

namespace {

using namespace upsl;
using bench::JsonBenchWriter;

std::vector<std::uint32_t> sweep_from_env() {
  std::vector<std::uint32_t> sweep;
  const char* v = std::getenv("UPSL_SHARD_SWEEP");
  std::string s = v != nullptr ? v : "1 2 4";
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t end = s.find(' ', pos);
    const std::string tok = s.substr(pos, end - pos);
    if (!tok.empty())
      sweep.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return sweep.empty() ? std::vector<std::uint32_t>{1, 2, 4} : sweep;
}

bool connect_with_retry(server::ShardedClient& c, std::uint16_t port,
                        int attempts = 50) {
  for (int i = 0; i < attempts; ++i) {
    if (c.connect("127.0.0.1", port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

/// Routed pipelined preload: each record goes down its owning shard's
/// connection directly.
bool preload(std::uint16_t port, std::uint64_t records) {
  server::ShardedClient c;
  if (!connect_with_retry(c, port)) return false;
  constexpr std::size_t kDepth = 128;
  std::vector<server::Response> resp;
  std::uint64_t v = 1;
  for (std::uint64_t i = 0; i < records; ++i) {
    c.queue({server::Opcode::kPut, ycsb::key_of(i), v++});
    if (c.queued() >= kDepth || i + 1 == records) c.flush(&resp);
  }
  return true;
}

struct LegResult {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t cross_shard_ops = 0;
  bench::LatencyRecorder latency;
  bool ok = true;
  double ops_s() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  }
};

/// One leg: fresh sharded store + server, routed preload, timed run of the
/// same total op count through `clients` ShardedClients.
LegResult run_leg(std::uint32_t shards, std::uint64_t records,
                  std::uint64_t total_ops, unsigned clients,
                  std::uint32_t depth) {
  LegResult total;
  server::ServerOptions sopts;
  sopts.port = 0;
  sopts.workers = 2;
  bench::UPSLShardedAdapter adapter(
      records, shards, 64,
      /*max_threads=*/sopts.first_thread_id + shards * sopts.workers + 4);
  server::Server srv(adapter.set(), sopts);
  if (!srv.start()) {
    std::fprintf(stderr, "cannot start %u-shard server\n", shards);
    total.ok = false;
    return total;
  }
  if (!preload(srv.port(), records)) {
    std::fprintf(stderr, "preload failed (%u shards)\n", shards);
    total.ok = false;
    srv.stop();
    srv.wait();
    return total;
  }

  std::vector<LegResult> per_thread(clients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      LegResult& r = per_thread[i];
      server::ShardedClient c;
      if (!connect_with_retry(c, srv.port(), 30)) {
        r.ok = false;
        return;
      }
      ycsb::OpGenerator gen(ycsb::kWorkloadB, records, /*seed=*/3000 + i, i,
                            clients);
      std::uint64_t remaining = total_ops / clients;
      std::vector<server::Response> resp;
      try {
        while (remaining > 0) {
          const std::size_t batch =
              static_cast<std::size_t>(std::min<std::uint64_t>(depth,
                                                               remaining));
          for (std::size_t b = 0; b < batch; ++b) {
            const ycsb::Op op = gen.next();
            if (op.type == ycsb::OpType::kRead)
              c.queue({server::Opcode::kGet, op.key});
            else
              c.queue({server::Opcode::kPut, op.key, op.value});
          }
          const auto s = std::chrono::steady_clock::now();
          c.flush(&resp);
          const auto ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - s)
                  .count());
          for (std::size_t b = 0; b < batch; ++b) r.latency.record_ns(ns);
          r.ops += batch;
          remaining -= batch;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %u: %s\n", i, e.what());
        r.ok = false;
      }
    });
  }
  for (auto& th : threads) th.join();
  total.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const LegResult& r : per_thread) {
    total.ops += r.ops;
    total.latency.merge(r.latency);
    total.ok = total.ok && r.ok;
  }
  // Routed clients should never force in-process cross-shard hops.
  total.cross_shard_ops = srv.stats().cross_shard_ops.load();
  srv.stop();
  srv.wait();
  return total;
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
  const std::vector<std::uint32_t> sweep = sweep_from_env();

  ThreadRegistry::instance().bind(0);
  bench::print_header("shard scaling sweep",
                      "horizontal sharding: independent stores per shard");
  std::printf("  records=%llu ops=%llu clients=%u depth=%u\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops), clients, depth);

  JsonBenchWriter out("shard");
  bool all_ok = true;
  double base_ops_s = 0;
  double speedup_at_4 = 0;
  for (const std::uint32_t shards : sweep) {
    const LegResult leg = run_leg(shards, records, ops, clients, depth);
    all_ok = all_ok && leg.ok;
    const double speedup =
        base_ops_s > 0 ? leg.ops_s() / base_ops_s : 1.0;
    if (shards == 1 && base_ops_s == 0) base_ops_s = leg.ops_s();
    if (shards == 4) speedup_at_4 = speedup;
    std::printf(
        "  %u shard%s %9.0f ops/s  %5.2fx vs 1  p50 %7llu ns  p99 %7llu ns  "
        "cross-shard %llu\n",
        shards, shards == 1 ? " " : "s", leg.ops_s(), speedup,
        static_cast<unsigned long long>(leg.latency.p50_ns()),
        static_cast<unsigned long long>(leg.latency.p99_ns()),
        static_cast<unsigned long long>(leg.cross_shard_ops));
    if (leg.cross_shard_ops != 0) {
      std::fprintf(stderr,
                   "FAIL: routed clients forced %llu cross-shard hops\n",
                   static_cast<unsigned long long>(leg.cross_shard_ops));
      all_ok = false;
    }

    char buf[32];
    JsonBenchWriter::Config cfg;
    cfg.emplace_back("shards", std::to_string(shards));
    std::snprintf(buf, sizeof buf, "%.3f", speedup);
    cfg.emplace_back("speedup_vs_1shard", buf);
    cfg.emplace_back("clients", std::to_string(clients));
    cfg.emplace_back("depth", std::to_string(depth));
    cfg.emplace_back("records", std::to_string(records));
    cfg.emplace_back("ops", std::to_string(ops));
    cfg.emplace_back("workload", ycsb::kWorkloadB.name);
    bench::append_build_config(cfg);
    out.add("shard_" + std::to_string(shards), std::move(cfg), leg.ops_s(),
            leg.latency.histogram());
  }
  out.write();

  // Near-linear-scaling gate: >= 2.5x at 4 shards vs 1. Armed only when the
  // measurement can be meaningful — enough clients to congest a single
  // shard, enough hardware parallelism that four shard worker groups do not
  // time-slice one core, and a non-smoke op count.
  const unsigned hw = std::thread::hardware_concurrency();
  if (clients >= 16 && hw >= 8 && ops >= 20000 && speedup_at_4 > 0) {
    if (speedup_at_4 < 2.5) {
      std::fprintf(stderr,
                   "FAIL: 4-shard speedup %.2fx < 2.5x acceptance floor\n",
                   speedup_at_4);
      all_ok = false;
    }
  } else if (speedup_at_4 > 0) {
    std::printf(
        "  scaling gate skipped (clients=%u hw=%u ops=%llu; needs >=16 "
        "clients, >=8 cores, >=20000 ops)\n",
        clients, hw, static_cast<unsigned long long>(ops));
  }
  return all_ok ? 0 : 1;
}
