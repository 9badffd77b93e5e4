// Shard-scaling sweep for the sharded server (BENCH_shard.json).
//
// Three self-hosted legs — 1, 2, and 4 shards — under the SAME total load
// and the SAME server: one listen port and kWorkers workers in front of
// every shard. N plain clients drive a mixed YCSB-B workload, pipelining
// `depth` requests per round trip; the server routes each key to the shard
// that owns it. The legs therefore differ only in how the data is
// partitioned.
//
// Every response is checked, as bench_e2e's load generator does: a GET of a
// preloaded key must answer kOk and every PUT kOk or kCreated. A short
// response vector or a thrown flush counts its whole pipeline as failed
// (and a thrown flush ends that client). The bench exits non-zero on any
// failure.
//
// The sweep runs three times, interleaved; each shard count reports its
// median throughput and the latency of its three legs merged.
//
// Gate: partitioning must not cost throughput or tail. The 2- and 4-shard
// counts each reach >= 0.9x the 1-shard throughput, and the 4-shard p99 is
// <= 2x the 1-shard p99. It arms at >= 4 hardware threads, >= 4 clients and
// >= 200000 ops, with 1, 2 and 4 in the sweep; tiny smoke runs just
// exercise the wiring.
//
// Knobs: UPSL_BENCH_RECORDS (default 20000), UPSL_BENCH_OPS (default 40000),
// UPSL_SERVER_CLIENTS (default 16), UPSL_SERVER_DEPTH (default 8),
// UPSL_SHARD_SWEEP (space-separated shard counts, default "1 2 4").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
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

/// Server workers in every leg, whatever its shard count.
constexpr unsigned kWorkers = 2;
/// Times the whole sweep runs.
constexpr int kRounds = 3;

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

bool connect_with_retry(server::Client& c, std::uint16_t port,
                        int attempts = 50) {
  for (int i = 0; i < attempts; ++i) {
    if (c.connect("127.0.0.1", port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

bool put_acked(const server::Response& r) {
  return r.status == server::Status::kOk ||
         r.status == server::Status::kCreated;
}

/// Pipelined preload through the wire. False if the server could not be
/// reached or did not ack every PUT.
bool preload(std::uint16_t port, std::uint64_t records) {
  server::Client c;
  if (!connect_with_retry(c, port)) return false;
  constexpr std::size_t kDepth = 128;
  std::vector<server::Response> resp;
  std::uint64_t v = 1;
  try {
    for (std::uint64_t i = 0; i < records; ++i) {
      c.queue({server::Opcode::kPut, ycsb::key_of(i), v++});
      const std::size_t n = c.queued();
      if (n < kDepth && i + 1 != records) continue;
      c.flush(&resp);
      if (resp.size() != n) return false;
      for (const server::Response& r : resp)
        if (!put_acked(r)) return false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "preload: %s\n", e.what());
    return false;
  }
  return true;
}

struct LegResult {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  // ops with a wrong status or no answer
  bench::LatencyRecorder latency;
  bool ok = true;
  double ops_s() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  }
};

/// One leg: fresh sharded store + server, preload, timed run of the same
/// total op count through `clients` plain clients on the server's one port.
LegResult run_leg(std::uint32_t shards, std::uint64_t records,
                  std::uint64_t total_ops, unsigned clients,
                  std::uint32_t depth) {
  LegResult total;
  server::ServerOptions sopts;
  sopts.port = 0;
  sopts.workers = kWorkers;
  bench::UPSLShardedAdapter adapter(
      records, shards, 64,
      /*max_threads=*/sopts.first_thread_id + sopts.workers + 4);
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
  // Let the server retire the preload connection first: until it does, it
  // counts against one worker and placement skews the clients to the other.
  const server::ServerStats& st = srv.stats();
  while (st.connections_closed.load() != st.connections_accepted.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<LegResult> per_thread(clients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      LegResult& r = per_thread[i];
      server::Client c;
      if (!connect_with_retry(c, srv.port(), 30)) {
        r.ok = false;
        return;
      }
      ycsb::OpGenerator gen(ycsb::kWorkloadB, records, /*seed=*/3000 + i, i,
                            clients);
      std::uint64_t remaining = total_ops / clients;
      std::vector<server::Response> resp;
      std::vector<bool> is_get;  // per queued op, in pipeline order
      while (remaining > 0) {
        const std::size_t batch =
            static_cast<std::size_t>(std::min<std::uint64_t>(depth,
                                                             remaining));
        is_get.clear();
        for (std::size_t b = 0; b < batch; ++b) {
          const ycsb::Op op = gen.next();
          is_get.push_back(op.type == ycsb::OpType::kRead);
          if (is_get.back())
            c.queue({server::Opcode::kGet, op.key});
          else
            c.queue({server::Opcode::kPut, op.key, op.value});
        }
        const auto s = std::chrono::steady_clock::now();
        try {
          c.flush(&resp);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %u: %s\n", i, e.what());
          r.failed += batch;
          r.ok = false;
          return;
        }
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - s)
                .count());
        if (resp.size() != batch) {
          r.failed += batch;
        } else {
          // Every GET reads a preloaded key, so it must find it.
          for (std::size_t b = 0; b < batch; ++b)
            if (is_get[b] ? resp[b].status != server::Status::kOk
                          : !put_acked(resp[b]))
              ++r.failed;
        }
        for (std::size_t b = 0; b < batch; ++b) r.latency.record_ns(ns);
        r.ops += batch;
        remaining -= batch;
      }
    });
  }
  for (auto& th : threads) th.join();
  total.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const LegResult& r : per_thread) {
    total.ops += r.ops;
    total.failed += r.failed;
    total.latency.merge(r.latency);
    total.ok = total.ok && r.ok;
  }
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
                      "one front end, shards as data partitions");
  std::printf("  records=%llu ops=%llu clients=%u depth=%u workers=%u\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops), clients, depth, kWorkers);

  // The sweep runs kRounds times, interleaved, so a slow spell on the host
  // hits every shard count alike. Each shard count reports its median
  // throughput and the latency of all its rounds merged.
  struct Legs {
    std::vector<double> ops_s;
    LegResult merged;
    double median_ops_s() const {
      std::vector<double> v = ops_s;
      std::sort(v.begin(), v.end());
      return v.empty() ? 0 : v[v.size() / 2];
    }
  };
  std::map<std::uint32_t, Legs> legs;
  bool all_ok = true;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::uint32_t shards : sweep) {
      const LegResult leg = run_leg(shards, records, ops, clients, depth);
      all_ok = all_ok && leg.ok && leg.failed == 0;
      std::printf("  round %d  %u shard%s %9.0f ops/s  p99 %7llu ns  "
                  "failed %llu\n",
                  round + 1, shards, shards == 1 ? " " : "s", leg.ops_s(),
                  static_cast<unsigned long long>(leg.latency.p99_ns()),
                  static_cast<unsigned long long>(leg.failed));
      Legs& l = legs[shards];
      l.ops_s.push_back(leg.ops_s());
      l.merged.failed += leg.failed;
      l.merged.latency.merge(leg.latency);
    }
  }

  JsonBenchWriter out("shard");
  const double base_ops_s =
      legs.count(1) != 0 ? legs[1].median_ops_s() : 0;
  for (const auto& [shards, l] : legs) {
    const double ops_s = l.median_ops_s();
    const double speedup = base_ops_s > 0 ? ops_s / base_ops_s : 1.0;
    // Each round's ratio to the 1-shard leg of the same round, so the
    // spread behind the median (and the gate's margin) is visible.
    double lo = 0, hi = 0;
    for (std::size_t r = 0; legs.count(1) != 0 && r < l.ops_s.size(); ++r) {
      const double base = legs[1].ops_s[r];
      const double ratio = base > 0 ? l.ops_s[r] / base : 0;
      lo = r == 0 ? ratio : std::min(lo, ratio);
      hi = r == 0 ? ratio : std::max(hi, ratio);
    }
    std::printf(
        "  %u shard%s %9.0f ops/s  %5.2fx vs 1 (rounds %.2f-%.2fx)  "
        "p50 %7llu ns  p99 %7llu ns  failed %llu\n",
        shards, shards == 1 ? " " : "s", ops_s, speedup, lo, hi,
        static_cast<unsigned long long>(l.merged.latency.p50_ns()),
        static_cast<unsigned long long>(l.merged.latency.p99_ns()),
        static_cast<unsigned long long>(l.merged.failed));

    char buf[32];
    JsonBenchWriter::Config cfg;
    cfg.emplace_back("shards", std::to_string(shards));
    std::snprintf(buf, sizeof buf, "%.3f", speedup);
    cfg.emplace_back("speedup_vs_1shard", buf);
    std::snprintf(buf, sizeof buf, "%.3f", lo);
    cfg.emplace_back("round_speedup_min", buf);
    std::snprintf(buf, sizeof buf, "%.3f", hi);
    cfg.emplace_back("round_speedup_max", buf);
    cfg.emplace_back("clients", std::to_string(clients));
    cfg.emplace_back("depth", std::to_string(depth));
    cfg.emplace_back("workers", std::to_string(kWorkers));
    cfg.emplace_back("records", std::to_string(records));
    cfg.emplace_back("ops", std::to_string(ops));
    cfg.emplace_back("rounds", std::to_string(kRounds));
    cfg.emplace_back("failed", std::to_string(l.merged.failed));
    cfg.emplace_back("workload", ycsb::kWorkloadB.name);
    bench::append_build_config(cfg);
    out.add("shard_" + std::to_string(shards), std::move(cfg), ops_s,
            l.merged.latency.histogram());
  }
  out.write();

  // Partitioning gate: more shards must not cost throughput or tail.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool have_legs =
      legs.count(1) != 0 && legs.count(2) != 0 && legs.count(4) != 0;
  if (hw >= 4 && clients >= 4 && ops >= 200000 && have_legs) {
    bool gate_ok = true;
    for (const std::uint32_t shards : {2u, 4u}) {
      const double ratio =
          base_ops_s > 0 ? legs[shards].median_ops_s() / base_ops_s : 0;
      if (ratio < 0.9) {
        std::fprintf(stderr,
                     "FAIL: %u-shard throughput %.2fx of 1 shard < 0.9x\n",
                     shards, ratio);
        gate_ok = false;
      }
    }
    const std::uint64_t p99_1 = legs[1].merged.latency.p99_ns();
    const std::uint64_t p99_4 = legs[4].merged.latency.p99_ns();
    if (p99_4 > 2 * p99_1) {
      std::fprintf(stderr,
                   "FAIL: 4-shard p99 %llu ns > 2x the 1-shard p99 %llu ns\n",
                   static_cast<unsigned long long>(p99_4),
                   static_cast<unsigned long long>(p99_1));
      gate_ok = false;
    }
    std::printf("  partitioning gate %s\n", gate_ok ? "passed" : "FAILED");
    all_ok = all_ok && gate_ok;
  } else {
    std::printf(
        "  partitioning gate skipped (clients=%u hw=%u ops=%llu; needs >=4 "
        "clients, >=4 hardware threads, >=200000 ops, shards 1 2 4)\n",
        clients, hw, static_cast<unsigned long long>(ops));
  }
  return all_ok ? 0 : 1;
}
