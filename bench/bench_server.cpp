// Closed-loop network load generator for upsl-serve (BENCH_server.json).
//
// Drives the binary protocol end-to-end: N client threads, each with its own
// connection and its own ycsb::OpGenerator (the same op-mix engine the
// in-process trace builder uses — satellite of the serving PR), pipelining
// `depth` requests per round trip. Latency is recorded per operation as the
// round-trip time of the batch the operation rode in — the time from submit
// to response a closed-loop caller actually observes.
//
// Three YCSB mixes are measured at the configured client count: workload B
// (read-mostly, 95/5), workload A (update-heavy, 50/50), and workload E
// (scan-heavy, 95% short range scans / 5% inserts). Point ops pipeline
// `depth` deep; a scan flushes whatever is queued first (the streamed SCANS
// exchange owns the connection until its final chunk) and is timed as its
// own round trip, first byte to last chunk.
//
// Every response is checked, as bench_e2e's load generator does: a GET of a
// preloaded key must answer kOk and every PUT kOk or kCreated; any other
// status counts the op as failed. A transport error or a failed scan counts
// the client's in-flight pipeline as failed and ends that client. The bench
// exits non-zero when any op failed.
//
// Target selection:
//   UPSL_SERVER_ADDR=host:port  drive an already-running server (CI smoke);
//   otherwise the bench self-hosts: it spins up an in-process Server over an
//   anonymous pool, measures, then drains it — and can report server-side
//   persist/fence counts per op, since the pmem::Stats instance is shared.
//
// Knobs: UPSL_BENCH_RECORDS (preload size, default 20000), UPSL_BENCH_OPS
// (ops per workload, default 40000), UPSL_SERVER_CLIENTS (threads, default
// 4), UPSL_SERVER_DEPTH (pipeline depth, default 16), UPSL_SHARDS
// (self-hosted shard count, default 1; each shard's store is sized for its
// share of the key space).
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

struct Target {
  std::string host;
  std::uint16_t port = 0;
  bool self_hosted = false;
  // Self-hosted backing (empty when driving an external server).
  std::unique_ptr<bench::UPSLShardedAdapter> adapter;
  std::unique_ptr<server::Server> server;
};

/// Connect with retries so CI can launch server and bench concurrently.
bool connect_with_retry(server::Client& c, const Target& t, int attempts = 100) {
  for (int i = 0; i < attempts; ++i) {
    if (c.connect(t.host, t.port)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

bool put_acked(const server::Response& r) {
  return r.status == server::Status::kOk ||
         r.status == server::Status::kCreated;
}

/// Pipelined preload of the YCSB record set through the wire. False if the
/// server could not be reached or refused any PUT.
bool preload(const Target& t, std::uint64_t records) {
  server::Client c;
  if (!connect_with_retry(c, t)) return false;
  constexpr std::uint32_t kDepth = 128;
  std::vector<server::Response> resp;
  std::uint64_t v = 1;
  try {
    for (std::uint64_t i = 0; i < records; ++i) {
      c.queue({server::Opcode::kPut, ycsb::key_of(i), v++});
      if (c.queued() == kDepth || i + 1 == records) {
        c.flush(&resp);
        for (const server::Response& r : resp)
          if (!put_acked(r)) return false;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "preload: %s\n", e.what());
    return false;
  }
  return true;
}

struct WorkloadResult {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  // ops with a wrong status or no answer
  std::uint64_t scan_entries = 0;
  bench::LatencyRecorder latency;
  bool ok = true;
};

WorkloadResult run_workload(const Target& t, const ycsb::WorkloadSpec& spec,
                            std::uint64_t records, std::uint64_t total_ops,
                            unsigned clients, std::uint32_t depth) {
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
      // Disjoint insert residue classes per thread (see workload.hpp).
      ycsb::OpGenerator gen(spec, records, /*seed=*/1000 + i, i, clients);
      std::uint64_t remaining = total_ops / clients;
      std::vector<server::Response> resp;
      // Whether each queued op is a GET (else a PUT), in pipeline order.
      std::vector<bool> is_get;
      // A GET reads a preloaded key, so it must find it.
      const auto check = [&](std::size_t k) {
        const server::Response& x = resp[k];
        if (is_get[k] ? x.status != server::Status::kOk : !put_acked(x))
          ++r.failed;
      };
      // Batch round-trip time attributed to every op that rode in the batch.
      const auto flush_queued = [&] {
        if (is_get.empty()) return;
        const auto s = std::chrono::steady_clock::now();
        try {
          c.flush(&resp);
        } catch (const server::PipelineError& e) {
          for (std::size_t k = 0; k < e.acked; ++k) check(k);
          r.failed += e.unresolved;
          is_get.clear();
          throw;
        }
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - s)
                .count());
        const auto n = static_cast<std::uint32_t>(is_get.size());
        for (std::uint32_t b = 0; b < n; ++b) {
          r.latency.record_ns(ns);
          check(b);
        }
        r.ops += n;
        remaining -= n;
        is_get.clear();
      };
      bool scanning = false;
      try {
        while (remaining > 0) {
          const std::uint32_t batch =
              static_cast<std::uint32_t>(std::min<std::uint64_t>(depth,
                                                                 remaining));
          for (std::uint32_t b = 0; b < batch; ++b) {
            const ycsb::Op op = gen.next();
            if (op.type == ycsb::OpType::kScan) {
              flush_queued();  // scan_stream needs an empty pipeline
              const auto s = std::chrono::steady_clock::now();
              scanning = true;
              r.scan_entries += c.scan_stream(
                  op.key, ~0ULL,
                  [](const std::vector<std::pair<std::uint64_t,
                                                 std::uint64_t>>&) {
                    return true;
                  },
                  op.scan_len);
              scanning = false;
              const auto ns = static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - s)
                      .count());
              r.latency.record_ns(ns);
              r.ops += 1;
              remaining -= 1;
            } else if (op.type == ycsb::OpType::kRead) {
              c.queue({server::Opcode::kGet, op.key});
              is_get.push_back(true);
            } else {
              c.queue({server::Opcode::kPut, op.key, op.value});
              is_get.push_back(false);
            }
          }
          flush_queued();
        }
      } catch (const std::exception& e) {
        // Whatever was in flight never got a (good) answer: a scan, or a
        // pipeline that failed before flush (a PipelineError already
        // counted its own split and cleared the pipeline).
        r.failed += is_get.size() + (scanning ? 1 : 0);
        std::fprintf(stderr, "client %u: %s\n", i, e.what());
        r.ok = false;
      }
    });
  }
  for (auto& th : threads) th.join();

  WorkloadResult total;
  total.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  for (const WorkloadResult& r : per_thread) {
    total.ops += r.ops;
    total.failed += r.failed;
    total.scan_entries += r.scan_entries;
    total.latency.merge(r.latency);
    total.ok = total.ok && r.ok;
  }
  return total;
}

}  // namespace

int main() {
  bench::apply_persist_delay();
  const std::uint64_t records = bench::env_u64("UPSL_BENCH_RECORDS", 20000);
  const std::uint64_t ops = bench::env_u64("UPSL_BENCH_OPS", 40000);
  const auto clients =
      static_cast<unsigned>(bench::env_u64("UPSL_SERVER_CLIENTS", 4));
  const auto depth =
      static_cast<std::uint32_t>(bench::env_u64("UPSL_SERVER_DEPTH", 16));
  const auto shards = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, bench::env_u64("UPSL_SHARDS", 1)));

  Target target;
  const char* addr = std::getenv("UPSL_SERVER_ADDR");
  if (addr != nullptr && addr[0] != '\0') {
    if (!server::parse_addr(addr, &target.host, &target.port)) {
      std::fprintf(stderr, "bad UPSL_SERVER_ADDR '%s' (want host:port)\n",
                   addr);
      return 2;
    }
    std::printf("driving external server at %s\n", addr);
  } else {
    target.self_hosted = true;
    ThreadRegistry::instance().bind(0);
    // UPSL_SHARDS legs self-host the sharded server; each member store is
    // sized for its per-shard share of the key space, and every shard must
    // have thread slots for every worker id (any worker serves any shard).
    server::ServerOptions sopts;
    sopts.port = 0;  // ephemeral
    sopts.workers = 4;
    target.adapter = std::make_unique<bench::UPSLShardedAdapter>(
        records, shards, 64,
        /*max_threads=*/sopts.first_thread_id + sopts.workers + 4);
    target.server =
        std::make_unique<server::Server>(target.adapter->set(), sopts);
    if (!target.server->start()) {
      std::fprintf(stderr, "cannot start in-process server\n");
      return 1;
    }
    target.host = "127.0.0.1";
    target.port = target.server->port();
    std::printf("self-hosted server on 127.0.0.1:%u (%u shard%s, 4 workers)\n",
                target.port, shards, shards == 1 ? "" : "s");
  }

  bench::print_header("upsl-serve closed-loop load",
                      "serving PR: batched pipelines over epoll");
  if (!preload(target, records)) {
    std::fprintf(stderr, "preload through %s:%u failed\n",
                 target.host.c_str(), target.port);
    return 1;
  }
  std::printf("  preloaded %llu records (clients=%u depth=%u)\n",
              static_cast<unsigned long long>(records), clients, depth);

  JsonBenchWriter out("server");
  bool all_ok = true;
  for (const ycsb::WorkloadSpec& spec :
       {ycsb::kWorkloadB, ycsb::kWorkloadA, ycsb::kWorkloadE}) {
    bench::StatsDelta delta;
    delta.begin();
    const WorkloadResult r =
        run_workload(target, spec, records, ops, clients, depth);
    all_ok = all_ok && r.ok && r.failed == 0;
    const double ops_s =
        r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0;
    std::printf(
        "  %-16s %8.0f ops/s   p50 %7llu ns  p99 %7llu ns  p999 %7llu ns  "
        "failed %llu\n",
        spec.name, ops_s,
        static_cast<unsigned long long>(r.latency.p50_ns()),
        static_cast<unsigned long long>(r.latency.p99_ns()),
        static_cast<unsigned long long>(r.latency.p999_ns()),
        static_cast<unsigned long long>(r.failed));
    if (r.scan_entries > 0)
      std::printf("  %-16s %8.0f scanned entries/s\n", "",
                  r.seconds > 0
                      ? static_cast<double>(r.scan_entries) / r.seconds
                      : 0);

    JsonBenchWriter::Config cfg;
    if (target.self_hosted) cfg = delta.per_op(std::max<std::uint64_t>(r.ops, 1));
    cfg.emplace_back("workload", spec.name);
    cfg.emplace_back("clients", std::to_string(clients));
    cfg.emplace_back("depth", std::to_string(depth));
    cfg.emplace_back("records", std::to_string(records));
    cfg.emplace_back("failed", std::to_string(r.failed));
    cfg.emplace_back("mode", target.self_hosted ? "self-hosted" : "external");
    if (r.scan_entries > 0)
      cfg.emplace_back("scan_entries", std::to_string(r.scan_entries));
    if (target.self_hosted) cfg.emplace_back("shards", std::to_string(shards));
    bench::append_build_config(cfg);
    out.add(std::string("server_") + spec.name, std::move(cfg), ops_s,
            r.latency.histogram());
  }

  // Server-side view of the run (and a STATS protocol exercise).
  {
    server::Client c;
    if (connect_with_retry(c, target, 10)) {
      try {
        std::printf("  server stats: %s\n", c.stats_json().c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "STATS failed: %s\n", e.what());
        all_ok = false;
      }
    }
  }

  if (target.self_hosted) {
    target.server->stop();
    target.server->wait();
  }

  out.write();
  return all_ok ? 0 : 1;
}
