// Streaming-scan A/B harness (BENCH_scan.json) — the tentpole's measurement.
//
// Three experiments, all over the same preloaded key set:
//
//   1. Core loop: pulls the whole range through UPSkipList::scan_chunk with a
//      reused buffer and asserts the steady state performs ZERO heap
//      allocations (the per-scan `snapshot` vector this PR removed). The
//      binary's global operator new is instrumented; a nonzero delta fails
//      the bench.
//   2. Workload-E wire mix: 64 closed-loop clients (UPSL_SCAN_CLIENTS) play
//      the kWorkloadE op stream (95% short zipfian-length scans, 5% inserts)
//      against a self-hosted server, once over the buffered single-frame
//      SCAN verb and once over chunked streamed SCANS. Reported per leg:
//      scanned entries/s plus p50/p99/p999 time-to-first-chunk (TTFC) and
//      time-to-last-chunk (TTLC).
//   3. Long-scan leg: few clients, full-range scans with a large limit —
//      where chunked streaming separates TTFC from TTLC (first entries are
//      delivered while the tail is still being merged) and the buffered path
//      pays for materializing the entire reply before byte one.
//
// Knobs: UPSL_BENCH_RECORDS (default 20000), UPSL_BENCH_OPS (ops per mix
// leg, default 20000), UPSL_SCAN_CLIENTS (default 64), UPSL_SHARDS
// (default 1).
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "common/histogram.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "ycsb/workload.hpp"

// ---- allocation instrumentation (experiment 1) -----------------------------
// Counting replacements for the global allocator. Deliberately minimal: every
// path funnels through malloc/free, and the counter is relaxed — the bench
// only reads it around a single-threaded loop.
static std::atomic<std::uint64_t> g_heap_allocs{0};

static void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace upsl;
using bench::JsonBenchWriter;

std::uint64_t now_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// ---- experiment 1: allocation-free core loop -------------------------------

bool core_scan_loop(JsonBenchWriter& out, std::uint64_t records) {
  ThreadRegistry::instance().bind(0);
  bench::UPSLAdapter adapter(records, 1, 64);
  for (std::uint64_t i = 0; i < records; ++i)
    adapter.insert(ycsb::key_of(i), i + 1);

  std::vector<core::ScanEntry> buf;
  buf.reserve(8192);
  // Warm up: one full pass settles every lazily-grown capacity (buf itself,
  // the DRAM index's internals, thread-local state).
  std::uint64_t resume = 0;
  std::uint64_t total = 0;
  auto full_pass = [&] {
    std::uint64_t lo = 1;
    std::uint64_t pass = 0;
    do {
      buf.clear();
      adapter.store().scan_chunk(lo, core::kTailKey, 4096, buf, &resume);
      pass += buf.size();
      lo = resume;
    } while (resume != 0);
    return pass;
  };
  full_pass();

  const int kPasses = 10;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < kPasses; ++p) total += full_pass();
  const double secs = static_cast<double>(now_ns(t0)) / 1e9;
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;

  const double entries_s =
      secs > 0 ? static_cast<double>(total) / secs : 0;
  std::printf("  core scan_chunk loop: %.0f entries/s, %llu steady-state "
              "heap allocations over %d passes%s\n",
              entries_s, static_cast<unsigned long long>(allocs), kPasses,
              allocs == 0 ? "" : "  ** FAIL: scan loop allocates **");

  JsonBenchWriter::Config cfg;
  cfg.emplace_back("records", std::to_string(records));
  cfg.emplace_back("steady_state_allocs", std::to_string(allocs));
  bench::append_build_config(cfg);
  out.add("scan_core_chunk_loop", std::move(cfg), entries_s);
  return allocs == 0;
}

// ---- wire experiments ------------------------------------------------------

struct Target {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct MixResult {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t scan_entries = 0;
  bench::LatencyRecorder ttfc;  // submit -> first chunk decoded
  bench::LatencyRecorder ttlc;  // submit -> final chunk decoded
  bool ok = true;
};

/// Plays `total_ops` of the workload-E mix over `clients` connections.
/// `chunked` selects Client::scan_stream (TTFC at the first callback) vs the
/// buffered single-frame scan (TTFC == TTLC by construction — the whole
/// result lands in one reply).
MixResult run_mix(const Target& t, std::uint64_t records,
                  std::uint64_t total_ops, unsigned clients, bool chunked,
                  std::uint32_t scan_limit_override = 0,
                  double insert_fraction = -1) {
  ycsb::WorkloadSpec spec = ycsb::kWorkloadE;
  if (insert_fraction >= 0) {
    spec.insert = insert_fraction;
    spec.scan = 1.0 - insert_fraction;
  }
  std::vector<MixResult> per_thread(clients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      MixResult& r = per_thread[i];
      server::Client c;
      if (!c.connect(t.host, t.port)) {
        r.ok = false;
        return;
      }
      ycsb::OpGenerator gen(spec, records, /*seed=*/7000 + i, i, clients);
      std::vector<server::Response> resp;
      try {
        for (std::uint64_t n = total_ops / clients; n > 0; --n) {
          const ycsb::Op op = gen.next();
          if (op.type == ycsb::OpType::kScan) {
            const std::uint32_t limit =
                scan_limit_override != 0 ? scan_limit_override : op.scan_len;
            const std::uint64_t lo =
                scan_limit_override != 0 ? 1 : op.key;
            const auto s = std::chrono::steady_clock::now();
            if (chunked) {
              bool first = true;
              std::uint64_t first_ns = 0;
              const std::size_t got = c.scan_stream(
                  lo, ~0ULL,
                  [&](const std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>&) {
                    if (first) {
                      first_ns = now_ns(s);
                      first = false;
                    }
                    return true;
                  },
                  limit);
              const std::uint64_t last_ns = now_ns(s);
              r.ttfc.record_ns(first ? last_ns : first_ns);
              r.ttlc.record_ns(last_ns);
              r.scan_entries += got;
            } else {
              const auto entries = c.scan_buffered(lo, ~0ULL, limit);
              const std::uint64_t ns = now_ns(s);
              r.ttfc.record_ns(ns);
              r.ttlc.record_ns(ns);
              r.scan_entries += entries.size();
            }
            ++r.ops;
          } else {
            c.queue({server::Opcode::kPut, op.key, op.value});
            c.flush(&resp);
            ++r.ops;
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %u: %s\n", i, e.what());
        r.ok = false;
      }
    });
  }
  for (auto& th : threads) th.join();

  MixResult total;
  total.seconds = static_cast<double>(now_ns(t0)) / 1e9;
  for (const MixResult& r : per_thread) {
    total.ops += r.ops;
    total.scan_entries += r.scan_entries;
    total.ttfc.merge(r.ttfc);
    total.ttlc.merge(r.ttlc);
    total.ok = total.ok && r.ok;
  }
  return total;
}

void report(JsonBenchWriter& out, const char* name, const char* plane,
            const char* mode, unsigned clients, const MixResult& r,
            bool* all_ok) {
  *all_ok = *all_ok && r.ok;
  const double entries_s =
      r.seconds > 0 ? static_cast<double>(r.scan_entries) / r.seconds : 0;
  std::printf("  %-28s %10.0f entries/s   TTFC p50 %8llu p99 %8llu   "
              "TTLC p50 %8llu p99 %8llu ns\n",
              name, entries_s,
              static_cast<unsigned long long>(r.ttfc.p50_ns()),
              static_cast<unsigned long long>(r.ttfc.p99_ns()),
              static_cast<unsigned long long>(r.ttlc.p50_ns()),
              static_cast<unsigned long long>(r.ttlc.p99_ns()));
  JsonBenchWriter::Config cfg;
  cfg.emplace_back("plane", plane);
  cfg.emplace_back("mode", mode);
  cfg.emplace_back("clients", std::to_string(clients));
  cfg.emplace_back("scans", std::to_string(r.ttlc.count()));
  cfg.emplace_back("scan_entries", std::to_string(r.scan_entries));
  cfg.emplace_back("ttfc_p50_ns", std::to_string(r.ttfc.p50_ns()));
  cfg.emplace_back("ttfc_p99_ns", std::to_string(r.ttfc.p99_ns()));
  cfg.emplace_back("ttfc_p999_ns", std::to_string(r.ttfc.p999_ns()));
  bench::append_build_config(cfg);
  // The JSON latency fields carry TTLC; TTFC rides in config above.
  out.add(name, std::move(cfg), entries_s, r.ttlc.histogram());
}

}  // namespace

int main() {
  bench::apply_persist_delay();
  const std::uint64_t records = bench::env_u64("UPSL_BENCH_RECORDS", 20000);
  const std::uint64_t ops = bench::env_u64("UPSL_BENCH_OPS", 20000);
  const auto clients =
      static_cast<unsigned>(bench::env_u64("UPSL_SCAN_CLIENTS", 64));
  const auto shards = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, bench::env_u64("UPSL_SHARDS", 1)));

  bench::print_header("streaming scan A/B",
                      "scan PR: SIMD chunked vs buffered scans over the wire");

  JsonBenchWriter out("scan");
  bool all_ok = true;

  // 1. Core loop + zero-allocation assertion.
  all_ok = core_scan_loop(out, records) && all_ok;

  // 2+3. Wire mixes against one self-hosted server.
  ThreadRegistry::instance().bind(0);
  server::ServerOptions sopts;
  sopts.port = 0;
  sopts.workers = 4;
  bench::UPSLShardedAdapter adapter(
      records, shards, 64,
      /*max_threads=*/sopts.first_thread_id + sopts.workers + 4);
  // Preload in-process (cheaper than the wire; stores must be live before
  // the sockets anyway).
  std::uint64_t v = 1;
  for (std::uint64_t i = 0; i < records; ++i)
    adapter.insert(ycsb::key_of(i), v++);
  server::Server srv(adapter.set(), sopts);
  if (!srv.start()) {
    std::fprintf(stderr, "cannot start in-process server\n");
    return 1;
  }
  const std::string plane = srv.data_plane();
  Target t{"127.0.0.1", srv.port()};
  std::printf("  [%s] %u clients, %llu records, %llu ops per leg\n",
              plane.c_str(), clients,
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops));

  // Workload-E mix, buffered vs chunked.
  std::array<MixResult, 2> e_legs;
  for (const bool chunked : {false, true}) {
    const MixResult r = run_mix(t, records, ops, clients, chunked);
    e_legs[chunked ? 1 : 0] = r;
    report(out,
           (std::string("scan_E_") + (chunked ? "chunked_" : "buffered_") +
            plane)
               .c_str(),
           plane.c_str(), chunked ? "chunked" : "buffered", clients, r,
           &all_ok);
  }

  // Long-scan leg: full-range scans, streaming TTFC vs buffered
  // whole-reply latency. Few clients; scans only.
  const std::uint32_t long_limit = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(records, 50000));
  const unsigned long_clients = std::min(clients, 4u);
  std::array<MixResult, 2> long_legs;
  for (const bool chunked : {false, true}) {
    const MixResult r =
        run_mix(t, records, /*total_ops=*/long_clients * 8, long_clients,
                chunked, long_limit, /*insert_fraction=*/0.0);
    long_legs[chunked ? 1 : 0] = r;
    report(out,
           (std::string("scan_long_") + (chunked ? "chunked_" : "buffered_") +
            plane)
               .c_str(),
           plane.c_str(), chunked ? "chunked-long" : "buffered-long",
           long_clients, r, &all_ok);
  }

  // Acceptance gate: the 2x entries/s and TTFC-p99 targets are
  // contention/streaming effects that need real parallelism — on a small
  // box the E mix is pure loopback RTT and both modes ship one frame per
  // short scan, so the ratio is meaningless there. Armed at >=16 clients
  // on >=8 cores with >=20000 ops; below that the ratios are still
  // recorded.
  const auto rate = [](const MixResult& r) {
    return r.seconds > 0
               ? static_cast<double>(r.scan_entries) / r.seconds
               : 0.0;
  };
  const double e_ratio =
      rate(e_legs[0]) > 0 ? rate(e_legs[1]) / rate(e_legs[0]) : 0.0;
  const bool ttfc_better =
      e_legs[1].ttfc.p99_ns() <= e_legs[0].ttfc.p99_ns() ||
      long_legs[1].ttfc.p99_ns() <= long_legs[0].ttfc.p99_ns();
  const bool armed = clients >= 16 && ops >= 20000 &&
                     std::thread::hardware_concurrency() >= 8;
  std::printf("  [%s] chunked/buffered E entries/s ratio %.2fx, "
              "TTFC p99 %s (gate %s)\n",
              plane.c_str(), e_ratio, ttfc_better ? "improved" : "WORSE",
              armed ? "armed" : "disarmed: needs >=16 clients, >=8 cores, "
                                ">=20000 ops");
  if (armed && (e_ratio < 2.0 || !ttfc_better)) {
    std::fprintf(stderr,
                 "  GATE FAILED on %s: chunked must be >=2x buffered "
                 "entries/s on the E mix with TTFC p99 no worse\n",
                 plane.c_str());
    all_ok = false;
  }

  srv.stop();
  srv.wait();

  out.write();
  return all_ok ? 0 : 1;
}
