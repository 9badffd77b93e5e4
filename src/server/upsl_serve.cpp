// upsl-serve — the network front-end binary.
//
//   upsl-serve [--pool PATH] [--host H] [--port P] [--workers N]
//              [--pool-mb MB] [--keys-per-node K] [--shards S]
//
// Sharding: --shards S (or UPSL_SHARDS; default 1) partitions the key space
// across S independent stores. Shard 0 keeps the exact legacy pool path, so
// S=1 is bit-compatible with a pre-sharding deployment; S>1 uses
// "<pool>.shard<i>" per member. Every shard is served from the one --port
// by the same --workers N threads (N in total, not per shard); each request
// is routed to the shard that owns its key. A reopen validates the durable
// topology recorded in every shard's root — changing S over an existing
// store is refused rather than mis-routed.
//
// Startup order is the recovery contract made visible: open (or create) the
// pools, run ShardSet::open — which recovers every shard in parallel, bumps
// each failure-free epoch and arms the deferred repair/allocator-recovery
// machinery — and only then bind the listen socket. A client that can
// connect is therefore guaranteed to be talking to a recovered store.
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, execute the
// requests already received, flush their responses, exit 0.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_registry.hpp"
#include "core/shard_set.hpp"
#include "core/upskiplist.hpp"
#include "pmem/ack_batch.hpp"
#include "server/server.hpp"

namespace {

struct Args {
  std::string pool = "/tmp/upsl_serve.pool";
  std::string host = "127.0.0.1";
  std::uint16_t port = 7707;
  unsigned workers = 4;
  std::size_t pool_mb = 512;
  std::uint32_t keys_per_node = 64;
  std::uint32_t shards = 0;  // 0 = UPSL_SHARDS env, else 1
};

std::uint32_t shards_from_env() {
  if (const char* v = std::getenv("UPSL_SHARDS")) {
    const unsigned long n = std::strtoul(v, nullptr, 10);
    if (n >= 1 && n <= 64) return static_cast<std::uint32_t>(n);
  }
  return 1;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--pool" && (v = next()) != nullptr) {
      a->pool = v;
    } else if (flag == "--host" && (v = next()) != nullptr) {
      a->host = v;
    } else if (flag == "--port" && (v = next()) != nullptr) {
      a->port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--workers" && (v = next()) != nullptr) {
      a->workers = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--pool-mb" && (v = next()) != nullptr) {
      a->pool_mb = std::strtoull(v, nullptr, 10);
    } else if (flag == "--keys-per-node" && (v = next()) != nullptr) {
      a->keys_per_node = static_cast<std::uint32_t>(
          std::strtoul(v, nullptr, 10));
    } else if (flag == "--shards" && (v = next()) != nullptr) {
      a->shards = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: upsl-serve [--pool PATH] [--host H] [--port P] "
                   "[--workers N] [--pool-mb MB] [--keys-per-node K] "
                   "[--shards S]\n"
                   "  --workers N  worker threads serving every shard "
                   "(default 4)\n");
      return false;
    }
  }
  if (a->shards == 0) a->shards = shards_from_env();
  return a->workers > 0 && a->shards >= 1 && a->shards <= 64;
}

/// Shard i's pool file: the bare legacy path for a 1-shard deployment (so
/// existing stores keep working), "<pool>.shard<i>" otherwise.
std::string shard_pool_path(const Args& a, std::uint32_t i) {
  if (a.shards == 1) return a.pool;
  return a.pool + ".shard" + std::to_string(i);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace upsl;
  Args args;
  if (!parse_args(argc, argv, &args)) return 2;

  ThreadRegistry::instance().bind(0);

  core::Options opts;
  opts.keys_per_node = args.keys_per_node;
  // Any worker executes ops against any shard, so every shard must have
  // arena room for every worker id (1..workers, plus main and spare ids).
  opts.max_threads = args.workers + 4;
  opts.chunk.chunk_size = 1 << 20;
  // --pool-mb is the TOTAL data budget: split it across the shards.
  const std::size_t budget = (args.pool_mb << 20) / args.shards;
  opts.chunk.max_chunks = static_cast<std::uint32_t>(
      std::max<std::size_t>(32, budget / opts.chunk.chunk_size));
  const std::size_t pool_size = (8ull << 20) + opts.chunk.root_size +
                                std::size_t{opts.chunk.max_chunks} *
                                    opts.chunk.chunk_size;

  // Phase 1: open the pools and recover BEFORE any socket exists. All
  // shards must agree on existence — a half-present set is a config error.
  std::vector<std::unique_ptr<pmem::Pool>> pools;
  std::vector<std::vector<pmem::Pool*>> shard_pools;
  unsigned existing = 0;
  for (std::uint32_t i = 0; i < args.shards; ++i)
    if (std::filesystem::exists(shard_pool_path(args, i))) ++existing;
  if (existing != 0 && existing != args.shards) {
    std::fprintf(stderr,
                 "upsl-serve: %u of %u shard pools exist; refusing a "
                 "partial shard set\n",
                 existing, args.shards);
    return 1;
  }

  const bool create = existing == 0;
  for (std::uint32_t i = 0; i < args.shards; ++i) {
    const std::string path = shard_pool_path(args, i);
    pools.push_back(create ? pmem::Pool::create(path, i, pool_size)
                           : pmem::Pool::open(path, i));
    shard_pools.push_back({pools.back().get()});
  }

  std::unique_ptr<core::ShardSet> set;
  try {
    set = create ? core::ShardSet::create(std::move(shard_pools), opts)
                 : core::ShardSet::open(std::move(shard_pools));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "upsl-serve: cannot open shard set: %s\n", e.what());
    return 1;
  }

  if (create) {
    std::printf("upsl-serve: created %s (%u shard%s x %zu MiB)\n",
                args.pool.c_str(), args.shards, args.shards == 1 ? "" : "s",
                pool_size >> 20);
  } else {
    std::printf("upsl-serve: recovered %s (%u shard%s, parallel open)\n",
                args.pool.c_str(), args.shards, args.shards == 1 ? "" : "s");
    // Recovery-before-bind includes each shard's search-layer rebuild:
    // report the per-shard costs so restart-latency regressions (and shard
    // imbalance) are visible in the startup log.
    for (std::uint32_t i = 0; i < args.shards; ++i) {
      core::UPSkipList& s = set->shard(i);
      if (s.dram_index_enabled()) {
        std::printf(
            "upsl-serve: shard %u: epoch %llu, open %.3f ms, dram index "
            "rebuilt (%zu entries, %.3f ms)\n",
            i, static_cast<unsigned long long>(s.epoch()),
            static_cast<double>(set->open_ns(i)) / 1e6, s.index_entries(),
            static_cast<double>(s.last_index_rebuild_ns()) / 1e6);
      } else {
        std::printf(
            "upsl-serve: shard %u: epoch %llu, open %.3f ms, dram index "
            "disabled (persistent towers)\n",
            i, static_cast<unsigned long long>(s.epoch()),
            static_cast<double>(set->open_ns(i)) / 1e6);
      }
    }
  }

  // Degraded-mode startup report (docs/integrity.md): merge the open-time
  // integrity verdicts across shards. A degraded store still serves — the
  // quarantine machinery bridged around the damage — but the operator must
  // see what was lost before the first client connects.
  {
    core::IntegrityReport integ;
    for (std::uint32_t i = 0; i < args.shards; ++i)
      integ.merge(set->shard(i).integrity());
    if (integ.degraded()) {
      std::fprintf(stderr,
                   "upsl-serve: DEGRADED: corruption quarantined during "
                   "recovery; serving around the damage\n"
                   "upsl-serve: integrity: %s\n",
                   integ.to_json().c_str());
    }
  }

  // Phase 2: serve.
  server::ServerOptions sopts;
  sopts.host = args.host;
  sopts.port = args.port;
  sopts.workers = args.workers;
  server::Server srv(*set, sopts);
  if (args.workers > srv.max_workers()) {
    std::fprintf(stderr,
                 "upsl-serve: --workers %u exceeds the %u workers this pool "
                 "was created for; lower --workers or recreate the pool\n",
                 args.workers, srv.max_workers());
    return 1;
  }
  server::Server::install_signal_handlers();
  if (!srv.start()) {
    std::fprintf(stderr, "upsl-serve: cannot listen on %s:%u: %s\n",
                 args.host.c_str(), args.port, std::strerror(errno));
    return 1;
  }
  std::printf("upsl-serve: listening on %s:%u (%u shard%s, %u workers)\n",
              args.host.c_str(), srv.port(), args.shards,
              args.shards == 1 ? "" : "s", args.workers);
  // Data-plane report (docs/scan.md): the probe's verdict, not the option —
  // "epoll" here on a kernel that refused the ring or under the kill switch.
  std::printf("upsl-serve: data plane %s\n", srv.data_plane());
  // Write-path report (docs/write-path.md): which ordering mode the store
  // runs with; acks are fenced once per executed batch either way.
  std::printf("upsl-serve: mod write path %s, one ack fence per batch\n",
              pmem::mod_writes_enabled() ? "on" : "off");
  std::fflush(stdout);

  srv.wait();  // returns after a signal-triggered drain

  const auto& st = srv.stats();
  std::printf("upsl-serve: drained (%llu frames, %llu batches, %llu conns); "
              "bye\n",
              static_cast<unsigned long long>(st.frames.load()),
              static_cast<unsigned long long>(st.batches.load()),
              static_cast<unsigned long long>(st.connections_accepted.load()));
  const auto pm = pmem::Stats::instance().snapshot();
  if (pm.scan_chunks > 0) {
    std::printf("upsl-serve: scans streamed %llu chunks / %llu entries "
                "(%llu nodes visited, %llu simd filters)\n",
                static_cast<unsigned long long>(pm.scan_chunks),
                static_cast<unsigned long long>(pm.scan_entries_returned),
                static_cast<unsigned long long>(pm.scan_nodes_visited),
                static_cast<unsigned long long>(pm.simd_scan_filters));
  }
  return 0;
}
