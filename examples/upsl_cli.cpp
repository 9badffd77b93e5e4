// Interactive command-line shell over a persistent UPSkipList store — the
// smallest "real application" shape: a durable ordered key-value store you
// can kill (Ctrl-C, kill -9, power cut) and reopen with zero data loss for
// acknowledged writes.
//
// Local mode (in-process store over a pool file):
//   ./examples/upsl_cli /tmp/my.pool
// Remote mode (same commands, served by a running `upsl-serve`):
//   ./examples/upsl_cli --remote 127.0.0.1:7707
//
//   > put 10 100
//   > get 10
//   > scan 1 100
//   > del 10
//   > stats
//   > quit
//
// One parser serves both modes: commands are dispatched through the
// CliBackend interface below, so verb handling cannot drift between the
// local and remote paths.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_registry.hpp"
#include "core/upskiplist.hpp"
#include "server/client.hpp"

namespace {

using namespace upsl;

struct KV {
  std::uint64_t key;
  std::uint64_t value;
};

/// One RESOLVE answer (docs/detectability.md): did (client_id, seq) apply,
/// and what durable result did it return?
struct ResolveAnswer {
  std::uint32_t state;         // detect::ResolveResult::State numbering
  bool has_previous;
  std::uint64_t result;
};

/// What the shared command loop needs from a store, local or remote.
/// Transport/storage errors surface as exceptions (caught per command).
class CliBackend {
 public:
  virtual ~CliBackend() = default;
  /// Upsert; previous value if the key existed.
  virtual std::optional<std::uint64_t> put(std::uint64_t k,
                                           std::uint64_t v) = 0;
  virtual std::optional<std::uint64_t> get(std::uint64_t k) = 0;
  virtual std::optional<std::uint64_t> del(std::uint64_t k) = 0;
  virtual std::vector<KV> scan(std::uint64_t lo, std::uint64_t hi) = 0;
  virtual std::size_t count() = 0;
  virtual std::string stats() = 0;
  /// Queries the durable session table for one (client_id, seq); `key`
  /// routes to the owning shard in remote mode, ignored locally.
  virtual ResolveAnswer resolve(std::uint64_t client_id, std::uint64_t seq,
                                std::uint64_t key) = 0;
  /// Full structural check; returns a JSON report and sets *ok. Never
  /// throws for a failed check — that is a result, not an error.
  virtual std::string validate(bool* ok) = 0;
  /// Deep integrity check (docs/integrity.md): checksum-verifying re-walk
  /// plus the quarantine report. *ok = the store is NOT degraded. A
  /// degraded verdict is a result, not an error.
  virtual std::string fsck(bool* ok) = 0;
  virtual std::string banner() = 0;
};

class LocalBackend : public CliBackend {
 public:
  explicit LocalBackend(const std::string& path) : path_(path) {
    core::Options opts;
    opts.keys_per_node = 64;
    opts.chunk.chunk_size = 1 << 20;
    opts.chunk.max_chunks = 256;
    const std::size_t pool_size = (8ull << 20) + opts.chunk.root_size +
                                  opts.chunk.max_chunks *
                                      opts.chunk.chunk_size;
    if (std::filesystem::exists(path)) {
      pool_ = pmem::Pool::open(path, 0);
      store_ = core::UPSkipList::open({pool_.get()});
      created_ = false;
    } else {
      pool_ = pmem::Pool::create(path, 0, pool_size);
      store_ = core::UPSkipList::create({pool_.get()}, opts);
      created_ = true;
    }
    session_t0_ = pmem::Stats::instance().snapshot();
  }

  std::optional<std::uint64_t> put(std::uint64_t k, std::uint64_t v) override {
    return store_->insert(k, v);
  }
  std::optional<std::uint64_t> get(std::uint64_t k) override {
    return store_->search(k);
  }
  std::optional<std::uint64_t> del(std::uint64_t k) override {
    return store_->remove(k);
  }
  std::vector<KV> scan(std::uint64_t lo, std::uint64_t hi) override {
    std::vector<core::ScanEntry> entries;
    store_->scan(lo, hi, entries);
    std::vector<KV> out;
    out.reserve(entries.size());
    for (const auto& e : entries) out.push_back({e.key, e.value});
    return out;
  }
  std::size_t count() override { return store_->count_keys(); }
  std::string stats() override {
    // This session's persists, not process-lifetime totals: the snapshot
    // delta, as everywhere else since the Stats::snapshot() API landed.
    const auto d = pmem::Stats::instance().snapshot() - session_t0_;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "epoch %llu, %zu keys, this session: %llu persists, "
                  "%llu lines, %llu fences",
                  static_cast<unsigned long long>(store_->epoch()),
                  store_->count_keys(),
                  static_cast<unsigned long long>(d.persist_calls),
                  static_cast<unsigned long long>(d.persisted_lines),
                  static_cast<unsigned long long>(d.fences));
    return buf;
  }
  ResolveAnswer resolve(std::uint64_t client_id, std::uint64_t seq,
                        std::uint64_t /*key*/) override {
    const detect::ResolveResult r = store_->sessions().resolve(client_id, seq);
    return {static_cast<std::uint32_t>(r.state), r.has_previous != 0,
            r.result};
  }
  std::string validate(bool* ok) override {
    // Mirror the server's VALIDATE JSON so scripts can parse either mode.
    try {
      store_->check_invariants();
      *ok = true;
      return "{\"valid\": true, \"nodes\": " +
             std::to_string(store_->count_nodes()) +
             ", \"epoch\": " + std::to_string(store_->epoch()) + "}";
    } catch (const std::exception& e) {
      *ok = false;
      std::string msg;
      for (const char* c = e.what(); *c != '\0'; ++c)
        msg += (*c == '"' || *c == '\\') ? ' ' : *c;
      return "{\"valid\": false, \"error\": \"" + msg + "\"}";
    }
  }
  std::string fsck(bool* ok) override {
    try {
      const core::IntegrityReport rep = store_->verify_deep();
      *ok = !rep.degraded();
      return rep.to_json();
    } catch (const std::exception& e) {
      *ok = false;
      std::string msg;
      for (const char* c = e.what(); *c != '\0'; ++c)
        msg += (*c == '"' || *c == '\\') ? ' ' : *c;
      return "{\"degraded\": true, \"error\": \"" + msg + "\"}";
    }
  }
  std::string banner() override {
    char buf[160];
    if (created_) {
      std::snprintf(buf, sizeof buf, "created %s", path_.c_str());
    } else {
      std::snprintf(buf, sizeof buf, "reopened %s (epoch %llu, %zu keys)",
                    path_.c_str(),
                    static_cast<unsigned long long>(store_->epoch()),
                    store_->count_keys());
    }
    return buf;
  }

 private:
  std::string path_;
  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<core::UPSkipList> store_;
  pmem::StatsSnapshot session_t0_;
  bool created_ = false;
};

class RemoteBackend : public CliBackend {
 public:
  RemoteBackend(const std::string& host, std::uint16_t port)
      : addr_(host + ":" + std::to_string(port)) {
    if (!client_.connect(host, port))
      throw std::runtime_error("cannot connect to " + addr_);
  }

  std::optional<std::uint64_t> put(std::uint64_t k, std::uint64_t v) override {
    const auto r = client_.put(k, v);
    if (r.created) return std::nullopt;
    return r.old_value;
  }
  std::optional<std::uint64_t> get(std::uint64_t k) override {
    return client_.get(k);
  }
  std::optional<std::uint64_t> del(std::uint64_t k) override {
    return client_.remove(k);
  }
  std::vector<KV> scan(std::uint64_t lo, std::uint64_t hi) override {
    std::vector<KV> out;
    for (const auto& [k, v] : client_.scan(lo, hi)) out.push_back({k, v});
    return out;
  }
  std::size_t count() override {
    // Full-range scan; the server caps one response at kMaxScanEntries, so
    // page through by restarting above the last key seen.
    std::size_t total = 0;
    std::uint64_t lo = 0;
    while (true) {
      const auto page = client_.scan(lo, ~0ull);
      total += page.size();
      if (page.size() < server::kMaxScanEntries) return total;
      lo = page.back().first + 1;
      if (lo == 0) return total;  // wrapped: last key was 2^64-1
    }
  }
  ResolveAnswer resolve(std::uint64_t client_id, std::uint64_t seq,
                        std::uint64_t key) override {
    const auto r = client_.resolve(client_id, seq, key);
    return {r.state, r.has_previous != 0, r.result};
  }
  std::string stats() override { return client_.stats_json(); }
  std::string validate(bool* ok) override { return client_.validate_json(ok); }
  std::string fsck(bool* ok) override {
    const std::string json = client_.fsck_json(ok);
    // The wire *ok means "the walk ran"; fold in the report's own verdict
    // so the CLI prints DEGRADED when quarantine found damage.
    if (*ok && json.find("\"degraded\": true") != std::string::npos)
      *ok = false;
    return json;
  }
  std::string banner() override { return "connected to " + addr_; }

 private:
  std::string addr_;
  server::Client client_;
};

/// The one command loop both modes run.
int command_loop(CliBackend& be) {
  std::printf("%s\n", be.banner().c_str());
  std::printf("commands: put <k> <v> | get <k> | del <k> | scan <lo> <hi> | "
              "resolve <client_id> <seq> [key] | count | stats | validate | "
              "fsck | quit\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    try {
      if (cmd == "put") {
        std::uint64_t k = 0;
        std::uint64_t v = 0;
        if (!(is >> k >> v)) throw std::invalid_argument("put <k> <v>");
        auto old = be.put(k, v);
        if (old) {
          std::printf("updated (was %llu)\n",
                      static_cast<unsigned long long>(*old));
        } else {
          std::printf("inserted\n");
        }
      } else if (cmd == "get") {
        std::uint64_t k = 0;
        if (!(is >> k)) throw std::invalid_argument("get <k>");
        auto v = be.get(k);
        if (v) {
          std::printf("%llu\n", static_cast<unsigned long long>(*v));
        } else {
          std::printf("(not found)\n");
        }
      } else if (cmd == "del") {
        std::uint64_t k = 0;
        if (!(is >> k)) throw std::invalid_argument("del <k>");
        auto v = be.del(k);
        std::printf(v ? "removed\n" : "(not found)\n");
      } else if (cmd == "scan") {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        if (!(is >> lo >> hi)) throw std::invalid_argument("scan <lo> <hi>");
        const auto entries = be.scan(lo, hi);
        for (const auto& e : entries)
          std::printf("  %llu -> %llu\n",
                      static_cast<unsigned long long>(e.key),
                      static_cast<unsigned long long>(e.value));
        std::printf("(%zu entries)\n", entries.size());
      } else if (cmd == "resolve") {
        // Exactly-once triage after a crash or dropped connection: did my
        // (client_id, seq) mutation land, and what did it return?
        std::uint64_t cid = 0;
        std::uint64_t seq = 0;
        std::uint64_t key = 0;
        if (!(is >> cid >> seq))
          throw std::invalid_argument("resolve <client_id> <seq> [key]");
        is >> key;  // optional shard-routing key; 0 = shard 0
        const ResolveAnswer a = be.resolve(cid, seq, key);
        switch (a.state) {
          case 0:
            std::printf("unknown session\n");
            break;
          case 1:
            std::printf("not applied (safe to replay seq %llu)\n",
                        static_cast<unsigned long long>(seq));
            break;
          case 2:
            if (a.has_previous) {
              std::printf("applied, returned %llu\n",
                          static_cast<unsigned long long>(a.result));
            } else {
              std::printf("applied, no previous value\n");
            }
            break;
          default:
            std::printf("applied, result aged out of the ring\n");
            break;
        }
      } else if (cmd == "count") {
        std::printf("%zu keys\n", be.count());
      } else if (cmd == "stats") {
        std::printf("%s\n", be.stats().c_str());
      } else if (cmd == "validate") {
        bool ok = false;
        const std::string report = be.validate(&ok);
        std::printf("%s\n%s\n", ok ? "OK" : "INVALID", report.c_str());
      } else if (cmd == "fsck") {
        bool ok = false;
        const std::string report = be.fsck(&ok);
        std::printf("%s\n%s\n", ok ? "CLEAN" : "DEGRADED", report.c_str());
      } else if (cmd == "quit" || cmd == "exit") {
        break;
      } else if (!cmd.empty()) {
        std::printf("unknown command '%s'\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ThreadRegistry::instance().bind(0);
  try {
    if (argc >= 2 && std::strcmp(argv[1], "--remote") == 0) {
      if (argc < 3) {
        std::fprintf(stderr, "usage: upsl_cli --remote host:port\n");
        return 2;
      }
      std::string host;
      std::uint16_t port = 0;
      if (!server::parse_addr(argv[2], &host, &port)) {
        std::fprintf(stderr, "bad address '%s' (want host:port)\n", argv[2]);
        return 2;
      }
      RemoteBackend be(host, port);
      return command_loop(be);
    }
    const std::string path = argc > 1 ? argv[1] : "/tmp/upsl_cli.pool";
    LocalBackend be(path);
    return command_loop(be);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
