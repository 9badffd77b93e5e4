#include "pmem/pool.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <system_error>

#include "common/rng.hpp"
#include "pmem/flush_set.hpp"

namespace upsl::pmem {

namespace {

/// Every syscall failure carries the operation AND the pool path — "mmap
/// pool" alone is useless when a ShardSet opens dozens of files.
[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::system_error(errno, std::generic_category(),
                          what + " '" + path + "'");
}

char* map_fd(int fd, std::size_t size, const std::string& path) {
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) throw_errno("mmap pool", path);
  return static_cast<char*>(p);
}

char* map_anonymous(std::size_t size) {
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw_errno("mmap anonymous pool", "<anon>");
  return static_cast<char*>(p);
}

}  // namespace

std::unique_ptr<Pool> Pool::create(const std::string& path, std::uint16_t id,
                                   std::size_t size, PoolOptions opts) {
  if (size == 0 || size % kCacheLineSize != 0)
    throw std::invalid_argument("pool size must be a positive multiple of 64");
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("create pool file", path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    throw_errno("ftruncate pool file", path);
  }
  auto pool = std::unique_ptr<Pool>(new Pool);
  pool->fd_ = fd;
  pool->path_ = path;
  pool->size_ = size;
  pool->id_ = id;
  pool->base_ = map_fd(fd, size, path);
  if (opts.crash_tracking) {
    pool->shadow_ = std::make_unique<char[]>(size);
    std::memset(pool->shadow_.get(), 0, size);
  }
  PoolRegistry::instance().register_pool(pool.get());
  return pool;
}

std::unique_ptr<Pool> Pool::open(const std::string& path, std::uint16_t id,
                                 PoolOptions opts) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) throw_errno("open pool file", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat pool file", path);
  }
  if (st.st_size == 0 ||
      static_cast<std::size_t>(st.st_size) % kCacheLineSize != 0) {
    ::close(fd);
    throw std::runtime_error("pool file '" + path +
                             "' has invalid size " +
                             std::to_string(st.st_size) +
                             " (truncated or not a pool)");
  }
  auto pool = std::unique_ptr<Pool>(new Pool);
  pool->fd_ = fd;
  pool->path_ = path;
  pool->size_ = static_cast<std::size_t>(st.st_size);
  pool->id_ = id;
  pool->base_ = map_fd(fd, pool->size_, path);
  if (opts.crash_tracking) {
    // Everything in the file is durable at open time.
    pool->shadow_ = std::make_unique<char[]>(pool->size_);
    std::memcpy(pool->shadow_.get(), pool->base_, pool->size_);
  }
  PoolRegistry::instance().register_pool(pool.get());
  return pool;
}

std::unique_ptr<Pool> Pool::create_anonymous(std::uint16_t id, std::size_t size,
                                             PoolOptions opts) {
  if (size == 0 || size % kCacheLineSize != 0)
    throw std::invalid_argument("pool size must be a positive multiple of 64");
  auto pool = std::unique_ptr<Pool>(new Pool);
  pool->size_ = size;
  pool->id_ = id;
  pool->base_ = map_anonymous(size);
  if (opts.crash_tracking) {
    pool->shadow_ = std::make_unique<char[]>(size);
    std::memset(pool->shadow_.get(), 0, size);
  }
  PoolRegistry::instance().register_pool(pool.get());
  return pool;
}

Pool::~Pool() {
  PoolRegistry::instance().unregister_pool(this);
  if (base_ != nullptr) ::munmap(base_, size_);
  if (fd_ >= 0) ::close(fd_);
}

namespace {

/// Striped spinlocks keyed by line address. Two threads flushing the same
/// line at once must not interleave their copies: one could load a word
/// before a racing store, the other load it after and land in the shadow
/// first, and the older copy would then overwrite the newer one — undoing
/// a persist that had already returned. A real CLWB writes back whatever
/// the line holds when it drains, so durable contents never move backwards.
struct alignas(kCacheLineSize) LineLock {
  std::atomic<bool> held{false};
};
LineLock g_line_locks[256];

LineLock& line_lock(const char* line) {
  const auto n = reinterpret_cast<std::uintptr_t>(line) / kCacheLineSize;
  return g_line_locks[n % std::size(g_line_locks)];
}

}  // namespace

void Pool::persist_range(const void* addr, std::size_t len) {
  if (shadow_ == nullptr || len == 0) return;
  const auto off = static_cast<std::size_t>(static_cast<const char*>(addr) - base_);
  const std::size_t first = align_down(off, kCacheLineSize);
  const std::size_t last = align_up(off + len, kCacheLineSize);
  // Copy line by line with 64-bit atomic loads so racing writers (other
  // "CPUs" with the line in cache) stay well-defined, under the line's lock
  // so racing flushes of one line reach the shadow in load order.
  for (std::size_t line = first; line < last; line += kCacheLineSize) {
    const auto* src = reinterpret_cast<const std::uint64_t*>(base_ + line);
    auto* dst = reinterpret_cast<std::uint64_t*>(shadow_.get() + line);
    LineLock& lock = line_lock(base_ + line);
    while (lock.held.exchange(true, std::memory_order_acquire)) {
      while (lock.held.load(std::memory_order_relaxed)) {
      }
    }
    for (std::size_t w = 0; w < kCacheLineSize / sizeof(std::uint64_t); ++w)
      dst[w] = std::atomic_ref<const std::uint64_t>(src[w]).load(
          std::memory_order_acquire);
    lock.held.store(false, std::memory_order_release);
  }
  Stats::instance().persisted_lines.fetch_add((last - first) / kCacheLineSize,
                                              std::memory_order_relaxed);
}

void Pool::simulate_crash(CrashMode mode, std::uint64_t seed, double evict_prob) {
  if (shadow_ == nullptr)
    throw std::logic_error("simulate_crash requires crash_tracking");
  if (mode == CrashMode::kDiscardUnflushed) {
    std::memcpy(base_, shadow_.get(), size_);
    return;
  }
  Xoshiro256 rng(seed);
  for (std::size_t line = 0; line < size_; line += kCacheLineSize) {
    const bool evicted_before_cut = rng.next_double() < evict_prob;
    if (evicted_before_cut) {
      // The line made it to the persistence domain on its own; keep live
      // contents and fold them into the shadow (they are now durable).
      std::memcpy(shadow_.get() + line, base_ + line, kCacheLineSize);
    } else {
      std::memcpy(base_ + line, shadow_.get() + line, kCacheLineSize);
    }
  }
}

void Pool::mark_all_persisted() {
  if (shadow_ != nullptr) std::memcpy(shadow_.get(), base_, size_);
}

void Pool::remap() {
  if (fd_ < 0) throw std::logic_error("remap requires a file-backed pool");
  ::munmap(base_, size_);
  base_ = map_fd(fd_, size_, path_);
}

void PoolRegistry::register_pool(Pool* pool) {
  pools_[pool->id()].store(pool, std::memory_order_release);
  int hw = high_water_.load(std::memory_order_relaxed);
  while (hw <= pool->id() &&
         !high_water_.compare_exchange_weak(hw, pool->id() + 1,
                                            std::memory_order_acq_rel)) {
  }
}

void PoolRegistry::unregister_pool(Pool* pool) {
  Pool* expected = pool;
  std::atomic<Pool*>& slot = pools_[pool->id()];
  slot.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

void PoolRegistry::clear() {
  for (auto& slot : pools_) slot.store(nullptr, std::memory_order_relaxed);
  high_water_.store(0, std::memory_order_release);
}

namespace {

void apply_persist_delay() {
  const std::uint32_t delay = Config::instance().persist_delay_ns;
  if (UPSL_UNLIKELY(delay != 0)) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(delay);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
}

}  // namespace

void persist(const void* addr, std::size_t len) {
  flush(addr, len);
  // Counted via fence() so Stats::fences reflects every SFENCE the write
  // path issues, persist()-internal ones included.
  fence();
}

void flush(const void* addr, std::size_t len) {
  Stats::instance().persist_calls.fetch_add(1, std::memory_order_relaxed);
  Pool* pool = PoolRegistry::instance().find(addr);
  if (pool != nullptr) pool->persist_range(addr, len);
  apply_persist_delay();
}

void flush_lines(const void* const* lines, std::size_t n) {
  if (n == 0) return;
  Stats::instance().persist_calls.fetch_add(1, std::memory_order_relaxed);
  PoolRegistry& reg = PoolRegistry::instance();
  for (std::size_t i = 0; i < n; ++i) {
    Pool* pool = reg.find(lines[i]);
    if (pool != nullptr) pool->persist_range(lines[i], kCacheLineSize);
  }
  // One modelled PMEM-latency hit for the batch: the CLWBs drain in
  // parallel, which is exactly the effect the batching is after.
  apply_persist_delay();
}

}  // namespace upsl::pmem
