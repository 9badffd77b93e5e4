// Minimal raw-syscall io_uring wrapper for the server's io_uring data plane
// (docs/scan.md). The container/toolchain has the kernel UAPI header but no
// liburing, so this speaks the three syscalls (io_uring_setup / enter /
// register) and the SQ/CQ ring mmap protocol directly. Only what the server
// loop needs is wrapped: SQE acquisition with the prep_* helpers below,
// submit-and-wait with an EXT_ARG timeout (so the worker keeps its 50 ms
// stop-flag poll cadence without a timeout SQE), CQE reaping, and fixed
// buffer registration for READ_FIXED receives.
//
// Ring-memory ordering follows the documented protocol: the SQ tail is
// published with a release store after the SQE is written; CQEs are read
// after an acquire load of the CQ tail, and the CQ head is released back so
// the kernel can reuse entries. IORING_FEAT_SINGLE_MMAP maps both rings in
// one region when offered (always, on kernels >= 5.4); the probe refuses
// kernels without it rather than carrying the dual-mmap path.
#pragma once

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define UPSL_HAVE_IOURING 1

#include <errno.h>
#include <linux/io_uring.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>

namespace upsl::server {

namespace uring_detail {

inline int sys_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

inline int sys_enter(int fd, unsigned to_submit, unsigned min_complete,
                     unsigned flags, const void* arg, std::size_t argsz) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, arg, argsz));
}

inline int sys_register(int fd, unsigned opcode, const void* arg,
                        unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// The ring head/tail words are shared with the kernel, not with other
// threads, so plain __atomic builtins (not std::atomic objects) are the
// right tool: the memory is kernel-mapped and must keep its layout.
inline unsigned acquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

inline void release(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

}  // namespace uring_detail

/// One io_uring instance: rings, SQE array, and just enough bookkeeping to
/// drive a single-threaded event loop. Not thread-safe (one ring per worker,
/// matching the single-owner-connection model).
class Uring {
 public:
  Uring() = default;
  ~Uring() { destroy(); }
  Uring(const Uring&) = delete;
  Uring& operator=(const Uring&) = delete;

  /// Creates the ring. False (errno intact) on any failure — including a
  /// kernel that lacks io_uring (ENOSYS) or a seccomp filter that denies it
  /// (EPERM); callers fall back to epoll then.
  bool init(unsigned entries) {
    io_uring_params p = {};
    ring_fd_ = uring_detail::sys_setup(entries, &p);
    if (ring_fd_ < 0) return false;
    if ((p.features & IORING_FEAT_SINGLE_MMAP) == 0) {
      destroy();
      errno = ENOTSUP;
      return false;
    }
    features_ = p.features;
    sq_entries_ = p.sq_entries;
    cq_entries_ = p.cq_entries;

    const std::size_t sq_sz = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    const std::size_t cq_sz =
        p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    rings_sz_ = sq_sz > cq_sz ? sq_sz : cq_sz;
    rings_ = ::mmap(nullptr, rings_sz_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (rings_ == MAP_FAILED) {
      rings_ = nullptr;
      destroy();
      return false;
    }
    sqes_sz_ = p.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, sqes_sz_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      destroy();
      return false;
    }

    auto* base = static_cast<std::uint8_t*>(rings_);
    sq_head_ = reinterpret_cast<unsigned*>(base + p.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(base + p.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(base + p.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(base + p.sq_off.array);
    cq_head_ = reinterpret_cast<unsigned*>(base + p.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(base + p.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(base + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(base + p.cq_off.cqes);

    // Identity SQ index mapping, set up once: slot i of the array always
    // names SQE i.
    for (unsigned i = 0; i < sq_entries_; ++i) sq_array_[i] = i;
    return true;
  }

  void destroy() {
    if (sqes_ != nullptr) ::munmap(sqes_, sqes_sz_);
    if (rings_ != nullptr) ::munmap(rings_, rings_sz_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
    sqes_ = nullptr;
    rings_ = nullptr;
    ring_fd_ = -1;
  }

  bool valid() const { return ring_fd_ >= 0; }
  unsigned features() const { return features_; }

  /// Next free SQE, zeroed, or nullptr when the SQ is full (submit first).
  io_uring_sqe* get_sqe() {
    const unsigned head = uring_detail::acquire(sq_head_);
    if (pending_tail_ - head >= sq_entries_) return nullptr;
    io_uring_sqe* sqe = &sqes_[pending_tail_ & sq_mask_];
    ++pending_tail_;
    ::memset(sqe, 0, sizeof *sqe);
    return sqe;
  }

  /// Publishes queued SQEs and waits for at least `wait_nr` completions or
  /// `timeout_ms` (0 = do not wait). Returns submitted count or -errno.
  int submit_and_wait(unsigned wait_nr, unsigned timeout_ms) {
    const unsigned tail = uring_detail::acquire(sq_tail_);
    const unsigned to_submit = pending_tail_ - tail;
    uring_detail::release(sq_tail_, pending_tail_);
    unsigned flags = 0;
    io_uring_getevents_arg arg = {};
    __kernel_timespec ts = {};
    const void* argp = nullptr;
    std::size_t argsz = 0;
    if (wait_nr > 0) {
      flags |= IORING_ENTER_GETEVENTS;
      if ((features_ & IORING_FEAT_EXT_ARG) != 0 && timeout_ms > 0) {
        ts.tv_sec = timeout_ms / 1000;
        ts.tv_nsec = static_cast<long long>(timeout_ms % 1000) * 1000000;
        arg.ts = reinterpret_cast<std::uint64_t>(&ts);
        argp = &arg;
        argsz = sizeof arg;
        flags |= IORING_ENTER_EXT_ARG;
      }
    }
    while (true) {
      const int r = uring_detail::sys_enter(ring_fd_, to_submit, wait_nr,
                                            flags, argp, argsz);
      if (r >= 0) return r;
      if (errno == EINTR) continue;
      if (errno == ETIME) return 0;  // timeout elapsed, nothing completed
      return -errno;
    }
  }

  /// Copies up to `max` ready CQEs into `out` and consumes them.
  unsigned reap(io_uring_cqe* out, unsigned max) {
    const unsigned tail = uring_detail::acquire(cq_tail_);
    unsigned head = *cq_head_;
    unsigned n = 0;
    while (head != tail && n < max) {
      out[n++] = cqes_[head & cq_mask_];
      ++head;
    }
    if (n > 0) uring_detail::release(cq_head_, head);
    return n;
  }

  /// Registers `n` fixed buffers for READ_FIXED/WRITE_FIXED by buf_index.
  bool register_buffers(const iovec* iov, unsigned n) {
    return uring_detail::sys_register(ring_fd_, IORING_REGISTER_BUFFERS, iov,
                                      n) == 0;
  }

  // ---- SQE prep helpers (subset the server loop uses) ---------------------

  static void prep_accept_multishot(io_uring_sqe* sqe, int fd,
                                    std::uint64_t user_data) {
    sqe->opcode = IORING_OP_ACCEPT;
    sqe->fd = fd;
    sqe->ioprio = IORING_ACCEPT_MULTISHOT;
    sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
    sqe->user_data = user_data;
  }

  static void prep_recv(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                        std::uint64_t user_data) {
    sqe->opcode = IORING_OP_RECV;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<std::uint64_t>(buf);
    sqe->len = len;
    sqe->user_data = user_data;
  }

  /// RECV through a registered fixed buffer (IORING_REGISTER_BUFFERS slot
  /// `buf_index`): the kernel reads into pre-pinned pages — no per-op page
  /// pinning, the "registered buffers for batched reads" leg of the plane.
  static void prep_read_fixed(io_uring_sqe* sqe, int fd, void* buf,
                              unsigned len, unsigned buf_index,
                              std::uint64_t user_data) {
    sqe->opcode = IORING_OP_READ_FIXED;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<std::uint64_t>(buf);
    sqe->len = len;
    sqe->buf_index = static_cast<std::uint16_t>(buf_index);
    sqe->user_data = user_data;
  }

  static void prep_send(io_uring_sqe* sqe, int fd, const void* buf,
                        unsigned len, std::uint64_t user_data) {
    sqe->opcode = IORING_OP_SEND;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<std::uint64_t>(buf);
    sqe->len = len;
    sqe->msg_flags = MSG_NOSIGNAL;
    sqe->user_data = user_data;
  }

  static void prep_read(io_uring_sqe* sqe, int fd, void* buf, unsigned len,
                        std::uint64_t user_data) {
    sqe->opcode = IORING_OP_READ;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<std::uint64_t>(buf);
    sqe->len = len;
    sqe->user_data = user_data;
  }

  /// Cancel every pending op whose user_data matches `target`.
  static void prep_cancel(io_uring_sqe* sqe, std::uint64_t target,
                          std::uint64_t user_data) {
    sqe->opcode = IORING_OP_ASYNC_CANCEL;
    sqe->fd = -1;
    sqe->addr = target;
    sqe->user_data = user_data;
  }

 private:
  int ring_fd_ = -1;
  unsigned features_ = 0;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  void* rings_ = nullptr;
  std::size_t rings_sz_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqes_sz_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
  /// Local (unpublished) SQ tail; published to *sq_tail_ on submit.
  unsigned pending_tail_ = 0;
};

/// One-shot probe: can this process create a ring with the features the
/// server plane needs? SINGLE_MMAP (checked by init), EXT_ARG — the worker
/// loop polls its stop flag on a timed wait, so a kernel without EXT_ARG
/// timeouts (< 5.11) falls back to epoll — and multishot accept (< 5.19
/// rejects the IORING_ACCEPT_MULTISHOT flag). The multishot check must be
/// functional: REGISTER_PROBE only reports opcodes, and IORING_OP_ACCEPT
/// itself predates the flag. So arm a multishot accept on a private loopback
/// listener nobody ever connects to: a supporting kernel parks the op (no
/// CQE); an older one rejects the flag while preparing the SQE, so its
/// -EINVAL CQE is already posted when the submit returns. No wait is needed
/// — waiting would only sit out the timeout on every supporting kernel.
inline bool io_uring_available() {
  Uring probe;
  if (!probe.init(8) || (probe.features() & IORING_FEAT_EXT_ARG) == 0)
    return false;
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
            ::listen(fd, 1) == 0;
  if (ok) {
    io_uring_sqe* sqe = probe.get_sqe();  // fresh 8-entry ring: never null
    ok = sqe != nullptr;
    if (ok) {
      Uring::prep_accept_multishot(sqe, fd, 1);
      probe.submit_and_wait(0, 0);
      io_uring_cqe cqe;
      if (probe.reap(&cqe, 1) == 1 && cqe.res < 0) ok = false;
    }
  }
  // destroy() (~Uring) tears the ring down before the fd closes, so the
  // parked accept never dangles.
  probe.destroy();
  ::close(fd);
  return ok;
}

}  // namespace upsl::server

#else
#define UPSL_HAVE_IOURING 0

namespace upsl::server {
inline bool io_uring_available() { return false; }
}  // namespace upsl::server

#endif  // __linux__ && <linux/io_uring.h>
