#include "src/transport/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "src/common/logging.h"

namespace aud {

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

}  // namespace

EventLoop::EventLoop(EventLoopOptions options) : options_(options) {
#ifdef __linux__
  use_epoll_ = options_.backend != EventLoopOptions::Backend::kPoll;
#else
  use_epoll_ = false;
#endif
}

EventLoop::~EventLoop() {
  Stop();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
  for (int fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

bool EventLoop::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return true;
  }
  if (::pipe(wake_fds_) != 0) {
    LogLine(LogLevel::kWarning) << "event loop: pipe() failed";
    return false;
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);
  ::fcntl(wake_fds_[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(wake_fds_[1], F_SETFD, FD_CLOEXEC);
#ifdef __linux__
  if (use_epoll_) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      LogLine(LogLevel::kWarning) << "event loop: epoll_create1 failed";
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fds_[0];
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev);
  }
#endif
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  Wakeup();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void EventLoop::Wakeup() {
  if (wake_fds_[1] >= 0) {
    // A full pipe already guarantees a pending wakeup, so EAGAIN is fine.
    uint8_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &one, 1);
  }
}

void EventLoop::Add(int fd, Handler handler) {
  Op op{Op::Kind::kAdd, fd, false,
        std::make_shared<Handler>(std::move(handler))};
  if (OnLoopThread()) {
    ApplyOp(std::move(op));
    return;
  }
  {
    MutexLock lock(&mu_);
    pending_.push_back(std::move(op));
  }
  Wakeup();
}

void EventLoop::Remove(int fd) {
  Op op{Op::Kind::kRemove, fd, false, nullptr};
  if (OnLoopThread()) {
    ApplyOp(std::move(op));
    return;
  }
  {
    MutexLock lock(&mu_);
    pending_.push_back(std::move(op));
  }
  Wakeup();
}

void EventLoop::SetWantWrite(int fd, bool want) {
  Op op{Op::Kind::kWantWrite, fd, want, nullptr};
  if (OnLoopThread()) {
    ApplyOp(std::move(op));
    return;
  }
  {
    MutexLock lock(&mu_);
    pending_.push_back(std::move(op));
  }
  Wakeup();
}

void EventLoop::ApplyPending() {
  std::vector<Op> ops;
  {
    MutexLock lock(&mu_);
    ops.swap(pending_);
  }
  for (Op& op : ops) {
    ApplyOp(std::move(op));
  }
}

void EventLoop::ApplyOp(Op op) {
  switch (op.kind) {
    case Op::Kind::kAdd: {
      Watch& watch = watches_[op.fd];
      const bool fresh = watch.handler == nullptr;
      watch.handler = std::move(op.handler);
      watch.want_write = false;
      SyncBackend(op.fd, watch, /*add=*/fresh);
      if (fresh && options_.metrics.fds_watched != nullptr) {
        options_.metrics.fds_watched->Add(1);
      }
      break;
    }
    case Op::Kind::kRemove: {
      auto it = watches_.find(op.fd);
      if (it == watches_.end()) {
        break;
      }
      watches_.erase(it);
#ifdef __linux__
      if (use_epoll_) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, op.fd, nullptr);
      }
#endif
      if (options_.metrics.fds_watched != nullptr) {
        options_.metrics.fds_watched->Sub(1);
      }
      break;
    }
    case Op::Kind::kWantWrite: {
      auto it = watches_.find(op.fd);
      if (it == watches_.end() || it->second.want_write == op.want_write) {
        break;
      }
      it->second.want_write = op.want_write;
      SyncBackend(op.fd, it->second, /*add=*/false);
      break;
    }
  }
}

void EventLoop::SyncBackend(int fd, const Watch& watch, bool add) {
#ifdef __linux__
  if (use_epoll_) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (watch.want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev) !=
            0 &&
        add && errno == EEXIST) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    }
    return;
  }
#endif
  // The poll backend rebuilds its pollfd set each round from watches_, so
  // there is nothing to sync eagerly.
  (void)fd;
  (void)watch;
  (void)add;
}

void EventLoop::Run() {
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  while (running_.load(std::memory_order_acquire)) {
    ApplyPending();
    WaitAndDispatch();
    if (sweep_) {
      sweep_();
    }
  }
}

void EventLoop::WaitAndDispatch() {
  const int timeout_ms = static_cast<int>(options_.wait_timeout_ms);
#ifdef __linux__
  if (use_epoll_) {
    epoll_event events[64];
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (options_.metrics.epoll_waits != nullptr) {
      options_.metrics.epoll_waits->Increment();
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fds_[0]) {
        DrainWakePipe();
        continue;
      }
      uint32_t bits = 0;
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        bits |= kLoopReadable;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        bits |= kLoopWritable;
      }
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        bits |= kLoopError;
      }
      DispatchEvent(fd, bits);
    }
    return;
  }
#endif
  std::vector<pollfd> fds;
  fds.reserve(watches_.size() + 1);
  fds.push_back({wake_fds_[0], POLLIN, 0});
  for (const auto& [fd, watch] : watches_) {
    fds.push_back(
        {fd, static_cast<short>(POLLIN | (watch.want_write ? POLLOUT : 0)), 0});
  }
  int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (options_.metrics.epoll_waits != nullptr) {
    options_.metrics.epoll_waits->Increment();
  }
  if (n <= 0) {
    return;
  }
  for (const pollfd& p : fds) {
    if (p.revents == 0) {
      continue;
    }
    if (p.fd == wake_fds_[0]) {
      DrainWakePipe();
      continue;
    }
    uint32_t bits = 0;
    // POLLIN alone suffices for EOF detection: a closed peer is readable
    // and the read returns 0. (POLLRDHUP is Linux-only.)
    if ((p.revents & POLLIN) != 0) {
      bits |= kLoopReadable;
    }
    if ((p.revents & POLLOUT) != 0) {
      bits |= kLoopWritable;
    }
    if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      bits |= kLoopError;
    }
    DispatchEvent(p.fd, bits);
  }
}

void EventLoop::DispatchEvent(int fd, uint32_t events) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) {
    // Readiness outlived the registration (removed by an earlier handler
    // this round, or a cross-thread Remove landed first).
    if (options_.metrics.readiness_spurious != nullptr) {
      options_.metrics.readiness_spurious->Increment();
    }
    return;
  }
  // Keep the function alive across the call even if it removes itself.
  std::shared_ptr<Handler> handler = it->second.handler;
  const auto t0 = std::chrono::steady_clock::now();
  handler_fd_ = fd;
  (*handler)(events);
  handler_fd_ = -1;
  if (options_.metrics.dispatch_us != nullptr) {
    options_.metrics.dispatch_us->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
}

void EventLoop::DrainWakePipe() {
  uint8_t buf[256];
  size_t drained = 0;
  while (true) {
    ssize_t n = ::read(wake_fds_[0], buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    drained += static_cast<size_t>(n);
  }
  if (options_.metrics.wakeups != nullptr && drained > 0) {
    options_.metrics.wakeups->Increment();
  }
  if (options_.metrics.readiness_spurious != nullptr && drained == 0) {
    options_.metrics.readiness_spurious->Increment();
  }
}

}  // namespace aud
