#include "util/event_loop.h"

#include <cerrno>
#include <cstdint>

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace tta::util {

EventLoop::EventLoop() : wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void EventLoop::watch(int fd, bool read, bool write) {
  if (fd < 0) return;
  interest_[fd] = Interest{read, write};
}

void EventLoop::unwatch(int fd) { interest_.erase(fd); }

void EventLoop::wake() {
  if (wake_fd_ < 0) return;
  const int saved = errno;
  const std::uint64_t one = 1;
  // EAGAIN only when the counter is saturated — already rung, nothing lost.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  errno = saved;
}

int EventLoop::poll_once(int timeout_ms, const Handler& handler) {
  if (interest_.empty()) return 0;
  scratch_.clear();
  scratch_.reserve(interest_.size() + 1);
  scratch_.push_back(pollfd{wake_fd_, POLLIN, 0});  // fd -1 is skipped
  for (const auto& [fd, want] : interest_) {
    short events = 0;
    if (want.read) events |= POLLIN;
    if (want.write) events |= POLLOUT;
    // A zero-interest entry still rides along: POLLERR/POLLHUP are always
    // reported by poll(2), which is exactly what a muted listener or a
    // write-quiesced connection needs to learn its peer vanished.
    scratch_.push_back(pollfd{fd, events, 0});
  }

  const int rc = ::poll(scratch_.data(), scratch_.size(), timeout_ms);
  if (rc < 0) return errno == EINTR ? 0 : -1;
  if (rc == 0) return 0;

  if (scratch_[0].revents != 0) {
    // One read resets the counter: every ring so far collapses into this
    // round. A ring landing after the read re-arms the next round.
    std::uint64_t rings = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &rings, sizeof rings);
  }

  int dispatched = 0;
  for (std::size_t i = 1; i < scratch_.size(); ++i) {
    const pollfd& pfd = scratch_[i];
    if (pfd.revents == 0) continue;
    // A handler earlier this round may have unwatched (and closed) this
    // fd; its events are stale then and must not be delivered.
    if (interest_.count(pfd.fd) == 0) continue;
    Event ev;
    ev.fd = pfd.fd;
    ev.readable = (pfd.revents & POLLIN) != 0;
    ev.writable = (pfd.revents & POLLOUT) != 0;
    ev.broken = (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    if (ev.broken) ev.readable = true;  // drain the pending EOF/error
    handler(ev);
    ++dispatched;
  }
  return dispatched;
}

}  // namespace tta::util
