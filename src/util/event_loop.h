// Readiness multiplexer for the event-driven server: one poll(2) loop
// watching many fds from a single thread, replacing thread-per-connection
// serving (tools/tta_verifyd via svc::Server).
//
// Deliberately minimal — level-triggered poll(2) only, no epoll, no timer
// wheel, no callbacks stored inside the loop. The caller owns the fds and
// their lifecycles; the loop only answers "which of these are ready". That
// keeps it simple, allocation-free per round after the first, and
// trivially safe against the classic epoll lifetime bugs: an unwatch()ed
// fd can be closed immediately because the loop never retains it past the
// poll_once() that reported it.
//
// The one fd the loop owns is its doorbell: an eventfd that wake() rings
// from any thread (or a signal handler) and poll_once() drains. Work that
// completes off the loop thread — a worker concluding a job — rings it, so
// the owner can block in poll_once(-1) instead of ticking on a timeout to
// look for news. Rings coalesce: however many land before a round, that
// round wakes once, and a ring issued before poll_once() is never lost.
//
// Interest updates during dispatch are legal: a handler may watch() new
// fds (an accept handler registering the accepted connection) or unwatch()
// any fd, including ones with undelivered events this round — the loop
// re-checks registration before every dispatch, so events for a dropped fd
// are discarded, never delivered stale.
#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

struct pollfd;

namespace tta::util {

class EventLoop {
 public:
  /// One ready fd, as reported by a poll_once() round.
  struct Event {
    int fd = -1;
    bool readable = false;  ///< POLLIN: read/accept will not block
    bool writable = false;  ///< POLLOUT: send will accept bytes
    /// POLLERR / POLLHUP / POLLNVAL: the fd needs attention regardless of
    /// the requested interest (a hung-up peer is reported even when only
    /// writes were watched). Readable is also set so a draining reader
    /// naturally observes the pending EOF/error via recv.
    bool broken = false;
  };

  using Handler = std::function<void(const Event&)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` or updates its interest set. Watching with both flags
  /// false keeps the fd registered but dormant — the accept-backoff window
  /// uses this to mute the listener without forgetting it.
  void watch(int fd, bool read, bool write);

  /// Drops `fd` from the loop. Safe during dispatch (see header comment)
  /// and on fds that were never watched.
  void unwatch(int fd);

  bool watching(int fd) const { return interest_.count(fd) != 0; }
  std::size_t size() const { return interest_.size(); }

  /// Rings the doorbell: the current (or next) poll_once() returns without
  /// waiting out its timeout. Thread-safe and async-signal-safe (one
  /// write(2) on the eventfd; errno is preserved).
  void wake();

  /// False if the doorbell eventfd could not be created (descriptor
  /// exhaustion at construction); wake() is then a no-op.
  bool wakeable() const { return wake_fd_ >= 0; }

  /// One poll(2) round: waits at most `timeout_ms` (-1 = no limit) for
  /// readiness or a wake(), then invokes `handler` once per ready watched
  /// fd. The doorbell is drained here and never reaches the handler.
  /// Returns the number of events dispatched; 0 on timeout, on a wake with
  /// no fd ready, AND on EINTR (so a signal-driven stop flag is re-checked
  /// at the top of the caller's loop, never wedged); -1 on a poll failure
  /// other than EINTR. A loop with no watched fds returns 0 at once,
  /// leaving any pending ring for the next round.
  int poll_once(int timeout_ms, const Handler& handler);

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  int wake_fd_ = -1;  ///< eventfd doorbell, slot 0 of every poll round
  std::unordered_map<int, Interest> interest_;
  std::vector<struct ::pollfd> scratch_;  ///< rebuilt each round, capacity kept
};

}  // namespace tta::util
