// util::EventLoop contract tests (tests/util_event_loop_test.cpp): the
// readiness semantics svc::Server leans on — level-triggered interest
// updates, dormant registrations that still surface broken peers (the
// accept-backoff mute), stale-event discard when a handler unwatches a
// sibling fd mid-dispatch, EINTR reported as a quiet zero so a
// signal-driven stop flag is re-checked instead of wedging the loop, and
// the wake() doorbell that lets the server block without a tick.
#include "util/event_loop.h"

#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>  // completes ::pollfd for the EventLoop scratch vector
#include <sys/socket.h>
#include <unistd.h>

namespace tta::util {
namespace {

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    if (read_fd >= 0) close(read_fd);
    if (write_fd >= 0) close(write_fd);
  }
  void put(char byte) { EXPECT_EQ(write(write_fd, &byte, 1), 1); }
};

TEST(EventLoop, ReportsReadableOnlyOncePendingBytesExist) {
  Pipe pipe;
  EventLoop loop;
  loop.watch(pipe.read_fd, /*read=*/true, /*write=*/false);
  EXPECT_TRUE(loop.watching(pipe.read_fd));
  EXPECT_EQ(loop.size(), 1u);

  EXPECT_EQ(loop.poll_once(0, [](const EventLoop::Event&) { FAIL(); }), 0);

  pipe.put('x');
  EventLoop::Event seen;
  EXPECT_EQ(loop.poll_once(1'000,
                           [&](const EventLoop::Event& ev) { seen = ev; }),
            1);
  EXPECT_EQ(seen.fd, pipe.read_fd);
  EXPECT_TRUE(seen.readable);
  EXPECT_FALSE(seen.writable);
  EXPECT_FALSE(seen.broken);
}

TEST(EventLoop, ReportsWritableWhenAskedAndEmptyLoopReturnsImmediately) {
  EventLoop loop;
  // No fds registered: poll_once must not sleep out the timeout.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(loop.poll_once(5'000, [](const EventLoop::Event&) { FAIL(); }),
            0);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));

  Pipe pipe;
  loop.watch(pipe.write_fd, /*read=*/false, /*write=*/true);
  EventLoop::Event seen;
  EXPECT_EQ(loop.poll_once(1'000,
                           [&](const EventLoop::Event& ev) { seen = ev; }),
            1);
  EXPECT_EQ(seen.fd, pipe.write_fd);
  EXPECT_TRUE(seen.writable);
}

// Interest is an update, not an accumulation: re-watching with both flags
// false keeps the fd registered but silences its readiness — the server
// mutes its listener this way during accept backoff without forgetting it.
TEST(EventLoop, DormantRegistrationSilencesReadinessButKeepsTheFd) {
  Pipe pipe;
  pipe.put('x');
  EventLoop loop;
  loop.watch(pipe.read_fd, /*read=*/true, /*write=*/false);
  EXPECT_EQ(loop.poll_once(1'000, [](const EventLoop::Event&) {}), 1);

  loop.watch(pipe.read_fd, /*read=*/false, /*write=*/false);
  EXPECT_TRUE(loop.watching(pipe.read_fd));
  EXPECT_EQ(loop.poll_once(0, [](const EventLoop::Event&) { FAIL(); }), 0);

  // Un-muting sees the same level-triggered byte again.
  loop.watch(pipe.read_fd, /*read=*/true, /*write=*/false);
  EXPECT_EQ(loop.poll_once(1'000, [](const EventLoop::Event&) {}), 1);

  loop.unwatch(pipe.read_fd);
  EXPECT_FALSE(loop.watching(pipe.read_fd));
  EXPECT_EQ(loop.size(), 0u);
  EXPECT_EQ(loop.poll_once(0, [](const EventLoop::Event&) { FAIL(); }), 0);
}

// POLLHUP is delivered regardless of the requested event set, so even a
// dormant fd learns its peer vanished — and the event arrives with
// readable set so the owner drains the pending EOF through recv.
TEST(EventLoop, DormantFdStillReportsBrokenPeer) {
  int pair[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EventLoop loop;
  loop.watch(pair[0], /*read=*/false, /*write=*/false);
  EXPECT_EQ(loop.poll_once(0, [](const EventLoop::Event&) { FAIL(); }), 0);

  close(pair[1]);
  EventLoop::Event seen;
  EXPECT_EQ(loop.poll_once(1'000,
                           [&](const EventLoop::Event& ev) { seen = ev; }),
            1);
  EXPECT_EQ(seen.fd, pair[0]);
  EXPECT_TRUE(seen.broken);
  EXPECT_TRUE(seen.readable);
  close(pair[0]);
}

// A handler may unwatch any fd, including one with an undelivered event in
// the same round; the loop must discard that stale event instead of
// handing out a ready fd the handler already closed.
TEST(EventLoop, UnwatchDuringDispatchDiscardsTheSiblingsStaleEvent) {
  Pipe a;
  Pipe b;
  a.put('x');
  b.put('x');
  EventLoop loop;
  loop.watch(a.read_fd, /*read=*/true, /*write=*/false);
  loop.watch(b.read_fd, /*read=*/true, /*write=*/false);

  std::set<int> handled;
  const int dispatched =
      loop.poll_once(1'000, [&](const EventLoop::Event& ev) {
        handled.insert(ev.fd);
        // Drop the *other* fd on the first dispatch of the round.
        loop.unwatch(ev.fd == a.read_fd ? b.read_fd : a.read_fd);
      });
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(handled.size(), 1u);
  EXPECT_EQ(loop.size(), 1u);
}

// poll(2) returns EINTR when a signal lands mid-wait; the loop reports
// that as 0 dispatched events (not -1) so the caller's stop flag gets
// re-checked instead of the loop treating a signal as a failure.
TEST(EventLoop, SignalInterruptionReportsZeroNotFailure) {
  struct sigaction action = {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll must observe EINTR
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  Pipe quiet;
  EventLoop loop;
  loop.watch(quiet.read_fd, /*read=*/true, /*write=*/false);

  int result = -2;
  std::chrono::steady_clock::duration waited{};
  std::thread poller([&] {
    const auto start = std::chrono::steady_clock::now();
    result =
        loop.poll_once(30'000, [](const EventLoop::Event&) { FAIL(); });
    waited = std::chrono::steady_clock::now() - start;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  pthread_kill(poller.native_handle(), SIGUSR1);
  poller.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_EQ(result, 0);
  EXPECT_LT(waited, std::chrono::seconds(10));
}

using Clock = std::chrono::steady_clock;

// The doorbell tests watch one quiet pipe so poll_once has something to
// block on (an empty loop returns at once by contract).

TEST(EventLoop, WakeFromAnotherThreadEndsAnUnboundedPoll) {
  Pipe quiet;
  EventLoop loop;
  ASSERT_TRUE(loop.wakeable());
  loop.watch(quiet.read_fd, /*read=*/true, /*write=*/false);

  std::thread waker([&loop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.wake();
  });
  const auto start = Clock::now();
  EXPECT_EQ(loop.poll_once(-1, [](const EventLoop::Event&) { FAIL(); }), 0);
  const auto waited = Clock::now() - start;
  waker.join();
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(EventLoop, WakeBeforePollIsNotLost) {
  Pipe quiet;
  EventLoop loop;
  loop.watch(quiet.read_fd, /*read=*/true, /*write=*/false);

  loop.wake();
  const auto start = Clock::now();
  EXPECT_EQ(loop.poll_once(30'000, [](const EventLoop::Event&) { FAIL(); }),
            0);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(10));
}

// Rings coalesce: one round consumes every ring issued before it, so the
// next round waits out its full timeout instead of waking again.
TEST(EventLoop, ManyWakesCoalesceIntoOneRound) {
  Pipe quiet;
  EventLoop loop;
  loop.watch(quiet.read_fd, /*read=*/true, /*write=*/false);

  std::vector<std::thread> wakers;
  for (int t = 0; t < 4; ++t) {
    wakers.emplace_back([&loop] {
      for (int i = 0; i < 250; ++i) loop.wake();
    });
  }
  for (std::thread& t : wakers) t.join();

  EXPECT_EQ(loop.poll_once(30'000, [](const EventLoop::Event&) { FAIL(); }),
            0);
  const auto start = Clock::now();
  EXPECT_EQ(loop.poll_once(200, [](const EventLoop::Event&) { FAIL(); }), 0);
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(150));
}

// The doorbell is the loop's own fd: it never reaches the handler, whether
// it rings alone or alongside a ready watched fd.
TEST(EventLoop, DoorbellNeverReachesTheHandler) {
  Pipe quiet;
  Pipe busy;
  EventLoop loop;
  loop.watch(quiet.read_fd, /*read=*/true, /*write=*/false);

  loop.wake();
  EXPECT_EQ(loop.poll_once(1'000, [](const EventLoop::Event&) { FAIL(); }),
            0);

  loop.watch(busy.read_fd, /*read=*/true, /*write=*/false);
  busy.put('x');
  loop.wake();
  std::set<int> handled;
  EXPECT_EQ(loop.poll_once(1'000,
                           [&](const EventLoop::Event& ev) {
                             handled.insert(ev.fd);
                           }),
            1);
  EXPECT_EQ(handled, std::set<int>{busy.read_fd});
}

}  // namespace
}  // namespace tta::util
