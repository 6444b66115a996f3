// Verification server: the tta_verify_batch --stream JSON-lines protocol
// served over a loopback TCP socket (docs/SERVICE.md).
//
// This binary is a thin main() over svc::Server — flag parsing is
// svc::ServerConfig::from_args, the event loop, multi-tenant quota gate,
// and weighted-fair dispatch all live in src/svc/server.{h,cpp}. One
// process hosts one svc::AsyncService; every accepted connection gets its
// own svc::Session, and a single poll(2) loop serves them all from one
// thread, so thousands of idle or slow clients cost fds and buffers, not
// threads.
//
// Lifecycle contract (unchanged from the thread-per-connection server):
//   - client half-close means "no more requests": the session finishes
//     every pending job, streams the answers, then the server closes;
//   - abrupt disconnect mid-stream drains the session and discards the
//     answers — counted in Metrics::net_drains, conclusive verdicts still
//     land in the caches for the client's retry;
//   - SIGTERM / SIGINT close the listener and drain every connection:
//     queued jobs come back as explicit rejection rows, buffered results
//     are flushed to their clients (all of them within one
//     --drain-timeout-ms deadline), then the process exits 0 with a final
//     metrics dump on stdout (the kill-9 recovery step in CI greps it).
//
//   ./tta_verifyd --port=0 --port-file=port.txt --workers=4
//       --cache-dir=cache/ --retries=2 --tenant=batch:3:64:100000000
//
// --port=0 (the default) binds an ephemeral port; the actually-bound port
// is printed on stdout and, with --port-file, written atomically (tmp +
// rename) so scripts can wait for the file instead of parsing logs.
#include <csignal>
#include <cstdio>

#include <string>

#include "svc/server.h"
#include "util/fail_point.h"

using namespace tta;

namespace {

svc::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  svc::ServerConfig config;
  std::string error;
  if (!config.from_args(argc, argv, &error)) {
    std::fprintf(stderr, "tta_verifyd: %s\n%s", error.c_str(),
                 svc::ServerConfig::usage());
    return 2;
  }

  svc::Server server(std::move(config));

  // SIGTERM/SIGINT request the drain-then-exit path; SIGPIPE must never
  // kill the process (writes use MSG_NOSIGNAL, this is belt-and-braces).
  g_server = &server;
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  if (!server.start(&error)) {
    std::fprintf(stderr, "tta_verifyd: %s\n", error.c_str());
    return 2;
  }
  server.run();

  std::printf("tta_verifyd: drained %zu connection(s), exiting\n",
              server.drained_connections());
  std::printf("%s", server.metrics().dump().c_str());
  // Per-tenant admission rows (run() has returned, so the loop-thread
  // gauges are quiescent and safe to read here).
  std::printf("%s", server.tenant_metrics_dump().c_str());
  // Chaos observability: when TTA_FAILPOINTS armed anything, show what
  // actually fired so a chaos log explains its own metric deltas.
  std::printf("%s", util::FailPoints::instance().render().c_str());
  return 0;
}
