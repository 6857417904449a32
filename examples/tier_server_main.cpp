// tier_server_main — a standalone shared-memo tier server speaking the memo
// wire protocol over TCP (the deployment shape of net/tier_server.hpp: one
// long-lived tier process, many ReconService clients connecting with
// `--transport socket`).
//
//   ./tier_server_main [host:]port [shards] [max_entries]
//     host:port    IPv4 literal + port to bind (default 127.0.0.1; port 0
//                  picks an ephemeral port, printed once bound)
//     shards       memory-node shard count of the tier (default 1)
//     max_entries  tier capacity before cap drops (default 1<<20)
//
// Runs until stdin closes or SIGINT/SIGTERM, then stops the acceptor and
// dumps the obs metrics registry (per-verb frame/byte/handle-time
// instruments, "net.server.*") as JSON on stdout — the same snapshot shape
// the benches embed, so a served session can be profiled from either side
// of the wire.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/tier_server.hpp"
#include "obs/metrics.hpp"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  if (argc > 1) {
    std::string addr = argv[1];
    const auto colon = addr.rfind(':');
    if (colon != std::string::npos) {
      host = addr.substr(0, colon);
      addr = addr.substr(colon + 1);
    }
    port = std::uint16_t(std::atoi(addr.c_str()));
  }
  mlr::serve::SharedTierConfig cfg;
  if (argc > 2) cfg.shard_count = std::max(1, std::atoi(argv[2]));
  if (argc > 3) cfg.max_entries = std::size_t(std::atoll(argv[3]));

  mlr::net::TierServer server(cfg);
  std::uint16_t bound = 0;
  try {
    bound = server.listen_and_serve(host, port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tier_server: %s\n", e.what());
    return 1;
  }
  std::printf("tier server listening on %s:%u (%d shard(s), capacity %zu)\n",
              host.c_str(), unsigned(bound), cfg.shard_count, cfg.max_entries);
  std::printf("stop with Ctrl-C or by closing stdin\n");
  std::fflush(stdout);

  // No SA_RESTART: a signal must interrupt the blocking stdin read below so
  // Ctrl-C falls through to the shutdown path instead of restarting it.
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // A client vanishing mid-reply is that connection's problem (send fails
  // with EPIPE and the handler drops it), never a reason to kill the tier.
  std::signal(SIGPIPE, SIG_IGN);

  char buf[256];
  while (g_stop == 0) {
    const ssize_t r = read(STDIN_FILENO, buf, sizeof buf);
    if (r <= 0) break;  // EOF, or EINTR from a handled signal
  }

  server.stop();
  std::printf("\nnet metrics snapshot (%zu tier entries at shutdown):\n",
              server.tier().size());
  std::printf("%s\n", mlr::obs::metrics().snapshot().to_json().c_str());
  return 0;
}

