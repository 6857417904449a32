// net/tier_server — serves one serve::SharedTier over the memo wire
// protocol.
//
// The server owns the authoritative tier state (canonical snapshot order,
// per-shard occupancy, the dedup index) and handles the five request verbs
// byte-in/byte-out:
//
//   GET / GET_BATCH      value payloads by snapshot position
//   PUT                  fold one promotion batch; reply carries the
//                        PromotionOutcome and the post-fold tier stats
//   SNAPSHOT_EXPORT      the canonical snapshot (index-only or full) plus
//                        tier stats
//   SNAPSHOT_IMPORT      preload an EMPTY tier from a full snapshot
//                        (deployment handoff; decode-then-apply, so a
//                        truncated frame can never tear the tier)
//
// The server keeps no virtual clock: a SharedTier has none, and the stats
// block every PUT / export reply carries is the occupancy the client
// mirrors bit-exactly for the service's fabric charges.
//
// handle()/handle_frame() are mutex-serialized — fold order is whatever
// order requests arrive in, which the service already fixes (job-id order)
// before shipping. A request that fails to parse or execute produces an
// Error reply carrying the same request id; the connection stays usable.
//
// listen_and_serve() optionally serves the same handler over TCP on
// 127.0.0.1 (ephemeral port returned) with one handler thread per accepted
// connection — the socket backend of net/transport.hpp.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "serve/shared_tier.hpp"

namespace mlr::net {

class TierServer {
 public:
  explicit TierServer(serve::SharedTierConfig cfg);
  ~TierServer();

  TierServer(const TierServer&) = delete;
  TierServer& operator=(const TierServer&) = delete;

  /// Execute one decoded request; returns the reply payload. Throws
  /// WireError / std::exception on malformed or unservable requests —
  /// handle_frame() turns those into Error replies.
  std::vector<std::byte> handle(FrameType type,
                                std::span<const std::byte> payload);
  /// Byte-level entry point shared by the loopback and socket paths: one
  /// full request frame in, one full reply frame out (an Error frame when
  /// the request failed).
  std::vector<std::byte> handle_frame(std::span<const std::byte> frame);

  /// Start serving over TCP; returns the bound port. Defaults bind the
  /// loopback interface on an ephemeral port (the in-process test/bench
  /// setup); the standalone binary (examples/tier_server_main.cpp) passes a
  /// real host:port. `host` must be an IPv4 literal. Throws NetError when
  /// sockets are unavailable or the address does not bind.
  std::uint16_t listen_and_serve(const std::string& host = "127.0.0.1",
                                 std::uint16_t port = 0);
  void stop();

  [[nodiscard]] const serve::SharedTier& tier() const { return tier_; }

 private:
  void accept_loop();
  void serve_connection(int fd);

  serve::SharedTier tier_;
  std::mutex mu_;  ///< serializes handlers across connections

  // Socket serving state.
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex conn_mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace mlr::net
