// net/request_table — the in-flight request table of the memo transport.
//
// Mirrors the pending-reply table of a production block-service dispatch
// loop: every outbound request gets a monotonically increasing id and a
// slot; the reply reader completes slots in whatever order replies arrive
// (out-of-order is fine — the id keys the slot, not the position); waiters
// block on their slot with a timeout.
//
// Failure contract (one regime; Transport::set_retry only sizes the
// reconnect budget above it):
//
//   * A waiter timeout fails only its own slot, with a RetryableError (the
//     reply is late or lost; read-class verbs may re-issue), counted in
//     net.table.timeouts.
//   * A reply for an issued id whose slot is already released or done (a
//     late reply after a timeout, a replay's duplicate) is dropped and
//     counted in net.table.stale_replies.
//   * A reply for an id never issued (0, or at or past the next id) is a
//     protocol violation: the peer is desynchronized, so the table breaks.
//   * fail_all is the sticky floor: the transport calls it for malformed
//     reply frames and once a carrier fault exhausts its reconnect budget
//     (zero attempts when net_retry_max is 0). Every in-flight and future
//     request then surfaces the first error as a NetError, never a hang.
//   * A per-request server error (Error reply frame) fails only its slot.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace mlr::net {

/// Transport failure surfaced to the caller (sticky once raised via
/// fail_all; per-request otherwise).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A transiently failed request: the transport is (or may be) healthy
/// again, only this request's outcome was lost. Safe to handle at a level
/// that knows the verb's idempotency — read verbs re-issue, at-most-once
/// verbs (PUT / SNAPSHOT_IMPORT) surface it to the caller.
class RetryableError : public NetError {
 public:
  using NetError::NetError;
};

class RequestTable {
 public:
  /// Next request id (monotonically increasing from 1; 0 is never issued).
  u64 next_id();
  /// Register an in-flight slot for `id` before the frame is sent, so a
  /// reply can never race the registration. Throws NetError when broken.
  void expect(u64 id);
  /// Complete `id` with its reply payload. A reply to a released or done
  /// slot is dropped and counted as stale; a reply to an id never issued
  /// breaks the table (protocol violation).
  void complete(u64 id, std::vector<std::byte> payload);
  /// Fail `id` alone (per-request failure). Unknown ids are ignored.
  /// `retryable` marks the failure transient: wait() throws RetryableError.
  void fail(u64 id, const std::string& error, bool retryable = false);
  /// Break the table: every in-flight and future request fails with
  /// `error`. Idempotent (the first error wins — it is the root cause).
  void fail_all(const std::string& error);
  /// Drop `id`'s slot if its waiter will never run (send-side throw after
  /// expect). Unknown ids are ignored.
  void forget(u64 id);

  /// Block until `id` completes; returns the reply payload and releases the
  /// slot. Throws RetryableError on a retryable per-request failure or after
  /// `timeout_s` seconds (only this slot fails; a late reply is stale),
  /// NetError on any other failure or a broken table.
  std::vector<std::byte> wait(u64 id, double timeout_s);

  [[nodiscard]] bool broken() const;
  [[nodiscard]] std::string error() const;
  [[nodiscard]] std::size_t in_flight() const;
  /// Slot registered and still awaiting its reply?
  [[nodiscard]] bool pending(u64 id) const;

 private:
  struct Slot {
    bool done = false;
    bool failed = false;
    bool retryable = false;
    std::vector<std::byte> payload;
    std::string error;
  };
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<u64, Slot> slots_;
  u64 next_ = 1;
  bool broken_ = false;
  std::string sticky_;
};

}  // namespace mlr::net
