// net/transport — how request frames reach a TierServer and replies come
// back.
//
// A Transport owns the in-flight RequestTable and moves whole frames; the
// TierClient above it speaks the verbs. Two backends:
//
//   * LoopbackTransport — deterministic in-process backend (CI and the
//     determinism matrix). Each frame's bytes walk through
//     TierServer::handle_frame and the reply bytes come back through the
//     same decode path the socket reader uses — frames are byte-identical
//     to the socket path, only the carrier differs. Replies complete
//     synchronously (wall clock only; the virtual clock never sees a
//     transport — the service charges its fabric from tier occupancy, see
//     serve/shared_tier.hpp). Fault injection hooks simulate a truncated
//     reply, a dropped reply, held-back (reordered) delivery, and — for the
//     reconnect ladder — a scripted carrier loss (disconnect after N more
//     frames, or on the first PUT) whose reopen succeeds only after K
//     failed attempts, so every recovery path is testable without a real
//     socket.
//
//   * SocketTransport — per-shard TCP connections to a TierServer on
//     localhost (or any host): one writer mutex per connection (frames
//     never interleave), one reply-reader thread per connection that
//     completes the request table in arrival order.
//
// Fault handling is shared by both backends and has one regime. send()
// records every request frame in flight: the encoded bytes of a
// *read-class* verb (GET / GET_BATCH / SNAPSHOT_EXPORT — their replies are
// byte-for-byte idempotent, so a re-issue is indistinguishable from the
// original), just the membership of an at-most-once verb (PUT /
// SNAPSHOT_IMPORT). On a carrier fault — connect failure, write failure,
// short read, EOF mid-frame, unparseable header — recover_channel() runs the
// ladder: fail the channel's in-flight at-most-once requests retryably
// (their frame may be lost and must not be re-sent; callers get
// RetryableError), then make up to RetrySpec::retry_max reopen attempts with
// bounded exponential backoff (backoff_ms · 2^k, capped) and re-issue the
// recorded read-class frames in id order. An exhausted budget — at once,
// for a budget of 0 — breaks the table (RequestTable::fail_all): every
// in-flight and future request surfaces one sticky NetError instead of
// hanging. Counted: net.client.reconnects / replays / reconnect_failures
// and the net.client.recovery_s histogram, plus a net.reconnect trace span
// per recovery.
//
// Channel = connection index. The TierClient routes GET/GET_BATCH by shard
// (channel = shard) so value fetches ride per-shard connections; verbs that
// touch the whole tier (PUT, snapshots) ride channel 0.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/request_table.hpp"
#include "net/wire.hpp"

namespace mlr::net {

class TierServer;

/// Reconnect budget of a transport (plumbed from ServiceConfig's
/// net_retry_max / net_backoff_ms): up to `retry_max` reopen attempts per
/// fault, sleeping backoff_ms · 2^attempt (capped at 32×) between attempts.
/// retry_max == 0 makes no attempt: the first carrier fault breaks the
/// table. It also bounds TierClient's re-issues of a timed-out GET_BATCH.
struct RetrySpec {
  int retry_max = 0;
  double backoff_ms = 10.0;
};

/// Read-class verbs: byte-for-byte idempotent replies (asserted by the
/// replay-equivalence test), safe to re-issue after a reconnect. PUT and
/// SNAPSHOT_IMPORT mutate the tier and stay at-most-once.
[[nodiscard]] constexpr bool replayable_verb(FrameType t) {
  return t == FrameType::Get || t == FrameType::GetBatch ||
         t == FrameType::SnapshotExport;
}

/// Internal carrier fault raised by write_frame (connection died mid-write,
/// scripted loopback disconnect). Never escapes Transport::send — it is
/// translated into recovery, RetryableError or the sticky NetError.
class TransportFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Transport {
 public:
  virtual ~Transport();
  /// Send one request frame on `channel`. The reply lands in table() —
  /// synchronously for loopback, from the reader thread for sockets. A
  /// carrier fault runs the recovery ladder; once its budget is exhausted
  /// the table is broken and send throws the sticky NetError.
  void send(int channel, FrameType type, u64 request_id,
            std::span<const std::byte> payload);
  [[nodiscard]] virtual int channels() const = 0;
  /// One human-readable word for stats/JSON ("loopback", "socket").
  [[nodiscard]] virtual const char* name() const = 0;

  /// Install the reconnect budget. Call before any traffic.
  void set_retry(RetrySpec spec);
  [[nodiscard]] const RetrySpec& retry() const { return retry_; }

  [[nodiscard]] RequestTable& table() { return table_; }
  [[nodiscard]] u64 frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Successful channel recoveries / frames re-issued by them.
  [[nodiscard]] u64 reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 replays() const {
    return replays_.load(std::memory_order_relaxed);
  }

 protected:
  Transport() = default;

  /// Deliver one encoded request frame on `channel`, or throw
  /// TransportFault if the carrier failed (without touching the table —
  /// send()/recover_channel own the consequences). `type` is the frame's
  /// verb (already encoded inside `frame`; passed for fault scripts).
  virtual void write_frame(int channel, FrameType type,
                           const std::vector<std::byte>& frame) = 0;
  /// Re-establish `channel`'s carrier after a fault; false = not possible
  /// (yet). Default: no reconnect support.
  virtual bool reopen(int channel) { return false; }
  /// Called once per successful recovery, after the generation bump and
  /// before the replay (sockets start the new reply reader here).
  virtual void on_recovered(int channel) {}
  /// True when one carrier fault downs every channel at once (loopback's
  /// in-process "connection" is shared); recovery then reopens, fails and
  /// replays across all channels.
  [[nodiscard]] virtual bool channels_share_fate() const { return false; }

  /// Carrier generation of `channel` — bumped by every successful recovery.
  /// Fault reporters capture it before the faulting operation so racing
  /// reports of the same fault coalesce into one recovery.
  [[nodiscard]] u64 generation(int channel) const;

  /// The recovery ladder (see the header comment). `gen_seen` is the
  /// generation the caller observed before the fault; a stale generation
  /// means another thread already recovered (returns true immediately
  /// unless the table broke meanwhile). Returns false — after fail_all —
  /// when the budget is exhausted (at once for a budget of 0).
  bool recover_channel(int channel, u64 gen_seen, const std::string& why);

  /// Route one received reply frame into the table — the ONE reply path
  /// both backends share: decode the header, then complete/fail the slot
  /// (Error frames fail their own request; undecodable bytes are the
  /// caller's fault to escalate). Prunes the in-flight frame record.
  void route_reply(std::span<const std::byte> frame);

  RequestTable table_;
  std::atomic<u64> frames_sent_{0};
  std::atomic<u64> bytes_sent_{0};
  std::atomic<u64> reconnects_{0};
  std::atomic<u64> replays_{0};

 private:
  /// One in-flight request the recovery ladder may need to act on: the
  /// frame bytes for read-class verbs (re-issued after reconnect), just the
  /// membership for at-most-once verbs (failed retryably on a fault).
  struct PendingFrame {
    int channel = 0;
    FrameType type{};
    u64 sent_gen = u64(-1);         ///< generation it last went out on
    std::vector<std::byte> frame;   ///< empty for at-most-once verbs
  };

  RetrySpec retry_{};
  mutable std::mutex stash_mu_;     ///< guards stash_ + gens_
  std::map<u64, PendingFrame> stash_;  ///< id-ordered (replay order)
  std::vector<u64> gens_;
  std::mutex rec_mu_;               ///< serializes recoveries
};

/// Deterministic in-memory backend over an in-process TierServer.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(TierServer* server, int channels);

  [[nodiscard]] int channels() const override { return channels_; }
  [[nodiscard]] const char* name() const override { return "loopback"; }

  // --- Fault injection (tests) ----------------------------------------------
  /// Deliver only the first `n` bytes of every subsequent reply frame.
  void fault_truncate_replies(std::size_t n) { truncate_at_ = i64(n); }
  /// Silently drop the next `n` replies, then deliver normally (their
  /// waiters hit the per-request timeout).
  void fault_drop_next(int n) { drop_next_ = n; }
  /// Hold replies instead of delivering; deliver_held() releases them.
  void fault_hold_replies(bool on) { hold_ = on; }
  /// Deliver held replies, optionally in reverse (out-of-order) order.
  void deliver_held(bool reverse);
  /// Scripted carrier loss: after `n` more delivered frames the carrier
  /// drops — the (n+1)-th frame is LOST and every send faults until a
  /// reopen succeeds. 0 = the very next frame.
  void fault_disconnect_after(i64 n) { disconnect_in_ = n; }
  /// Scripted carrier loss keyed on verb instead of count: the first PUT
  /// request drops the carrier (and is lost) — deterministic regardless of
  /// how many reads preceded it.
  void fault_disconnect_on_put(bool on) { disconnect_on_put_ = on; }
  /// The next `k` reopen attempts fail before one succeeds (pass a huge `k`
  /// for "never reconnects"). Default: the first reopen succeeds.
  void fault_reconnect_after(i64 k) { reconnect_after_ = k; }
  [[nodiscard]] bool carrier_down() const;

 protected:
  void write_frame(int channel, FrameType type,
                   const std::vector<std::byte>& frame) override;
  bool reopen(int channel) override;
  /// The in-process carrier is one shared "connection": a scripted
  /// disconnect downs every channel together.
  [[nodiscard]] bool channels_share_fate() const override { return true; }

 private:
  TierServer* server_;
  int channels_;
  mutable std::mutex mu_;  ///< serializes send + fault state (pool workers)
  i64 truncate_at_ = -1;
  int drop_next_ = 0;
  bool hold_ = false;
  std::vector<std::vector<std::byte>> held_;
  bool down_ = false;
  i64 disconnect_in_ = -1;
  bool disconnect_on_put_ = false;
  i64 reconnect_after_ = 0;
};

/// Per-shard TCP connections to a TierServer (localhost or remote).
class SocketTransport final : public Transport {
 public:
  /// Connect `channels` sockets to host:port. Throws NetError on failure
  /// (callers treat that as "sockets unavailable" and may skip).
  static std::unique_ptr<SocketTransport> connect_tcp(
      const std::string& host, std::uint16_t port, int channels);
  ~SocketTransport() override;

  [[nodiscard]] int channels() const override { return int(conns_.size()); }
  [[nodiscard]] const char* name() const override { return "socket"; }

 protected:
  void write_frame(int channel, FrameType type,
                   const std::vector<std::byte>& frame) override;
  bool reopen(int channel) override;
  void on_recovered(int channel) override;

 private:
  SocketTransport() = default;
  /// Dial one TCP connection to the stored address; -1 on failure.
  [[nodiscard]] int dial() const;
  void reader_loop(std::size_t conn, int fd, u64 gen);

  struct Conn {
    int fd = -1;
    std::mutex write_mu;  ///< one frame at a time; frames never interleave
    std::thread reader;
  };
  std::vector<std::unique_ptr<Conn>> conns_;
  std::string host_;
  std::uint16_t port_ = 0;
  // Readers and fds retired by reconnects; joined/closed at destruction
  // (a reader blocked on a dead fd exits promptly after its shutdown()).
  std::mutex retire_mu_;
  std::vector<std::thread> retired_readers_;
  std::vector<int> retired_fds_;
  /// Set by the destructor before the shutdown(): readers must exit, not
  /// treat the teardown as a fault to recover from.
  std::atomic<bool> closing_{false};
};

}  // namespace mlr::net
