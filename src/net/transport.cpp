#include "net/transport.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "net/tier_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlr::net {

namespace {

/// Client-side recovery instruments: successful reopens, frames re-issued,
/// failed reopen attempts, and the wall-clock cost of a whole recovery
/// (fault detection → last replayed frame back on the wire).
struct RecoveryMetrics {
  obs::Counter& reconnects;
  obs::Counter& replays;
  obs::Counter& reconnect_failures;
  obs::Histogram& recovery_s;
  static RecoveryMetrics& get() {
    static RecoveryMetrics m{
        obs::metrics().counter("net.client.reconnects"),
        obs::metrics().counter("net.client.replays"),
        obs::metrics().counter("net.client.reconnect_failures"),
        obs::metrics().histogram("net.client.recovery_s",
                                 obs::latency_edges_s()),
    };
    return m;
  }
};

}  // namespace

Transport::~Transport() = default;

void Transport::set_retry(RetrySpec spec) {
  MLR_CHECK(spec.retry_max >= 0 && spec.backoff_ms >= 0.0);
  retry_ = spec;
}

u64 Transport::generation(int channel) const {
  std::lock_guard lk(stash_mu_);
  auto& gens = const_cast<std::vector<u64>&>(gens_);
  if (std::size_t(channel) >= gens.size())
    gens.resize(std::size_t(channel) + 1, 0);
  return gens_[std::size_t(channel)];
}

void Transport::send(int channel, FrameType type, u64 request_id,
                     std::span<const std::byte> payload) {
  const auto frame = encode_frame(type, /*flags=*/0, request_id, payload);
  const bool replay_ok = replayable_verb(type);
  {
    // Register before the write: a recovery racing this send must see the
    // frame (read-class: so it can replay it; at-most-once: so it can fail
    // the slot) no matter where the write was when the carrier died.
    std::lock_guard lk(stash_mu_);
    PendingFrame pf;
    pf.channel = channel;
    pf.type = type;
    if (replay_ok)
      pf.frame.assign(frame.begin(), frame.end());
    stash_[request_id] = std::move(pf);
  }
  for (;;) {
    const u64 g = generation(channel);
    {
      std::lock_guard lk(stash_mu_);
      const auto it = stash_.find(request_id);
      // Erased: the reply already landed (a recovery replayed it and the
      // reply won the race). Same generation: the recovery re-sent it.
      if (it == stash_.end() || it->second.sent_gen == g) return;
    }
    try {
      write_frame(channel, type, frame);
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
      std::lock_guard lk(stash_mu_);
      const auto it = stash_.find(request_id);
      if (it != stash_.end()) it->second.sent_gen = g;
      return;
    } catch (const TransportFault& fault) {
      if (!recover_channel(channel, g, fault.what()))
        throw NetError(table_.error());
      if (!replay_ok) {
        // At-most-once verb on a recovered carrier: the frame may or may
        // not have reached the server before the fault — it must not be
        // re-sent. The caller owns the ambiguity.
        table_.forget(request_id);
        {
          std::lock_guard lk(stash_mu_);
          stash_.erase(request_id);
        }
        throw RetryableError(std::string(frame_type_name(type)) +
                             " interrupted by carrier fault: " + fault.what());
      }
      // Read-class: loop — either the recovery already replayed the frame
      // (checked at the top) or this iteration re-sends it.
    }
  }
}

bool Transport::recover_channel(int channel, u64 gen_seen,
                                const std::string& why) {
  std::lock_guard rec(rec_mu_);
  if (generation(channel) != gen_seen) {
    // Another thread observed the same fault first and already ran the
    // ladder; its outcome is ours.
    return !table_.broken();
  }
  if (table_.broken()) return false;
  MLR_TRACE_SPAN("net.reconnect", "net", u64(channel));
  const WallTimer wt;
  auto& rm = RecoveryMetrics::get();
  const bool shared = channels_share_fate();
  {
    // In-flight at-most-once requests on the downed carrier cannot be
    // re-sent; fail them retryably NOW so their waiters unblock at
    // recovery speed instead of at the request timeout.
    std::lock_guard lk(stash_mu_);
    for (auto it = stash_.begin(); it != stash_.end();) {
      if ((shared || it->second.channel == channel) &&
          it->second.frame.empty()) {
        table_.fail(it->first,
                    "at-most-once request interrupted by carrier fault: " +
                        why,
                    /*retryable=*/true);
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (int attempt = 0; attempt < retry_.retry_max; ++attempt) {
    if (attempt > 0 && retry_.backoff_ms > 0) {
      // Bounded exponential backoff: backoff_ms · 2^(attempt-1), capped at
      // 32× so a generous budget cannot stall a drain for minutes.
      const double mult = double(u64(1) << std::min(attempt - 1, 5));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(retry_.backoff_ms * mult));
    }
    if (!reopen(channel)) {
      rm.reconnect_failures.add();
      continue;
    }
    {
      // Generation bump: racing reports of the old carrier's fault — the
      // reader and a sender usually both notice — coalesce into this one
      // recovery and return through the stale-generation fast path.
      std::lock_guard lk(stash_mu_);
      if (std::size_t(channels()) > gens_.size())
        gens_.resize(std::size_t(channels()), 0);
      if (shared) {
        for (auto& g : gens_) ++g;
      } else {
        ++gens_[std::size_t(channel)];
      }
    }
    on_recovered(channel);
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    rm.reconnects.add();
    // Re-issue the stashed read-class frames still awaiting replies, in id
    // order (canonical — replay traffic is as deterministic as the original
    // sends). Ids are collected first: a loopback reply completes
    // synchronously inside write_frame and prunes the stash under us.
    std::vector<u64> ids;
    {
      std::lock_guard lk(stash_mu_);
      for (const auto& [id, pf] : stash_)
        if ((shared || pf.channel == channel) && !pf.frame.empty() &&
            table_.pending(id))
          ids.push_back(id);
    }
    bool replayed_all = true;
    for (const u64 id : ids) {
      int ch = 0;
      FrameType ty{};
      std::vector<std::byte> bytes;
      {
        std::lock_guard lk(stash_mu_);
        const auto it = stash_.find(id);
        if (it == stash_.end()) continue;  // reply landed meanwhile
        ch = it->second.channel;
        ty = it->second.type;
        bytes = it->second.frame;
      }
      try {
        write_frame(ch, ty, bytes);
      } catch (const TransportFault&) {
        // Carrier dropped again mid-replay: next attempt redials and
        // re-replays whatever is still pending.
        replayed_all = false;
        break;
      }
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(bytes.size(), std::memory_order_relaxed);
      replays_.fetch_add(1, std::memory_order_relaxed);
      rm.replays.add();
      // Generation read OUTSIDE the stash lock (generation() locks it too);
      // exact because gens only move under rec_mu_, which we hold.
      const u64 gen_now = generation(ch);
      std::lock_guard lk(stash_mu_);
      const auto it = stash_.find(id);
      if (it != stash_.end()) it->second.sent_gen = gen_now;
    }
    if (replayed_all) {
      rm.recovery_s.observe(wt.seconds());
      return true;
    }
  }
  table_.fail_all(why + " (reconnect budget of " +
                  std::to_string(retry_.retry_max) +
                  " attempt(s) exhausted)");
  return false;
}

void Transport::route_reply(std::span<const std::byte> frame) {
  FrameHeader h;
  try {
    h = decode_header(frame);
  } catch (const WireError& e) {
    table_.fail_all(std::string("undecodable reply frame: ") + e.what());
    return;
  }
  if (!h.is_reply() || frame.size() != kHeaderBytes + h.payload_bytes) {
    // A decodable header carrying nonsense is a protocol violation, not a
    // carrier blip — sticky (a reconnect would not fix a peer that speaks
    // the protocol wrong).
    table_.fail_all("malformed reply frame (direction or length)");
    return;
  }
  const auto payload = frame.subspan(kHeaderBytes);
  if (h.type == FrameType::Error) {
    // Per-request server failure: only this slot fails; the stream is fine.
    std::string msg = "server error";
    try {
      WireReader r(payload);
      msg = decode_error(r).message;
    } catch (const WireError&) {
    }
    table_.fail(h.request_id, msg);
  } else {
    table_.complete(h.request_id,
                    std::vector<std::byte>(payload.begin(), payload.end()));
  }
  std::lock_guard lk(stash_mu_);
  stash_.erase(h.request_id);
}

LoopbackTransport::LoopbackTransport(TierServer* server, int channels)
    : server_(server), channels_(channels) {
  MLR_CHECK(server != nullptr && channels >= 1);
}

void LoopbackTransport::write_frame(int channel, FrameType type,
                                    const std::vector<std::byte>& frame) {
  MLR_CHECK(channel >= 0 && channel < channels_);
  std::lock_guard lk(mu_);
  // Scripted carrier faults first: a downed carrier loses the frame before
  // the server ever sees it, exactly like a dead TCP connection.
  if (down_) throw TransportFault("loopback carrier down (scripted)");
  if (disconnect_on_put_ && type == FrameType::Put) {
    disconnect_on_put_ = false;
    down_ = true;
    throw TransportFault("scripted disconnect on PUT (frame lost)");
  }
  if (disconnect_in_ >= 0) {
    if (disconnect_in_ == 0) {
      disconnect_in_ = -1;
      down_ = true;
      throw TransportFault("scripted disconnect (frame lost)");
    }
    --disconnect_in_;
  }
  // Walk the bytes through the same decode→handle→encode path a socket
  // would: byte-identical frames, just no file descriptor in the middle.
  auto reply = server_->handle_frame(frame);
  if (drop_next_ > 0) {  // fault: this reply vanishes; the waiter times out
    --drop_next_;
    return;
  }
  if (truncate_at_ >= 0 && std::size_t(truncate_at_) < reply.size())
    reply.resize(std::size_t(truncate_at_));
  if (hold_) {
    held_.push_back(std::move(reply));
    return;
  }
  route_reply(reply);
}

bool LoopbackTransport::reopen(int /*channel*/) {
  std::lock_guard lk(mu_);
  if (!down_) return true;
  if (reconnect_after_ > 0) {
    --reconnect_after_;
    return false;
  }
  down_ = false;
  return true;
}

bool LoopbackTransport::carrier_down() const {
  std::lock_guard lk(mu_);
  return down_;
}

void LoopbackTransport::deliver_held(bool reverse) {
  std::vector<std::vector<std::byte>> held;
  {
    std::lock_guard lk(mu_);
    held.swap(held_);
  }
  if (reverse) {
    for (auto it = held.rbegin(); it != held.rend(); ++it) route_reply(*it);
  } else {
    for (const auto& f : held) route_reply(f);
  }
}

}  // namespace mlr::net
