// net/tier_client — the remote serve::TierBackend: speaks the memo wire
// protocol to a TierServer over a Transport and mirrors the tier's
// occupancy, which the service charges its fabric from (the contract of
// serve/shared_tier.hpp).
//
// How each backend verb maps to wire traffic:
//
//   begin_seed()    → one SNAPSHOT_EXPORT (index-only) request, issued
//                     non-blocking; the service overlaps the round-trip
//                     with per-job setup and completes it in end_seed().
//   end_seed()      → wait for the export reply; decode the index-only
//                     snapshot into the caller's storage, refresh the stats
//                     mirror and the position→shard map, reset the lazy
//                     value-fetch state. Returns the snapshot plus `this`
//                     as the session's memo::ValueFetcher.
//   fold()          → one PUT with full payloads; the reply carries the
//                     PromotionOutcome and the post-fold tier stats the
//                     mirror adopts bit-exactly (doubles travel as IEEE-754
//                     bits), so the occupancy the service charges the next
//                     seed fetch from equals an in-process tier's.
//
// The ValueFetcher half (the wall-clock overlap win): score_requests calls
// request(pos) per remote hit and flush() once per query round (one per
// stage); flush ships ONE GET_BATCH per shard (positions sorted — canonical
// frames), routed on that shard's transport channel. fetch(pos) blocks on
// the batch's reply — by then the engine has already issued the stage's
// miss FFTs, so the round-trip hid under local compute. The first fetcher of a batch parses
// the reply and publishes every position it carried; concurrent fetchers of
// other positions in the same batch just wait on the condition variable.
// Faults follow net/request_table.hpp's one contract, and no wait can hang
// (each carries the configured timeout). A slow or lost reply fails only its
// request, retryably: the harvesting fetch() re-issues that one GET_BATCH
// under a fresh id (counted as net.table.retries) up to retry_max times
// before its positions fail, and end_seed() surfaces the error, so the
// service fails just that job. A PUT that times out or is caught by a
// reconnect surfaces RetryableError from fold(); the service buffers the
// promotion and re-ships it on recovery (the tier's dedup probe absorbs the
// duplicate if the original did land). Only a carrier fault that exhausts
// the transport's reconnect budget — at once for a budget of 0 — breaks the
// table, after which every verb throws the sticky NetError and healthy()
// turns false.
//
// Sessions of one service run sequentially on the wall clock (slots are
// virtual), so one client serves them all; within a session, request/flush/
// fetch run on pool workers and are fully locked.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <vector>

#include "net/transport.hpp"
#include "serve/shared_tier.hpp"

namespace mlr::net {

class TierClient final : public serve::TierBackend, public memo::ValueFetcher {
 public:
  /// `timeout_s` bounds every wire wait; `retry` is the transport's
  /// reconnect budget (default: 0 attempts — the first carrier fault breaks
  /// the table).
  TierClient(std::unique_ptr<Transport> transport, int shard_count,
             double timeout_s, RetrySpec retry = {});

  // --- serve::TierBackend ---------------------------------------------------
  u64 begin_seed() override;
  serve::TierSeed end_seed(u64 ticket,
                           std::vector<memo::MemoDb::Entry>& storage) override;
  serve::PromotionOutcome fold(
      std::vector<memo::MemoDb::Entry> entries) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  [[nodiscard]] int shard_count() const override { return shard_count_; }
  [[nodiscard]] std::size_t shard_entries(int shard) const override {
    return shard_entries_[std::size_t(shard)];
  }
  [[nodiscard]] double shard_bytes(int shard) const override {
    return shard_bytes_[std::size_t(shard)];
  }
  [[nodiscard]] double total_bytes() const override { return total_bytes_; }
  /// The tier is reachable as far as this client knows: the transport's
  /// table has not been broken (reconnect budget not exhausted). A false
  /// here is what flips the service into degraded cold-session mode.
  [[nodiscard]] bool healthy() const override {
    return !transport_->table().broken();
  }

  // --- memo::ValueFetcher ---------------------------------------------------
  void request(u64 pos) override;
  void flush() override;
  std::vector<cfloat> fetch(u64 pos) override;

  [[nodiscard]] const Transport& transport() const { return *transport_; }
  [[nodiscard]] Transport& transport_mut() { return *transport_; }

  /// Swap in a freshly connected transport after the old one's budget was
  /// exhausted (the service's recovery probe). Keeps the stats mirror — the
  /// tier's accounting survived the outage server-side (or was restored from
  /// a checkpoint); only the carrier is new. Lazy fetch state is reset (its
  /// request ids belong to the dead table).
  void reconnect(std::unique_ptr<Transport> transport);

 private:
  /// Send one request on `channel` and block for its reply payload.
  std::vector<std::byte> call(int channel, FrameType type,
                              std::span<const std::byte> payload);
  /// Adopt a stats block (size / per-shard occupancy / total) from a reply.
  void adopt_stats(WireReader& r);

  std::unique_ptr<Transport> transport_;
  int shard_count_;
  double timeout_s_;
  RetrySpec retry_{};

  // Mirror of the server tier's accounting, adopted bit-exactly from reply
  // stats blocks. Mutated only between sessions (end_seed / fold), read by
  // the service's serial event loop — no lock needed.
  std::size_t size_ = 0;
  std::vector<std::size_t> shard_entries_;
  std::vector<double> shard_bytes_;
  double total_bytes_ = 0;

  // Seed map: snapshot position → shard (routing for GET/GET_BATCH).
  std::vector<int> pos_shard_;

  // Lazy value-fetch state (locked: pool workers).
  struct VState {
    enum { Queued, Pending, Ready, Failed } state = Queued;
    u64 batch_id = 0;           ///< request id of the batch carrying it
    std::vector<cfloat> value;  ///< Ready: the payload (kept until reset)
    std::string error;          ///< Failed: what went wrong
  };
  std::mutex vmu_;
  std::condition_variable vcv_;
  std::map<u64, VState> vstate_;                  ///< by snapshot position
  std::vector<std::vector<u64>> queued_;          ///< per shard, unshipped
  std::map<u64, std::vector<u64>> batch_pos_;     ///< batch id → positions
  std::map<u64, bool> batch_claimed_;             ///< a harvester exists
  std::map<u64, int> batch_retry_;                ///< re-issues so far
};

}  // namespace mlr::net
