// serve/shared_tier — the service's shared memo tier behind a transport
// boundary.
//
// Since the net/ transport landed, the tier is an *interface*
// (serve::TierBackend) with two families of implementations:
//
//   * SharedTier (this file) — the in-process tier: entries live in this
//     address space, seeds are handed out as a borrowed snapshot pointer,
//     and nothing crosses a wire.
//   * net::TierClient — the remote tier: the authoritative entries live in
//     a net::TierServer (same process over the deterministic loopback
//     transport, or another process over TCP), every verb travels as a wire
//     frame (net/wire.hpp), and seeds arrive *index-only* — sessions fetch
//     value payloads lazily with GET/GET_BATCH while their miss FFTs run.
//
// The contract every backend honours:
//
//   * Canonical order. The tier holds promoted entries in ONE canonical
//     insertion order (promotion order — job-id order within a drain).
//     Sessions seed from exactly that order, so ids, IVF training sets and
//     every downstream hit decision are bit-identical no matter which
//     backend (or shard count) serves the seed. Sharding decides
//     *placement* — which memory-node link carries an entry's bytes, by
//     content hash memo::entry_shard — never ordering or membership.
//   * No clock. A backend holds entries and reports their occupancy —
//     size, per-shard entries and bytes, and the fold-order byte total — and
//     never touches a virtual clock. serve::ReconService owns the one
//     sim::Fabric and charges seed fetches and promotion shipments from that
//     occupancy and from the shipped entries themselves; a remote backend
//     mirrors the server's occupancy bit-exactly from the stats block in
//     every PUT/export reply (doubles travel as their IEEE-754 bits), so
//     every virtual time is the same for every transport.
//   * Seed handoff. begin_seed() issues the (possibly remote, non-blocking)
//     snapshot request and end_seed() completes it — the service overlaps
//     the gap with per-job setup work. For the in-process tier the pair
//     degenerates to handing out &entries_.
//   * Fold. fold(entries) takes one session's insertions entry by entry in
//     insertion order: the max_entries cap first (at capacity the drop is
//     inevitable — no probe), then the dedup probe (nearest tier key within
//     τ_dedup ⇒ dropped as a near-duplicate; accepted entries join the
//     index immediately, so a batch dedups against itself). Drop classes
//     are counted separately (dedup = compaction, cap = overflow).
#pragma once

#include <memory>
#include <vector>

#include "ann/ann.hpp"
#include "memo/memo_db.hpp"

namespace mlr::serve {

struct SharedTierConfig {
  int shard_count = 1;              ///< memory-node shards (≥ 1)
  std::size_t max_entries = 1u << 20;  ///< tier capacity (cap drops beyond)
  /// Promotion near-duplicate threshold: an entry whose similarity to its
  /// nearest tier neighbour exceeds this is dropped. 0 disables dedup.
  double tau_dedup = 0.999;
  i64 key_dim = 60;                 ///< dedup-index dimensionality
  ann::IvfParams ivf{};             ///< dedup-index parameters
};

/// Outcome of one promotion batch.
struct PromotionOutcome {
  u64 promoted = 0;     ///< entries accepted into the tier
  u64 dedup_drops = 0;  ///< rejected: near-duplicate within τ_dedup
  u64 cap_drops = 0;    ///< rejected: tier at max_entries
};

/// What end_seed() hands a session: the snapshot to import and — for a
/// remote backend — the lazy value fetcher (null means every entry carries
/// its value payload inline).
struct TierSeed {
  const std::vector<memo::MemoDb::Entry>* entries = nullptr;
  memo::ValueFetcher* values = nullptr;
};

/// The tier abstraction serve::ReconService runs against — see the header
/// comment for the contract. Implemented in-process by SharedTier and over
/// the wire by net::TierClient.
class TierBackend {
 public:
  virtual ~TierBackend() = default;

  /// Issue the seed-snapshot request (non-blocking for a remote backend);
  /// returns a ticket for end_seed. Call only when size() > 0.
  virtual u64 begin_seed() = 0;
  /// Complete the seed request. `storage` receives the decoded snapshot for
  /// a remote backend (and must outlive the session); the in-process tier
  /// ignores it and returns its own entries.
  virtual TierSeed end_seed(u64 ticket,
                            std::vector<memo::MemoDb::Entry>& storage) = 0;

  virtual PromotionOutcome fold(std::vector<memo::MemoDb::Entry> entries) = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual int shard_count() const = 0;
  [[nodiscard]] virtual std::size_t shard_entries(int shard) const = 0;
  [[nodiscard]] virtual double shard_bytes(int shard) const = 0;
  /// Resident bytes summed in fold order: the shard-count independent
  /// total a seed fetch pushes through the shared uplink.
  [[nodiscard]] virtual double total_bytes() const = 0;
  /// Is the tier reachable? The in-process tier always is; a remote client
  /// reports false once its transport's reconnect budget is exhausted — the
  /// signal that flips ReconService into degraded cold-session mode.
  [[nodiscard]] virtual bool healthy() const { return true; }
};

/// The in-process tier (see the header comment).
class SharedTier final : public TierBackend {
 public:
  explicit SharedTier(SharedTierConfig cfg);

  /// In-process seed handoff: nothing to prefetch.
  u64 begin_seed() override { return 0; }
  TierSeed end_seed(u64 /*ticket*/,
                    std::vector<memo::MemoDb::Entry>& /*storage*/) override {
    return {&entries_, nullptr};
  }

  /// Fold `entries` (one session's insertions, in insertion order) into the
  /// tier — see the header comment's "Fold".
  PromotionOutcome fold(std::vector<memo::MemoDb::Entry> entries) override;

  /// Preload an EMPTY tier from a full snapshot, bypassing cap and dedup:
  /// the tier reproduces the snapshot exactly (entry i keeps position i).
  /// The deployment handoff behind the SNAPSHOT_IMPORT wire verb.
  void import_snapshot(std::vector<memo::MemoDb::Entry> entries);

  /// The canonical insertion-ordered snapshot sessions import — identical
  /// for every shard count.
  [[nodiscard]] const std::vector<memo::MemoDb::Entry>& snapshot() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] int shard_count() const override { return cfg_.shard_count; }
  [[nodiscard]] std::size_t shard_entries(int shard) const override {
    return shard_entries_[std::size_t(shard)];
  }
  [[nodiscard]] double shard_bytes(int shard) const override {
    return shard_bytes_[std::size_t(shard)];
  }
  [[nodiscard]] double total_bytes() const override { return total_bytes_; }

 private:
  [[nodiscard]] bool near_duplicate(const memo::MemoDb::Entry& e) const;
  void place(const memo::MemoDb::Entry& e);  ///< shard + byte accounting

  SharedTierConfig cfg_;
  std::vector<memo::MemoDb::Entry> entries_;  ///< canonical snapshot order
  std::vector<std::size_t> shard_entries_;    ///< per-shard entry counts
  std::vector<double> shard_bytes_;           ///< per-shard resident bytes
  /// Resident bytes accumulated in fold order — the canonical (shard-count
  /// independent) uplink total, kept separate from the per-shard sums so
  /// fetch completions are bit-identical across shard splits.
  double total_bytes_ = 0;
  /// Per-kind dedup index over tier keys; ids are snapshot positions.
  std::vector<std::unique_ptr<ann::IvfFlatIndex>> index_;
};

}  // namespace mlr::serve
