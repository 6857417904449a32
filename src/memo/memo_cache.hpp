// The memoization cache (paper §4.4).
//
// Two designs are implemented because the paper evaluates both:
//   * PrivateCache — one single-entry FIFO cache *per chunk location* (mLR's
//     choice): a lookup does exactly one similarity comparison, total cache
//     capacity equals one FFT output per location.
//   * GlobalCache  — one shared pool over all locations: a lookup compares
//     against every resident entry (64 for the paper's 1K³ case), which is
//     where the 85 % extra comparison cost comes from.
// Both accept a hit by MemoDb's own rule (gate_similarity): under oracle
// similarity the pooled-probe cosine and the norm ratio must exceed τ, and
// the key is never read (the engine passes an empty one and encodes only on
// a miss); in encoder-gated mode (no probe) the key similarity must exceed
// τ.
//
// Thread safety: the memo layer's batched stages probe a cache from many worker
// threads at once, so every implementation must tolerate concurrent
// lookup/lookup and lookup/insert. Stats counters are atomic; entry state is
// guarded by striped mutexes (PrivateCache) or one pool mutex (GlobalCache).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "memo/memo_db.hpp"

namespace mlr::memo {

/// Snapshot of the cache counters (values are copied out of the atomics).
struct CacheStats {
  u64 lookups = 0;
  u64 hits = 0;
  u64 comparisons = 0;  ///< similarity evaluations performed
  [[nodiscard]] double hit_rate() const {
    return lookups ? double(hits) / double(lookups) : 0.0;
  }
};

struct CacheEntry {
  std::vector<float> key;
  std::vector<cfloat> value;
  double norm = 1.0;  ///< raw chunk L2 norm (scale gate, see MemoDb)
  std::vector<cfloat> probe;  ///< pooled input plane (oracle mode)
};

/// Deep copy of a cache's resident entries + counters, in the cache's own
/// canonical iteration order (slot-major for PrivateCache, FIFO for
/// GlobalCache). Restoring an image onto a freshly constructed cache of
/// the same geometry reproduces lookup results, eviction behaviour and
/// fingerprint() bit-identically — the serve layer checkpoints a preempted
/// session's cache through this.
struct CacheImage {
  struct Item {
    i64 slot = 0;  ///< PrivateCache slot index (0 for GlobalCache)
    OpKind kind = OpKind(0);
    CacheEntry entry;
  };
  std::vector<Item> items;
  CacheStats stats;
};

/// Abstract cache over (op kind, chunk location) → FFT result.
/// Implementations must be safe under concurrent lookup and insert.
class MemoCache {
 public:
  virtual ~MemoCache() = default;
  /// Returns the cached value when a τ-similar entry is resident. `key` may
  /// be empty when `probe` is given; a key-gated comparison with an empty
  /// key throws.
  virtual std::optional<std::vector<cfloat>> lookup(
      OpKind kind, i64 location, std::span<const float> key, double tau,
      double norm = 1.0, std::span<const cfloat> probe = {}) = 0;
  /// FIFO insert of a freshly retrieved/computed value.
  virtual void insert(OpKind kind, i64 location, std::span<const float> key,
                      std::span<const cfloat> value, double norm = 1.0,
                      std::span<const cfloat> probe = {}) = 0;
  [[nodiscard]] CacheStats stats() const {
    return {lookups_.load(std::memory_order_relaxed),
            hits_.load(std::memory_order_relaxed),
            comparisons_.load(std::memory_order_relaxed)};
  }
  /// Total resident bytes.
  [[nodiscard]] virtual std::size_t bytes() const = 0;
  /// Order-sensitive digest of the resident entries (keys, values, norms,
  /// FIFO order). Two caches that went through the same insert sequence
  /// produce the same fingerprint — the determinism tests compare the
  /// engine's cache contents across thread counts.
  [[nodiscard]] virtual u64 fingerprint() const = 0;
  /// Checkpoint/restore of resident entries + counters (see CacheImage).
  /// restore() replaces the current contents; call it only on a cache of the
  /// same geometry (same locations/capacity) as the image's source.
  [[nodiscard]] virtual CacheImage image() const = 0;
  virtual void restore(const CacheImage& img) = 0;

 protected:
  void restore_stats(const CacheStats& s) {
    lookups_.store(s.lookups, std::memory_order_relaxed);
    hits_.store(s.hits, std::memory_order_relaxed);
    comparisons_.store(s.comparisons, std::memory_order_relaxed);
  }

  std::atomic<u64> lookups_{0};
  std::atomic<u64> hits_{0};
  std::atomic<u64> comparisons_{0};
};

/// mLR's private cache: slot per (kind, location), one entry per slot.
/// Concurrency: slot mutexes are striped — distinct locations almost never
/// contend, same-location lookups serialize only on their own stripe.
class PrivateCache : public MemoCache {
 public:
  explicit PrivateCache(i64 num_locations);

  std::optional<std::vector<cfloat>> lookup(OpKind kind, i64 location,
                                            std::span<const float> key,
                                            double tau, double norm = 1.0,
                                            std::span<const cfloat> probe = {})
      override;
  void insert(OpKind kind, i64 location, std::span<const float> key,
              std::span<const cfloat> value, double norm = 1.0,
              std::span<const cfloat> probe = {}) override;
  [[nodiscard]] std::size_t bytes() const override;
  [[nodiscard]] u64 fingerprint() const override;
  [[nodiscard]] CacheImage image() const override;
  void restore(const CacheImage& img) override;

 private:
  static constexpr std::size_t kLockStripes = 64;

  i64 slot(OpKind kind, i64 location) const;
  std::mutex& stripe(i64 s) const { return locks_[std::size_t(s) % kLockStripes]; }

  i64 num_locations_;
  std::vector<std::optional<CacheEntry>> slots_;
  mutable std::unique_ptr<std::mutex[]> locks_;
};

/// Baseline: a shared FIFO pool over all locations, lookup scans every
/// resident entry of the matching kind under the pool's one mutex.
class GlobalCache : public MemoCache {
 public:
  explicit GlobalCache(i64 capacity);

  std::optional<std::vector<cfloat>> lookup(OpKind kind, i64 location,
                                            std::span<const float> key,
                                            double tau, double norm = 1.0,
                                            std::span<const cfloat> probe = {})
      override;
  void insert(OpKind kind, i64 location, std::span<const float> key,
              std::span<const cfloat> value, double norm = 1.0,
              std::span<const cfloat> probe = {}) override;
  [[nodiscard]] std::size_t bytes() const override;
  [[nodiscard]] u64 fingerprint() const override;
  [[nodiscard]] CacheImage image() const override;
  void restore(const CacheImage& img) override;

 private:
  struct Tagged {
    OpKind kind;
    CacheEntry entry;
  };

  i64 capacity_;
  mutable std::mutex mu_;
  std::vector<Tagged> pool_;  // FIFO order
};

}  // namespace mlr::memo
