// Approximate nearest-neighbour indexes — the repo's substitute for Faiss.
//
// The paper's index database organizes encoder keys for similarity search
// (§4.3.2). It uses Faiss' *cluster-based* IVF index because it supports
// dynamic insertion cheaply, explicitly rejecting graph indexes (HNSW) whose
// insertions are expensive. This module implements both options from scratch
// so that design choice can be reproduced (bench_ablation_ann):
//   * FlatIndex     — exact scan, ground truth for recall measurements
//   * IvfFlatIndex  — k-means coarse quantizer + inverted lists, nprobe search
//   * NswIndex      — navigable-small-world graph, greedy beam search
// All indexes count distance computations so insert/search cost can be
// compared architecture-to-architecture.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace mlr {
class ThreadPool;
}

namespace mlr::ann {

struct Neighbor {
  u64 id = 0;
  float dist = 0.0f;  ///< L2 distance
};

/// Common interface: ids are caller-assigned, vectors have fixed dimension.
class Index {
 public:
  explicit Index(i64 dim) : dim_(dim) {}
  virtual ~Index() = default;

  virtual void add(u64 id, std::span<const float> vec) = 0;
  /// k nearest neighbours, ascending distance.
  [[nodiscard]] virtual std::vector<Neighbor> search(std::span<const float> q,
                                                     i64 k) const = 0;
  /// Batched search over `nq = queries.size() / dim()` vectors stored
  /// contiguously (Faiss layout). Result i is bit-identical to
  /// search(queries[i], k); when `pool` is non-null the queries fan out
  /// across its workers. Safe to call concurrently with other searches but
  /// not with add(): the caller serializes insertion against search rounds
  /// (the MemoDb defers a stage's insertions until its queries finished).
  /// Distance evaluations are accumulated per query and folded into
  /// distance_evals() with one atomic add each, so reported counts match
  /// the looped-search total for any pool width.
  [[nodiscard]] std::vector<std::vector<Neighbor>> search_batch(
      std::span<const float> queries, i64 k, ThreadPool* pool = nullptr) const;
  /// Convenience single-nearest.
  [[nodiscard]] std::optional<Neighbor> nearest(std::span<const float> q) const {
    auto r = search(q, 1);
    if (r.empty()) return std::nullopt;
    return r.front();
  }

  [[nodiscard]] i64 dim() const { return dim_; }
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Cumulative number of vector-distance evaluations (insert + search).
  [[nodiscard]] u64 distance_evals() const {
    return dist_evals_.load(std::memory_order_relaxed);
  }

 protected:
  float l2(std::span<const float> a, std::span<const float> b) const;

  /// RAII: route this thread's count_dist() increments into `*local` while
  /// alive, then fold them into the shared counter with ONE atomic add.
  /// Pool workers are long-lived, so the pointer is reset even when the
  /// scoped search throws — otherwise the next search on that worker would
  /// write through a dangling stack address.
  class DistAccScope {
   public:
    DistAccScope(const Index& idx, u64* local) : idx_(idx), local_(local) {
      tl_dist_acc_ = local;
    }
    ~DistAccScope() {
      tl_dist_acc_ = nullptr;
      idx_.dist_evals_.fetch_add(*local_, std::memory_order_relaxed);
    }
    DistAccScope(const DistAccScope&) = delete;
    DistAccScope& operator=(const DistAccScope&) = delete;

   private:
    const Index& idx_;
    u64* local_;
  };

  i64 dim_;

 private:
  /// Count `n` distance evaluations. Searches run concurrently on the pool
  /// (the const search paths share this counter), so the total lives in an
  /// atomic; search_batch() redirects its workers into a per-query local
  /// accumulator first so the hot loop stays free of shared-cacheline
  /// traffic.
  void count_dist(u64 n) const {
    if (tl_dist_acc_ != nullptr) {
      *tl_dist_acc_ += n;
    } else {
      dist_evals_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  mutable std::atomic<u64> dist_evals_{0};
  static thread_local u64* tl_dist_acc_;
};

/// Exact exhaustive index.
class FlatIndex : public Index {
 public:
  explicit FlatIndex(i64 dim) : Index(dim) {}
  void add(u64 id, std::span<const float> vec) override;
  [[nodiscard]] std::vector<Neighbor> search(std::span<const float> q,
                                             i64 k) const override;
  [[nodiscard]] std::size_t size() const override { return ids_.size(); }

 private:
  std::vector<u64> ids_;
  std::vector<float> data_;  // size() * dim_
};

/// IVF-Flat: k-means coarse quantizer, inverted lists, nprobe-limited search.
/// Insertion is O(nlist) distance evals (assign to nearest centroid + append)
/// — the "minimal overhead dynamic insertion" property the paper wants.
struct IvfParams {
  i64 nlist = 16;      ///< number of coarse clusters
  i64 nprobe = 4;      ///< clusters scanned per query
  i64 train_size = 0;  ///< auto-train after this many adds (0 → 8·nlist)
  int kmeans_iters = 8;
};

class IvfFlatIndex : public Index {
 public:
  using Params = IvfParams;

  IvfFlatIndex(i64 dim, Params p = {}, u64 seed = 1234);

  void add(u64 id, std::span<const float> vec) override;
  [[nodiscard]] std::vector<Neighbor> search(std::span<const float> q,
                                             i64 k) const override;
  [[nodiscard]] std::size_t size() const override { return total_; }

  /// Explicitly train the coarse quantizer on the vectors seen so far
  /// (otherwise training happens automatically once train_size adds arrive).
  void train();
  [[nodiscard]] bool trained() const { return trained_; }
  [[nodiscard]] i64 nlist() const { return params_.nlist; }

 private:
  struct ListEntry {
    u64 id;
    u64 offset;  // into data_
  };

  i64 assign_list(std::span<const float> vec) const;
  void kmeans();

  Params params_;
  Rng rng_;
  bool trained_ = false;
  std::size_t total_ = 0;
  std::vector<float> centroids_;              // nlist * dim
  std::vector<std::vector<ListEntry>> lists_; // inverted lists
  std::vector<float> data_;                   // all vectors, append-only
  // Pre-training holding area (scanned exhaustively until trained).
  std::vector<u64> pending_ids_;
};

/// Navigable-small-world graph index (single layer HNSW-lite). Insertion
/// performs a beam search over the existing graph — cost grows with index
/// size, which is exactly why the paper avoids graph indexes for a database
/// that grows every iteration.
struct NswParams {
  i64 m = 8;    ///< neighbours kept per node
  i64 ef = 24;  ///< beam width for search/insert
};

class NswIndex : public Index {
 public:
  using Params = NswParams;

  NswIndex(i64 dim, Params p = {}, u64 seed = 4321);

  void add(u64 id, std::span<const float> vec) override;
  [[nodiscard]] std::vector<Neighbor> search(std::span<const float> q,
                                             i64 k) const override;
  [[nodiscard]] std::size_t size() const override { return ids_.size(); }

 private:
  // Internal beam search returning node indexes.
  [[nodiscard]] std::vector<std::pair<float, i64>> beam_search(
      std::span<const float> q, i64 ef) const;
  std::span<const float> vec_of(i64 node) const {
    return {data_.data() + size_t(node) * size_t(dim_), size_t(dim_)};
  }

  Params params_;
  Rng rng_;
  std::vector<u64> ids_;
  std::vector<float> data_;
  std::vector<std::vector<i64>> edges_;
};

}  // namespace mlr::ann
