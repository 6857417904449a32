// StageExecutor — the batched, parallel stage-execution engine (the layer
// between the ADMM solver and the memo/device subsystems).
//
// A stage is a set of independent chunks by construction, so the engine
// splits execution into batched phases instead of looping chunk-at-a-time:
//
//   phase 1  probe     every chunk's norm and pooled probe, then the
//                      thread-safe local cache, one pool task per chunk; a
//                      hit copies its stored value straight into the chunk
//                      output. The task runs the INT8 CNN key encoder only
//                      where the key is read: after a cache miss under
//                      oracle similarity (a hit is accepted on probe and
//                      norm alone), before the lookup in encoder-gated
//                      mode, and for every chunk of a cacheless wrapper
//   phase 2  resolve   chunks the cache could not serve go to the MemoDb as
//                      ONE barriered query_batch (scoring fans out on the
//                      pool); then one parallel pass runs every miss FFT
//                      before it materializes and copies the hits
//   phase 3  account   a serial pass in chunk order charges the virtual
//                      clock (encode for every chunk, as the paper's
//                      pipeline encodes before it looks up; device
//                      schedule, DB value arrival, copies)
//   tail               inline, in barriered order: hit cache refills in
//                      request order, then miss cache refills and DB
//                      insertions in chunk order
//
// The misses-before-hits order is the one wall-clock overlap the engine
// keeps. A remote-seeded DB ships one GET_BATCH per shard for the stage's
// remote hits at the end of scoring, and the engine harvests them only
// after every miss FFT was issued, so the round trip hides under local
// compute. In-process seeds materialize for free, and outputs never depend
// on the order.
//
// Wall-clock parallelism never touches the virtual clock: device/link/node
// timelines are scheduled in a deterministic serial pass in chunk order, so
// reported virtual times, ChunkRecords (Fig 10/12), cache FIFO contents and
// DB insertion order are bit-identical for any `threads` setting.
//
// The engine also owns multi-device distribution: constructed over several
// MemoizedLamino wrappers (one per simulated GPU, wired by
// core::ExecutionContext) it round-robins chunks across them. Each device
// runs its whole round, tail included, in device order, so with memoization
// on device g's DB query sees what earlier devices inserted in the same
// stage: several devices need not reproduce one device's hits.
// Encoder-training samples are collected ABOVE the device distribution, in
// global chunk order, into each wrapper's EncoderRegistry: wrappers sharing
// one registry (multi-GPU) therefore assemble exactly the training set a
// single-GPU run sees and train one shared encoder.
//
// run_fu1d / run_fu2d assemble a whole-volume F_u1D / F_u2D stage (chunking,
// row packing, run_stage, unpacking) — the one copy the ADMM solver and
// cluster::Cluster's forward-adjoint pass share.
#pragma once

#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "memo/memoized_ops.hpp"

namespace mlr::memo {

class StageExecutor {
 public:
  /// Single-device engine over one wrapper.
  explicit StageExecutor(MemoizedLamino& ml);
  /// Multi-device engine: chunks are distributed round-robin, wrapper g
  /// taking chunks g, g+G, g+2G, … (the paper's §5.2 distribution).
  explicit StageExecutor(std::vector<MemoizedLamino*> wrappers);

  /// Worker pool for the parallel phases; nullptr restores the process-wide
  /// pool. A one-worker pool runs every phase serially on the caller.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : ThreadPool::global();
  }

  /// Execute one operator stage starting at virtual time `ready`. Outputs
  /// are written into each chunk's `out`; records come back in chunk order.
  StageReport run_stage(OpKind kind, std::span<StageChunk> chunks,
                        sim::VTime ready);

  /// Whole-volume F_u1D (or its adjoint) in n1 chunks of `chunk_size`
  /// slices, `in` → `out`. Returns the stage's completion time.
  sim::VTime run_fu1d(const Array3D<cfloat>& in, Array3D<cfloat>& out,
                      bool adjoint, i64 chunk_size, sim::VTime ready);
  /// Whole-volume F_u2D (or its adjoint) in h chunks of `chunk_size` rows,
  /// packed from `in` and unpacked into `out`. A forward stage given
  /// `fused_ref` (d̂) fuses the residual subtraction into the kernel.
  /// Returns the stage's completion time.
  sim::VTime run_fu2d(const Array3D<cfloat>& in, Array3D<cfloat>& out,
                      const Array3D<cfloat>* fused_ref, bool adjoint,
                      i64 chunk_size, sim::VTime ready);

  [[nodiscard]] MemoizedLamino& wrapper(std::size_t gpu = 0) const {
    return *wrappers_[gpu];
  }
  [[nodiscard]] std::size_t num_wrappers() const { return wrappers_.size(); }

  // Aggregates / broadcasts over every wrapper — what a solver driving the
  // engine needs without reaching into individual devices.
  [[nodiscard]] MemoCounters counters() const;
  [[nodiscard]] CacheStats cache_stats() const;
  void set_bypass(bool bypass);
  void set_collect_samples(bool collect, std::size_t cap_per_kind = 128);
  /// Contrastive-train the wrappers' encoders on their collected samples and
  /// freeze to INT8. Wrappers sharing one EncoderRegistry (the multi-GPU
  /// configuration) train it exactly once — one cross-device encoder — and
  /// the mean tail loss across distinct registries is returned. Each
  /// training step fans out on pool(); the caller must not be one of its
  /// workers (the engine's rule for run_stage too).
  double train_encoder_from_collected(int steps);
  /// Cumulative CPU↔GPU copy-engine busy seconds over every device.
  [[nodiscard]] double device_transfer_busy() const;

 private:
  /// The batched phases for one wrapper's share of the stage.
  void run_wrapper_stage(MemoizedLamino& ml, OpKind kind,
                         std::span<StageChunk> chunks, sim::VTime ready,
                         std::span<ChunkRecord> records, sim::VTime* done);
  void run_bypass(MemoizedLamino& ml, OpKind kind,
                  std::span<StageChunk> chunks, sim::VTime ready,
                  std::span<ChunkRecord> records, sim::VTime* done);
  void run_memoized(MemoizedLamino& ml, OpKind kind,
                    std::span<StageChunk> chunks, sim::VTime ready,
                    std::span<ChunkRecord> records, sim::VTime* done);

  std::vector<MemoizedLamino*> wrappers_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace mlr::memo
