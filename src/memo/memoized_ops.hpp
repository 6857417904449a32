// MemoizedLamino — the memoized FFT operator layer of mLR (paper §4), one
// per run.
//
// Wraps lamino::Operators so every chunk-level FFT call follows Fig 3's
// pipeline:
//   encode key (INT8 CNN on the host CPU)
//     → private-cache lookup (1 similarity comparison)
//       → coalesced query to the distributed memoization DB
//         → hit: reuse the stored FFT result (case 2/3 of Fig 10)
//         → miss: H2D, real FFT kernel on the simulated GPU, D2H, async
//                 insert of (key, result) (case 1)
// The virtual clock charges that order: every chunk pays its key encode.
// Real numerics run underneath; hits genuinely substitute results from prior
// iterations, so approximation error, accuracy (Table 1) and convergence
// (Fig 17) are measured, not modelled.
//
// One layer holds the run's memo state: the config, the MemoDb, the key
// encoder registry, the bypass/collect calibration flags, the record sink,
// the outcome counters and the worker pool, plus one lane per simulated GPU
// (the device and its private local cache). A stage is a set of independent
// chunks by construction, so each lane runs its share in batched phases
// instead of chunk-at-a-time:
//
//   phase 1  probe     one parallel pass computes every chunk's norm, slab
//                      average and pooled probe and, under oracle
//                      similarity, looks it up in the thread-safe local
//                      cache, which accepts a hit on probe and norm alone; a
//                      hit copies its stored value straight into the chunk
//                      output. Then ONE batch encode on the pool runs the
//                      INT8 CNN key encoder on every chunk the cache did not
//                      serve, its conv layers split by (chunk, channel
//                      block). In encoder-gated mode the cache lookups,
//                      which read the keys, run last
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
// The misses-before-hits order is the one wall-clock overlap the layer
// keeps. A remote-seeded DB ships one GET_BATCH per shard for the stage's
// remote hits at the end of scoring, and the layer harvests them only after
// every miss FFT was issued, so the round trip hides under local compute.
// In-process seeds materialize for free, and outputs never depend on the
// order.
//
// Wall-clock parallelism never touches the virtual clock: device/link/node
// timelines are scheduled in a deterministic serial pass in chunk order, so
// reported virtual times, ChunkRecords (Fig 10/12), cache FIFO contents and
// DB insertion order are bit-identical for any pool width.
//
// Several devices (paper §5.2) take the stage's chunks round-robin, and each
// runs its whole round, tail included, in device order, so with memoization
// on device g's DB query sees what earlier devices inserted in the same
// stage: several devices need not reproduce one device's hits. Encoder
// training samples are collected ABOVE the device distribution, in global
// chunk order, so a multi-GPU run trains its one encoder on exactly the
// training set a single-GPU run sees.
//
// run_fu1d / run_fu2d assemble a whole-volume F_u1D / F_u2D stage (chunking,
// row packing, run_stage, unpacking) — the one copy the ADMM solver and
// cluster::Cluster's forward-adjoint pass share.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "encoder/encoder.hpp"
#include "lamino/operators.hpp"
#include "memo/memo_cache.hpp"
#include "memo/memo_db.hpp"
#include "sim/device.hpp"

namespace mlr::memo {

enum class CacheKind { None, Private, Global };

struct MemoConfig {
  bool enable = true;          ///< memoization on/off (off = plain pipeline)
  double tau = 0.92;           ///< similarity threshold (paper default)
  CacheKind cache = CacheKind::Private;
  i64 key_dim = 60;
  i64 encoder_hw = 32;
  double host_flops = 2.0e11;  ///< AVX-512 INT8 CNN throughput on the host
  double host_mem_bw = 20.0e9; ///< host memcpy bandwidth (value reuse path)
  /// Virtual-clock scaling: charge compute/transfer as if the volume were
  /// work_scale× larger (maps a laptop-sized run onto the paper's 1K³–2K³
  /// timings; ratios within a figure are unaffected).
  double work_scale = 1.0;
  /// Sustained-efficiency derating of the USFFT kernels (scattered gather/
  /// spread reaches only ~1 % of A100 peak — calibrated so the Fig 10
  /// compute:retrieval ratios match).
  double kernel_cost_factor = 100.0;
  /// Extra derating of the batched tiny 1-D transforms of F_u1D/F*_u1D —
  /// thousands of short strided FFTs reach far lower sustained throughput
  /// than the dense 2-D gridding kernels (calibrated to Fig 10's
  /// compute:retrieval ratio for F_u1D).
  double fu1d_extra_derate = 4.0;
  /// Oracle similarity: pooled input planes accompany keys into the cache
  /// and DB, which then accept by their true cosine instead of the encoder-
  /// key proxy (see gate_similarity). The paper's encoder is trained at
  /// dataset scale and approximates exactly this quantity; at this repo's
  /// reduced scale the oracle removes encoder fidelity as a confounder for
  /// the accuracy/convergence experiments. Keys are still encoded and timed
  /// for the performance path either way.
  bool oracle_similarity = true;
  i64 probe_hw = 16;  ///< pooled probe resolution
};

/// How one chunk was satisfied (the four bars of Fig 10).
enum class MemoOutcome {
  Computed,  ///< memoization disabled — plain compute
  Miss,      ///< case 1: no match, computed + inserted
  DbHit,     ///< case 2: served by the remote memoization DB
  CacheHit,  ///< case 3: served by the local memoization cache
};

/// One unit of stage work. `ref` is only used by the fused F_u2D stage.
struct StageChunk {
  lamino::ChunkSpec spec;
  std::span<const cfloat> in;
  std::span<cfloat> out;
  std::span<const cfloat> ref{};
};

/// Per-chunk timing/outcome record (drives the Fig 10 breakdown).
struct ChunkRecord {
  OpKind kind{};
  MemoOutcome outcome{};
  i64 location = 0;
  double encode_s = 0;
  double db_s = 0;       ///< communication + search + value serve
  double compute_s = 0;  ///< transfers + kernel (miss/computed only)
  double copy_s = 0;     ///< host copy of a reused value (hits only)
  [[nodiscard]] double total_s() const {
    return encode_s + db_s + compute_s + copy_s;
  }
};

struct StageReport {
  sim::VTime done = 0;  ///< virtual completion time of the stage
  std::vector<ChunkRecord> records;
};

struct MemoCounters {
  u64 computed = 0, miss = 0, db_hit = 0, cache_hit = 0;
  /// Of db_hit: hits served by entries seeded from a shared snapshot (see
  /// MemoDb::import_entries) — i.e. another job's work. The cross-job reuse
  /// the serving layer (serve::ReconService) charges per job.
  u64 db_hit_shared = 0;
  /// Promotion outcomes for the entries this job exported to the shared
  /// tier, filled in by serve::ReconService after drain(): insertions the
  /// tier rejected as near-duplicates (within τ_dedup of an existing tier
  /// entry) vs. drops at the max_shared_entries cap. Counted separately so
  /// tier compaction is distinguishable from tier overflow.
  u64 shared_dedup_drops = 0;
  u64 shared_cap_drops = 0;
  [[nodiscard]] u64 total() const {
    return computed + miss + db_hit + cache_hit;
  }
  /// Lookups that reached memoization (everything but plain compute).
  [[nodiscard]] u64 lookups() const { return miss + db_hit + cache_hit; }
};

class MemoizedLamino {
 public:
  /// One device. `db` may be null when cfg.enable is false. `registry` is the
  /// key-encoder owner (a serving session passes the service's one encoder);
  /// when null the layer creates a private registry.
  MemoizedLamino(const lamino::Operators& ops, MemoConfig cfg,
                 sim::Device* device, MemoDb* db,
                 std::shared_ptr<encoder::EncoderRegistry> registry = nullptr);
  /// One lane per device: chunks are distributed round-robin, device g
  /// taking chunks g, g+G, g+2G, … (the paper's §5.2 distribution).
  MemoizedLamino(const lamino::Operators& ops, MemoConfig cfg,
                 std::vector<sim::Device*> devices, MemoDb* db,
                 std::shared_ptr<encoder::EncoderRegistry> registry = nullptr);

  /// Worker pool for the parallel phases and encoder training; nullptr
  /// restores the process-wide pool. A one-thread pool runs every phase
  /// serially on the caller.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : ThreadPool::global();
  }

  /// Execute one operator stage (a set of independent chunks) starting at
  /// virtual time `ready`. Outputs are written into each chunk's `out`;
  /// records come back in chunk order.
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

  /// Train the key encoder on sample chunks (contrastive pairs) and freeze
  /// it to INT8 — done once before reconstruction starts.
  double train_encoder(const std::vector<std::vector<cfloat>>& samples,
                       i64 rows, i64 cols, int steps);
  /// Contrastive-train the encoder on the collected samples and freeze it
  /// to INT8. Each training step fans out on pool(); the caller must not be
  /// one of its workers (the rule for run_stage too).
  double train_encoder_from_collected(int steps);

  /// Calibration flow: while bypass is on, stages run the plain compute path
  /// and (optionally) record their chunk planes as encoder training samples
  /// — the warmup iteration mLR uses to train the CNN on real data. Samples
  /// land in the registry in global chunk order, whatever the device count.
  void set_bypass(bool bypass) { bypass_ = bypass; }
  void set_collect_samples(bool collect, std::size_t cap_per_kind = 128) {
    registry_->set_collect(collect, cap_per_kind * kNumOpKinds);
  }
  [[nodiscard]] std::size_t collected_samples() const;

  [[nodiscard]] const lamino::Operators& ops() const { return ops_; }
  [[nodiscard]] const MemoConfig& config() const { return cfg_; }
  /// Outcomes of every chunk the layer ran, over all devices.
  [[nodiscard]] const MemoCounters& counters() const { return counters_; }
  /// Local-cache counters summed over the devices' caches.
  [[nodiscard]] CacheStats cache_stats() const;
  [[nodiscard]] std::size_t num_devices() const { return lanes_.size(); }
  /// Device `g`: its timelines also carry the stages the layer does not
  /// memoize (the detector F_2D of Algorithm 1, encoder training).
  [[nodiscard]] sim::Device& device(std::size_t g = 0) const {
    return *lanes_[g].device;
  }
  /// Device `g`'s local cache (null when memoization is off or cacheless).
  [[nodiscard]] const MemoCache* cache(std::size_t g = 0) const {
    return lanes_[g].cache.get();
  }
  /// Checkpoint/resume surface (serve-layer stage-boundary preemption, one
  /// device only): a resumed session restores the cache contents and
  /// outcome counters so the continuation is indistinguishable from never
  /// pausing.
  [[nodiscard]] CacheImage cache_image() const;
  void restore_cache(const CacheImage& img);
  void set_counters(const MemoCounters& c) { counters_ = c; }
  [[nodiscard]] const encoder::CnnEncoder& key_encoder() const {
    return registry_->encoder();
  }

  /// Encode a chunk into a key (exposed for characterization benches).
  std::vector<float> encode_chunk(OpKind kind, const lamino::ChunkSpec& spec,
                                  std::span<const cfloat> in) const;
  /// Pooled input plane used by oracle similarity (empty in encoder mode).
  std::vector<cfloat> pooled_probe(OpKind kind, const lamino::ChunkSpec& spec,
                                   std::span<const cfloat> in) const;

  /// Optional sink receiving a copy of every ChunkRecord run_stage produces
  /// (characterization benches: Fig 10 breakdown, Fig 12 hit rates).
  void set_record_sink(std::vector<ChunkRecord>* sink) { sink_ = sink; }

  /// Cumulative CPU↔GPU copy-engine busy seconds over every device
  /// (transfer-share metric).
  [[nodiscard]] double device_transfer_busy() const;

 private:
  /// One simulated GPU and its private local cache (paper §4.4).
  struct Lane {
    sim::Device* device = nullptr;
    std::unique_ptr<MemoCache> cache;
  };

  /// The batched phases for one device's share of the stage: the plain
  /// compute path, or the memoized one.
  void run_bypass(Lane& lane, OpKind kind, std::span<StageChunk> chunks,
                  sim::VTime ready, std::span<ChunkRecord> records,
                  sim::VTime* done);
  void run_memoized(Lane& lane, OpKind kind, std::span<StageChunk> chunks,
                    sim::VTime ready, std::span<ChunkRecord> records,
                    sim::VTime* done);
  double compute_chunk(OpKind kind, const StageChunk& c,
                       double* flops_out) const;
  /// pooled_probe() of a chunk whose slab average is `plane`.
  std::vector<cfloat> probe_of_plane(std::span<const cfloat> plane, i64 rows,
                                     i64 cols) const;
  std::pair<i64, i64> chunk_plane_dims(OpKind kind) const;

  const lamino::Operators& ops_;
  MemoConfig cfg_;
  MemoDb* db_;
  // Planes of different kinds share the encoder, which pools to a fixed
  // resolution.
  std::shared_ptr<encoder::EncoderRegistry> registry_;
  std::vector<Lane> lanes_;
  MemoCounters counters_;
  std::vector<ChunkRecord>* sink_ = nullptr;
  ThreadPool* pool_ = nullptr;
  bool bypass_ = false;
};

}  // namespace mlr::memo
