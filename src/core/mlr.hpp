// mlr — public facade of the library.
//
// One object, mlr::Reconstructor, wires together every subsystem the paper
// describes: phantom/projection generation, the simulated Polaris node
// (GPU + Slingshot + memory node + SSD), the distributed memoization system,
// the ADMM-FFT solver with operation cancellation/fusion, ADMM-Offload and
// multi-GPU chunk distribution. Examples and benches build on this header.
//
// Quickstart:
//   mlr::ReconstructionConfig cfg;
//   cfg.dataset = mlr::Dataset::small();
//   cfg.memoize = true;
//   mlr::Reconstructor rec(cfg);
//   auto report = rec.run();
//   // report.result.u — the reconstruction; report.speedup_vs_baseline …
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "admm/solver.hpp"
#include "cluster/cluster.hpp"
#include "core/execution_context.hpp"
#include "lamino/phantom.hpp"
#include "memo/memoized_ops.hpp"
#include "offload/offload.hpp"

namespace mlr {

/// A named problem instance. The paper evaluates 1K³ / 1.5K³ / 2K³ volumes;
/// this repo runs the same pipeline on laptop-sized volumes and scales the
/// virtual clock so the reported times correspond to the paper-scale run
/// (work_scale = (paper_n / n)³).
struct Dataset {
  std::string label;
  i64 n = 32;               ///< local cube dimension
  i64 paper_n = 1024;       ///< paper-scale dimension this stands in for
  lamino::PhantomKind kind = lamino::PhantomKind::BrainTissue;
  double noise = 0.01;      ///< detector noise (relative RMS)
  u64 seed = 1;

  [[nodiscard]] double work_scale() const {
    const double s = double(paper_n) / double(n);
    return s * s * s;
  }

  /// Paper's small dataset (1K³), mouse-brain-like phantom.
  static Dataset small(i64 n = 24);
  /// Paper's medium dataset (1.5K³).
  static Dataset medium(i64 n = 32);
  /// Paper's large dataset (2K³).
  static Dataset large(i64 n = 40);
};

enum class OffloadMode { None, Planned, Greedy, Lru };

struct ReconstructionConfig {
  Dataset dataset = Dataset::small();
  int iters = 12;
  int inner_iters = 4;
  i64 chunk_size = 4;
  double alpha = 1e-3;

  // mLR optimizations (all on = full mLR; all off = original ADMM-FFT).
  bool memoize = true;
  double tau = 0.92;
  bool cancellation = true;
  bool fusion = true;
  memo::CacheKind cache = memo::CacheKind::Private;
  OffloadMode offload = OffloadMode::None;

  /// Worker threads for the memo layer's parallel phases (see
  /// ExecutionOptions). 0 = process-global pool (hardware concurrency),
  /// 1 = serial. Results are bit-identical for any value — only host wall
  /// time changes. Multi-device runs go through cluster::Cluster.
  unsigned threads = 0;
};

struct Report {
  admm::SolveResult result;
  Array3D<cfloat> ground_truth;
  double vtime_s = 0;             ///< virtual (paper-scale) wall time
  double real_seconds = 0;        ///< host time actually spent
  double error_vs_truth = 0;      ///< ‖u − truth‖/‖truth‖
  memo::MemoCounters memo;
  double cache_hit_rate = 0;
  double peak_rss_bytes = 0;      ///< paper-scale CPU memory peak
  double exposed_stall_s = 0;     ///< offload stalls on the critical path
  offload::Plan offload_plan;     ///< chosen plan (Planned mode)
};

/// End-to-end reconstruction runner — the library's primary entry point.
class Reconstructor {
 public:
  explicit Reconstructor(ReconstructionConfig cfg);
  ~Reconstructor();

  /// Generate the phantom + projections (idempotent; run() calls it).
  void prepare();
  /// Execute the reconstruction and return the full report. Runs once per
  /// object: the devices' timelines, the memo counters, cache and DB, and
  /// the solver all carry the first solve's state, so a second call throws
  /// mlr::Error instead of reporting a solve that continued the first.
  Report run();

  /// Access to the assembled subsystems for fine-grained experiments.
  [[nodiscard]] const lamino::Operators& ops() const { return *ops_; }
  [[nodiscard]] const Array3D<cfloat>& projections() const { return d_; }
  [[nodiscard]] const Array3D<cfloat>& ground_truth() const { return u_true_; }
  [[nodiscard]] ExecutionContext& context() { return *ctx_; }
  /// The run's memoized-operator layer (record sink, cache, counters).
  [[nodiscard]] memo::MemoizedLamino& wrapper() { return ctx_->memo(); }
  [[nodiscard]] admm::Solver& solver() { return *solver_; }
  [[nodiscard]] sim::Interconnect& network() { return ctx_->network(); }
  [[nodiscard]] memo::MemoDb* db() { return ctx_->db(); }
  [[nodiscard]] const ReconstructionConfig& config() const { return cfg_; }

 private:
  ReconstructionConfig cfg_;
  std::unique_ptr<lamino::Operators> ops_;
  Array3D<cfloat> u_true_;
  Array3D<cfloat> d_;
  std::unique_ptr<ExecutionContext> ctx_;  ///< devices/pool/memo layer/DB
  std::unique_ptr<admm::Solver> solver_;
  bool prepared_ = false;
  bool ran_ = false;
};

/// Paper-scale memory footprint of the ADMM variables for a dataset — the
/// Fig 2 style breakdown, derived from the real allocation sizes times the
/// dataset's work_scale.
struct MemoryBreakdown {
  double psi = 0, lambda = 0, g = 0, g_prev = 0, u = 0, d = 0, other = 0;
  [[nodiscard]] double total() const {
    return psi + lambda + g + g_prev + u + d + other;
  }
};
MemoryBreakdown admm_memory_breakdown(const Dataset& ds);

}  // namespace mlr
