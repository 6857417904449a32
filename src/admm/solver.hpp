// ADMM-FFT laminography solver (paper §2, Algorithms 1 and 2).
//
// Solves  min_u ½‖Lu − d‖² + α‖u‖_TV  by ADMM splitting ψ = ∇u:
//   LSP  — refine u with N_inner conjugate-gradient steps on
//          ½‖Lu−d‖² + ρ/2‖∇u − g‖²,  g = ψ − λ/ρ
//   RSP  — ψ = soft-threshold(∇u + λ/ρ, α/ρ)   (closed form, lightweight)
//   λ    — λ += ρ(∇u − ψ)
//   ρ    — residual-balancing penalty update
//
// Execution styles (the paper's ablation axes):
//   * Algorithm 1 (use_cancellation=false): forward ends with F*_2D, adjoint
//     re-applies F_2D; subtraction happens in the spatial domain on the CPU.
//   * Algorithm 2 (use_cancellation=true): d̂ = F_2D·d precomputed once, the
//     detector transforms cancel; the frequency-domain subtraction runs on
//     the CPU (use_fusion=false) or fused into the F_u2D GPU kernel
//     (use_fusion=true).
// All F_u* chunk work is dispatched through memo::MemoizedLamino, so the
// same solver runs plain, memoized, cached, or coalesced configurations.
#pragma once

#include <array>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "admm/kernels.hpp"
#include "admm/tv.hpp"
#include "lamino/phantom.hpp"
#include "memo/memoized_ops.hpp"
#include "sim/clock.hpp"

namespace mlr::admm {

/// The four execution phases of one ADMM iteration (paper §5.1) plus setup.
enum class Phase { Init = 0, Lsp = 1, Rsp = 2, LambdaUpdate = 3, PenaltyUpdate = 4 };
const char* phase_name(Phase p);
inline constexpr int kNumPhases = 5;

/// Observer for variable liveness across phases — the hook ADMM-Offload
/// plugs into. `access` may return a later time than `t` when the variable
/// has to be prefetched back from SSD.
class PhaseObserver {
 public:
  virtual ~PhaseObserver() = default;
  virtual void phase_begin(Phase p, sim::VTime t) {}
  virtual sim::VTime on_access(const std::string& var, sim::VTime t) {
    return t;
  }
  virtual void phase_end(Phase p, sim::VTime t) {}
};

struct AdmmConfig {
  int outer_iters = 20;
  int inner_iters = 4;       ///< N_inner CG steps in LSP
  double alpha = 1e-3;       ///< TV weight
  double rho = 0.5;          ///< initial ADMM penalty
  i64 chunk_size = 4;        ///< chunk thickness (paper default 16 at 1K³)
  bool use_cancellation = true;
  bool use_fusion = true;
  bool adaptive_rho = true;
  double cpu_flops = 5.0e10;   ///< host elementwise throughput
  double cpu_mem_bw = 20.0e9;  ///< host streaming bandwidth
  /// Virtual-clock volume scaling (see memo::MemoConfig::work_scale); keep
  /// both equal so host and device stay proportionate.
  double work_scale = 1.0;
  /// Detector-FFT derating: the full-volume F_2D/F*_2D stages run under the
  /// same conditions as the USFFT kernels (strided batched transforms with
  /// staging), so they share the empirical derating.
  double f2d_cost_factor = 100.0;
  /// When memoization is enabled and the encoder is untrained, run this many
  /// leading iterations in bypass mode while collecting encoder training
  /// chunks, then train + INT8-freeze the encoder (mLR's calibration pass).
  int encoder_warmup_iters = 1;
  int encoder_train_steps = 300;
};

struct IterationStats {
  int iter = 0;
  double loss = 0;            ///< ½‖Lu−d‖² + α‖∇u‖₁ (data term in freq domain)
  double rho = 0;
  sim::VTime t_end = 0;       ///< virtual time at end of iteration
  double lsp_s = 0;           ///< virtual seconds in LSP
  double rsp_s = 0, lambda_s = 0, penalty_s = 0;
  memo::MemoCounters memo_delta;  ///< memoization outcomes this iteration
  EwStats ew_delta;               ///< fused-kernel pass/byte counters this iter
};

/// Per-phase profile of the fused kernel layer: which ADMM phase spent which
/// elementwise passes (deterministic) and how much host wall clock (not).
struct PhaseProfile {
  EwStats ew;
  double wall_s = 0;  ///< host wall-clock seconds (diagnostic only)
};

struct SolveResult {
  Array3D<cfloat> u;
  std::vector<IterationStats> iterations;
  sim::VTime total_vtime = 0;
  double transfer_share = 0;  ///< fraction of vtime spent in CPU↔GPU copy
  EwStats ew_total;           ///< all fused-kernel work of the solve
  std::array<PhaseProfile, kNumPhases> phases;  ///< indexed by Phase
};

/// Everything a paused solve carries across a serve-layer preemption: the
/// cross-iteration ADMM state (u, ψ, λ, ρ, the Lipschitz estimate, the
/// pre-transformed data term d̂) plus the partial SolveResult accumulators
/// of the completed segments. Engine-side state (memo DB entries, cache
/// contents, counters, virtual timelines) is checkpointed separately by the
/// owner — the solver's checkpoint is exactly the set of variables its
/// outer loop carries between iterations (gfield/gu are rewritten fresh
/// each iteration), which is why an outer-iteration boundary is an *exact*
/// yield point: resuming reproduces the uninterrupted solve bit for bit.
struct SolverCheckpoint {
  bool valid = false;  ///< a paused solve is stored
  int next_iter = 0;   ///< first outer iteration the resume will run
  double rho = 0;
  double lip = 0;      ///< power-iteration result (not re-run on resume)
  sim::VTime t = 0;    ///< virtual time at the yield point
  Array3D<cfloat> u;
  Array3D<cfloat> dref;  ///< d̂ (Algorithm 2) / the data copy (Algorithm 1)
  VectorField psi, lambda;
  /// Partial SolveResult accumulators from completed segments.
  std::vector<IterationStats> iterations;
  std::array<PhaseProfile, kNumPhases> phases{};
  EwStats ew_total;
  double transfer_busy = 0;  ///< accumulated CPU↔GPU copy busy seconds
  [[nodiscard]] bool started() const { return valid; }
};

/// Yield predicate for preemptible solves, consulted after every completed
/// outer iteration with (next_iter, virtual time now). Returning true pauses
/// the solve at that stage boundary.
using YieldFn = std::function<bool(int, sim::VTime)>;

class Solver {
 public:
  /// `ml` supplies the real operators and runs every chunked stage, on one
  /// or several devices and on its worker pool. Its device 0 also hosts the
  /// un-memoized detector stages and encoder training.
  Solver(memo::MemoizedLamino& ml, AdmmConfig cfg);

  /// Reconstruct from measured projections `d` (spatial detector domain).
  SolveResult solve(const Array3D<cfloat>& d);

  /// Preemptible solve. With `ck.valid`, resumes a paused solve from its
  /// outer-iteration boundary instead of starting fresh (the owner must have
  /// rebuilt the engine state — DB, cache, counters, virtual clocks — the
  /// checkpoint was taken against; `d` is ignored beyond shape checks since
  /// the checkpoint holds d̂). After each completed iteration `should_yield`
  /// (when set) is consulted; on true the solve saves its carried state into
  /// `ck` and returns false. Returns true when the solve ran to completion —
  /// `*out` then holds the stitched result, bit-identical to an
  /// uninterrupted solve() of the same problem.
  /// Yielding requires a trained encoder (no warmup in flight).
  bool solve_resumable(const Array3D<cfloat>& d, SolverCheckpoint& ck,
                       const YieldFn& should_yield, SolveResult* out);

  /// Per-variable memory accounting (Fig 2 / Fig 13 input).
  [[nodiscard]] const sim::MemoryTracker& memory() const { return mem_; }
  /// Cumulative fused-kernel counters (kernel invocations, elementwise
  /// passes, bytes streamed vs the unfused chains) across all solves.
  [[nodiscard]] const EwStats& ew_stats() const { return knl_.stats(); }
  void set_observer(PhaseObserver* obs) { obs_ = obs; }
  /// Callback fired once per outer iteration with the current u (used by
  /// characterization benches, e.g. the Fig 4 chunk-similarity probe).
  void set_iteration_hook(
      std::function<void(int, const Array3D<cfloat>&)> hook) {
    hook_ = std::move(hook);
  }

 private:
  // One LSP pass at penalty `rho`: N_inner CG refinements of u. Returns
  // vtime at completion and accumulates the data-fidelity loss of the last
  // inner iteration.
  sim::VTime run_lsp(Array3D<cfloat>& u, const Array3D<cfloat>& dhat_or_d,
                     const VectorField& g, double rho, sim::VTime t,
                     double* loss_out, IterationStats* st);

  // Gradient of the data term via the chunked operator stages; result in
  // `grad`. Returns vtime when the gradient is available.
  sim::VTime data_gradient(const Array3D<cfloat>& u,
                           const Array3D<cfloat>& dhat_or_d,
                           Array3D<cfloat>& grad, sim::VTime t,
                           double* loss_out);

  // Detector-plane FFT stage (Algorithm 1 only): per-θ unitary transform on
  // the simulated GPU, including its CPU↔GPU transfers.
  sim::VTime stage_f2d(Array3D<cfloat>& d, bool inverse, sim::VTime t);

  // ‖L*L‖ by 8 power-iteration steps on the plain operators; fills the
  // operators' per-geometry slot (see lamino::Operators::normal_operator_norm).
  double power_iteration();

  // Host elementwise op cost: `elems` complex values touched `passes` times.
  double host_cost(double elems, double passes) const;
  // Virtual-time charge for a fused-kernel stats delta: the bytes the fused
  // form actually streamed, priced at the host bandwidth/flops model. The
  // delta is deterministic, so the charge is too.
  double ew_cost(const EwStats& delta) const;
  // Fold the kernel work since `ew0` and the wall clock since `w0` into the
  // phase profile of `r`; emits the phase's trace span and a
  // "vclock.session" counter sample at virtual time `t` when recording.
  void end_phase(SolveResult& r, Phase p, const EwStats& ew0,
                 std::chrono::steady_clock::time_point w0, sim::VTime t);

  sim::VTime observe(const std::string& var, sim::VTime t) {
    return obs_ != nullptr ? obs_->on_access(var, t) : t;
  }

  memo::MemoizedLamino& ml_;  ///< runs every chunked operator stage
  AdmmConfig cfg_;
  SolverKernels knl_;  ///< fused elementwise kernels (pool set per solve)
  double lip_ = 0.0;  ///< ‖L*L‖: the operators' slot, or the checkpoint's
  sim::MemoryTracker mem_;
  PhaseObserver* obs_ = nullptr;
  std::function<void(int, const Array3D<cfloat>&)> hook_;
};

/// Reconstruction accuracy between a reference reconstruction and a
/// memoized one: A = 1 − ‖R_ref − R‖_F/‖R_ref‖_F (paper Eq. 4/5).
double reconstruction_accuracy(const Array3D<cfloat>& reference,
                               const Array3D<cfloat>& candidate);

}  // namespace mlr::admm
