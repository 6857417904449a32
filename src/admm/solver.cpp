#include "admm/solver.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlr::admm {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Init: return "init";
    case Phase::Lsp: return "LSP";
    case Phase::Rsp: return "RSP";
    case Phase::LambdaUpdate: return "lambda";
    case Phase::PenaltyUpdate: return "penalty";
  }
  return "?";
}

Solver::Solver(memo::MemoizedLamino& ml, AdmmConfig cfg)
    : ml_(ml), cfg_(cfg) {
  MLR_CHECK(cfg.outer_iters >= 1 && cfg.inner_iters >= 1);
  MLR_CHECK(cfg.alpha >= 0 && cfg.rho > 0 && cfg.chunk_size >= 1);
  MLR_CHECK_MSG(!(cfg.use_fusion && !cfg.use_cancellation),
                "fusion requires operation cancellation (Algorithm 2)");
}

double Solver::host_cost(double elems, double passes) const {
  return cfg_.work_scale * (elems * passes * sizeof(cfloat) / cfg_.cpu_mem_bw +
                            elems * passes * 2.0 / cfg_.cpu_flops);
}

double Solver::ew_cost(const EwStats& delta) const {
  return host_cost(delta.bytes / double(sizeof(cfloat)), 1.0);
}

void Solver::end_phase(SolveResult& r, Phase p, const EwStats& ew0,
                       std::chrono::steady_clock::time_point w0,
                       sim::VTime t) {
  auto& prof = r.phases[std::size_t(p)];
  prof.ew += knl_.stats() - ew0;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
          .count();
  prof.wall_s += wall_s;
  if (obs::trace_enabled()) {
    // Reuse the phase's already-measured wall window for the span (end "now"
    // minus the measured duration) — no second clock pair.
    auto& tr = obs::TraceRecorder::instance();
    const u64 dur = u64(wall_s * 1e9);
    const u64 t1 = tr.now_ns();
    tr.complete(phase_name(p), "solver", t1 > dur ? t1 - dur : 0, dur, 0);
    // The session's local virtual clock — the second clock domain as a
    // counter track (service jobs start each session at virtual 0, so the
    // track is a per-job sawtooth).
    tr.counter("vclock.session", t);
  }
}

sim::VTime Solver::stage_f2d(Array3D<cfloat>& d, bool inverse, sim::VTime t) {
  // Algorithm 1 path: every projection is shipped to the GPU, transformed,
  // and shipped back — the transfers the cancellation optimization removes.
  const auto& ops = ml_.ops();
  const auto& g = ops.geometry();
  // Real numerics (all projections at once).
  ops.f2d(d, inverse, ml_.pool());
  // Virtual time: chunked by groups of projections.
  sim::VTime done = t;
  sim::Device& dev = ml_.device();
  auto chunks = lamino::make_chunks(g.ntheta, cfg_.chunk_size);
  for (const auto& spec : chunks) {
    const double bytes =
        double(spec.count * g.h * g.w) * sizeof(cfloat) * cfg_.work_scale;
    const double flops = double(spec.count) * ops.f2d_proj_flops() *
                         cfg_.f2d_cost_factor * cfg_.work_scale;
    done = dev.h2d(t, bytes);
    done = dev.run_kernel(done, flops);
    done = dev.d2h(done, bytes);
  }
  return done;
}

sim::VTime Solver::data_gradient(const Array3D<cfloat>& u,
                                 const Array3D<cfloat>& dhat_or_d,
                                 Array3D<cfloat>& grad, sim::VTime t,
                                 double* loss_out) {
  const auto& g = ml_.ops().geometry();
  Array3D<cfloat> u1(g.u1_shape());
  Array3D<cfloat> r(g.data_shape());
  mem_.alloc("u1", double(u1.bytes()), t);
  mem_.alloc("residual", double(r.bytes()), t);

  // Forward pass.
  t = ml_.run_fu1d(u, u1, /*adjoint=*/false, cfg_.chunk_size, t);
  if (cfg_.use_cancellation && cfg_.use_fusion) {
    // Fused GPU kernel computes r̂ = F_u2D(ũ1) − d̂ directly; only the loss
    // reduction remains on the host.
    t = ml_.run_fu2d(u1, r, &dhat_or_d, /*adjoint=*/false, cfg_.chunk_size,
                     t);
    if (loss_out != nullptr) {
      const EwStats ew0 = knl_.stats();
      *loss_out = 0.5 * knl_.norm_sq(r.span());
      t += ew_cost(knl_.stats() - ew0);
    }
  } else if (cfg_.use_cancellation) {
    // Cancellation without fusion: subtraction on the CPU in the frequency
    // domain — COMPLEX64 arithmetic, the §6.3 regression on small inputs.
    // One fused sweep subtracts and accumulates the loss.
    t = ml_.run_fu2d(u1, r, nullptr, /*adjoint=*/false, cfg_.chunk_size, t);
    const EwStats ew0 = knl_.stats();
    const double r2 = knl_.residual_norm_sq(r, dhat_or_d);
    if (loss_out != nullptr) *loss_out = 0.5 * r2;
    t += ew_cost(knl_.stats() - ew0) * 2.2;  // complex arithmetic derating
  } else {
    // Algorithm 1: back to the spatial domain, subtract there (cheaper
    // element type), then re-enter the frequency domain.
    t = ml_.run_fu2d(u1, r, nullptr, /*adjoint=*/false, cfg_.chunk_size, t);
    t = stage_f2d(r, /*inverse=*/true, t);  // F*_2D
    const EwStats ew0 = knl_.stats();
    const double r2 = knl_.residual_norm_sq(r, dhat_or_d);
    if (loss_out != nullptr) *loss_out = 0.5 * r2;
    t += ew_cost(knl_.stats() - ew0);
    t = stage_f2d(r, /*inverse=*/false, t);  // F_2D before the adjoint
  }

  // Adjoint pass.
  Array3D<cfloat> w1(g.u1_shape());
  t = ml_.run_fu2d(r, w1, nullptr, /*adjoint=*/true, cfg_.chunk_size, t);
  t = ml_.run_fu1d(w1, grad, /*adjoint=*/true, cfg_.chunk_size, t);
  mem_.release("u1", t);
  mem_.release("residual", t);
  return t;
}

sim::VTime Solver::run_lsp(Array3D<cfloat>& u, const Array3D<cfloat>& dhat_or_d,
                           const VectorField& g, double rho, sim::VTime t,
                           double* loss_out, IterationStats* st) {
  const auto& geo = ml_.ops().geometry();
  const Shape3 os = geo.object_shape();
  Array3D<cfloat> grad_data(os), G(os), G_prev(os), p(os);
  mem_.alloc("G_prev", double(G_prev.bytes()), t);
  // Quadratic-safe fixed step: ‖L*L‖ from power iteration (the angular
  // oversampling of low frequencies makes it ≫1) plus the TV Laplacian
  // bound ‖∇ᵀ∇‖ ≤ 12.
  const double step = 1.0 / (1.1 * lip_ + rho * 12.0);
  double g_prev_dot = 0;
  for (int k = 0; k < cfg_.inner_iters; ++k) {
    t = observe("u", t);
    double loss = 0;
    t = data_gradient(u, dhat_or_d, grad_data, t, &loss);
    if (loss_out != nullptr) *loss_out = loss;
    const EwStats ew0 = knl_.stats();
    // G = L*(r) + ρ·∇ᵀ(∇u − g) with both CG dot products, one fused sweep —
    // the TV gradient/adjoint run in gather form with no intermediate field.
    const auto dots = knl_.lsp_combine(u, g, grad_data, rho, G_prev,
                                       /*has_prev=*/k > 0, G);
    // CG update (Polak–Ribière+ direction, fixed quadratic-safe step).
    double beta = 0;
    if (k > 0) {
      beta = std::max(0.0, (dots.gg - dots.gp) / std::max(g_prev_dot, 1e-30));
    }
    knl_.cg_update(G, /*first=*/k == 0, beta, step, p, u);
    std::swap(G, G_prev);  // replaces the old G_prev = G copy pass
    g_prev_dot = dots.gg;
    t += ew_cost(knl_.stats() - ew0);
    if (st != nullptr) st->rho = rho;
  }
  mem_.release("G_prev", t);
  return t;
}

double Solver::power_iteration() {
  static auto& runs = obs::metrics().counter("admm.power_iterations");
  runs.add();
  // Power iteration on L*L (frequency-domain form; F_2D is unitary so the
  // spectrum is identical). Plain operators: it starts from a fixed vector
  // and its reductions are deterministic, so the estimate is a function of
  // the geometry alone.
  const auto& ops = ml_.ops();
  const auto& geo = ops.geometry();
  Array3D<cfloat> v(geo.object_shape());
  Rng rng(77);
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  Array3D<cfloat> fwd(geo.data_shape()), bwd(geo.object_shape());
  // `nv` carries the norm measured when the iterate was produced, so each
  // iteration is one fused scale pass instead of norm + scale.
  double nv = knl_.l2_norm(v.span());
  for (int it = 0; it < 8; ++it) {
    MLR_CHECK(nv > 0);
    knl_.normalize(v, nv);
    ops.forward_freq(v, fwd, ml_.pool());
    ops.adjoint_freq(fwd, bwd, ml_.pool());
    nv = knl_.l2_norm(bwd.span());
    std::swap(v, bwd);
  }
  MLR_LOG(Debug) << "power iteration: ||L*L|| ~= " << nv;
  return nv;
}

SolveResult Solver::solve(const Array3D<cfloat>& d) {
  SolverCheckpoint ck;
  SolveResult result;
  const bool finished = solve_resumable(d, ck, /*should_yield=*/nullptr,
                                        &result);
  MLR_CHECK(finished);
  return result;
}

bool Solver::solve_resumable(const Array3D<cfloat>& d, SolverCheckpoint& ck,
                             const YieldFn& should_yield, SolveResult* out) {
  const auto& geo = ml_.ops().geometry();
  MLR_CHECK(d.shape() == geo.data_shape());
  MLR_CHECK(out != nullptr);
  const bool resuming = ck.valid;
  SolveResult result;
  sim::VTime t = resuming ? ck.t : 0;
  const double dev_xfer0 = ml_.device_transfer_busy();
  const EwStats solve_ew0 = knl_.stats();
  // All fused elementwise kernels of this solve tile across the memo layer's
  // worker pool (deterministic size-based partition — results are
  // bit-identical for any pool width).
  knl_.set_pool(&ml_.pool());
  Array3D<cfloat> u, dref;
  VectorField psi, lambda, gfield(geo.object_shape());
  double rho = cfg_.rho;
  int first_iter = 0;
  if (!resuming) {
    if (obs_ != nullptr) obs_->phase_begin(Phase::Init, t);
    const EwStats init_ew0 = knl_.stats();
    const auto init_w0 = std::chrono::steady_clock::now();
    // ‖L*L‖ depends only on the geometry: the first solve on these
    // operators estimates it, every later one (a service's other jobs)
    // reads the kept value.
    lip_ = ml_.ops().normal_operator_norm([this] { return power_iteration(); });
    u = Array3D<cfloat>(geo.object_shape());
    dref = d;
    mem_.alloc("u", double(u.bytes()), t);
    mem_.alloc("d", double(dref.bytes()), t);
    if (cfg_.use_cancellation) {
      // Algorithm 2 line 2: d̂ = F_2D·d once, before the iterations.
      t = stage_f2d(dref, /*inverse=*/false, t);
    }
    psi = VectorField(geo.object_shape());
    lambda = VectorField(geo.object_shape());
    mem_.alloc("psi", double(psi.bytes()), t);
    mem_.alloc("lambda", double(lambda.bytes()), t);
    mem_.alloc("g", double(gfield.bytes()), t);
    // Announce the variables' generation to the offload policy (greedy
    // offloads "upon generation", §5.1).
    t = observe("psi", t);
    t = observe("lambda", t);
    t = observe("g", t);
    end_phase(result, Phase::Init, init_ew0, init_w0, t);
    if (obs_ != nullptr) obs_->phase_end(Phase::Init, t);
  } else {
    // Resume: the init charges were paid in the first segment; restore the
    // iteration-carried variables and continue at the saved boundary.
    lip_ = ck.lip;
    u = std::move(ck.u);
    dref = std::move(ck.dref);
    psi = std::move(ck.psi);
    lambda = std::move(ck.lambda);
    rho = ck.rho;
    first_iter = ck.next_iter;
    MLR_CHECK(first_iter > 0 && first_iter < cfg_.outer_iters);
    mem_.alloc("u", double(u.bytes()), t);
    mem_.alloc("d", double(dref.bytes()), t);
    mem_.alloc("psi", double(psi.bytes()), t);
    mem_.alloc("lambda", double(lambda.bytes()), t);
    mem_.alloc("g", double(gfield.bytes()), t);
  }

  // Encoder calibration: warmup iterations run un-memoized while collecting
  // real chunk samples; the CNN is then contrastive-trained and frozen.
  const bool needs_warmup = ml_.config().enable &&
                            !ml_.key_encoder().quantized() &&
                            cfg_.encoder_warmup_iters > 0;
  MLR_CHECK_MSG(!(resuming && needs_warmup),
                "resume requires a trained (quantized) encoder");
  if (needs_warmup) {
    ml_.set_bypass(true);
    ml_.set_collect_samples(true);
  }

  VectorField gu(geo.object_shape());
  bool paused = false;
  for (int iter = first_iter; iter < cfg_.outer_iters; ++iter) {
    IterationStats st;
    st.iter = iter;
    const auto memo0 = ml_.counters();
    const EwStats iter_ew0 = knl_.stats();
    if (needs_warmup && iter == cfg_.encoder_warmup_iters) {
      ml_.set_collect_samples(false);
      (void)ml_.train_encoder_from_collected(cfg_.encoder_train_steps);
      ml_.set_bypass(false);
      // Training runs on the GPU (paper §4.3.1); charge its kernel time.
      t = ml_.device().run_kernel(
          t, double(cfg_.encoder_train_steps) * 6.0 *
                 ml_.key_encoder().encode_flops());
    }

    // --- LSP ---------------------------------------------------------
    if (obs_ != nullptr) obs_->phase_begin(Phase::Lsp, t);
    const sim::VTime lsp0 = t;
    const EwStats lsp_ew0 = knl_.stats();
    const auto lsp_w0 = std::chrono::steady_clock::now();
    t = observe("psi", t);
    t = observe("lambda", t);
    {
      const EwStats ew0 = knl_.stats();
      knl_.g_update(gfield, psi, lambda, rho);
      t += ew_cost(knl_.stats() - ew0);
    }
    t = observe("g", t);
    t = run_lsp(u, dref, gfield, rho, t, &st.loss, &st);
    st.lsp_s = t - lsp0;
    end_phase(result, Phase::Lsp, lsp_ew0, lsp_w0, t);
    if (obs_ != nullptr) obs_->phase_end(Phase::Lsp, t);

    // --- RSP: ψ = shrink(∇u + λ/ρ, α/ρ) --------------------------------
    if (obs_ != nullptr) obs_->phase_begin(Phase::Rsp, t);
    const sim::VTime rsp0 = t;
    const EwStats rsp_ew0 = knl_.stats();
    const auto rsp_w0 = std::chrono::steady_clock::now();
    t = observe("lambda", t);
    // One fused sweep: gu = ∇u, ψ = shrink(gu + λ/ρ, α/ρ), and (under
    // adaptive ρ) the penalty residual s² from the in-register old/new ψ —
    // the ψ_prev field and its copy pass are gone.
    const double s2 = knl_.rsp_shrink(u, lambda, rho, cfg_.alpha / rho, psi,
                                      gu, cfg_.adaptive_rho);
    t += ew_cost(knl_.stats() - rsp_ew0);
    t = observe("psi", t);
    st.rsp_s = t - rsp0;
    end_phase(result, Phase::Rsp, rsp_ew0, rsp_w0, t);
    if (obs_ != nullptr) obs_->phase_end(Phase::Rsp, t);

    // --- λ update ------------------------------------------------------
    if (obs_ != nullptr) obs_->phase_begin(Phase::LambdaUpdate, t);
    const sim::VTime lam0 = t;
    const EwStats lam_ew0 = knl_.stats();
    const auto lam_w0 = std::chrono::steady_clock::now();
    t = observe("psi", t);
    t = observe("lambda", t);
    // λ += ρ(∇u − ψ) fused with the r² residual for the ρ update.
    const double r2 =
        knl_.lambda_update(lambda, gu, psi, rho, cfg_.adaptive_rho);
    t += ew_cost(knl_.stats() - lam_ew0);
    st.lambda_s = t - lam0;
    end_phase(result, Phase::LambdaUpdate, lam_ew0, lam_w0, t);
    if (obs_ != nullptr) obs_->phase_end(Phase::LambdaUpdate, t);

    // --- penalty update (residual balancing) ----------------------------
    if (obs_ != nullptr) obs_->phase_begin(Phase::PenaltyUpdate, t);
    const sim::VTime pen0 = t;
    const EwStats pen_ew0 = knl_.stats();
    const auto pen_w0 = std::chrono::steady_clock::now();
    if (cfg_.adaptive_rho) {
      // r²/s² were folded into the λ/RSP sweeps above; only the scalar
      // balancing test remains here.
      const double r = std::sqrt(r2), s = rho * std::sqrt(s2);
      if (r > 10.0 * s) {
        rho *= 2.0;
      } else if (s > 10.0 * r) {
        rho *= 0.5;
      }
    }
    st.loss += cfg_.alpha * knl_.tv_norm(gu);
    t += ew_cost(knl_.stats() - pen_ew0);
    st.penalty_s = t - pen0;
    end_phase(result, Phase::PenaltyUpdate, pen_ew0, pen_w0, t);
    if (obs_ != nullptr) obs_->phase_end(Phase::PenaltyUpdate, t);

    st.t_end = t;
    const auto memo1 = ml_.counters();
    st.memo_delta.computed = memo1.computed - memo0.computed;
    st.memo_delta.miss = memo1.miss - memo0.miss;
    st.memo_delta.db_hit = memo1.db_hit - memo0.db_hit;
    st.memo_delta.cache_hit = memo1.cache_hit - memo0.cache_hit;
    st.memo_delta.db_hit_shared = memo1.db_hit_shared - memo0.db_hit_shared;
    st.ew_delta = knl_.stats() - iter_ew0;
    result.iterations.push_back(st);
    if (hook_) hook_(iter, u);
    MLR_LOG(Debug) << "iter " << iter << " loss " << st.loss << " vtime " << t;

    // Stage-boundary yield point: every variable the next iteration reads
    // is checkpointed above; yielding mid-warmup is excluded (bypass state
    // and collected samples are not part of the checkpoint).
    if (should_yield && !needs_warmup && iter + 1 < cfg_.outer_iters &&
        should_yield(iter + 1, t)) {
      ck.valid = true;
      ck.next_iter = iter + 1;
      ck.rho = rho;
      ck.lip = lip_;
      ck.t = t;
      ck.u = std::move(u);
      ck.dref = std::move(dref);
      ck.psi = std::move(psi);
      ck.lambda = std::move(lambda);
      for (auto& s : result.iterations)
        ck.iterations.push_back(std::move(s));
      for (std::size_t p = 0; p < std::size_t(kNumPhases); ++p) {
        ck.phases[p].ew += result.phases[p].ew;
        ck.phases[p].wall_s += result.phases[p].wall_s;
      }
      ck.ew_total += knl_.stats() - solve_ew0;
      ck.transfer_busy += ml_.device_transfer_busy() - dev_xfer0;
      paused = true;
      break;
    }
  }

  if (paused) {
    mem_.release("psi", ck.t);
    mem_.release("lambda", ck.t);
    mem_.release("g", ck.t);
    mem_.release("u", ck.t);
    mem_.release("d", ck.t);
    return false;
  }

  mem_.release("psi", t);
  mem_.release("lambda", t);
  mem_.release("g", t);
  mem_.release("u", t);
  mem_.release("d", t);
  // Stitch prior segments' accumulators (empty for an uninterrupted solve)
  // under this segment's totals.
  result.total_vtime = t;
  std::vector<IterationStats> its = std::move(ck.iterations);
  for (auto& s : result.iterations) its.push_back(std::move(s));
  result.iterations = std::move(its);
  for (std::size_t p = 0; p < std::size_t(kNumPhases); ++p) {
    result.phases[p].ew += ck.phases[p].ew;
    result.phases[p].wall_s += ck.phases[p].wall_s;
  }
  result.ew_total = ck.ew_total;
  result.ew_total += knl_.stats() - solve_ew0;
  const double xfer =
      ck.transfer_busy + (ml_.device_transfer_busy() - dev_xfer0);
  result.transfer_share = t > 0 ? xfer / t : 0.0;
  result.u = std::move(u);
  ck = SolverCheckpoint{};  // consumed
  *out = std::move(result);
  return true;
}

double reconstruction_accuracy(const Array3D<cfloat>& reference,
                               const Array3D<cfloat>& candidate) {
  return 1.0 - relative_error<cfloat>(reference.span(), candidate.span());
}

}  // namespace mlr::admm
