#include "core/mlr.hpp"

#include "common/timer.hpp"

namespace mlr {

Dataset Dataset::small(i64 n) {
  return {"small (1K^3)", n, 1024, lamino::PhantomKind::BrainTissue, 0.01, 11};
}
Dataset Dataset::medium(i64 n) {
  return {"medium (1.5K^3)", n, 1536, lamino::PhantomKind::BrainTissue, 0.01,
          12};
}
Dataset Dataset::large(i64 n) {
  return {"large (2K^3)", n, 2048, lamino::PhantomKind::BrainTissue, 0.01, 13};
}

Reconstructor::Reconstructor(ReconstructionConfig cfg) : cfg_(std::move(cfg)) {
  MLR_CHECK(cfg_.iters >= 1);
}

Reconstructor::~Reconstructor() = default;

void Reconstructor::prepare() {
  if (prepared_) return;
  const auto geom = lamino::Geometry::cube(cfg_.dataset.n);
  ops_ = std::make_unique<lamino::Operators>(geom);
  u_true_ = lamino::to_complex(lamino::make_phantom(
      geom.object_shape(), cfg_.dataset.kind, cfg_.dataset.seed));
  d_ = lamino::simulate_projections(*ops_, u_true_, cfg_.dataset.noise,
                                    cfg_.dataset.seed + 1);
  const double ws = cfg_.dataset.work_scale();
  ExecutionOptions eo;
  eo.threads = cfg_.threads;
  eo.db.tau = cfg_.tau;
  eo.db.value_scale = ws;
  eo.memo.enable = cfg_.memoize;
  eo.memo.tau = cfg_.tau;
  eo.memo.cache = cfg_.cache;
  eo.memo.work_scale = ws;
  ctx_ = std::make_unique<ExecutionContext>(*ops_, eo);
  admm::AdmmConfig ac;
  ac.outer_iters = cfg_.iters;
  ac.inner_iters = cfg_.inner_iters;
  ac.alpha = cfg_.alpha;
  ac.chunk_size = cfg_.chunk_size;
  ac.use_cancellation = cfg_.cancellation;
  ac.use_fusion = cfg_.fusion;
  ac.work_scale = ws;
  solver_ = std::make_unique<admm::Solver>(ctx_->memo(), ac);
  prepared_ = true;
}

Report Reconstructor::run() {
  MLR_CHECK_MSG(!ran_, "Reconstructor::run() runs once per object; build a "
                       "new Reconstructor for another solve");
  ran_ = true;
  prepare();
  WallTimer wall;
  Report rep;
  const double ws = cfg_.dataset.work_scale();

  std::unique_ptr<admm::PhaseObserver> policy;
  offload::Trace trace;
  if (cfg_.offload != OffloadMode::None) {
    // Profile one short run to obtain the access trace (paper: "profiling
    // only a single ADMM-FFT iteration").
    offload::TraceProfiler prof;
    admm::AdmmConfig pc;
    pc.outer_iters = 1;
    pc.inner_iters = cfg_.inner_iters;
    pc.chunk_size = cfg_.chunk_size;
    pc.use_cancellation = cfg_.cancellation;
    pc.use_fusion = cfg_.fusion;
    pc.work_scale = ws;
    sim::Device prof_dev(99);
    memo::MemoizedLamino prof_ml(*ops_, {.enable = false, .work_scale = ws},
                                 &prof_dev, nullptr);
    admm::Solver prof_solver(prof_ml, pc);
    prof_solver.set_observer(&prof);
    (void)prof_solver.solve(d_);
    trace = prof.trace();

    const double vol = double(u_true_.bytes());
    std::vector<offload::VariableInfo> vars{{"psi", 3 * vol * ws},
                                            {"lambda", 3 * vol * ws},
                                            {"g", 3 * vol * ws}};
    switch (cfg_.offload) {
      case OffloadMode::Planned: {
        offload::Planner planner(trace, vars);
        rep.offload_plan = planner.best();
        policy = std::make_unique<offload::AdmmOffloadPolicy>(rep.offload_plan,
                                                              trace);
        break;
      }
      case OffloadMode::Greedy:
        policy = std::make_unique<offload::GreedyOffloadPolicy>(vars);
        break;
      case OffloadMode::Lru:
        policy = std::make_unique<offload::LruOffloadPolicy>(
            vars, 6 * vol * ws);  // budget: two of the three variables
        break;
      case OffloadMode::None: break;
    }
    if (policy) solver_->set_observer(policy.get());
  }

  rep.result = solver_->solve(d_);
  rep.ground_truth = u_true_;
  rep.vtime_s = rep.result.total_vtime;
  rep.error_vs_truth =
      relative_error<cfloat>(u_true_.span(), rep.result.u.span());
  rep.memo = ctx_->memo().counters();
  rep.cache_hit_rate = ctx_->memo().cache_stats().hit_rate();
  // Steady-state peak: skip the Init/first-iteration transient where all
  // variables are co-resident while the policy's initial writes are still in
  // flight (the paper's variables materialize staggered across phases).
  const double steady_from = rep.result.iterations.size() > 1
                                 ? rep.result.iterations.front().t_end
                                 : 0.0;
  auto peak_after = [&](const std::vector<sim::MemoryTracker::Sample>& curve) {
    double pk = 0;
    for (const auto& s2 : curve)
      if (s2.t >= steady_from) pk = std::max(pk, s2.bytes);
    return pk;
  };
  {
    auto base = solver_->memory().timeline();
    for (auto& s2 : base) s2.bytes *= ws;
    rep.peak_rss_bytes = peak_after(base);
  }
  if (policy) {
    const offload::OffloadStats* st = nullptr;
    if (auto* p = dynamic_cast<offload::AdmmOffloadPolicy*>(policy.get()))
      st = &p->stats();
    if (auto* p = dynamic_cast<offload::GreedyOffloadPolicy*>(policy.get()))
      st = &p->stats();
    if (auto* p = dynamic_cast<offload::LruOffloadPolicy*>(policy.get()))
      st = &p->stats();
    if (st != nullptr) {
      rep.exposed_stall_s = st->exposed_stall_s;
      // Offloaded bytes are tracked at paper scale already (the variable
      // registry was built with work_scale applied); the solver tracker is
      // in local bytes, so scale it before combining.
      auto base = solver_->memory().timeline();
      for (auto& s2 : base) s2.bytes *= ws;
      auto rss = offload::apply_offload_to_rss(base, st->offloaded_timeline);
      rep.peak_rss_bytes = peak_after(rss);
    }
  }
  rep.real_seconds = wall.seconds();
  return rep;
}

MemoryBreakdown admm_memory_breakdown(const Dataset& ds) {
  MemoryBreakdown b;
  const double vol =
      double(ds.paper_n) * double(ds.paper_n) * double(ds.paper_n);
  const double c64 = 8.0;  // COMPLEX64 bytes
  b.u = vol * c64;
  b.d = vol * c64;
  b.psi = 3 * vol * c64;
  b.lambda = 3 * vol * c64;
  b.g = 3 * vol * c64;
  b.g_prev = vol * c64;
  b.other = 2 * vol * c64;  // ũ1 + residual workspaces inside LSP
  return b;
}

}  // namespace mlr
