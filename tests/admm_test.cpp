// Tests for the ADMM-FFT solver: TV operator correctness (adjointness,
// shrinkage), convergence on phantoms, Algorithm 1 ≡ Algorithm 2 numerics,
// memoized-vs-plain accuracy, and phase observation hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "admm/solver.hpp"
#include "admm/tv.hpp"
#include "common/rng.hpp"
#include "lamino/phantom.hpp"
#include "obs/metrics.hpp"

namespace mlr::admm {
namespace {

Array3D<cfloat> random_volume(Shape3 s, u64 seed) {
  Array3D<cfloat> v(s);
  Rng rng(seed);
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

TEST(Tv, GradientOfConstantIsZero) {
  Array3D<cfloat> u(4, 4, 4);
  u.fill(cfloat(3.0f, -1.0f));
  VectorField g(u.shape());
  tv_grad(u, g);
  for (int c = 0; c < 3; ++c)
    for (const auto& v : g.c[c]) EXPECT_EQ(v, cfloat{});
}

TEST(Tv, GradientOfLinearRamp) {
  Array3D<cfloat> u(4, 4, 4);
  for (i64 i1 = 0; i1 < 4; ++i1)
    for (i64 i0 = 0; i0 < 4; ++i0)
      for (i64 i2 = 0; i2 < 4; ++i2) u(i1, i0, i2) = cfloat(float(i1), 0.0f);
  VectorField g(u.shape());
  tv_grad(u, g);
  // d/di1 = 1 except at the boundary.
  for (i64 i1 = 0; i1 < 3; ++i1) EXPECT_EQ(g.c[0](i1, 2, 2), cfloat(1.0f, 0.0f));
  EXPECT_EQ(g.c[0](3, 2, 2), cfloat{});
  for (const auto& v : g.c[1]) EXPECT_EQ(v, cfloat{});
  for (const auto& v : g.c[2]) EXPECT_EQ(v, cfloat{});
}

TEST(Tv, AdjointConsistency) {
  // <∇u, g> == <u, ∇ᵀg> — required for the CG gradient to be exact.
  auto u = random_volume({6, 5, 4}, 1);
  VectorField g({6, 5, 4});
  for (int c = 0; c < 3; ++c) {
    Rng rng(10 + u64(c));
    for (auto& v : g.c[c]) v = cfloat(float(rng.normal()), float(rng.normal()));
  }
  VectorField gu(u.shape());
  tv_grad(u, gu);
  Array3D<cfloat> adj(u.shape());
  tv_grad_adjoint(g, adj);
  cdouble lhs{}, rhs{};
  for (int c = 0; c < 3; ++c)
    for (i64 i = 0; i < gu.c[c].size(); ++i)
      lhs += cdouble(gu.c[c].data()[i]) * std::conj(cdouble(g.c[c].data()[i]));
  for (i64 i = 0; i < u.size(); ++i)
    rhs += cdouble(u.data()[i]) * std::conj(cdouble(adj.data()[i]));
  EXPECT_LT(std::abs(lhs - rhs) / std::abs(lhs), 1e-4);
}

TEST(Tv, SoftThresholdShrinksAndZeroes) {
  VectorField x({2, 2, 2});
  x.c[0](0, 0, 0) = cfloat(3.0f, 4.0f);   // |v| = 5
  x.c[1](0, 0, 0) = cfloat(0.3f, 0.0f);   // |v| = 0.3 < t
  soft_threshold(x, 1.0);
  EXPECT_NEAR(std::abs(x.c[0](0, 0, 0)), 4.0, 1e-5);     // 5 − 1
  EXPECT_NEAR(std::arg(x.c[0](0, 0, 0)), std::atan2(4, 3), 1e-5);  // phase kept
  EXPECT_EQ(x.c[1](0, 0, 0), cfloat{});
}

TEST(Tv, NormAndAxpy) {
  VectorField a({2, 2, 2}), b({2, 2, 2});
  a.c[0](0, 0, 0) = cfloat(1.0f, 0.0f);
  b.c[0](0, 0, 0) = cfloat(2.0f, 0.0f);
  axpy(a, 0.5, b);
  EXPECT_NEAR(std::abs(a.c[0](0, 0, 0)), 2.0, 1e-6);
  EXPECT_NEAR(tv_norm(a), 2.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Solver fixtures.

struct SolverFixture {
  lamino::Geometry geom = lamino::Geometry::cube(12);
  lamino::Operators ops{geom};
  sim::Device dev{0};
  sim::Interconnect net;
  sim::MemoryNode node;
  memo::MemoDb db{{.key_dim = 16, .tau = 0.92,
                   .ivf = {.nlist = 4, .train_size = 16}},
                  &net, &node};
  Array3D<cfloat> u_true;
  Array3D<cfloat> d;

  SolverFixture() {
    u_true = lamino::to_complex(lamino::make_phantom(
        geom.object_shape(), lamino::PhantomKind::BrainTissue, 3));
    d = lamino::simulate_projections(ops, u_true, 0.0);
  }

  memo::MemoizedLamino plain() {
    return memo::MemoizedLamino(ops, {.enable = false}, &dev, nullptr);
  }
  memo::MemoizedLamino memoized(double tau = 0.92,
                                double work_scale = 1.0e5) {
    // Encoder left untrained: the Solver's warmup iteration collects real
    // stage chunks (all four operator kinds) and trains it.
    return memo::MemoizedLamino(
        ops,
        {.enable = true, .tau = tau, .key_dim = 16, .encoder_hw = 16,
         .work_scale = work_scale},
        &dev, &db);
  }
  /// Contrastive-train the key encoder on phantom slabs, as mLR does before
  /// reconstruction starts.
  void train(memo::MemoizedLamino& ml) {
    std::vector<std::vector<cfloat>> samples;
    for (i64 i1 = 0; i1 < geom.n1; ++i1) {
      auto s = u_true.slices(i1, 1);
      samples.emplace_back(s.begin(), s.end());
    }
    ml.train_encoder(samples, geom.n0, geom.n2, 80);
  }
};

TEST(Solver, LossDecreasesOnPhantom) {
  SolverFixture f;
  auto ml = f.plain();
  Solver solver(ml, {.outer_iters = 8, .inner_iters = 4, .chunk_size = 4});
  auto res = solver.solve(f.d);
  ASSERT_EQ(res.iterations.size(), 8u);
  EXPECT_LT(res.iterations.back().loss, 0.5 * res.iterations.front().loss);
  EXPECT_GT(res.total_vtime, 0.0);
}

TEST(Solver, ReconstructionApproachesGroundTruth) {
  SolverFixture f;
  auto ml = f.plain();
  Solver solver(ml, {.outer_iters = 12, .inner_iters = 4, .alpha = 1e-4,
                     .chunk_size = 4});
  auto res = solver.solve(f.d);
  // Zero-init error is 1.0 by definition; reconstruction must do far better.
  const double err = relative_error<cfloat>(f.u_true.span(), res.u.span());
  EXPECT_LT(err, 0.55);
}

TEST(Solver, Algorithm1AndAlgorithm2AgreeNumerically) {
  // Operation cancellation must not change results (only timing).
  SolverFixture f;
  auto ml1 = f.plain();
  Solver s1(ml1, {.outer_iters = 4, .inner_iters = 2, .chunk_size = 4,
                  .use_cancellation = false, .use_fusion = false});
  auto r1 = s1.solve(f.d);
  auto ml2 = f.plain();
  Solver s2(ml2, {.outer_iters = 4, .inner_iters = 2, .chunk_size = 4,
                  .use_cancellation = true, .use_fusion = true});
  auto r2 = s2.solve(f.d);
  EXPECT_LT(relative_error<cfloat>(r1.u.span(), r2.u.span()), 5e-3);
}

TEST(Solver, CancellationReducesTransferTime) {
  // The 1/3 CPU↔GPU transfer reduction of §4.2 (two F_2D stages per inner
  // iteration disappear).
  SolverFixture f;
  sim::Device dev1(1), dev2(2);
  memo::MemoizedLamino ml1(f.ops, {.enable = false}, &dev1, nullptr);
  Solver s1(ml1, {.outer_iters = 2, .inner_iters = 2, .chunk_size = 4,
                  .use_cancellation = false, .use_fusion = false});
  (void)s1.solve(f.d);
  memo::MemoizedLamino ml2(f.ops, {.enable = false}, &dev2, nullptr);
  Solver s2(ml2, {.outer_iters = 2, .inner_iters = 2, .chunk_size = 4,
                  .use_cancellation = true, .use_fusion = true});
  (void)s2.solve(f.d);
  EXPECT_LT(ml2.device_transfer_busy(), ml1.device_transfer_busy());
}

TEST(Solver, FusionRequiresCancellation) {
  SolverFixture f;
  auto ml = f.plain();
  EXPECT_THROW(Solver(ml, {.use_cancellation = false, .use_fusion = true}),
               mlr::Error);
}

TEST(Solver, MemoizedSolveStaysAccurate) {
  SolverFixture f;
  auto ml_ref = f.plain();
  Solver ref(ml_ref, {.outer_iters = 8, .inner_iters = 3, .chunk_size = 4});
  auto rref = ref.solve(f.d);
  auto ml_memo = f.memoized(0.97);
  Solver ms(ml_memo, {.outer_iters = 8, .inner_iters = 3, .chunk_size = 4});
  auto rmemo = ms.solve(f.d);
  // Memoization fired and accuracy stays in the high-τ regime of Table 1
  // (the absolute value depends on convergence depth; bench_table1_accuracy
  // sweeps the full τ range).
  EXPECT_GT(ml_memo.counters().cache_hit + ml_memo.counters().db_hit, 0u);
  EXPECT_GT(reconstruction_accuracy(rref.u, rmemo.u), 0.8);
}

TEST(Solver, MemoizationReducesVirtualTime) {
  SolverFixture f;
  sim::Device dev1(3), dev2(4);
  memo::MemoizedLamino ml1(f.ops, {.enable = false, .work_scale = 1.0e5},
                           &dev1, nullptr);
  Solver s1(ml1, {.outer_iters = 6, .inner_iters = 3, .chunk_size = 4,
                  .work_scale = 1.0e5});
  auto r1 = s1.solve(f.d);
  sim::Interconnect net2;
  sim::MemoryNode node2;
  memo::MemoDb db2({.key_dim = 16, .tau = 0.9, .value_scale = 1.0e5,
                    .ivf = {.nlist = 4, .train_size = 16}},
                   &net2, &node2);
  memo::MemoizedLamino ml2(
      f.ops, {.enable = true, .tau = 0.9, .key_dim = 16, .encoder_hw = 16,
              .work_scale = 1.0e5},
      &dev2, &db2);
  f.train(ml2);
  Solver s2(ml2, {.outer_iters = 6, .inner_iters = 3, .chunk_size = 4,
                  .work_scale = 1.0e5});
  auto r2 = s2.solve(f.d);
  EXPECT_GT(ml2.counters().cache_hit + ml2.counters().db_hit, 0u);
  EXPECT_LT(r2.total_vtime, r1.total_vtime);
}

bool same_bits(const Array3D<cfloat>& a, const Array3D<cfloat>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), std::size_t(a.size()) *
                                             sizeof(cfloat)) == 0;
}

// ‖L*L‖ depends only on the geometry, so solves sharing one Operators share
// one estimate: the second solve reads the first one's, bit for bit what it
// would have computed. The one visible difference is the Init phase's
// EwStats, which lose the power iteration's kernels (1 norm, then 8 ×
// normalize + norm).
TEST(Solver, SolvesSharingOperatorsEstimateTheNormOnce) {
  SolverFixture f;
  auto& runs = obs::metrics().counter("admm.power_iterations");
  const AdmmConfig cfgs[] = {
      {.outer_iters = 2, .inner_iters = 2, .chunk_size = 4},
      {.outer_iters = 2, .inner_iters = 1, .chunk_size = 4,
       .use_cancellation = false, .use_fusion = false}};
  auto solve_on = [&](const lamino::Operators& ops, const AdmmConfig& cfg) {
    sim::Device dev(5);
    memo::MemoizedLamino ml(ops, {.enable = false}, &dev, nullptr);
    Solver s(ml, cfg);
    return s.solve(f.d);
  };
  const lamino::Operators own_a{f.geom}, own_b{f.geom}, shared{f.geom};
  u64 before = runs.value();
  const SolveResult sep[] = {solve_on(own_a, cfgs[0]),
                             solve_on(own_b, cfgs[1])};
  EXPECT_EQ(runs.value() - before, 2u);
  before = runs.value();
  const SolveResult one[] = {solve_on(shared, cfgs[0]),
                             solve_on(shared, cfgs[1])};
  EXPECT_EQ(runs.value() - before, 1u);
  for (int k = 0; k < 2; ++k) {
    EXPECT_TRUE(same_bits(sep[k].u, one[k].u)) << "solve " << k;
    EXPECT_EQ(sep[k].total_vtime, one[k].total_vtime) << "solve " << k;
  }
  const auto& init_sep = sep[1].phases[std::size_t(Phase::Init)].ew;
  const auto& init_one = one[1].phases[std::size_t(Phase::Init)].ew;
  EXPECT_EQ(init_sep.kernels - init_one.kernels, 17u);
  EXPECT_EQ(init_sep.passes - init_one.passes, 25u);
  EXPECT_EQ(one[0].phases[std::size_t(Phase::Init)].ew.kernels,
            init_sep.kernels);
}

// Racing solves on one Operators: the slot is filled once, and every solve
// reproduces the serial solve's result bits.
TEST(Solver, ConcurrentSolvesShareOneNormEstimate) {
  SolverFixture f;
  auto& runs = obs::metrics().counter("admm.power_iterations");
  const AdmmConfig cfg{.outer_iters = 2, .inner_iters = 2, .chunk_size = 4};
  auto solve_on = [&](const lamino::Operators& ops, int device) {
    sim::Device dev(device);
    memo::MemoizedLamino ml(ops, {.enable = false}, &dev, nullptr);
    Solver s(ml, cfg);
    return s.solve(f.d);
  };
  const lamino::Operators own{f.geom};
  const SolveResult serial = solve_on(own, 0);
  const lamino::Operators shared{f.geom};
  constexpr int kThreads = 4;
  std::vector<SolveResult> got(kThreads);
  const u64 before = runs.value();
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] { got[size_t(t)] = solve_on(shared, t); });
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(runs.value() - before, 1u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(same_bits(serial.u, got[size_t(t)].u)) << "thread " << t;
    EXPECT_EQ(serial.total_vtime, got[size_t(t)].total_vtime);
  }
}

TEST(Solver, IterationStatsPopulated) {
  SolverFixture f;
  auto ml = f.plain();
  Solver solver(ml, {.outer_iters = 3, .inner_iters = 2, .chunk_size = 4});
  auto res = solver.solve(f.d);
  for (const auto& st : res.iterations) {
    EXPECT_GT(st.lsp_s, 0.0);
    EXPECT_GE(st.rsp_s, 0.0);
    EXPECT_GT(st.loss, 0.0);
    EXPECT_GT(st.memo_delta.computed, 0u);
  }
  // LSP dominates the iteration (paper: >67 %).
  const auto& st = res.iterations[1];
  const double total = st.lsp_s + st.rsp_s + st.lambda_s + st.penalty_s;
  EXPECT_GT(st.lsp_s / total, 0.6);
}

TEST(Solver, MemoryTrackerSeesAdmmVariables) {
  SolverFixture f;
  auto ml = f.plain();
  Solver solver(ml, {.outer_iters = 2, .inner_iters = 2, .chunk_size = 4});
  (void)solver.solve(f.d);
  const auto& mem = solver.memory();
  EXPECT_GT(mem.peak(), 0.0);
  // ψ and λ are same-sized (the Fig 2 12 %-each pair).
  // After solve all released:
  EXPECT_DOUBLE_EQ(mem.current(), 0.0);
}

struct RecordingObserver : PhaseObserver {
  std::vector<Phase> begins;
  std::vector<std::string> accesses;
  void phase_begin(Phase p, sim::VTime) override { begins.push_back(p); }
  sim::VTime on_access(const std::string& var, sim::VTime t) override {
    accesses.push_back(var);
    return t;
  }
};

TEST(Solver, PhaseObserverSeesPhasesAndVariables) {
  SolverFixture f;
  auto ml = f.plain();
  Solver solver(ml, {.outer_iters = 2, .inner_iters = 1, .chunk_size = 4});
  RecordingObserver obs;
  solver.set_observer(&obs);
  (void)solver.solve(f.d);
  // Init + 4 phases × 2 iterations.
  ASSERT_EQ(obs.begins.size(), 1u + 8u);
  EXPECT_EQ(obs.begins[0], Phase::Init);
  EXPECT_EQ(obs.begins[1], Phase::Lsp);
  EXPECT_EQ(obs.begins[2], Phase::Rsp);
  // psi, lambda, g and u all observed.
  auto has = [&](const char* v) {
    return std::find(obs.accesses.begin(), obs.accesses.end(), v) !=
           obs.accesses.end();
  };
  EXPECT_TRUE(has("psi"));
  EXPECT_TRUE(has("lambda"));
  EXPECT_TRUE(has("g"));
  EXPECT_TRUE(has("u"));
}

TEST(Solver, IterationHookFires) {
  SolverFixture f;
  auto ml = f.plain();
  Solver solver(ml, {.outer_iters = 3, .inner_iters = 1, .chunk_size = 4});
  int calls = 0;
  solver.set_iteration_hook(
      [&](int iter, const Array3D<cfloat>& u) {
        EXPECT_EQ(iter, calls);
        EXPECT_EQ(u.shape(), f.geom.object_shape());
        ++calls;
      });
  (void)solver.solve(f.d);
  EXPECT_EQ(calls, 3);
}

TEST(Solver, AccuracyMetricMatchesDefinition) {
  auto a = random_volume({4, 4, 4}, 5);
  EXPECT_NEAR(reconstruction_accuracy(a, a), 1.0, 1e-7);
  Array3D<cfloat> zero(a.shape());
  EXPECT_NEAR(reconstruction_accuracy(a, zero), 0.0, 1e-7);
}

TEST(Solver, AdaptiveRhoStaysPositive) {
  SolverFixture f;
  auto ml = f.plain();
  Solver solver(ml, {.outer_iters = 6, .inner_iters = 2, .chunk_size = 4,
                     .adaptive_rho = true});
  auto res = solver.solve(f.d);
  for (const auto& st : res.iterations) EXPECT_GT(st.rho, 0.0);
}

// A solve leaves no state in its Solver: the penalty adapts within a solve,
// and a second solve starts from the configured ρ again, reproducing a fresh
// Solver's output, losses and penalties bit for bit. Memoization is off: a
// memoized second solve legitimately reads the DB the first one filled.
TEST(Solver, SecondSolveMatchesFreshSolver) {
  SolverFixture f;
  const AdmmConfig cfg{.outer_iters = 6, .inner_iters = 2, .chunk_size = 4};
  auto ml = f.plain();
  Solver solver(ml, cfg);
  const SolveResult first = solver.solve(f.d);
  // The penalty must really adapt or the test is vacuous.
  EXPECT_NE(first.iterations.back().rho, cfg.rho);
  const SolveResult second = solver.solve(f.d);

  sim::Device dev(1);
  memo::MemoizedLamino fresh_ml(f.ops, {.enable = false}, &dev, nullptr);
  Solver fresh(fresh_ml, cfg);
  const SolveResult ref = fresh.solve(f.d);
  EXPECT_TRUE(same_bits(second.u, ref.u));
  ASSERT_EQ(second.iterations.size(), ref.iterations.size());
  for (std::size_t i = 0; i < ref.iterations.size(); ++i) {
    EXPECT_EQ(second.iterations[i].rho, ref.iterations[i].rho) << "iter " << i;
    EXPECT_EQ(second.iterations[i].loss, ref.iterations[i].loss)
        << "iter " << i;
  }
}

}  // namespace
}  // namespace mlr::admm
