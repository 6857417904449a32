// google-benchmark microbenchmarks of the from-scratch FFT/NUFFT kernels —
// the substrate under every F_u*D operator. Not a paper figure; documents
// the real cost structure of the numerical core on this host.
//
// The `allocs/op` counter reports scratch-arena heap allocations per
// transform (see common/scratch.hpp). Every kernel is warmed once before
// the timing loop, so the steady-state value must be exactly 0 — the
// allocation-free hot path the stage-execution engine's miss-compute phase
// relies on. The BM_Fused* entries extend the same contract to the fused
// elementwise solver kernels (admm/kernels.hpp): their per-tile reduction
// partials live in the caller's scratch arena, so steady-state allocs/op
// must also be exactly 0 at any pool width. The key-encoder entries
// (BM_EncodeQuantized, BM_EncodeBatch, BM_EncoderTrainPair) hold the CNN
// layer kernels to the same contract: their relaid weights and
// channels-last buffers live in per-thread scratch. BM_EncodeBatch and
// BM_EncoderTrainPair take the pool width their rounds fan out on, and warm
// until every worker's scratch has reached its size. BM_ForkJoinRound times
// one round of empty chunks: the pool's dispatch and join alone.
// BM_FftBatch and BM_OperatorChunk time the batched operator kernels: many
// transforms per call, and the four F_u*D chunk kernels the stage engine
// runs on every memo miss. BM_Nufft2DType2/Type1
// time the 2-D plan's interpolation and spreading, and BM_SpreadWindow the
// Gaussian window both NUFFT plans build per target.
#include <benchmark/benchmark.h>

#include "admm/kernels.hpp"
#include "admm/tv.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "encoder/encoder.hpp"
#include "fft/fft.hpp"
#include "fft/nufft.hpp"
#include "fft/window.hpp"
#include "lamino/operators.hpp"

namespace {

using namespace mlr;

std::vector<cfloat> signal(i64 n, u64 seed) {
  Rng rng(seed);
  std::vector<cfloat> v(static_cast<size_t>(n));
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

/// Counts scratch-arena heap allocations across the timing loop and reports
/// them per op; steady state (post-warmup) must be zero.
class AllocCounter {
 public:
  AllocCounter() : start_(scratch_heap_allocs()) {}
  void report(benchmark::State& state) const {
    state.counters["allocs/op"] =
        benchmark::Counter(double(scratch_heap_allocs() - start_),
                           benchmark::Counter::kAvgIterations);
  }

 private:
  u64 start_;
};

void BM_FftPow2(benchmark::State& state) {
  const i64 n = state.range(0);
  fft::Plan1D plan(n);
  auto x = signal(n, 1);
  plan.forward(x);  // warm the plan's per-thread scratch
  AllocCounter allocs;
  for (auto _ : state) {
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FftPow2)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FftBluestein(benchmark::State& state) {
  const i64 n = state.range(0);
  fft::Plan1D plan(n);
  auto x = signal(n, 2);
  plan.forward(x);  // warm the Bluestein convolution scratch
  AllocCounter allocs;
  for (auto _ : state) {
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FftBluestein)->Arg(60)->Arg(250)->Arg(1000);

// range(1) lanes of length range(0) in one execute_batch call (ld = lanes):
// the column pass of a 2-D transform.
void BM_FftBatch(benchmark::State& state) {
  const i64 n = state.range(0), lanes = state.range(1);
  fft::Plan1D plan(n);
  auto x = signal(n * lanes, 19);
  plan.execute_batch(x.data(), lanes, lanes, false);  // warm the scratch
  AllocCounter allocs;
  for (auto _ : state) {
    plan.execute_batch(x.data(), lanes, lanes, false);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * n * lanes);
}
BENCHMARK(BM_FftBatch)->Args({24, 64})->Args({64, 64});

void BM_Fft2D(benchmark::State& state) {
  const i64 n = state.range(0);
  Array2D<cfloat> a(n, n);
  Rng rng(3);
  for (auto& v : a) v = cfloat(float(rng.normal()), float(rng.normal()));
  fft::fft2d(a, false);  // warm the per-thread plan cache + transpose scratch
  AllocCounter allocs;
  for (auto _ : state) {
    fft::fft2d(a, false);
    benchmark::DoNotOptimize(a.data());
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Fft2D)->Arg(32)->Arg(64)->Arg(128);

void BM_Nufft1DType2(benchmark::State& state) {
  const i64 n = state.range(0);
  fft::Nufft1D plan(n);
  Rng rng(4);
  std::vector<double> nu(static_cast<size_t>(n));
  for (auto& v : nu) v = rng.uniform(-double(n) / 2, double(n) / 2);
  auto f = signal(n, 5);
  std::vector<cfloat> out(static_cast<size_t>(n));
  plan.type2(nu, f, out, -1);  // warm the fine-grid scratch
  AllocCounter allocs;
  for (auto _ : state) {
    plan.type2(nu, f, out, -1);
    benchmark::DoNotOptimize(out.data());
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Nufft1DType2)->Arg(64)->Arg(256)->Arg(1024);

// range(0)² random targets on a range(0)² grid: F_u2D's interpolation
// (type 2) and its adjoint's spreading (type 1), each behind one fine 2-D
// FFT.
void BM_Nufft2D(benchmark::State& state, bool spread) {
  const i64 n = state.range(0);
  fft::Nufft2D plan(n, n);
  Rng rng(6);
  const i64 pts = n * n;
  std::vector<double> nr(static_cast<size_t>(pts)), nc(static_cast<size_t>(pts));
  for (i64 i = 0; i < pts; ++i) {
    nr[size_t(i)] = rng.uniform(-double(n) / 2, double(n) / 2);
    nc[size_t(i)] = rng.uniform(-double(n) / 2, double(n) / 2);
  }
  auto f = signal(pts, 7);
  std::vector<cfloat> out(static_cast<size_t>(pts));
  const auto run = [&] {
    if (spread)
      plan.type1(nr, nc, f, out, +1);
    else
      plan.type2(nr, nc, f, out, -1);
  };
  run();  // warm the fine-grid + transpose scratch
  AllocCounter allocs;
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * pts);
}
void BM_Nufft2DType2(benchmark::State& state) { BM_Nufft2D(state, false); }
void BM_Nufft2DType1(benchmark::State& state) { BM_Nufft2D(state, true); }
BENCHMARK(BM_Nufft2DType2)->Arg(16)->Arg(32);
BENCHMARK(BM_Nufft2DType1)->Arg(16)->Arg(32);

// One Gaussian spreading window of half-width range(0) (σ = 2) around a
// random point of a 64-point fine grid: the per-target cost both NUFFT
// plans pay once per axis. The fallback-taps counter is the share of taps
// that recomputed the reference `exp` (fft/window.hpp).
void BM_SpreadWindow(benchmark::State& state) {
  const fft::GriddingParams params{.msp = int(state.range(0))};
  const fft::GaussianWindow window(params.msp, params.tau());
  constexpr i64 kM = 64;
  Rng rng(20);
  std::vector<double> points(4096);
  for (auto& p : points) p = rng.uniform(0.0, double(kM));
  std::size_t i = 0;
  u64 taps = 0, fallback = 0;
  for (auto _ : state) {
    const auto win = window.at(points[i], kM);
    benchmark::DoNotOptimize(win.w);
    taps += u64(win.cnt);
    fallback += u64(win.fallback_taps);
    i = i + 1 == points.size() ? 0 : i + 1;
  }
  state.counters["fallback/tap"] = double(fallback) / double(taps);
}
BENCHMARK(BM_SpreadWindow)->Arg(6)->Arg(15);

// One F_u1D / F_u1D* / F_u2D / F_u2D* chunk (range(0) = 0..3) of 4 slices
// or detector rows on a range(1)³ cube: the miss-compute unit the stage
// engine runs and memoizes.
void BM_OperatorChunk(benchmark::State& state) {
  static constexpr const char* kNames[] = {"fu1d", "fu1d_adj", "fu2d",
                                           "fu2d_adj"};
  const auto kernel = size_t(state.range(0));
  const i64 n = state.range(1), count = 4;
  const lamino::Operators ops(lamino::Geometry::cube(n));
  const auto& g = ops.geometry();
  const i64 slab = g.n0 * g.n2, u1 = g.h * g.n2, plane = g.n1 * g.n2,
            proj = g.ntheta * g.w;
  const std::pair<i64, i64> sizes[] = {
      {slab, u1}, {u1, slab}, {plane, proj}, {proj, plane}};
  const auto in = signal(count * sizes[kernel].first, 18);
  std::vector<cfloat> out(size_t(count * sizes[kernel].second));
  const lamino::ChunkSpec spec{0, 0, count};
  const auto run = [&] {
    switch (kernel) {
      case 0: ops.fu1d_chunk(spec, in, out); break;
      case 1: ops.fu1d_adj_chunk(spec, in, out); break;
      case 2: ops.fu2d_chunk(spec, in, out); break;
      default: ops.fu2d_adj_chunk(spec, in, out); break;
    }
  };
  run();  // warm the per-thread grids
  AllocCounter allocs;
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  allocs.report(state);
  state.SetLabel(kNames[kernel]);
}
BENCHMARK(BM_OperatorChunk)->ArgsProduct({{0, 1, 2, 3}, {12, 32}});

admm::VectorField field(Shape3 s, u64 seed) {
  admm::VectorField f(s);
  for (int c = 0; c < 3; ++c) {
    Rng rng(seed + u64(c));
    for (auto& x : f.c[c]) x = cfloat(float(rng.normal()), float(rng.normal()));
  }
  return f;
}

// The RSP chain — ∇u, +λ/ρ, soft-threshold, ‖ψ−ψ_prev‖² — as ONE fused
// streaming kernel. range(0) = cube side, range(1) = pool width.
void BM_FusedRspShrink(benchmark::State& state) {
  const i64 n = state.range(0);
  const Shape3 s{n, n, n};
  Array3D<cfloat> u(s);
  Rng rng(10);
  for (auto& v : u) v = cfloat(float(rng.normal()), float(rng.normal()));
  const auto lambda = field(s, 11);
  auto psi = field(s, 12);
  admm::VectorField gu(s);
  ThreadPool pool(unsigned(state.range(1)));
  admm::SolverKernels knl;
  knl.set_pool(&pool);
  double sink = knl.rsp_shrink(u, lambda, 0.7, 1e-3, psi, gu, true);  // warm
  AllocCounter allocs;
  for (auto _ : state) {
    sink += knl.rsp_shrink(u, lambda, 0.7, 1e-3, psi, gu, true);
    benchmark::DoNotOptimize(sink);
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * u.size());
}
BENCHMARK(BM_FusedRspShrink)->Args({24, 1})->Args({24, 4})->Args({40, 4});

// The LSP gradient chain — ∇u, −g, ∇ᵀ·, +ρ·, two dot products — fused.
void BM_FusedLspCombine(benchmark::State& state) {
  const i64 n = state.range(0);
  const Shape3 s{n, n, n};
  Array3D<cfloat> u(s), grad_data(s), G_prev(s), G(s);
  Rng rng(13);
  auto fill = [&rng](Array3D<cfloat>& a) {
    for (auto& v : a) v = cfloat(float(rng.normal()), float(rng.normal()));
  };
  fill(u);
  fill(grad_data);
  fill(G_prev);
  const auto g = field(s, 14);
  ThreadPool pool(unsigned(state.range(1)));
  admm::SolverKernels knl;
  knl.set_pool(&pool);
  auto d = knl.lsp_combine(u, g, grad_data, 0.7, G_prev, true, G);  // warm
  AllocCounter allocs;
  for (auto _ : state) {
    d = knl.lsp_combine(u, g, grad_data, 0.7, G_prev, true, G);
    benchmark::DoNotOptimize(d.gg);
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * u.size());
}
BENCHMARK(BM_FusedLspCombine)->Args({24, 1})->Args({24, 4})->Args({40, 4});

// One deployed key: INT8 CNN encode of a range(0)×range(0) chunk plane
// (12: the serve workload's n; 32: the encoder's own front-end size).
void BM_EncodeQuantized(benchmark::State& state) {
  const i64 n = state.range(0);
  encoder::CnnEncoder enc;
  enc.quantize();
  const auto chunk = signal(n * n, 15);
  const encoder::ChunkImage img{n, n, chunk};
  auto key = enc.encode_quantized(img);  // warm the layer kernels' scratch
  AllocCounter allocs;
  for (auto _ : state) {
    key = enc.encode_quantized(img);
    benchmark::DoNotOptimize(key.data());
  }
  allocs.report(state);
}
BENCHMARK(BM_EncodeQuantized)->Arg(12)->Arg(32);

// The deployed keys of one stage: encode_batch() of range(0) 12×12 chunk
// planes on a team of range(1) threads (1: the batch on the calling
// thread). Warmed like BM_EncoderTrainPair, until 32 batches in a row
// allocate no kernel scratch.
void BM_EncodeBatch(benchmark::State& state) {
  encoder::CnnEncoder enc;
  enc.quantize();
  ThreadPool pool(unsigned(state.range(1)));
  std::vector<std::vector<cfloat>> planes;
  std::vector<encoder::ChunkImage> batch;
  for (i64 k = 0; k < state.range(0); ++k)
    planes.push_back(signal(12 * 12, 20 + u64(k)));
  for (const auto& p : planes) batch.push_back({12, 12, p});
  std::vector<std::vector<float>> keys;
  for (int calm = 0; calm < 32;) {
    const u64 before = scratch_heap_allocs();
    keys = enc.encode_batch(batch, pool);
    calm = scratch_heap_allocs() == before ? calm + 1 : 0;
  }
  AllocCounter allocs;
  for (auto _ : state) {
    keys = enc.encode_batch(batch, pool);
    benchmark::DoNotOptimize(keys.data());
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeBatch)->ArgsProduct({{1, 2, 3}, {1, 4}});

// One fork-join round of empty work: parallel_for over range(0) indices on
// a team of range(1) threads (at most 4 chunks per thread). What a stage
// pays per round beyond its chunks' own work.
void BM_ForkJoinRound(benchmark::State& state) {
  ThreadPool pool(unsigned(state.range(1)));
  const i64 n = state.range(0);
  for (auto _ : state) {
    parallel_for(pool, 0, n, [](i64 i) { benchmark::DoNotOptimize(i); });
  }
}
BENCHMARK(BM_ForkJoinRound)->ArgsProduct({{3, 8, 16}, {2, 4}});

// One contrastive training step (two forwards, two backwards, six Adam
// updates) on a pair of 32×32 chunk planes, its layer kernels fanned out on
// a pool of range(0) workers (1: the serial step on the calling thread).
// Each worker's kernel scratch grows the first time it runs each kernel,
// which depends on scheduling, so the warm-up runs steps until 32 in a row
// allocate nothing.
void BM_EncoderTrainPair(benchmark::State& state) {
  encoder::CnnEncoder enc;
  ThreadPool pool(unsigned(state.range(0)));
  const auto a = signal(32 * 32, 16);
  const auto b = signal(32 * 32, 17);
  double loss = 0;
  for (int calm = 0; calm < 32;) {
    const u64 before = scratch_heap_allocs();
    loss = enc.train_pair({32, 32, a}, {32, 32, b}, pool);
    calm = scratch_heap_allocs() == before ? calm + 1 : 0;
  }
  AllocCounter allocs;
  for (auto _ : state) {
    loss = enc.train_pair({32, 32, a}, {32, 32, b}, pool);
    benchmark::DoNotOptimize(loss);
  }
  allocs.report(state);
}
BENCHMARK(BM_EncoderTrainPair)->Arg(1)->Arg(2)->Arg(4);

void BM_NaiveNdftReference(benchmark::State& state) {
  const i64 n = state.range(0);
  Rng rng(8);
  std::vector<double> nu(static_cast<size_t>(n));
  for (auto& v : nu) v = rng.uniform(-double(n) / 2, double(n) / 2);
  auto f = signal(n, 9);
  std::vector<cfloat> out(static_cast<size_t>(n));
  for (auto _ : state) {
    fft::ndft1d_type2(nu, f, out, -1);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_NaiveNdftReference)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
