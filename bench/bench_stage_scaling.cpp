// Stage-throughput microbench for the memo layer's stage engine
// (memo::MemoizedLamino::run_stage): memoized operator stages executed with
// increasing worker-pool widths, one timing per width. Each stage runs one
// barriered DB round (scoring fanned out on the pool), then its miss FFTs
// and hit copies in one parallel pass, then its data tail inline.
//
// The workload alternates operator kinds per pass (Fu1D / Fu1DAdj, like
// the ADMM loop) and alternates hit and miss chunks within each pass (even
// chunks re-use the base volumes — DB hits — and odd chunks carry fresh
// churn planes whose FFTs and insertions are the local work). Host wall
// time is measured; the virtual clock is bit-identical at every width
// (asserted by tests/concurrency_test.cpp), and the memo outcomes of every
// width must match the serial run's (the outcome gate).
//
// A closing section runs one small reference ADMM solve and prints the
// fused elementwise-kernel profile per solver phase (passes vs what the
// pre-fusion loop chains would have streamed — the ≥2× pass-reduction
// contract lives here and in the JSON).
//
//   ./bench_stage_scaling [--n 20] [--chunk 1] [--reps 6] [--threads 8]
//                         [--json BENCH_stage_scaling.json]
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/mlr.hpp"
#include "lamino/phantom.hpp"
#include "memo/memo_db.hpp"
#include "memo/memoized_ops.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 20);
  const i64 chunk = args.get_i64("--chunk", 1);
  const i64 reps = args.get_i64("--reps", 6);
  const i64 max_threads = std::max<i64>(1, args.get_i64("--threads", 8));

  lamino::Operators ops{lamino::Geometry::cube(n)};
  const auto& g = ops.geometry();
  auto u = lamino::to_complex(lamino::make_phantom(
      g.object_shape(), lamino::PhantomKind::BrainTissue, 21));
  auto chunks = lamino::make_chunks(g.n1, chunk);

  // Base + per-pass churn volumes for BOTH kinds: chunks with odd index
  // read from the rep's churn volume instead of the base, so every pass
  // after the warm-up pair mixes DB hits (even chunks) with misses (odd
  // chunks). Identical across widths by construction.
  Array3D<cfloat> base_u1(g.u1_shape());
  std::vector<Array3D<cfloat>> churn_obj, churn_u1;
  {
    Rng rng(99);
    for (i64 i = 0; i < base_u1.size(); ++i)
      base_u1.data()[i] = cfloat(float(rng.normal()), float(rng.normal()));
  }
  for (i64 r = 0; r < reps; ++r) {
    churn_obj.emplace_back(g.object_shape());
    churn_u1.emplace_back(g.u1_shape());
    Rng rng(u64(100 + r));
    for (i64 i = 0; i < churn_obj.back().size(); ++i)
      churn_obj.back().data()[i] =
          cfloat(float(rng.normal()), float(rng.normal()));
    for (i64 i = 0; i < churn_u1.back().size(); ++i)
      churn_u1.back().data()[i] =
          cfloat(float(rng.normal()), float(rng.normal()));
  }

  std::printf(
      "stage-execution engine scaling — %lld^3 volume, %zu chunks/stage, "
      "kind-alternating Fu1D/Fu1DAdj, %lld mixed pass pairs after 1 miss "
      "pair\n\n",
      (long long)n, chunks.size(), (long long)reps);
  std::printf("%-9s %-11s %-9s\n", "threads", "engine(s)", "vs-1thr");

  // One full measurement: a miss pass per kind on the base volumes, then
  // `reps` mixed kind-alternating pass pairs.
  auto run_engine = [&](i64 threads) {
    sim::Device dev{0};
    sim::Interconnect net;
    sim::MemoryNode node;
    memo::MemoDb db{{.tau = 0.92, .ivf = {.nlist = 4, .train_size = 16}},
                    &net, &node};
    // No local cache: every chunk queries the DB each pass, keeping the
    // DB round-trip on the measured path.
    memo::MemoizedLamino ml(
        ops, {.enable = true, .tau = 0.92, .cache = memo::CacheKind::None},
        &dev, &db);
    ThreadPool pool{unsigned(threads)};
    ml.set_pool(&pool);

    Array3D<cfloat> out_u1(g.u1_shape()), out_obj(g.object_shape());
    auto make_work = [&](memo::OpKind kind, const Array3D<cfloat>* alt) {
      const bool adj = kind == memo::OpKind::Fu1DAdj;
      const Array3D<cfloat>& src = adj ? base_u1 : u;
      Array3D<cfloat>& dst = adj ? out_obj : out_u1;
      std::vector<memo::StageChunk> w;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        const auto& spec = chunks[c];
        const auto& in = (alt != nullptr && c % 2 == 1) ? *alt : src;
        w.push_back({spec, in.slices(spec.begin, spec.count),
                     dst.slices(spec.begin, spec.count)});
      }
      return w;
    };

    WallTimer wall;
    sim::VTime t = 0;
    for (const auto kind : {memo::OpKind::Fu1D, memo::OpKind::Fu1DAdj}) {
      auto w = make_work(kind, nullptr);
      t = ml.run_stage(kind, w, t).done;
    }
    for (i64 r = 0; r < reps; ++r) {
      auto wa = make_work(memo::OpKind::Fu1D, &churn_obj[size_t(r)]);
      t = ml.run_stage(memo::OpKind::Fu1D, wa, t).done;
      auto wb = make_work(memo::OpKind::Fu1DAdj, &churn_u1[size_t(r)]);
      t = ml.run_stage(memo::OpKind::Fu1DAdj, wb, t).done;
    }
    return std::pair{wall.seconds(), ml.counters()};
  };

  bench::JsonObject json;
  json.set("bench", "stage_scaling");
  json.set("n", n);
  json.set("chunk", chunk);
  json.set("chunks_per_stage", i64(chunks.size()));
  json.set("reps", reps);

  double t1 = 0;
  memo::MemoCounters counters;
  bool mismatch = false;
  for (i64 threads = 1; threads <= max_threads; threads *= 2) {
    const auto [engine_s, c] = run_engine(threads);
    if (threads == 1) {
      t1 = engine_s;
      counters = c;
    } else if (c.db_hit != counters.db_hit || c.miss != counters.miss) {
      std::printf("!! outcome mismatch against the 1-thread run\n");
      mismatch = true;
    }
    char scale[16];
    std::snprintf(scale, sizeof scale, "%.2fx", t1 / engine_s);
    std::printf("%-9lld %-11.3f %-9s\n", (long long)threads, engine_s, scale);
    auto& row = json.row("rows");
    row.set("threads", threads);
    row.set("engine_s", engine_s);
  }

  std::printf("\nmemo outcomes per width: %llu db hits, %llu misses\n",
              (unsigned long long)counters.db_hit,
              (unsigned long long)counters.miss);

  json.set("db_hits", counters.db_hit);
  json.set("misses", counters.miss);

  // Fused-kernel profile of one reference ADMM solve: per solver phase, the
  // streaming passes the fused kernels made vs what the pre-fusion loop
  // chains would have made over the same operands. The solve is fixed
  // (small dataset) so the pass counts are a stable contract: total
  // naive/fused must stay ≥ 2.
  {
    ReconstructionConfig rc;
    rc.dataset = Dataset::small(14);
    rc.iters = 4;
    rc.threads = unsigned(max_threads);
    Reconstructor rec(rc);
    const auto rep = rec.run();
    const auto& res = rep.result;
    std::printf(
        "\nfused elementwise kernels, reference solve (%lld^3, %d outer "
        "iters):\n%-10s %-9s %-9s %-13s %-8s %-9s\n",
        (long long)rc.dataset.n, rc.iters, "phase", "kernels", "passes",
        "naive-passes", "fusionx", "wall(s)");
    for (int p = 0; p < admm::kNumPhases; ++p) {
      const auto& ph = res.phases[size_t(p)];
      std::printf("%-10s %-9llu %-9llu %-13llu %-8.2f %-9.3f\n",
                  admm::phase_name(admm::Phase(p)),
                  (unsigned long long)ph.ew.kernels,
                  (unsigned long long)ph.ew.passes,
                  (unsigned long long)ph.ew.naive_passes,
                  ph.ew.fusion_ratio(), ph.wall_s);
      auto& row = json.row("solver_phases");
      row.set("phase", admm::phase_name(admm::Phase(p)));
      row.set("kernels", ph.ew.kernels);
      row.set("passes", ph.ew.passes);
      row.set("naive_passes", ph.ew.naive_passes);
      row.set("wall_s", ph.wall_s);
    }
    std::printf("%-10s %-9llu %-9llu %-13llu %-8.2f\n", "total",
                (unsigned long long)res.ew_total.kernels,
                (unsigned long long)res.ew_total.passes,
                (unsigned long long)res.ew_total.naive_passes,
                res.ew_total.fusion_ratio());
    json.set("ew_passes", res.ew_total.passes);
    json.set("ew_naive_passes", res.ew_total.naive_passes);
    json.set("ew_fusion_ratio", res.ew_total.fusion_ratio());
    if (res.ew_total.fusion_ratio() < 2.0) {
      std::printf("!! fusion ratio below the 2x contract\n");
      mismatch = true;
    }
  }

  // Disabled-path trace overhead: the obs contract is "a couple of relaxed
  // atomic loads per MLR_TRACE_SPAN when recording is off". Measure it here
  // so BENCH.md anchors the number the instrumented hot paths pay.
  {
    constexpr int kSpans = 1'000'000;
    WallTimer ot;
    for (int i = 0; i < kSpans; ++i) {
      MLR_TRACE_SPAN("bench.noop", "bench");
    }
    const double ns_per_span = ot.seconds() * 1e9 / kSpans;
    std::printf("\ndisabled-path trace overhead: %.2f ns per MLR_TRACE_SPAN "
                "(%d spans, recording off)\n",
                ns_per_span, kSpans);
    json.set("trace_disabled_ns_per_span", ns_per_span);
  }
  // Engine + solver instrument dump (stage phase timings, memo outcomes).
  bench::append_obs(json, obs::metrics().snapshot());
  json.set("outcome_mismatch", mismatch);
  if (!bench::write_json(args.json_path(), json)) return 1;
  return mismatch ? 1 : 0;
}
