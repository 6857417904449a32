// Fig 12: hit rate of the private vs global memoization cache for F_u2D
// across ADMM iterations, plus the comparison-count economics (§6.5):
// similar hit rates, but the private cache does 1 similarity comparison per
// lookup where the global cache does one per resident entry (64 at 1K³) —
// an ~85 % computation saving.
#include "bench_util.hpp"
#include "core/mlr.hpp"

namespace {

struct Series {
  std::vector<double> hit_rate;  // per iteration, F_u2D only
  mlr::u64 comparisons = 0;
  mlr::u64 lookups = 0;
};

unsigned g_threads = 0;  // engine worker threads (--threads)

Series run(mlr::memo::CacheKind kind, mlr::i64 n, int iters) {
  using namespace mlr;
  ReconstructionConfig cfg;
  cfg.threads = g_threads;
  cfg.dataset = Dataset::small(n);
  cfg.iters = iters;
  cfg.memoize = true;
  cfg.cache = kind;
  Reconstructor rec(cfg);
  rec.prepare();
  std::vector<memo::ChunkRecord> records;
  rec.wrapper().set_record_sink(&records);
  std::vector<std::size_t> marks;
  rec.solver().set_iteration_hook(
      [&](int, const Array3D<cfloat>&) { marks.push_back(records.size()); });
  (void)rec.run();
  Series s;
  std::size_t prev = 0;
  for (std::size_t m : marks) {
    int fu2d = 0, hits = 0;
    for (std::size_t i = prev; i < m; ++i) {
      if (records[i].kind != memo::OpKind::Fu2D) continue;
      if (records[i].outcome == memo::MemoOutcome::Computed) continue;
      ++fu2d;
      if (records[i].outcome == memo::MemoOutcome::CacheHit) ++hits;
    }
    s.hit_rate.push_back(fu2d ? double(hits) / fu2d : 0.0);
    prev = m;
  }
  if (rec.wrapper().cache() != nullptr) {
    s.comparisons = rec.wrapper().cache()->stats().comparisons;
    s.lookups = rec.wrapper().cache()->stats().lookups;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 16);
  const int iters = int(args.get_i64("--iters", 16));
  g_threads = args.threads();
  WallTimer wall;
  bench::header("Fig 12 — private vs global memoization cache (F_u2D)",
                "paper Fig 12 + §6.5 (85 % fewer comparisons)",
                "similar hit rates; private does ~1 comparison per lookup");

  auto priv = run(memo::CacheKind::Private, n, iters);
  auto glob = run(memo::CacheKind::Global, n, iters);

  std::printf("F_u2D cache hit rate per iteration (%%):\n\n");
  std::printf("%-6s %-10s %-10s\n", "iter", "private", "global");
  for (std::size_t i = 0; i < priv.hit_rate.size(); ++i) {
    std::printf("%-6zu %-10.0f %-10.0f\n", i, 100.0 * priv.hit_rate[i],
                i < glob.hit_rate.size() ? 100.0 * glob.hit_rate[i] : 0.0);
  }
  const double cmp_priv =
      priv.lookups ? double(priv.comparisons) / priv.lookups : 0;
  const double cmp_glob =
      glob.lookups ? double(glob.comparisons) / glob.lookups : 0;
  std::printf("\nsimilarity comparisons per lookup: private %.1f, global %.1f\n",
              cmp_priv, cmp_glob);
  std::printf("computation saving from private cache: %.0f%%  (paper: 85%%)\n",
              100.0 * (1.0 - cmp_priv / std::max(cmp_glob, 1e-9)));
  bench::footer(wall.seconds());
  return 0;
}
