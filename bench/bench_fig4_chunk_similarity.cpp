// Fig 4: number of τ-similar chunks found in prior iterations, per chunk
// location, across ADMM iterations (τ = 0.93 in the paper's study).
// Expectation: similar chunks appear commonly; the count grows with the
// iteration index (4–9 matches after ~30 iterations at 1K³).
#include <vector>

#include "bench_util.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 16);
  const int iters = int(args.get_i64("--iters", 24));
  const double tau = args.get_double("--tau", 0.93);
  WallTimer wall;
  bench::header("Fig 4 — chunk similarity across ADMM iterations",
                "paper Fig 4 (tau = 0.93, 1K^3, 75 iterations)",
                "matches appear in most iterations and accumulate over time");

  ReconstructionConfig cfg;
  cfg.threads = args.threads();
  cfg.dataset = Dataset::small(n);
  cfg.iters = iters;
  cfg.memoize = false;  // observe the raw chunk stream, no interference
  Reconstructor rec(cfg);
  rec.prepare();
  const auto& geom = rec.ops().geometry();
  const i64 chunk = cfg.chunk_size;
  const std::vector<i64> locations{0, geom.n1 / chunk / 2,
                                   geom.n1 / chunk - 1};

  // History of pooled chunk planes per probed location.
  std::vector<std::vector<std::vector<cfloat>>> history(locations.size());
  std::vector<std::vector<int>> matches(locations.size());
  rec.solver().set_iteration_hook([&](int iter, const Array3D<cfloat>& u) {
    for (std::size_t li = 0; li < locations.size(); ++li) {
      const i64 begin = locations[li] * chunk;
      auto slab = u.slices(begin, chunk);
      std::vector<cfloat> cur(slab.begin(), slab.end());
      int found = 0;
      for (const auto& prev : history[li]) {
        if (cosine_similarity<cfloat>(cur, prev) > tau) ++found;
      }
      matches[li].push_back(found);
      history[li].push_back(std::move(cur));
    }
  });
  (void)rec.run();

  std::printf("similar chunks found in prior iterations (tau=%.2f):\n\n", tau);
  std::printf("%-6s %-10s %-10s %-10s\n", "iter", "top", "middle", "bottom");
  for (int it = 0; it < iters; ++it) {
    std::printf("%-6d %-10d %-10d %-10d\n", it, matches[0][size_t(it)],
                matches[1][size_t(it)], matches[2][size_t(it)]);
  }
  int with_match = 0;
  for (int it = 0; it < iters; ++it)
    if (matches[0][size_t(it)] + matches[1][size_t(it)] +
            matches[2][size_t(it)] >
        0)
      ++with_match;
  std::printf("\niterations with at least one similar prior chunk: %d/%d "
              "(paper: ~70%%)\n",
              with_match, iters);
  std::printf("matches in final iteration: %d/%d/%d (growing over time)\n",
              matches[0].back(), matches[1].back(), matches[2].back());
  bench::footer(wall.seconds());
  return 0;
}
