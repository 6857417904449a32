// Fig 8: overall performance of mLR vs original ADMM-FFT on the three
// datasets. Paper: normalized times 0.654 (1K³), 0.414 (1.5K³), 0.363 (2K³)
// — 52.8 % average improvement; larger datasets benefit more.
#include "bench_util.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 14);
  const int iters = int(args.get_i64("--iters", 8));
  WallTimer wall;
  bench::header("Fig 8 — overall performance on three datasets",
                "paper Fig 8 (normalized 0.654 / 0.414 / 0.363)",
                "mLR < original on every dataset; bigger dataset => bigger win");

  Dataset sets[3] = {Dataset::small(n), Dataset::medium(n + 4),
                     Dataset::large(n + 8)};
  std::printf("%-18s %-14s %-14s %-12s %-10s\n", "dataset", "original(s)",
              "mLR(s)", "normalized", "improve");
  double sum_impr = 0;
  for (const auto& ds : sets) {
    ReconstructionConfig base;
    base.threads = args.threads();
    base.dataset = ds;
    base.iters = iters;
    base.memoize = false;
    base.cancellation = false;
    base.fusion = false;
    Reconstructor b(base);
    auto rb = b.run();

    auto opt = base;
    opt.memoize = true;
    opt.cancellation = true;
    opt.fusion = true;
    Reconstructor m(opt);
    auto rm = m.run();

    const double norm = rm.vtime_s / rb.vtime_s;
    sum_impr += 1.0 - norm;
    std::printf("%-18s %-14.1f %-14.1f %-12.3f %.1f%%\n", ds.label.c_str(),
                rb.vtime_s, rm.vtime_s, norm, 100.0 * (1.0 - norm));
  }
  std::printf("\naverage improvement: %.1f%%  (paper: 52.8%% avg, up to 65.4%%)\n",
              100.0 * sum_impr / 3.0);
  bench::footer(wall.seconds());
  return 0;
}
