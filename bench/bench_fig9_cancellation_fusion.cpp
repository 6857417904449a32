// Fig 9: effect of operation cancellation and fusion (memoization disabled),
// on the FFT forward+adjoint pass and on the whole LSP (N_inner = 4), for
// the small and medium datasets.
// Paper: cancel+fusion wins everywhere; cancellation *without* fusion loses
// 5.6 % on the small dataset (frequency-domain COMPLEX64 subtraction on the
// CPU) but gains 61 % on the medium one.
#include "bench_util.hpp"
#include "core/mlr.hpp"

namespace {

struct Strategy {
  const char* name;
  bool cancel, fuse;
};

unsigned g_threads = 0;  // engine worker threads (--threads)

double lsp_time(const mlr::Dataset& ds, const Strategy& s, int inner) {
  mlr::ReconstructionConfig cfg;
  cfg.threads = g_threads;
  cfg.dataset = ds;
  cfg.iters = 2;
  cfg.inner_iters = inner;
  cfg.memoize = false;
  cfg.cancellation = s.cancel;
  cfg.fusion = s.fuse;
  mlr::Reconstructor rec(cfg);
  auto rep = rec.run();
  return rep.result.iterations[1].lsp_s;  // steady-state LSP
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 14);
  g_threads = args.threads();
  WallTimer wall;
  bench::header(
      "Fig 9 — operation cancellation and fusion ablation",
      "paper Fig 9 (FFT & LSP, small 1K^3 and medium 1.5K^3 datasets)",
      "cancel+fuse best everywhere; cancel-only hurts small, helps medium");

  const Strategy strategies[3] = {{"w/ cancel w/ fusion", true, true},
                                  {"w/ cancel w/o fusion", true, false},
                                  {"w/o cancel w/o fusion", false, false}};
  Dataset sets[2] = {Dataset::small(n), Dataset::medium(n + 6)};

  for (const auto& ds : sets) {
    std::printf("dataset %s:\n", ds.label.c_str());
    // FFT = one forward+adjoint pass ≈ LSP with N_inner = 1;
    // LSP(4xFFT) = N_inner = 4 (paper's panels).
    double fft[3], lsp[3];
    for (int s = 0; s < 3; ++s) {
      fft[s] = lsp_time(ds, strategies[s], 1);
      lsp[s] = lsp_time(ds, strategies[s], 4);
    }
    const double fmax = std::max({fft[0], fft[1], fft[2]});
    const double lmax = std::max({lsp[0], lsp[1], lsp[2]});
    std::printf(" FFT (one forward + adjoint):\n");
    for (int s = 0; s < 3; ++s)
      bench::bar_row(strategies[s].name, fft[s], fmax, "s");
    std::printf(" LSP (4x FFT):\n");
    for (int s = 0; s < 3; ++s)
      bench::bar_row(strategies[s].name, lsp[s], lmax, "s");
    std::printf(
        " cancel+fuse vs none: FFT %+.1f%%, LSP %+.1f%%; cancel-only vs none: "
        "%+.1f%%\n\n",
        100.0 * (fft[2] - fft[0]) / fft[2],
        100.0 * (lsp[2] - lsp[0]) / lsp[2],
        100.0 * (lsp[2] - lsp[1]) / lsp[2]);
  }
  bench::footer(wall.seconds());
  return 0;
}
