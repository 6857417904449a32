// IC inspection scenario (paper §1, §4.5): laminography of an integrated
// circuit — Manhattan metal layers and vias inside a flat die. High-density
// fine structure calls for the strict similarity threshold τ = 0.95 the
// paper recommends for "signal traces between 10 and 100 µm".
//
// Reports per-layer reconstruction fidelity: mean intensity recovered on the
// metal voxels vs background leakage.
#include <cstdio>

#include "core/mlr.hpp"

int main(int argc, char** argv) {
  const mlr::i64 n = argc > 1 ? std::atoll(argv[1]) : 20;
  const unsigned threads = argc > 2 ? unsigned(std::max(0, std::atoi(argv[2]))) : 0;
  mlr::ReconstructionConfig cfg;
  cfg.threads = threads;
  cfg.dataset = mlr::Dataset::small(n);
  cfg.dataset.kind = mlr::lamino::PhantomKind::IntegratedCircuit;
  cfg.dataset.label = "IC die";
  cfg.dataset.noise = 0.01;
  cfg.iters = 12;
  cfg.tau = 0.95;  // fine features: strict threshold (paper §4.5)
  cfg.memoize = true;

  std::printf("IC inspection — %lld^3 die, tau=%.2f\n", (long long)n, cfg.tau);
  mlr::Reconstructor rec(cfg);
  auto rep = rec.run();

  // Feature-level fidelity: compare recovered intensity on metal voxels
  // (truth > 0.6) against background voxels.
  const auto& truth = rec.ground_truth();
  const auto& u = rep.result.u;
  double metal_sum = 0, metal_n = 0, bg_sum = 0, bg_n = 0;
  for (mlr::i64 i = 0; i < truth.size(); ++i) {
    const float t = truth.data()[i].real();
    const float v = u.data()[i].real();
    if (t > 0.6f) {
      metal_sum += v;
      ++metal_n;
    } else if (t < 0.01f) {
      bg_sum += std::abs(v);
      ++bg_n;
    }
  }
  const double metal = metal_n ? metal_sum / metal_n : 0;
  const double bg = bg_n ? bg_sum / bg_n : 0;
  std::printf("\nvirtual time            %.2f s (paper-scale)\n", rep.vtime_s);
  std::printf("error vs ground truth   %.4f\n", rep.error_vs_truth);
  std::printf("metal voxels recovered  %.3f mean intensity (truth ~0.85)\n",
              metal);
  std::printf("background leakage      %.3f\n", bg);
  std::printf("trace/background contrast %.1fx\n", metal / std::max(bg, 1e-9));
  std::printf("memo: miss=%llu db=%llu cache=%llu (hit rate %.0f%%)\n",
              (unsigned long long)rep.memo.miss,
              (unsigned long long)rep.memo.db_hit,
              (unsigned long long)rep.memo.cache_hit,
              100.0 * rep.cache_hit_rate);
  return 0;
}
