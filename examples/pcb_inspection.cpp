// PCB inspection scenario: large-scale, low-density composite structure.
// Coarse features (0.15–0.3 mm pads and traces) tolerate the looser
// τ = 0.90 the paper recommends for PCBs, which raises the memoization hit
// rate and the speedup.
#include <cstdio>

#include "core/mlr.hpp"

int main(int argc, char** argv) {
  const mlr::i64 n = argc > 1 ? std::atoll(argv[1]) : 20;
  const unsigned threads = argc > 2 ? unsigned(std::max(0, std::atoi(argv[2]))) : 0;

  std::printf("PCB inspection — %lld^3 board, comparing tau choices\n\n",
              (long long)n);
  std::printf("%-8s %-12s %-12s %-10s\n", "tau", "vtime(s)", "error", "hits");
  double err_ref = 0;
  for (double tau : {0.99, 0.96, 0.93}) {
    mlr::ReconstructionConfig cfg;
    cfg.dataset = mlr::Dataset::small(n);
    cfg.dataset.kind = mlr::lamino::PhantomKind::Pcb;
    cfg.dataset.label = "PCB";
    cfg.iters = 10;
    cfg.tau = tau;
    cfg.threads = threads;
    mlr::Reconstructor rec(cfg);
    auto rep = rec.run();
    if (tau == 0.99) err_ref = rep.error_vs_truth;
    std::printf("%-8.2f %-12.2f %-12.4f %llu\n", tau, rep.vtime_s,
                rep.error_vs_truth,
                (unsigned long long)(rep.memo.db_hit + rep.memo.cache_hit));
  }
  std::printf(
      "\nLoose tau trades a little fidelity (vs %.4f at tau=0.99) for more\n"
      "reuse — the right trade for coarse PCB features (paper 4.5; thresholds\n"
      "recalibrated to this repo's oracle similarity gate).\n",
      err_ref);
  return 0;
}
