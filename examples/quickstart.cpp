// Quickstart: reconstruct a small mouse-brain-like laminography scan twice —
// once with the original ADMM-FFT pipeline and once with mLR (memoization +
// operation cancellation/fusion) — and compare time and fidelity.
//
//   ./quickstart [n] [threads]
//     n        volume edge (default 16; volume is n³)
//     threads  memo-layer workers (0 shares the process pool, 1 runs serial)
// The reconstruction is bit-identical for every `threads` value — only host
// wall time changes (the memo layer schedules the virtual clock
// deterministically).
#include <cstdio>
#include <cstdlib>

#include "core/mlr.hpp"

int main(int argc, char** argv) {
  const mlr::i64 n = argc > 1 ? std::atoll(argv[1]) : 16;
  const unsigned threads = argc > 2 ? unsigned(std::max(0, std::atoi(argv[2]))) : 0;

  mlr::ReconstructionConfig base;
  base.dataset = mlr::Dataset::small(n);
  base.iters = 10;
  base.memoize = false;
  base.cancellation = false;
  base.fusion = false;
  base.threads = threads;

  std::printf("mLR quickstart — %s phantom, volume %lld^3 (stands in for "
              "%lld^3), %u engine threads\n\n",
              "brain-tissue", (long long)n, (long long)base.dataset.paper_n,
              threads);

  std::printf("[1/2] original ADMM-FFT ...\n");
  mlr::Reconstructor baseline(base);
  auto rb = baseline.run();

  auto opt = base;
  opt.memoize = true;
  opt.cancellation = true;
  opt.fusion = true;
  opt.tau = 0.92;
  std::printf("[2/2] mLR (memoization + cancellation + fusion, tau=%.2f) ...\n\n",
              opt.tau);
  mlr::Reconstructor accelerated(opt);
  auto rm = accelerated.run();

  const double speedup = rb.vtime_s / rm.vtime_s;
  const double acc = 1.0 - mlr::relative_error<mlr::cfloat>(
                               rb.result.u.span(), rm.result.u.span());
  std::printf("                       original        mLR\n");
  std::printf("virtual time (s)     %9.2f   %9.2f   (%.2fx faster)\n",
              rb.vtime_s, rm.vtime_s, speedup);
  std::printf("error vs truth       %9.4f   %9.4f\n", rb.error_vs_truth,
              rm.error_vs_truth);
  std::printf("memo outcomes                    miss=%llu db=%llu cache=%llu\n",
              (unsigned long long)rm.memo.miss,
              (unsigned long long)rm.memo.db_hit,
              (unsigned long long)rm.memo.cache_hit);
  std::printf("reconstruction accuracy (Eq 5)   %.4f\n", acc);
  std::printf("\nhost time: baseline %.1fs, mLR %.1fs\n", rb.real_seconds,
              rm.real_seconds);
  return 0;
}
