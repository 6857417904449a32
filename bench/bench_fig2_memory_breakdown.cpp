// Fig 2: CPU memory consumption and time breakdown of one ADMM iteration.
// Paper (1.5K³): ψ 12 %, λ 12 %, g+g_prev 24 % of ~300 GB; LSP > 67 % of the
// iteration; §2 also reports CPU↔GPU transfer ≈ 47 % of the critical path at
// 1K³ without mLR.
#include "bench_util.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 16);
  WallTimer wall;
  bench::header("Fig 2 — ADMM iteration memory & time breakdown",
                "paper Fig 2 (1.5K^3, ~300 GB; LSP > 67 %)",
                "psi == lambda; g+g_prev ~ 2x psi; LSP dominates");

  // Memory breakdown at paper scale.
  auto ds = Dataset::medium(n);
  auto b = admm_memory_breakdown(ds);
  const double total = b.total();
  std::printf("paper-scale memory breakdown (%s, total %.0f GB):\n",
              ds.label.c_str(), total / kGiB);
  bench::bar_row("psi", 100.0 * b.psi / total, 40, "%");
  bench::bar_row("lambda", 100.0 * b.lambda / total, 40, "%");
  bench::bar_row("g + g_prev", 100.0 * (b.g + b.g_prev) / total, 40, "%");
  bench::bar_row("u (reconstruction)", 100.0 * b.u / total, 40, "%");
  bench::bar_row("d (projections)", 100.0 * b.d / total, 40, "%");
  bench::bar_row("LSP workspaces", 100.0 * b.other / total, 40, "%");

  // Time breakdown of a real (baseline) iteration.
  ReconstructionConfig cfg;
  cfg.threads = args.threads();
  cfg.dataset = ds;
  cfg.iters = 4;
  cfg.inner_iters = 4;
  cfg.memoize = false;
  cfg.cancellation = false;
  cfg.fusion = false;
  Reconstructor rec(cfg);
  auto rep = rec.run();
  const auto& st = rep.result.iterations[1];  // steady-state iteration
  const double iter_s = st.lsp_s + st.rsp_s + st.lambda_s + st.penalty_s;
  std::printf("\none ADMM iteration time breakdown (virtual seconds):\n");
  bench::bar_row("LSP", st.lsp_s, iter_s, "s");
  bench::bar_row("RSP", st.rsp_s, iter_s, "s");
  bench::bar_row("lambda update", st.lambda_s, iter_s, "s");
  bench::bar_row("penalty update", st.penalty_s, iter_s, "s");
  std::printf("\nLSP share: %.0f%%  (paper: >67%%)\n", 100.0 * st.lsp_s / iter_s);
  std::printf("CPU<->GPU transfer share of critical path (no mLR): %.0f%%  "
              "(paper: ~47%% at 1K^3)\n",
              100.0 * rep.result.transfer_share);
  bench::footer(wall.seconds());
  return 0;
}
