// Fig 10: memoization breakdown per operator (F_u1D, F*_u1D, F_u2D, F*_u2D):
// mean per-chunk time for (1) original computation, (2) failed memoization
// (miss: lookup + compute + async insert), (3) successful memoization served
// by the remote DB, (4) served by the local cache.
// Paper shape: fail ≈ orig (≤2.5 % overhead); DB hit ≈ 10–50 % of orig
// (bigger ops gain more: 88 % for F_u2D, 55 % for F_u1D); cache hit another
// ~85 % below DB hit. Also reports the §6.4 case distribution (53/19/28 %).
#include <map>

#include "bench_util.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 16);
  const int iters = int(args.get_i64("--iters", 14));
  WallTimer wall;
  bench::header("Fig 10 — memoization breakdown per FFT operator",
                "paper Fig 10 + case distribution 53/19/28 % (§6.4)",
                "fail ~ orig; DB hit far below orig (F_u2D gains most); "
                "cache hit below DB hit");

  ReconstructionConfig cfg;
  cfg.threads = args.threads();
  cfg.dataset = Dataset::medium(n);
  cfg.iters = iters;
  cfg.memoize = true;
  cfg.tau = 0.94;
  Reconstructor rec(cfg);
  rec.prepare();
  std::vector<memo::ChunkRecord> records;
  rec.wrapper().set_record_sink(&records);
  (void)rec.run();

  // Mean per-chunk total time by (op kind, outcome).
  struct Cell {
    double sum = 0;
    int n = 0;
    [[nodiscard]] double mean() const { return n ? sum / n : 0.0; }
  };
  std::map<std::pair<int, int>, Cell> cells;
  u64 miss = 0, db = 0, cache = 0;
  for (const auto& r : records) {
    if (r.outcome == memo::MemoOutcome::Computed) continue;  // warmup pass
    cells[{int(r.kind), int(r.outcome)}].sum += r.total_s();
    cells[{int(r.kind), int(r.outcome)}].n += 1;
    if (r.outcome == memo::MemoOutcome::Miss) ++miss;
    if (r.outcome == memo::MemoOutcome::DbHit) ++db;
    if (r.outcome == memo::MemoOutcome::CacheHit) ++cache;
  }
  // "Original computation" reference: the warmup (bypass) records.
  std::map<int, Cell> orig;
  for (const auto& r : records) {
    if (r.outcome == memo::MemoOutcome::Computed) {
      orig[int(r.kind)].sum += r.total_s();
      orig[int(r.kind)].n += 1;
    }
  }

  std::printf("mean per-chunk time (virtual s):\n\n");
  std::printf("%-8s %-12s %-12s %-12s %-12s\n", "op", "orig comp", "fail memo",
              "suc memo", "memo w/cache");
  for (int k = 0; k < memo::kNumOpKinds; ++k) {
    const double o = orig[k].mean();
    const double f = cells[{k, int(memo::MemoOutcome::Miss)}].mean();
    const double s = cells[{k, int(memo::MemoOutcome::DbHit)}].mean();
    const double c = cells[{k, int(memo::MemoOutcome::CacheHit)}].mean();
    std::printf("%-8s %-12.3f %-12.3f %-12.3f %-12.3f\n",
                memo::op_kind_name(memo::OpKind(k)), o, f, s, c);
  }
  std::printf("\nratios vs original (per op):\n");
  for (int k = 0; k < memo::kNumOpKinds; ++k) {
    const double o = std::max(orig[k].mean(), 1e-12);
    std::printf("  %-8s fail %.2fx   db-hit %.2fx   cache-hit %.2fx\n",
                memo::op_kind_name(memo::OpKind(k)),
                cells[{k, int(memo::MemoOutcome::Miss)}].mean() / o,
                cells[{k, int(memo::MemoOutcome::DbHit)}].mean() / o,
                cells[{k, int(memo::MemoOutcome::CacheHit)}].mean() / o);
  }
  const double total = double(miss + db + cache);
  std::printf("\ncase distribution: miss %.0f%%, db-hit %.0f%%, cache-hit "
              "%.0f%%  (paper: 53/19/28)\n",
              100.0 * miss / total, 100.0 * db / total, 100.0 * cache / total);
  bench::footer(wall.seconds());
  return 0;
}
