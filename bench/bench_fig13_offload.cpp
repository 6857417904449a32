// Fig 13: RSS over (virtual) time and execution time for three policies —
// plain ADMM, greedy offload, ADMM-Offload. Paper: no offload peaks at
// 121 GB; greedy saves 42 % of memory but loses 81.5 % performance
// (MT = 0.51); ADMM-Offload saves 29 % at 21 % cost (MT = 1.38).
#include "bench_util.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 12);
  const int iters = int(args.get_i64("--iters", 5));
  WallTimer wall;
  bench::header("Fig 13 — ADMM-Offload memory/time tradeoff",
                "paper Fig 13 (121 GB; greedy MT 0.51; planned MT 1.38)",
                "greedy saves most memory at huge cost; planner balances (MT"
                " planned > greedy)");

  struct Row {
    const char* name;
    OffloadMode mode;
    double vtime = 0, peak = 0, stall = 0;
  } rows[] = {{"ADMM (no offload)", OffloadMode::None},
              {"ADMM greedy offload", OffloadMode::Greedy},
              {"ADMM-Offload", OffloadMode::Planned}};

  for (auto& row : rows) {
    ReconstructionConfig cfg;
    cfg.threads = args.threads();
    cfg.dataset = Dataset::small(n);
    cfg.iters = iters;
    cfg.memoize = false;
    cfg.offload = row.mode;
    Reconstructor rec(cfg);
    auto rep = rec.run();
    row.vtime = rep.vtime_s;
    row.peak = rep.peak_rss_bytes;
    row.stall = rep.exposed_stall_s;
  }

  const double base_t = rows[0].vtime, base_m = rows[0].peak;
  std::printf("%-22s %-12s %-14s %-12s %-8s %-8s\n", "policy", "vtime(s)",
              "peak RSS(GB)", "stall(s)", "M", "MT");
  for (const auto& row : rows) {
    const double m = (base_m - row.peak) / base_m;
    const double t = (row.vtime - base_t) / base_t;
    const double mt = row.mode == OffloadMode::None
                          ? 0.0
                          : m / std::max(t, 1e-3);
    std::printf("%-22s %-12.1f %-14.1f %-12.1f %-8.2f %-8.2f\n", row.name,
                row.vtime, row.peak / kGiB, row.stall, m, mt);
  }
  std::printf("\nmemory saving: greedy %.0f%%, planned %.0f%% "
              "(paper: 42%% / 29%%)\n",
              100.0 * (base_m - rows[1].peak) / base_m,
              100.0 * (base_m - rows[2].peak) / base_m);
  std::printf("performance loss: greedy %.0f%%, planned %.0f%% "
              "(paper: 81.5%% / 21%%)\n",
              100.0 * (rows[1].vtime - base_t) / base_t,
              100.0 * (rows[2].vtime - base_t) / base_t);
  bench::footer(wall.seconds());
  return 0;
}
