// Fig 16: cumulative distribution of memoization-database query latency
// under contention from 1–16 GPUs sharing one memory node. Paper: the CDF
// shifts right with more GPUs; at 16 GPUs 43 % of queries exceed 100 ms.
#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 16);
  const int passes = int(args.get_i64("--passes", 3));
  WallTimer wall;
  bench::header("Fig 16 — memo-DB query latency CDF under contention",
                "paper Fig 16 (distribution shifts right; heavy tail at 16)",
                "more GPUs => higher percentiles / longer tail");

  auto geom = lamino::Geometry::cube(n);
  lamino::Operators ops(geom);
  auto u = lamino::to_complex(lamino::make_phantom(
      geom.object_shape(), lamino::PhantomKind::BrainTissue, 5));
  Array3D<cfloat> dhat(geom.data_shape());
  ops.forward_freq(u, dhat);
  const double s = 1024.0 / double(n);
  const double ws = s * s * s;
  auto options = [ws](int gpus) {
    return ExecutionOptions{.gpus = gpus,
                            .memo = {.enable = true, .tau = 0.5,
                                     .key_dim = 16, .encoder_hw = 16,
                                     .work_scale = ws,
                                     .oracle_similarity = false},
                            .db = {.key_dim = 16, .tau = 0.5,
                                   .value_scale = ws}};
  };

  std::printf("query latency percentiles (us):\n\n");
  std::printf("%-6s %-10s %-10s %-10s %-10s %-12s\n", "GPUs", "p25", "p50",
              "p90", "p99", ">100ms (%)");
  for (int gpus : {1, 2, 4, 8, 16}) {
    cluster::Cluster c(ops, options(gpus));
    sim::VTime t = 0;
    for (int p = 0; p < passes; ++p)
      t = c.forward_adjoint_pass(u, dhat, 1, t);
    const auto& lat = c.context().db()->timing().query_latency_us;
    if (lat.count() == 0) continue;
    std::printf("%-6d %-10.0f %-10.0f %-10.0f %-10.0f %.0f\n", gpus,
                lat.percentile(0.25), lat.percentile(0.50),
                lat.percentile(0.90), lat.percentile(0.99),
                100.0 * (1.0 - lat.cdf_at(100000.0)));
  }
  std::printf("\nCDF (16 GPUs): value(us) -> cumulative fraction\n");
  {
    cluster::Cluster c(ops, options(16));
    sim::VTime t = 0;
    for (int p = 0; p < passes; ++p)
      t = c.forward_adjoint_pass(u, dhat, 1, t);
    const auto& lat = c.context().db()->timing().query_latency_us;
    for (const auto& [v, q] : lat.cdf(8))
      std::printf("  %10.0f us -> %.2f\n", v, q);
  }
  bench::footer(wall.seconds());
  return 0;
}
