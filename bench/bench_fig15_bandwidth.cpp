// Fig 15: interconnect bandwidth utilization between compute nodes and the
// single memory node, as GPU count grows. Paper: near-saturation at ≥12
// GPUs (3 nodes), turning the fabric into the bottleneck.
#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 16);
  const int passes = int(args.get_i64("--passes", 3));
  WallTimer wall;
  bench::header("Fig 15 — fabric bandwidth utilization vs GPU count",
                "paper Fig 15 (saturation at >=12 GPUs, one memory node)",
                "utilization grows with GPUs toward the peak");

  auto geom = lamino::Geometry::cube(n);
  lamino::Operators ops(geom);
  auto u = lamino::to_complex(lamino::make_phantom(
      geom.object_shape(), lamino::PhantomKind::BrainTissue, 5));
  Array3D<cfloat> dhat(geom.data_shape());
  ops.forward_freq(u, dhat);
  const double s = 1024.0 / double(n);
  const double ws = s * s * s;

  std::printf("%-6s %-10s %s\n", "GPUs", "util (%)", "");
  for (int gpus : {1, 2, 4, 6, 8, 12, 16}) {
    // Memoization on: the fabric carries both redistribution and the
    // memoization DB traffic of every node.
    cluster::Cluster c(ops, {.gpus = gpus,
                             .memo = {.enable = true, .tau = 0.5,
                                      .key_dim = 16, .encoder_hw = 16,
                                      .work_scale = ws,
                                      .oracle_similarity = false},
                             .db = {.key_dim = 16, .tau = 0.5,
                                    .value_scale = ws}});
    sim::VTime t = 0;
    for (int p = 0; p < passes; ++p)
      t = c.forward_adjoint_pass(u, dhat, 1, t);
    const double util = c.fabric().utilization(t);
    std::printf("%-6d %-10.0f |%s\n", gpus, 100.0 * util,
                ascii_bar(util, 40).c_str());
  }
  std::printf("\nthe single memory node's link saturates as nodes multiply — "
              "the paper's scaling bottleneck.\n");
  bench::footer(wall.seconds());
  return 0;
}
