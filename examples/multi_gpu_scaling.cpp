// Multi-GPU scaling demo (paper §5.2): distribute the chunked FFT stages of
// one forward+adjoint pass across simulated A100s (4 per node) and watch
// the within-node speedup and the cross-node plateau.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "lamino/phantom.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  const i64 n = argc > 1 ? std::atoll(argv[1]) : 16;
  const unsigned threads = argc > 2 ? unsigned(std::max(0, std::atoi(argv[2]))) : 0;
  auto geom = lamino::Geometry::cube(n);
  lamino::Operators ops(geom);
  auto u = lamino::to_complex(lamino::make_phantom(
      geom.object_shape(), lamino::PhantomKind::BrainTissue, 5));
  Array3D<cfloat> dhat(geom.data_shape());
  ops.forward_freq(u, dhat);
  const double ws = 1024.0 / double(n);
  const double work_scale = ws * ws * ws;

  std::printf("multi-GPU scaling — %lld^3 volume timed as 1K^3, 4 GPUs/node\n\n",
              (long long)n);
  std::printf("%-6s %-7s %-12s %-9s %-10s\n", "GPUs", "nodes", "pass (s)",
              "speedup", "fabric util");
  double t1 = 0;
  for (int gpus : {1, 2, 4, 8, 16}) {
    cluster::Cluster c(ops, {.threads = threads,
                             .gpus = gpus,
                             .memo = {.enable = false,
                                      .work_scale = work_scale}});
    const double t = c.forward_adjoint_pass(u, dhat, 1, 0.0);
    if (gpus == 1) t1 = t;
    std::printf("%-6d %-7d %-12.2f %-9.2f %.0f%%\n", gpus, c.num_nodes(), t,
                t1 / t, 100.0 * c.fabric().utilization(t));
  }
  std::printf("\nCrossing the 4-GPU node boundary moves the ũ1 redistribution\n"
              "onto the shared Slingshot fabric — the Fig 14 plateau.\n");
  return 0;
}
