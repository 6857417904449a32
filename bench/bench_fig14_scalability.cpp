// Fig 14: scalability of the four FFT operators and of the full pass across
// 1–16 GPUs (4 per node) on the 1K³ dataset. Paper: F_u1D 1.1 s → 0.5 s
// (2.2× at 16 GPUs), sublinear; 2→4 GPUs gives 1.36×, 4→8 almost nothing
// (inter-node communication).
#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "core/mlr.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  bench::Args args(argc, argv);
  const i64 n = args.get_i64("--n", 16);
  WallTimer wall;
  bench::header("Fig 14 — multi-GPU scalability (1K^3)",
                "paper Fig 14 (2.2x at 16 GPUs for F_u1D; plateau past 4)",
                "per-op time falls with GPUs; overall gain collapses across "
                "the node boundary");

  auto geom = lamino::Geometry::cube(n);
  lamino::Operators ops(geom);
  auto u = lamino::to_complex(lamino::make_phantom(
      geom.object_shape(), lamino::PhantomKind::BrainTissue, 5));
  Array3D<cfloat> dhat(geom.data_shape());
  ops.forward_freq(u, dhat);
  const double s = 1024.0 / double(n);
  const double ws = s * s * s;

  std::printf("%-6s %-7s | %-9s %-9s %-9s %-9s | %-10s %-8s\n", "GPUs",
              "nodes", "Fu1D(s)", "Fu2D(s)", "F*u2D(s)", "F*u1D(s)",
              "pass (s)", "speedup");
  double t1 = 0;
  for (int gpus : {1, 2, 4, 8, 16}) {
    cluster::Cluster c(ops, {.gpus = gpus,
                             .memo = {.enable = false, .work_scale = ws}});
    std::vector<double> per_op;
    const double t = c.forward_adjoint_pass(u, dhat, 1, 0.0, &per_op);
    if (gpus == 1) t1 = t;
    std::printf("%-6d %-7d | %-9.2f %-9.2f %-9.2f %-9.2f | %-10.2f %.2fx\n",
                gpus, c.num_nodes(), per_op[0], per_op[1], per_op[2],
                per_op[3], t, t1 / t);
  }
  std::printf("\nnote: >4 GPUs spans nodes; the u1 redistribution moves onto "
              "the shared fabric and the marginal speedup collapses.\n");
  bench::footer(wall.seconds());
  return 0;
}
