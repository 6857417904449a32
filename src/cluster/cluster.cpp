#include "cluster/cluster.hpp"

#include <algorithm>

namespace mlr::cluster {

namespace {
constexpr int kGpusPerNode = 4;        ///< Polaris: 4×A100 per node
constexpr double kNvlinkBw = 150.0e9;  ///< intra-node all-gather bytes/s
}  // namespace

Cluster::Cluster(const lamino::Operators& ops, ExecutionOptions opt)
    : ctx_(ops, opt) {}

int Cluster::num_nodes() const {
  return (num_gpus() + kGpusPerNode - 1) / kGpusPerNode;
}

int Cluster::node_of(int gpu) const { return gpu / kGpusPerNode; }

sim::VTime Cluster::redistribute(double total_bytes, sim::VTime ready) {
  const int G = num_gpus();
  if (G <= 1 || total_bytes <= 0) return ready;
  const int nodes = num_nodes();
  const double per_gpu = total_bytes / double(G);
  // Each GPU must gather the other GPUs' shares. Split the traffic into the
  // portion that stays inside a node (NVLink) and the portion that crosses
  // nodes (shared fabric, contending with memoization traffic).
  const int peers_intra = std::min(G, kGpusPerNode) - 1;
  const int peers_inter = G - 1 - peers_intra;
  sim::VTime done = ready;
  if (peers_intra > 0) {
    const double intra_bytes = per_gpu * double(peers_intra) * double(G);
    done = std::max(
        done, nvlink_.schedule(ready, intra_bytes / kNvlinkBw / double(nodes)));
  }
  if (peers_inter > 0) {
    const double inter_bytes = per_gpu * double(peers_inter) * double(G);
    done = std::max(done, fabric().transfer(ready, inter_bytes));
  }
  return done;
}

sim::VTime Cluster::forward_adjoint_pass(const Array3D<cfloat>& u,
                                         const Array3D<cfloat>& dhat,
                                         i64 chunk_size, sim::VTime ready,
                                         std::vector<double>* per_op_s) {
  auto& ml = ctx_.memo();
  const auto& g = ml.ops().geometry();
  const double ws = ml.config().work_scale;
  Array3D<cfloat> u1(g.u1_shape());
  Array3D<cfloat> r(g.data_shape());
  Array3D<cfloat> w1(g.u1_shape());
  Array3D<cfloat> grad(g.object_shape());
  if (per_op_s != nullptr) per_op_s->assign(4, 0.0);
  sim::VTime t = ready;
  // Stage `op` started at t and completed at `done`.
  auto stage = [&](int op, sim::VTime done) {
    if (per_op_s != nullptr) (*per_op_s)[std::size_t(op)] = done - t;
    t = done;
  };

  // F_u1D over n1 chunks.
  stage(0, ml.run_fu1d(u, u1, /*adjoint=*/false, chunk_size, t));
  // Redistribution: n1 partitioning → h partitioning.
  t = redistribute(double(u1.bytes()) * ws, t);
  // Fused F_u2D over h chunks, then its adjoint.
  stage(1, ml.run_fu2d(u1, r, &dhat, /*adjoint=*/false, chunk_size, t));
  stage(2, ml.run_fu2d(r, w1, nullptr, /*adjoint=*/true, chunk_size, t));
  // Redistribution back: h partitioning → n1 partitioning.
  t = redistribute(double(w1.bytes()) * ws, t);
  // Adjoint F*_u1D over n1 chunks.
  stage(3, ml.run_fu1d(w1, grad, /*adjoint=*/true, chunk_size, t));
  return t;
}

}  // namespace mlr::cluster
