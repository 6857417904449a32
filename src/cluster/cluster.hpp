// Multi-GPU / multi-node execution (paper §5.2).
//
// mLR distributes chunks evenly across GPUs within and across nodes; the
// F_u1D chunks partition along n1 and the F_u2D chunks along detector rows,
// so consecutive stages require a redistribution (all-gather) of the
// intermediate ũ1 array. Within a node that traffic rides NVLink; across
// nodes it rides the same Slingshot fabric that carries memoization traffic
// to the memory node — the contention behind the paper's Fig 14 (diminishing
// returns past 4 GPUs), Fig 15 (fabric saturation) and Fig 16 (query-latency
// tail).
//
// A Cluster is an ExecutionContext (devices, fabric, memory node, DB and the
// memoized-operator layer over all devices) plus this redistribution model:
// the NVLink timeline and the node topology (4 GPUs per node).
//
// Numerics are real: every chunk is computed (or memoized) exactly once by
// the device that owns it. With memoization off the result is bit-identical
// to single-device execution for any GPU count; with it on, a device's DB
// query sees what earlier devices inserted in the same stage, so hits (and
// outputs) depend on the GPU count (see memo/memoized_ops.hpp).
#pragma once

#include <vector>

#include "core/execution_context.hpp"

namespace mlr::cluster {

/// A set of simulated GPUs plus the shared fabric and memory node, executing
/// chunk stages round-robin across devices.
class Cluster {
 public:
  Cluster(const lamino::Operators& ops, ExecutionOptions opt);

  [[nodiscard]] int num_gpus() const { return ctx_.num_gpus(); }
  [[nodiscard]] int num_nodes() const;
  [[nodiscard]] int node_of(int gpu) const;

  /// The devices, DB and memo layer the stages run on.
  [[nodiscard]] ExecutionContext& context() { return ctx_; }
  /// The shared Slingshot fabric: cross-node redistribution + memo traffic.
  [[nodiscard]] sim::Interconnect& fabric() { return ctx_.network(); }

  /// Model the redistribution between n1-partitioned and h-partitioned
  /// stages: every GPU exchanges (G−1)/G of `total_bytes` — NVLink within a
  /// node, the shared fabric across nodes. Returns the completion time.
  sim::VTime redistribute(double total_bytes, sim::VTime ready);

  /// Virtual time of one forward+adjoint pass (the four F_u stages plus the
  /// two redistributions), using real numerics on `u`.
  sim::VTime forward_adjoint_pass(const Array3D<cfloat>& u,
                                  const Array3D<cfloat>& dhat, i64 chunk_size,
                                  sim::VTime ready,
                                  std::vector<double>* per_op_s = nullptr);

 private:
  ExecutionContext ctx_;
  sim::Timeline nvlink_{"nvlink"};
};

}  // namespace mlr::cluster
