// Synthetic laminography phantoms.
//
// The paper evaluates on a (downsampled) mouse-brain dataset and motivates
// IC / PCB inspection. None of those datasets are redistributable, so this
// module generates flat (laminar) synthetic samples with the same character:
// structure concentrated in a thin slab along z, smooth biological blobs or
// Manhattan-routed metal, which is exactly the regime laminography targets.
#pragma once

#include "common/array.hpp"
#include "common/rng.hpp"
#include "lamino/operators.hpp"

namespace mlr::lamino {

enum class PhantomKind {
  BrainTissue,        ///< smooth Gaussian-blob "tissue" in a thin slab
  IntegratedCircuit,  ///< 3 metal layers of Manhattan traces + vias
  Pcb,                ///< 2 layers of coarse pads and wide traces
};

/// Generate a phantom volume with values in [0, 1].
Array3D<float> make_phantom(Shape3 shape, PhantomKind kind, u64 seed = 1);

/// Promote a real volume to the complex array the operators consume.
Array3D<cfloat> to_complex(const Array3D<float>& real);
/// Real part of a complex volume (reconstruction output).
Array3D<float> real_part(const Array3D<cfloat>& c);

/// Simulate measured projections d = L·u + ε with Gaussian detector noise of
/// standard deviation `noise_sigma` relative to the data RMS. L runs on
/// `pool`.
Array3D<cfloat> simulate_projections(const Operators& ops,
                                     const Array3D<cfloat>& u,
                                     double noise_sigma, u64 seed = 7,
                                     ThreadPool& pool = ThreadPool::global());

}  // namespace mlr::lamino
