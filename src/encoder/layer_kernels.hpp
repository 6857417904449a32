// The layer kernels at each instruction set the encoder compiles them for.
//
// Private to the encoder and its tests. Conv2D calls its kernels at
// dispatched(): AVX2 exactly when the host has it, decided once per process.
// The entry points below take the ISA explicitly, so a test can run the
// baseline kernels on an AVX2 host and pin both against the direct loops.
//
// Both variants compute the same bits. Each kernel is written once, as an
// inline template over its vector width, and compiled twice: at baseline
// x86-64 (SSE2) and inside functions marked [[gnu::target("avx2")]]. Every
// lane performs the scalar loop's IEEE operations in the scalar loop's
// order. Neither target enables FMA, so no product is ever contracted into
// a sum; the AVX2 target string must never gain "fma".
//
// Dense and Adam run their SSE2 kernels on every host: AVX2 forms of
// Dense::forward and of the Adam update measured slower, and one of the fc
// backward saved well under 1% of a training step.
#pragma once

#include "common/types.hpp"
#include "encoder/layers.hpp"

namespace mlr::encoder::kernels {

enum class Isa : int { kBaseline = 0, kAvx2 = 1 };

/// Whether this host can run `isa`'s kernels: baseline always, AVX2 when
/// __builtin_cpu_supports("avx2") says so.
[[nodiscard]] bool supported(Isa isa);

/// The ISA the layers run: AVX2 exactly when supported(Isa::kAvx2), fixed at
/// the first call. Each call raises the `encoder.kernel_isa` gauge to it
/// (0 baseline, 1 AVX2), so a metrics snapshot names the kernels its wall
/// numbers came from, even after a registry reset.
[[nodiscard]] Isa dispatched();

[[nodiscard]] const char* name(Isa isa);

/// Conv2D::forward_channels at `isa`.
void conv_forward(Isa isa, const Conv2D& conv, const FeatureMap& in, i64 oc0,
                  i64 oc1, FeatureMap& out);
/// Conv2D::accumulate_weight_grads at `isa`.
void conv_weight_grads(Isa isa, Conv2D& conv, const FeatureMap& in,
                       const FeatureMap& dout, i64 oc0, i64 oc1);
/// Conv2D::input_grad at `isa`.
void conv_input_grad(Isa isa, const Conv2D& conv, const FeatureMap& dout,
                     FeatureMap& din);

}  // namespace mlr::encoder::kernels
