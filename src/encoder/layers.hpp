// Minimal neural-network layers with explicit forward/backward passes —
// enough to build and train the paper's 3-layer CNN key encoder without an
// external AI framework (the paper itself notes PyTorch/TensorFlow cannot
// consume COMPLEX64 inputs, hence the real/imag decomposition done here).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace mlr::encoder {

/// A [C][H][W] feature map stored flat, row-major within channel.
struct FeatureMap {
  i64 c = 0, h = 0, w = 0;
  std::vector<float> v;

  FeatureMap() = default;
  FeatureMap(i64 c_, i64 h_, i64 w_)
      : c(c_), h(h_), w(w_), v(size_t(c_ * h_ * w_), 0.0f) {}
  float& at(i64 ci, i64 y, i64 x) { return v[size_t((ci * h + y) * w + x)]; }
  [[nodiscard]] float at(i64 ci, i64 y, i64 x) const {
    return v[size_t((ci * h + y) * w + x)];
  }
  [[nodiscard]] i64 size() const { return c * h * w; }
  /// Channels [c0, c1), whole: a contiguous run of the flat storage.
  std::span<float> channels(i64 c0, i64 c1) {
    return std::span(v).subspan(size_t(c0 * h * w), size_t((c1 - c0) * h * w));
  }
};

/// 2-D convolution, 'same'-size semantics with stride, He-initialized.
///
/// The training kernels come split by output channel and by image, so a
/// contrastive step can fan them out on a pool: forward_channels fills a
/// range of output channels, accumulate_weight_grads adds one image's terms
/// to a range of channels' gradients, input_grad computes one image's
/// dL/din. Every output and accumulator receives exactly the terms, in
/// exactly the order, of the whole-layer forward()/backward(), which are
/// compositions of them. Calls on disjoint channel ranges (and input_grad
/// on distinct outputs) may run concurrently.
///
/// The kernels run at AVX2 width when the host has it, at SSE2 otherwise,
/// with the same bits (encoder/layer_kernels.hpp): baseline x86-64 has no
/// FMA, and the AVX2 variant is compiled for a target without it too, so no
/// product is ever contracted into a sum. That target must never gain fma.
class Conv2D {
 public:
  /// Output channels the kernels handle side by side: a forward step holds
  /// a block of them in its registers, and conv1's AVX2 weight gradients
  /// one block per register. Channel ranges that start at a multiple of it
  /// cut no block.
  static constexpr i64 kBlock = 8;

  Conv2D(i64 in_ch, i64 out_ch, i64 ksize, i64 stride, Rng& rng);

  [[nodiscard]] FeatureMap forward(const FeatureMap& in) const;
  /// Output channels [oc0, oc1) of forward(in), written into `out`, which
  /// the caller shaped [out_ch][out_h][out_w]; other channels are untouched.
  void forward_channels(const FeatureMap& in, i64 oc0, i64 oc1,
                        FeatureMap& out) const;
  /// Backward: given dL/dout, accumulates dL/dw and dL/db into the gradient
  /// buffers and returns dL/din. `in` must be the forward input.
  FeatureMap backward(const FeatureMap& in, const FeatureMap& dout);
  /// What backward(in, dout) adds to dL/dw and dL/db of output channels
  /// [oc0, oc1). Each channel's bias sum is stored once, at the end.
  void accumulate_weight_grads(const FeatureMap& in, const FeatureMap& dout,
                               i64 oc0, i64 oc1);
  /// What backward(in, dout) returns, written into `din`, which the caller
  /// shaped like `in`. Reads the weights only.
  void input_grad(const FeatureMap& dout, FeatureMap& din) const;

  [[nodiscard]] i64 out_h(i64 in_h) const { return (in_h + stride_ - 1) / stride_; }
  [[nodiscard]] i64 out_w(i64 in_w) const { return (in_w + stride_ - 1) / stride_; }

  std::vector<float> w;   ///< [out_ch][in_ch][k][k]
  std::vector<float> b;   ///< [out_ch]
  std::vector<float> gw;  ///< gradient accumulators
  std::vector<float> gb;

  [[nodiscard]] i64 in_ch() const { return in_ch_; }
  [[nodiscard]] i64 out_ch() const { return out_ch_; }
  [[nodiscard]] i64 ksize() const { return k_; }
  [[nodiscard]] i64 stride() const { return stride_; }
  [[nodiscard]] i64 pad() const { return pad_; }

 private:
  i64 in_ch_, out_ch_, k_, stride_, pad_;
};

/// Fully connected layer.
class Dense {
 public:
  Dense(i64 in_dim, i64 out_dim, Rng& rng);

  [[nodiscard]] std::vector<float> forward(const std::vector<float>& in) const;
  std::vector<float> backward(const std::vector<float>& in,
                              const std::vector<float>& dout);

  std::vector<float> w;  ///< [out][in]
  std::vector<float> b;
  std::vector<float> gw, gb;

  [[nodiscard]] i64 in_dim() const { return in_; }
  [[nodiscard]] i64 out_dim() const { return out_; }

 private:
  i64 in_, out_;
};

/// In-place ReLU; backward masks by the forward output.
void relu_forward(std::span<float> v);
void relu_backward(std::span<const float> out, std::span<float> grad);

/// 2×2 average pooling (floor semantics). The _channels forms fill channels
/// [c0, c1) of an output the caller shaped, the rest untouched.
FeatureMap avgpool2(const FeatureMap& in);
void avgpool2_channels(const FeatureMap& in, i64 c0, i64 c1, FeatureMap& out);
FeatureMap avgpool2_backward(const FeatureMap& in_shape_ref,
                             const FeatureMap& dout);
void avgpool2_backward_channels(const FeatureMap& dout, i64 c0, i64 c1,
                                FeatureMap& din);

/// Adam optimizer state for one parameter tensor.
///
/// A step is begin_step() followed by update() over every element, in any
/// split: each element's update reads only its own parameter, gradient and
/// moments, so update() calls on disjoint ranges may run concurrently. The
/// update runs two elements per SSE2 register with the scalar loop's IEEE
/// operations in the scalar loop's order, so any split gives the bits of
/// one scalar pass.
class Adam {
 public:
  Adam(std::size_t n, double lr = 1e-3) : lr_(lr), m_(n, 0.0f), v_(n, 0.0f) {}
  /// begin_step(), then update() of every element.
  void step(std::vector<float>& param, std::vector<float>& grad);
  /// Advances the step count and its bias corrections.
  void begin_step();
  /// Updates elements [lo, hi) of `param` and consumes (zeroes) their
  /// gradient accumulators.
  void update(std::vector<float>& param, std::vector<float>& grad,
              std::size_t lo, std::size_t hi);

 private:
  double lr_;
  std::vector<float> m_, v_;
  i64 t_ = 0;
  double bc1_ = 0, bc2_ = 0;  ///< 1 − β^t of the current step
};

}  // namespace mlr::encoder
