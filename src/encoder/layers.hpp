// Minimal neural-network layers with explicit forward/backward passes —
// enough to build and train the paper's 3-layer CNN key encoder without an
// external AI framework (the paper itself notes PyTorch/TensorFlow cannot
// consume COMPLEX64 inputs, hence the real/imag decomposition done here).
#pragma once

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
};

/// 2-D convolution, 'same'-size semantics with stride, He-initialized.
class Conv2D {
 public:
  Conv2D(i64 in_ch, i64 out_ch, i64 ksize, i64 stride, Rng& rng);

  [[nodiscard]] FeatureMap forward(const FeatureMap& in) const;
  /// Backward: given dL/dout, accumulates dL/dw and dL/db into the gradient
  /// buffers and returns dL/din. `in` must be the forward input.
  FeatureMap backward(const FeatureMap& in, const FeatureMap& dout);
  /// backward() without dL/din, for a first layer whose input gradient
  /// nobody reads.
  void accumulate_grads(const FeatureMap& in, const FeatureMap& dout);

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

 private:
  void backward_into(const FeatureMap& in, const FeatureMap& dout,
                     FeatureMap* din);

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
void relu_forward(std::vector<float>& v);
void relu_backward(const std::vector<float>& out, std::vector<float>& grad);

/// 2×2 average pooling (floor semantics).
FeatureMap avgpool2(const FeatureMap& in);
FeatureMap avgpool2_backward(const FeatureMap& in_shape_ref,
                             const FeatureMap& dout);

/// Adam optimizer state for one parameter tensor.
class Adam {
 public:
  Adam(std::size_t n, double lr = 1e-3) : lr_(lr), m_(n, 0.0f), v_(n, 0.0f) {}
  void step(std::vector<float>& param, std::vector<float>& grad);

 private:
  double lr_;
  std::vector<float> m_, v_;
  i64 t_ = 0;
};

}  // namespace mlr::encoder
