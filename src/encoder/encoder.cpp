#include "encoder/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace mlr::encoder {

std::vector<cfloat> average_slab(std::span<const cfloat> slab, i64 count,
                                 i64 rows, i64 cols) {
  MLR_CHECK(i64(slab.size()) == count * rows * cols && count >= 1);
  std::vector<cfloat> out(size_t(rows * cols), cfloat{});
  for (i64 s = 0; s < count; ++s)
    for (i64 i = 0; i < rows * cols; ++i)
      out[size_t(i)] += slab[size_t(s * rows * cols + i)];
  const float inv = 1.0f / float(count);
  for (auto& x : out) x *= inv;
  return out;
}

double chunk_l2(std::span<const cfloat> a, std::span<const cfloat> b) {
  MLR_CHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto d = a[i] - b[i];
    s += double(d.real()) * d.real() + double(d.imag()) * d.imag();
  }
  return std::sqrt(s);
}

CnnEncoder::CnnEncoder(EncoderConfig cfg, u64 seed)
    : cfg_(cfg),
      rng_(seed),
      conv1_(2, 32, 5, 2, rng_),
      conv2_(32, 64, 3, 1, rng_),
      fc_(64 * (cfg.input_hw / 8) * (cfg.input_hw / 8), cfg.embed_dim, rng_),
      opt_w1_(conv1_.w.size(), cfg.lr),
      opt_b1_(conv1_.b.size(), cfg.lr),
      opt_w2_(conv2_.w.size(), cfg.lr),
      opt_b2_(conv2_.b.size(), cfg.lr),
      opt_wf_(fc_.w.size(), cfg.lr),
      opt_bf_(fc_.b.size(), cfg.lr) {
  MLR_CHECK_MSG(cfg.input_hw % 8 == 0, "input_hw must be divisible by 8");
}

FeatureMap CnnEncoder::preprocess(const ChunkImage& chunk) const {
  MLR_CHECK(i64(chunk.data.size()) == chunk.rows * chunk.cols);
  const i64 hw = cfg_.input_hw;
  FeatureMap fm(2, hw, hw);
  // COMPLEX64 → (real, imag) channels with block-average resampling: every
  // source pixel lands in exactly one target cell, preserving total signal.
  std::vector<float> cnt(size_t(hw * hw), 0.0f);
  for (i64 y = 0; y < chunk.rows; ++y) {
    const i64 ty = std::min(hw - 1, y * hw / chunk.rows);
    for (i64 x = 0; x < chunk.cols; ++x) {
      const i64 tx = std::min(hw - 1, x * hw / chunk.cols);
      const cfloat v = chunk.data[size_t(y * chunk.cols + x)];
      fm.at(0, ty, tx) += v.real();
      fm.at(1, ty, tx) += v.imag();
      cnt[size_t(ty * hw + tx)] += 1.0f;
    }
  }
  for (i64 y = 0; y < hw; ++y)
    for (i64 x = 0; x < hw; ++x) {
      const float c = std::max(1.0f, cnt[size_t(y * hw + x)]);
      fm.at(0, y, x) /= c;
      fm.at(1, y, x) /= c;
    }
  return fm;
}

std::vector<float> CnnEncoder::forward(const FeatureMap& in,
                                       bool use_int8) const {
  const bool q = use_int8 && int8_.has_value();
  FeatureMap a = (q ? int8_->conv1 : conv1_).forward(in);
  relu_forward(a.v);
  FeatureMap p1 = avgpool2(a);
  FeatureMap b = (q ? int8_->conv2 : conv2_).forward(p1);
  relu_forward(b.v);
  FeatureMap p2 = avgpool2(b);
  return (q ? int8_->fc : fc_).forward(p2.v);
}

std::vector<float> CnnEncoder::encode(const ChunkImage& chunk) const {
  return forward(preprocess(chunk), /*use_int8=*/false);
}

std::vector<float> CnnEncoder::encode_quantized(const ChunkImage& chunk) const {
  return forward(preprocess(chunk), /*use_int8=*/true);
}

struct CnnEncoder::Trace {
  FeatureMap in, a, p1, b, p2;
  std::vector<float> z;
};

std::vector<float> CnnEncoder::forward_train(const FeatureMap& in,
                                             Trace& t) const {
  t.in = in;
  t.a = conv1_.forward(in);
  relu_forward(t.a.v);
  t.p1 = avgpool2(t.a);
  t.b = conv2_.forward(t.p1);
  relu_forward(t.b.v);
  t.p2 = avgpool2(t.b);
  t.z = fc_.forward(t.p2.v);
  return t.z;
}

void CnnEncoder::backward_from_embedding(const Trace& t,
                                         std::vector<float> dz) {
  auto dflat = fc_.backward(t.p2.v, dz);
  FeatureMap dp2(t.p2.c, t.p2.h, t.p2.w);
  dp2.v = std::move(dflat);
  FeatureMap db = avgpool2_backward(t.b, dp2);
  relu_backward(t.b.v, db.v);
  FeatureMap dp1 = conv2_.backward(t.p1, db);
  FeatureMap da = avgpool2_backward(t.a, dp1);
  relu_backward(t.a.v, da.v);
  conv1_.accumulate_grads(t.in, da);
}

double CnnEncoder::train_pair(const ChunkImage& a, const ChunkImage& b) {
  MLR_CHECK_MSG(!quantized(), "encoder already frozen to INT8");
  Trace ta, tb;
  forward_train(preprocess(a), ta);
  forward_train(preprocess(b), tb);
  const i64 d = cfg_.embed_dim;
  std::vector<float> diff(static_cast<size_t>(d));
  double zdist2 = 0;
  for (i64 i = 0; i < d; ++i) {
    diff[size_t(i)] = ta.z[size_t(i)] - tb.z[size_t(i)];
    zdist2 += double(diff[size_t(i)]) * diff[size_t(i)];
  }
  const double zdist = std::sqrt(zdist2) + 1e-12;
  const double gt = chunk_l2(a.data, b.data);
  const double loss = std::abs(zdist - gt);
  const double sign = (zdist - gt) >= 0 ? 1.0 : -1.0;
  // dL/dza = sign · (za − zb)/‖za − zb‖, dL/dzb = −dL/dza.
  std::vector<float> dza(static_cast<size_t>(d)), dzb(static_cast<size_t>(d));
  for (i64 i = 0; i < d; ++i) {
    dza[size_t(i)] = float(sign * diff[size_t(i)] / zdist);
    dzb[size_t(i)] = -dza[size_t(i)];
  }
  backward_from_embedding(ta, std::move(dza));
  backward_from_embedding(tb, std::move(dzb));
  opt_w1_.step(conv1_.w, conv1_.gw);
  opt_b1_.step(conv1_.b, conv1_.gb);
  opt_w2_.step(conv2_.w, conv2_.gw);
  opt_b2_.step(conv2_.b, conv2_.gb);
  opt_wf_.step(fc_.w, fc_.gw);
  opt_bf_.step(fc_.b, fc_.gb);
  return loss;
}

double CnnEncoder::train(const std::vector<std::vector<cfloat>>& samples,
                         i64 rows, i64 cols, int steps, u64 seed) {
  MLR_CHECK(samples.size() >= 2);
  Rng rng(seed);
  double tail_loss = 0;
  int tail_n = 0;
  for (int s = 0; s < steps; ++s) {
    const auto i = size_t(rng.uniform_int(0, i64(samples.size()) - 1));
    auto j = size_t(rng.uniform_int(0, i64(samples.size()) - 2));
    if (j >= i) ++j;
    const double loss =
        train_pair({rows, cols, samples[i]}, {rows, cols, samples[j]});
    if (s >= steps * 3 / 4) {
      tail_loss += loss;
      ++tail_n;
    }
  }
  return tail_n ? tail_loss / tail_n : 0.0;
}

namespace {
// Per-tensor symmetric INT8: w ← round(w/scale) clamped to ±127, times scale.
// The INT8 values are dequantized here, once, and the inference kernels run
// the float path's kernels on them: float weights, double accumulators. An
// integer kernel (int32 sums of int8 products) would round differently and
// change the keys.
void quantize_tensor(std::vector<float>& w) {
  float mx = 1e-12f;
  for (float x : w) mx = std::max(mx, std::abs(x));
  const float scale = mx / 127.0f;
  for (float& x : w) {
    const float r = std::round(x / scale);
    x = float(std::int8_t(std::clamp(r, -127.0f, 127.0f))) * scale;
  }
}

template <class Layer>
Layer int8_layer(const Layer& trained) {
  Layer l = trained;
  quantize_tensor(l.w);
  std::vector<float>().swap(l.gw);
  std::vector<float>().swap(l.gb);
  return l;
}
}  // namespace

void CnnEncoder::quantize() {
  int8_ = Int8Layers{int8_layer(conv1_), int8_layer(conv2_), int8_layer(fc_)};
}

double CnnEncoder::encode_flops() const {
  const i64 hw = cfg_.input_hw;
  const i64 h1 = hw / 2;  // conv1 stride 2
  const i64 h2 = hw / 4;  // after pool
  const double f1 = double(h1 * h1) * 32.0 * (2.0 * 25.0 * 2.0);
  const double f2 = double(h2 * h2) * 64.0 * (32.0 * 9.0 * 2.0);
  const double ff = double(fc_.in_dim()) * double(fc_.out_dim()) * 2.0;
  return f1 + f2 + ff;
}

// --- EncoderRegistry ---------------------------------------------------------

bool EncoderRegistry::add_sample(std::vector<cfloat> plane, i64 rows,
                                 i64 cols) {
  if (samples_.size() >= cap_) return false;
  samples_.push_back({std::move(plane), rows, cols});
  return true;
}

double EncoderRegistry::train_from_collected(int steps) {
  if (samples_.size() < 2) return 0.0;
  Rng rng(97);
  double tail = 0;
  int tail_n = 0;
  for (int s = 0; s < steps; ++s) {
    const auto i = size_t(rng.uniform_int(0, i64(samples_.size()) - 1));
    auto j = size_t(rng.uniform_int(0, i64(samples_.size()) - 2));
    if (j >= i) ++j;
    // Pairs must share a shape for the chunk-L2 ground truth; skip others.
    if (samples_[i].rows != samples_[j].rows ||
        samples_[i].cols != samples_[j].cols)
      continue;
    const double loss = enc_.train_pair(
        {samples_[i].rows, samples_[i].cols, samples_[i].plane},
        {samples_[j].rows, samples_[j].cols, samples_[j].plane});
    if (s >= steps * 3 / 4) {
      tail += loss;
      ++tail_n;
    }
  }
  enc_.quantize();
  return tail_n ? tail / tail_n : 0.0;
}

}  // namespace mlr::encoder
