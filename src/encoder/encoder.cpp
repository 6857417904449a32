#include "encoder/encoder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "obs/metrics.hpp"

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

namespace {

/// One image's activations, and in a training step its gradients.
struct Trace {
  FeatureMap in, a, p1, b, p2;  ///< input; conv1, pool, conv2, pool outputs
  std::vector<float> z;
  FeatureMap db, dp1, da;  ///< dL/db, dL/dp1, dL/da
};

/// Output channels one forward task computes: one conv kernel block.
constexpr i64 kBlock = 8;
/// Elements per Adam task.
constexpr std::size_t kAdamTile = 8192;

// conv1, then conv2, each with ReLU and 2×2 pooling, for every image of `t`
// (its `in` set): one pool round per layer, one task per (image, block of
// output channels). ReLU and the pool act per channel, so every map holds
// the bits of the whole-layer forward.
void conv_forward(std::span<Trace> t, const Conv2D& conv1, const Conv2D& conv2,
                  ThreadPool& pool) {
  for (auto& x : t) {
    x.a = FeatureMap(conv1.out_ch(), conv1.out_h(x.in.h), conv1.out_w(x.in.w));
    x.p1 = FeatureMap(x.a.c, x.a.h / 2, x.a.w / 2);
    x.b = FeatureMap(conv2.out_ch(), conv2.out_h(x.p1.h), conv2.out_w(x.p1.w));
    x.p2 = FeatureMap(x.b.c, x.b.h / 2, x.b.w / 2);
  }
  const auto conv_relu_pool = [&](const Conv2D& conv, FeatureMap Trace::*in,
                                  FeatureMap Trace::*out,
                                  FeatureMap Trace::*pooled) {
    const i64 blocks = (conv.out_ch() + kBlock - 1) / kBlock;
    parallel_for(pool, 0, i64(t.size()) * blocks, [&](i64 task) {
      Trace& x = t[size_t(task / blocks)];
      const i64 c0 = task % blocks * kBlock;
      const i64 c1 = std::min(conv.out_ch(), c0 + kBlock);
      conv.forward_channels(x.*in, c0, c1, x.*out);
      relu_forward((x.*out).channels(c0, c1));
      avgpool2_channels(x.*out, c0, c1, x.*pooled);
    });
  };
  conv_relu_pool(conv1, &Trace::in, &Trace::a, &Trace::p1);
  conv_relu_pool(conv2, &Trace::p1, &Trace::b, &Trace::p2);
}

/// Part r of [0, n) split into `parts` near-equal ranges.
std::pair<i64, i64> part(i64 n, i64 parts, i64 r) {
  return {n * r / parts, n * (r + 1) / parts};
}

struct AdamTile {
  Adam* opt;
  std::vector<float>* param;
  std::vector<float>* grad;
  std::size_t lo, hi;
};

}  // namespace

std::vector<std::vector<float>> CnnEncoder::encode_batch(
    std::span<const ChunkImage> chunks, ThreadPool& pool) const {
  const bool q = int8_.has_value();
  std::vector<Trace> t(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) t[i].in = preprocess(chunks[i]);
  conv_forward(t, q ? int8_->conv1 : conv1_, q ? int8_->conv2 : conv2_, pool);
  const Dense& fc = q ? int8_->fc : fc_;
  std::vector<std::vector<float>> keys(chunks.size());
  parallel_for(pool, 0, i64(t.size()),
               [&](i64 i) { keys[size_t(i)] = fc.forward(t[size_t(i)].p2.v); });
  return keys;
}

// The serial step — forward a, forward b, backward a, backward b, Adam —
// split into four pool rounds and a short serial middle. Every task owns
// the outputs it writes, and every accumulator still takes its terms in
// the serial order:
//   1, 2  conv_forward: conv1, then conv2, with ReLU and pooling
//   —     fc forward, loss, fc backward (a's terms, then b's), and the way
//         back through pool 2 and ReLU, on the calling thread
//   3     conv2: each image's dL/dp1 is a task, and each output-channel
//         range adds a's weight-gradient terms, then b's
//   4     conv1 the same way (nobody reads its dL/din), each range then
//         Adam-updating its own channels; conv2's and fc's Adam tiles share
//         the round, their gradients being complete
double CnnEncoder::train_pair(const ChunkImage& a, const ChunkImage& b,
                              ThreadPool& pool) {
  MLR_CHECK_MSG(!quantized(), "encoder already frozen to INT8");
  std::array<Trace, 2> t;
  t[0].in = preprocess(a);
  t[1].in = preprocess(b);
  conv_forward(t, conv1_, conv2_, pool);

  for (auto& x : t) x.z = fc_.forward(x.p2.v);
  const i64 d = cfg_.embed_dim;
  std::vector<float> diff(static_cast<size_t>(d));
  double zdist2 = 0;
  for (i64 i = 0; i < d; ++i) {
    diff[size_t(i)] = t[0].z[size_t(i)] - t[1].z[size_t(i)];
    zdist2 += double(diff[size_t(i)]) * diff[size_t(i)];
  }
  const double zdist = std::sqrt(zdist2) + 1e-12;
  const double gt = chunk_l2(a.data, b.data);
  const double loss = std::abs(zdist - gt);
  const double sign = (zdist - gt) >= 0 ? 1.0 : -1.0;
  // dL/dza = sign · (za − zb)/‖za − zb‖, dL/dzb = −dL/dza.
  std::array<std::vector<float>, 2> dz;
  for (auto& g : dz) g.resize(static_cast<size_t>(d));
  for (i64 i = 0; i < d; ++i) {
    dz[0][size_t(i)] = float(sign * diff[size_t(i)] / zdist);
    dz[1][size_t(i)] = -dz[0][size_t(i)];
  }
  for (std::size_t i = 0; i < 2; ++i) {
    Trace& x = t[i];
    FeatureMap dp2(x.p2.c, x.p2.h, x.p2.w);
    dp2.v = fc_.backward(x.p2.v, dz[i]);
    x.db = avgpool2_backward(x.b, dp2);
    relu_backward(x.b.v, x.db.v);
    x.dp1 = FeatureMap(x.p1.c, x.p1.h, x.p1.w);
    x.da = FeatureMap(x.a.c, x.a.h, x.a.w);
  }

  // Twice as many ranges as workers keeps them busy when ranges differ in
  // cost (a ReLU zero skips its gradient's whole tap loop).
  const i64 parts = 2 * i64(pool.size());
  const i64 r2 = std::min(conv2_.out_ch(), parts);
  parallel_for(pool, 0, 2 + r2, [&](i64 task) {
    if (task < 2) {
      conv2_.input_grad(t[size_t(task)].db, t[size_t(task)].dp1);
      return;
    }
    const auto [c0, c1] = part(conv2_.out_ch(), r2, task - 2);
    for (const auto& x : t) conv2_.accumulate_weight_grads(x.p1, x.db, c0, c1);
  });

  for (Adam* opt : {&opt_w1_, &opt_b1_, &opt_w2_, &opt_b2_, &opt_wf_, &opt_bf_})
    opt->begin_step();
  std::vector<AdamTile> tiles;
  for (const AdamTile& whole :
       {AdamTile{&opt_w2_, &conv2_.w, &conv2_.gw, 0, conv2_.w.size()},
        AdamTile{&opt_b2_, &conv2_.b, &conv2_.gb, 0, conv2_.b.size()},
        AdamTile{&opt_wf_, &fc_.w, &fc_.gw, 0, fc_.w.size()},
        AdamTile{&opt_bf_, &fc_.b, &fc_.gb, 0, fc_.b.size()}})
    for (std::size_t lo = 0; lo < whole.hi; lo += kAdamTile)
      tiles.push_back({whole.opt, whole.param, whole.grad, lo,
                       std::min(whole.hi, lo + kAdamTile)});
  const i64 r1 = std::min(conv1_.out_ch(), parts);
  const auto filter1 = conv1_.w.size() / size_t(conv1_.out_ch());
  parallel_for(pool, 0, r1 + i64(tiles.size()), [&](i64 task) {
    if (task >= r1) {
      const AdamTile& tl = tiles[size_t(task - r1)];
      tl.opt->update(*tl.param, *tl.grad, tl.lo, tl.hi);
      return;
    }
    const auto [c0, c1] = part(conv1_.out_ch(), r1, task);
    for (auto& x : t) {
      avgpool2_backward_channels(x.dp1, c0, c1, x.da);
      relu_backward(x.a.channels(c0, c1), x.da.channels(c0, c1));
      conv1_.accumulate_weight_grads(x.in, x.da, c0, c1);
    }
    opt_w1_.update(conv1_.w, conv1_.gw, size_t(c0) * filter1,
                   size_t(c1) * filter1);
    opt_b1_.update(conv1_.b, conv1_.gb, size_t(c0), size_t(c1));
  });
  return loss;
}

double CnnEncoder::train(const std::vector<std::vector<cfloat>>& samples,
                         i64 rows, i64 cols, int steps, u64 seed,
                         ThreadPool& pool) {
  MLR_CHECK(samples.size() >= 2);
  Rng rng(seed);
  double tail_loss = 0;
  int tail_n = 0;
  for (int s = 0; s < steps; ++s) {
    const auto i = size_t(rng.uniform_int(0, i64(samples.size()) - 1));
    auto j = size_t(rng.uniform_int(0, i64(samples.size()) - 2));
    if (j >= i) ++j;
    const double loss =
        train_pair({rows, cols, samples[i]}, {rows, cols, samples[j]}, pool);
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
  const auto finite = [](cfloat v) {
    return std::isfinite(v.real()) && std::isfinite(v.imag());
  };
  if (!std::all_of(plane.begin(), plane.end(), finite)) {
    static auto& dropped = obs::metrics().counter("encoder.nonfinite_samples");
    dropped.add();
    return true;
  }
  samples_.push_back({std::move(plane), rows, cols});
  return true;
}

double EncoderRegistry::train_from_collected(int steps, ThreadPool& pool) {
  steps_trained_ = 0;
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
        {samples_[j].rows, samples_[j].cols, samples_[j].plane}, pool);
    ++steps_trained_;
    if (s >= steps * 3 / 4) {
      tail += loss;
      ++tail_n;
    }
  }
  enc_.quantize();
  return tail_n ? tail / tail_n : 0.0;
}

}  // namespace mlr::encoder
