#include "encoder/layers.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/scratch.hpp"

namespace mlr::encoder {

Conv2D::Conv2D(i64 in_ch, i64 out_ch, i64 ksize, i64 stride, Rng& rng)
    : in_ch_(in_ch), out_ch_(out_ch), k_(ksize), stride_(stride),
      pad_(ksize / 2) {
  MLR_CHECK(in_ch >= 1 && out_ch >= 1 && ksize >= 1 && stride >= 1);
  const auto n = size_t(out_ch * in_ch * ksize * ksize);
  w.resize(n);
  gw.assign(n, 0.0f);
  b.assign(size_t(out_ch), 0.0f);
  gb.assign(size_t(out_ch), 0.0f);
  const double he = std::sqrt(2.0 / double(in_ch * ksize * ksize));
  for (auto& x : w) x = float(rng.normal(0.0, he));
}

namespace {

// Two doubles, one SSE2 register on x86-64. Element-wise + and × on it are
// the scalar IEEE operations lane by lane, so a kernel written with it
// rounds exactly as the scalar loop it replaces.
using f64x2 = double __attribute__((vector_size(16)));

/// Register pairs (2 output channels each) one forward block accumulates.
constexpr i64 kPairs = 4;

// Kernel buffers (relaid weights, channels-last copies). One arena per
// element type serves every layer: a thread runs one layer kernel at a time,
// so its buffer is reused across layers and calls and the steady state never
// touches the heap. Threads never share a buffer, so concurrent encodes and
// training tasks on pool workers need no lock.
const PerThreadScratch<f64x2> forward_scratch;
const PerThreadScratch<float> backward_scratch;

}  // namespace

// Every output sums b, then its taps in (ic, ky, kx) order with out-of-range
// taps skipped: the direct convolution's order. The kernel runs it for
// 2·kPairs output channels of one pixel side by side, their double
// accumulators held in registers across the whole tap loop, instead of one
// serial add chain per output. A float×float product is exact in double, so
// only the order of the additions sets the result, and it is the direct
// loop's, bit for bit, whichever channels share a block.
FeatureMap Conv2D::forward(const FeatureMap& in) const {
  FeatureMap out(out_ch_, out_h(in.h), out_w(in.w));
  forward_channels(in, 0, out_ch_, out);
  return out;
}

void Conv2D::forward_channels(const FeatureMap& in, i64 oc0, i64 oc1,
                              FeatureMap& out) const {
  MLR_CHECK(in.c == in_ch_ && 0 <= oc0 && oc0 <= oc1 && oc1 <= out_ch_);
  MLR_CHECK(out.c == out_ch_ && out.h == out_h(in.h) && out.w == out_w(in.w));
  const i64 taps = in_ch_ * k_ * k_;
  const i64 lanes = 2 * kPairs;
  const i64 blocks = (oc1 - oc0 + lanes - 1) / lanes;
  // w of [oc0, oc1) as [block][ic][ky][kx][pair], widened; lanes past oc1
  // hold 0.
  const auto wt = forward_scratch.buffer(size_t(blocks * taps * kPairs));
  for (i64 l = 0; l < blocks * lanes; ++l)
    for (i64 t = 0; t < taps; ++t)
      wt[size_t(((l / lanes) * taps + t) * kPairs + l % lanes / 2)][l % 2] =
          oc0 + l < oc1 ? w[size_t((oc0 + l) * taps + t)] : 0.0f;
  const auto bias = [&](i64 oc) {
    return oc < oc1 ? double(b[size_t(oc)]) : 0.0;
  };
  for (i64 blk = 0; blk < blocks; ++blk) {
    const f64x2* wb = wt.data() + blk * taps * kPairs;
    const i64 ocb = oc0 + blk * lanes;
    for (i64 oy = 0; oy < out.h; ++oy) {
      const i64 iy0 = oy * stride_ - pad_;
      const i64 ky0 = std::max<i64>(0, -iy0);
      const i64 ky1 = std::min(k_, in.h - iy0);
      for (i64 ox = 0; ox < out.w; ++ox) {
        const i64 ix0 = ox * stride_ - pad_;
        const i64 kx0 = std::max<i64>(0, -ix0);
        const i64 kx1 = std::min(k_, in.w - ix0);
        f64x2 acc[kPairs];
        for (i64 j = 0; j < kPairs; ++j)
          acc[j] = f64x2{bias(ocb + 2 * j), bias(ocb + 2 * j + 1)};
        for (i64 ic = 0; ic < in_ch_; ++ic)
          for (i64 ky = ky0; ky < ky1; ++ky) {
            const float* row = &in.v[size_t(
                (ic * in.h + iy0 + ky) * in.w + ix0 + kx0)];
            const f64x2* wr = wb + ((ic * k_ + ky) * k_ + kx0) * kPairs;
            for (i64 kx = 0; kx < kx1 - kx0; ++kx) {
              const double x = row[kx];
              const f64x2 xx = {x, x};
              for (i64 j = 0; j < kPairs; ++j) acc[j] += wr[kx * kPairs + j] * xx;
            }
          }
        for (i64 l = 0; l < lanes && ocb + l < oc1; ++l)
          out.at(ocb + l, oy, ox) = float(acc[l / 2][l % 2]);
      }
    }
  }
}

FeatureMap Conv2D::backward(const FeatureMap& in, const FeatureMap& dout) {
  accumulate_weight_grads(in, dout, 0, out_ch_);
  FeatureMap din(in.c, in.h, in.w);
  input_grad(dout, din);
  return din;
}

void Conv2D::accumulate_grads(const FeatureMap& in, const FeatureMap& dout) {
  accumulate_weight_grads(in, dout, 0, out_ch_);
}

namespace {

// The backward kernels run the direct loop nest — oc, then (oy, ox),
// skipping zero gradients, then the in-range taps — on channels-last copies
// of the input (or dL/din), weights (or gradient buffer). Each (ky) row of
// taps is then one contiguous (kx, ic) run, so the innermost loop
// vectorizes while every accumulator still receives its float products in
// the direct loop's order: gw and gb over (oy, ox) ascending, din over oc
// then (oy, ox) ascending.
struct ChannelsLast {
  i64 in_ch, k, in_h, in_w;
  /// Pixel (iy, ix) of an input as [iy][ix][ic].
  [[nodiscard]] i64 px(i64 iy, i64 ix) const { return (iy * in_w + ix) * in_ch; }
  /// Filter tap (ky, kx) of output channel oc as [oc][ky][kx][ic].
  [[nodiscard]] i64 tap(i64 oc, i64 ky, i64 kx) const {
    return ((oc * k + ky) * k + kx) * in_ch;
  }
};

// The direct loop over output channel oc's gradients: (oy, ox) ascending,
// zeros skipped. For each nonzero g it calls on_grad(g), then on_row(g, xo,
// fo, len) for each in-range tap row ky: `len` channels-last floats from
// input offset xo, and from filter offset fo relative to channel oc's filter.
template <class OnGrad, class OnRow>
void for_tap_rows(const FeatureMap& dout, i64 oc, const ChannelsLast& cl,
                  i64 stride, i64 pad, OnGrad&& on_grad, OnRow&& on_row) {
  for (i64 oy = 0; oy < dout.h; ++oy) {
    const i64 iy0 = oy * stride - pad;
    const i64 ky0 = std::max<i64>(0, -iy0);
    const i64 ky1 = std::min(cl.k, cl.in_h - iy0);
    for (i64 ox = 0; ox < dout.w; ++ox) {
      const float g = dout.at(oc, oy, ox);
      if (g == 0.0f) continue;
      on_grad(g);
      const i64 ix0 = ox * stride - pad;
      const i64 kx0 = std::max<i64>(0, -ix0);
      const i64 len = (std::min(cl.k, cl.in_w - ix0) - kx0) * cl.in_ch;
      for (i64 ky = ky0; ky < ky1; ++ky)
        on_row(g, cl.px(iy0 + ky, ix0 + kx0), cl.tap(0, ky, kx0), len);
    }
  }
}

}  // namespace

void Conv2D::accumulate_weight_grads(const FeatureMap& in,
                                     const FeatureMap& dout, i64 oc0,
                                     i64 oc1) {
  MLR_CHECK(in.c == in_ch_ && dout.c == out_ch_);
  MLR_CHECK(dout.h == out_h(in.h) && dout.w == out_w(in.w));
  MLR_CHECK(0 <= oc0 && oc0 <= oc1 && oc1 <= out_ch_);
  const ChannelsLast cl{in_ch_, k_, in.h, in.w};
  const i64 filter = k_ * k_ * in_ch_;
  const i64 plane = in.h * in.w * in_ch_;
  const auto buf = backward_scratch.buffer(size_t(plane + (oc1 - oc0) * filter));
  float* xt = buf.data();   // in, channels-last
  float* gwt = xt + plane;  // gw of channels [oc0, oc1), channels-last
  for (i64 ic = 0; ic < in_ch_; ++ic)
    for (i64 iy = 0; iy < in.h; ++iy)
      for (i64 ix = 0; ix < in.w; ++ix) xt[cl.px(iy, ix) + ic] = in.at(ic, iy, ix);
  // f(gw element, its channels-last slot) over channels [oc0, oc1).
  const auto each_weight = [&](auto&& f) {
    for (i64 oc = oc0, wi = oc0 * filter; oc < oc1; ++oc)
      for (i64 ic = 0; ic < in_ch_; ++ic)
        for (i64 ky = 0; ky < k_; ++ky)
          for (i64 kx = 0; kx < k_; ++kx, ++wi)
            f(gw[size_t(wi)], gwt[cl.tap(oc - oc0, ky, kx) + ic]);
  };
  each_weight([](float g, float& t) { t = g; });
  for (i64 oc = oc0; oc < oc1; ++oc) {
    // One store per channel: tasks on neighbouring ranges share gb's cache
    // lines, so a sum kept in memory would bounce them between cores.
    float bsum = gb[size_t(oc)];
    float* gf = gwt + cl.tap(oc - oc0, 0, 0);
    for_tap_rows(
        dout, oc, cl, stride_, pad_, [&](float g) { bsum += g; },
        [&](float g, i64 xo, i64 fo, i64 len) {
          float* gr = gf + fo;
          const float* xr = xt + xo;
          for (i64 j = 0; j < len; ++j) gr[j] += g * xr[j];
        });
    gb[size_t(oc)] = bsum;
  }
  each_weight([](float& g, float t) { g = t; });
}

void Conv2D::input_grad(const FeatureMap& dout, FeatureMap& din) const {
  MLR_CHECK(din.c == in_ch_ && dout.c == out_ch_);
  MLR_CHECK(dout.h == out_h(din.h) && dout.w == out_w(din.w));
  const ChannelsLast cl{in_ch_, k_, din.h, din.w};
  const i64 filters = out_ch_ * k_ * k_ * in_ch_;
  const i64 plane = din.h * din.w * in_ch_;
  const auto buf = backward_scratch.buffer(size_t(filters + plane));
  float* wt = buf.data();      // w, channels-last
  float* dint = wt + filters;  // din, channels-last
  for (i64 oc = 0, wi = 0; oc < out_ch_; ++oc)
    for (i64 ic = 0; ic < in_ch_; ++ic)
      for (i64 ky = 0; ky < k_; ++ky)
        for (i64 kx = 0; kx < k_; ++kx, ++wi)
          wt[cl.tap(oc, ky, kx) + ic] = w[size_t(wi)];
  std::fill_n(dint, plane, 0.0f);
  for (i64 oc = 0; oc < out_ch_; ++oc) {
    const float* wf = wt + cl.tap(oc, 0, 0);
    for_tap_rows(
        dout, oc, cl, stride_, pad_, [](float) {},
        [&](float g, i64 xo, i64 fo, i64 len) {
          float* dr = dint + xo;
          const float* wr = wf + fo;
          for (i64 j = 0; j < len; ++j) dr[j] += g * wr[j];
        });
  }
  for (i64 ic = 0; ic < in_ch_; ++ic)
    for (i64 iy = 0; iy < din.h; ++iy)
      for (i64 ix = 0; ix < din.w; ++ix) din.at(ic, iy, ix) = dint[cl.px(iy, ix) + ic];
}

Dense::Dense(i64 in_dim, i64 out_dim, Rng& rng) : in_(in_dim), out_(out_dim) {
  MLR_CHECK(in_dim >= 1 && out_dim >= 1);
  w.resize(size_t(in_ * out_));
  gw.assign(w.size(), 0.0f);
  b.assign(size_t(out_), 0.0f);
  gb.assign(size_t(out_), 0.0f);
  const double xavier = std::sqrt(1.0 / double(in_));
  for (auto& x : w) x = float(rng.normal(0.0, xavier));
}

// kRows outputs accumulate side by side, each in the direct order (b, then
// i ascending): independent add chains instead of one latency-bound chain.
// A short last block recomputes its final row in the spare lanes.
std::vector<float> Dense::forward(const std::vector<float>& in) const {
  MLR_CHECK(i64(in.size()) == in_);
  std::vector<float> out(static_cast<size_t>(out_));
  constexpr i64 kRows = 8;
  for (i64 o0 = 0; o0 < out_; o0 += kRows) {
    const float* rows[kRows];
    double acc[kRows];
    for (i64 r = 0; r < kRows; ++r) {
      const i64 o = std::min(o0 + r, out_ - 1);
      rows[r] = w.data() + o * in_;
      acc[r] = b[size_t(o)];
    }
    for (i64 i = 0; i < in_; ++i) {
      const double x = in[size_t(i)];
      for (i64 r = 0; r < kRows; ++r) acc[r] += double(rows[r][i]) * x;
    }
    for (i64 r = 0; r < kRows && o0 + r < out_; ++r)
      out[size_t(o0 + r)] = float(acc[r]);
  }
  return out;
}

std::vector<float> Dense::backward(const std::vector<float>& in,
                                   const std::vector<float>& dout) {
  MLR_CHECK(i64(in.size()) == in_ && i64(dout.size()) == out_);
  std::vector<float> din(static_cast<size_t>(in_), 0.0f);
  for (i64 o = 0; o < out_; ++o) {
    const float g = dout[size_t(o)];
    gb[size_t(o)] += g;
    float* grow = gw.data() + size_t(o * in_);
    const float* row = w.data() + size_t(o * in_);
    for (i64 i = 0; i < in_; ++i) {
      grow[i] += g * in[size_t(i)];
      din[size_t(i)] += g * row[i];
    }
  }
  return din;
}

void relu_forward(std::span<float> v) {
  for (auto& x : v)
    if (x < 0) x = 0;
}

void relu_backward(std::span<const float> out, std::span<float> grad) {
  MLR_CHECK(out.size() == grad.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] <= 0.0f) grad[i] = 0.0f;
}

FeatureMap avgpool2(const FeatureMap& in) {
  FeatureMap out(in.c, in.h / 2, in.w / 2);
  avgpool2_channels(in, 0, in.c, out);
  return out;
}

void avgpool2_channels(const FeatureMap& in, i64 c0, i64 c1, FeatureMap& out) {
  MLR_CHECK(out.c == in.c && out.h == in.h / 2 && out.w == in.w / 2);
  MLR_CHECK(0 <= c0 && c0 <= c1 && c1 <= in.c);
  for (i64 c = c0; c < c1; ++c)
    for (i64 y = 0; y < out.h; ++y)
      for (i64 x = 0; x < out.w; ++x)
        out.at(c, y, x) = 0.25f * (in.at(c, 2 * y, 2 * x) +
                                   in.at(c, 2 * y + 1, 2 * x) +
                                   in.at(c, 2 * y, 2 * x + 1) +
                                   in.at(c, 2 * y + 1, 2 * x + 1));
}

FeatureMap avgpool2_backward(const FeatureMap& in_shape_ref,
                             const FeatureMap& dout) {
  FeatureMap din(in_shape_ref.c, in_shape_ref.h, in_shape_ref.w);
  avgpool2_backward_channels(dout, 0, dout.c, din);
  return din;
}

void avgpool2_backward_channels(const FeatureMap& dout, i64 c0, i64 c1,
                                FeatureMap& din) {
  MLR_CHECK(din.c == dout.c && din.h / 2 == dout.h && din.w / 2 == dout.w);
  MLR_CHECK(0 <= c0 && c0 <= c1 && c1 <= dout.c);
  const auto d = din.channels(c0, c1);
  std::fill(d.begin(), d.end(), 0.0f);
  for (i64 c = c0; c < c1; ++c)
    for (i64 y = 0; y < dout.h; ++y)
      for (i64 x = 0; x < dout.w; ++x) {
        const float g = 0.25f * dout.at(c, y, x);
        din.at(c, 2 * y, 2 * x) += g;
        din.at(c, 2 * y + 1, 2 * x) += g;
        din.at(c, 2 * y, 2 * x + 1) += g;
        din.at(c, 2 * y + 1, 2 * x + 1) += g;
      }
}

namespace {

constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

// Two floats, the low half of an SSE register (memcpy: no aliasing cast).
__m128 load2(const float* p) {
  double d = 0;
  std::memcpy(&d, p, sizeof d);
  return _mm_castpd_ps(_mm_set_sd(d));
}

void store2(float* p, __m128 v) {
  const double d = _mm_cvtsd_f64(_mm_castps_pd(v));
  std::memcpy(p, &d, sizeof d);
}

}  // namespace

void Adam::step(std::vector<float>& param, std::vector<float>& grad) {
  begin_step();
  update(param, grad, 0, param.size());
}

void Adam::begin_step() {
  ++t_;
  bc1_ = 1.0 - std::pow(kBeta1, double(t_));
  bc2_ = 1.0 - std::pow(kBeta2, double(t_));
}

// Per element, in this order (the scalar loop, which the odd tail runs):
//   m ← float(β1·m + (1−β1)·g)        v ← float(β2·v + ((1−β2)·g)·g)
//   p ← p − float(lr·(m/bc1) / (√(v/bc2) + ε))          g ← 0
// Products, sums, quotients and the square root are double, the moments and
// the parameter float. The two-lane path issues the same IEEE operations,
// packed: cvtps2pd/cvtpd2ps are the float↔double conversions, sqrtpd the
// correctly rounded root std::sqrt computes, subps the float subtraction,
// and baseline x86-64 has no FMA to contract a product into a sum.
void Adam::update(std::vector<float>& param, std::vector<float>& grad,
                  std::size_t lo, std::size_t hi) {
  MLR_CHECK(param.size() == m_.size() && grad.size() == m_.size());
  MLR_CHECK(t_ > 0 && lo <= hi && hi <= m_.size());
  const __m128d b1 = _mm_set1_pd(kBeta1), c1 = _mm_set1_pd(1.0 - kBeta1);
  const __m128d b2 = _mm_set1_pd(kBeta2), c2 = _mm_set1_pd(1.0 - kBeta2);
  const __m128d bc1 = _mm_set1_pd(bc1_), bc2 = _mm_set1_pd(bc2_);
  const __m128d lr = _mm_set1_pd(lr_), eps = _mm_set1_pd(kEps);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const __m128d g = _mm_cvtps_pd(load2(&grad[i]));
    const __m128 m = _mm_cvtpd_ps(_mm_add_pd(
        _mm_mul_pd(b1, _mm_cvtps_pd(load2(&m_[i]))), _mm_mul_pd(c1, g)));
    const __m128 v = _mm_cvtpd_ps(
        _mm_add_pd(_mm_mul_pd(b2, _mm_cvtps_pd(load2(&v_[i]))),
                   _mm_mul_pd(_mm_mul_pd(c2, g), g)));
    const __m128d mh = _mm_div_pd(_mm_cvtps_pd(m), bc1);
    const __m128d vh = _mm_div_pd(_mm_cvtps_pd(v), bc2);
    const __m128 u = _mm_cvtpd_ps(_mm_div_pd(
        _mm_mul_pd(lr, mh), _mm_add_pd(_mm_sqrt_pd(vh), eps)));
    store2(&m_[i], m);
    store2(&v_[i], v);
    store2(&param[i], _mm_sub_ps(load2(&param[i]), u));
    store2(&grad[i], _mm_setzero_ps());
  }
  for (; i < hi; ++i) {
    m_[i] = float(kBeta1 * m_[i] + (1.0 - kBeta1) * grad[i]);
    v_[i] = float(kBeta2 * v_[i] + (1.0 - kBeta2) * double(grad[i]) * grad[i]);
    const double mh = m_[i] / bc1_;
    const double vh = v_[i] / bc2_;
    param[i] -= float(lr_ * mh / (std::sqrt(vh) + kEps));
    grad[i] = 0.0f;  // consume the accumulator
  }
}

}  // namespace mlr::encoder
