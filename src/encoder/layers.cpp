#include "encoder/layers.hpp"

#include <algorithm>
#include <cmath>

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
// touches the heap. Threads never share a buffer, so concurrent encodes from
// pool workers need no lock.
const PerThreadScratch<f64x2> forward_scratch;
const PerThreadScratch<float> backward_scratch;

}  // namespace

// Every output sums b, then its taps in (ic, ky, kx) order with out-of-range
// taps skipped: the direct convolution's order. The kernel runs it for
// 2·kPairs output channels of one pixel side by side, their double
// accumulators held in registers across the whole tap loop, instead of one
// serial add chain per output. A float×float product is exact in double, so
// only the order of the additions sets the result, and it is the direct
// loop's, bit for bit.
FeatureMap Conv2D::forward(const FeatureMap& in) const {
  MLR_CHECK(in.c == in_ch_);
  FeatureMap out(out_ch_, out_h(in.h), out_w(in.w));
  const i64 taps = in_ch_ * k_ * k_;
  const i64 lanes = 2 * kPairs;
  const i64 blocks = (out_ch_ + lanes - 1) / lanes;
  // w as [oc block][ic][ky][kx][pair], widened; lanes past out_ch_ hold 0.
  const auto wt = forward_scratch.buffer(size_t(blocks * taps * kPairs));
  for (i64 oc = 0; oc < blocks * lanes; ++oc)
    for (i64 t = 0; t < taps; ++t)
      wt[size_t(((oc / lanes) * taps + t) * kPairs + oc % lanes / 2)]
        [oc % 2] = oc < out_ch_ ? w[size_t(oc * taps + t)] : 0.0f;
  const auto bias = [&](i64 oc) {
    return oc < out_ch_ ? double(b[size_t(oc)]) : 0.0;
  };
  for (i64 blk = 0; blk < blocks; ++blk) {
    const f64x2* wb = wt.data() + blk * taps * kPairs;
    const i64 oc0 = blk * lanes;
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
          acc[j] = f64x2{bias(oc0 + 2 * j), bias(oc0 + 2 * j + 1)};
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
        for (i64 l = 0; l < lanes && oc0 + l < out_ch_; ++l)
          out.at(oc0 + l, oy, ox) = float(acc[l / 2][l % 2]);
      }
    }
  }
  return out;
}

FeatureMap Conv2D::backward(const FeatureMap& in, const FeatureMap& dout) {
  FeatureMap din(in.c, in.h, in.w);
  backward_into(in, dout, &din);
  return din;
}

void Conv2D::accumulate_grads(const FeatureMap& in, const FeatureMap& dout) {
  backward_into(in, dout, nullptr);
}

// The direct loop nest — oc, then (oy, ox), skipping zero gradients, then the
// in-range taps — on channels-last copies of the input, weights, gradient
// buffer and dL/din. Each (ky) row of taps is then one contiguous
// (kx, ic) run, so the innermost loop vectorizes while every accumulator
// still receives its float products in the direct loop's order: gw and gb
// over (oy, ox) ascending, din over oc then (oy, ox) ascending.
void Conv2D::backward_into(const FeatureMap& in, const FeatureMap& dout,
                           FeatureMap* din) {
  MLR_CHECK(in.c == in_ch_ && dout.c == out_ch_);
  MLR_CHECK(dout.h == out_h(in.h) && dout.w == out_w(in.w));
  const i64 filter = k_ * k_ * in_ch_;
  const i64 plane = in.h * in.w * in_ch_;
  const i64 filters = out_ch_ * filter;
  const auto buf = backward_scratch.buffer(
      size_t(plane + filters + (din != nullptr ? filters + plane : 0)));
  float* xt = buf.data();      // in as [iy][ix][ic]
  float* gwt = xt + plane;     // gw as [oc][ky][kx][ic]
  float* wt = din != nullptr ? gwt + filters : nullptr;  // w, same layout
  float* dint = din != nullptr ? wt + filters : nullptr;  // din, like in
  const auto cl = [&](i64 ic, i64 iy, i64 ix) {
    return (iy * in.w + ix) * in_ch_ + ic;
  };
  const auto fl = [&](i64 oc, i64 ic, i64 ky, i64 kx) {
    return ((oc * k_ + ky) * k_ + kx) * in_ch_ + ic;
  };
  for (i64 ic = 0; ic < in_ch_; ++ic)
    for (i64 iy = 0; iy < in.h; ++iy)
      for (i64 ix = 0; ix < in.w; ++ix) xt[cl(ic, iy, ix)] = in.at(ic, iy, ix);
  for (i64 oc = 0, wi = 0; oc < out_ch_; ++oc)
    for (i64 ic = 0; ic < in_ch_; ++ic)
      for (i64 ky = 0; ky < k_; ++ky)
        for (i64 kx = 0; kx < k_; ++kx, ++wi) {
          gwt[fl(oc, ic, ky, kx)] = gw[size_t(wi)];
          if (wt != nullptr) wt[fl(oc, ic, ky, kx)] = w[size_t(wi)];
        }
  if (dint != nullptr) std::fill_n(dint, plane, 0.0f);

  for (i64 oc = 0; oc < out_ch_; ++oc) {
    for (i64 oy = 0; oy < dout.h; ++oy) {
      const i64 iy0 = oy * stride_ - pad_;
      const i64 ky0 = std::max<i64>(0, -iy0);
      const i64 ky1 = std::min(k_, in.h - iy0);
      for (i64 ox = 0; ox < dout.w; ++ox) {
        const float g = dout.at(oc, oy, ox);
        if (g == 0.0f) continue;
        gb[size_t(oc)] += g;
        const i64 ix0 = ox * stride_ - pad_;
        const i64 kx0 = std::max<i64>(0, -ix0);
        const i64 run = (std::min(k_, in.w - ix0) - kx0) * in_ch_;
        for (i64 ky = ky0; ky < ky1; ++ky) {
          const i64 xo = cl(0, iy0 + ky, ix0 + kx0);
          const i64 fo = fl(oc, 0, ky, kx0);
          float* gr = gwt + fo;
          const float* xr = xt + xo;
          for (i64 j = 0; j < run; ++j) gr[j] += g * xr[j];
          if (dint == nullptr) continue;
          float* dr = dint + xo;
          const float* wr = wt + fo;
          for (i64 j = 0; j < run; ++j) dr[j] += g * wr[j];
        }
      }
    }
  }

  for (i64 oc = 0, wi = 0; oc < out_ch_; ++oc)
    for (i64 ic = 0; ic < in_ch_; ++ic)
      for (i64 ky = 0; ky < k_; ++ky)
        for (i64 kx = 0; kx < k_; ++kx, ++wi) gw[size_t(wi)] = gwt[fl(oc, ic, ky, kx)];
  if (din != nullptr)
    for (i64 ic = 0; ic < in_ch_; ++ic)
      for (i64 iy = 0; iy < in.h; ++iy)
        for (i64 ix = 0; ix < in.w; ++ix) din->at(ic, iy, ix) = dint[cl(ic, iy, ix)];
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

void relu_forward(std::vector<float>& v) {
  for (auto& x : v)
    if (x < 0) x = 0;
}

void relu_backward(const std::vector<float>& out, std::vector<float>& grad) {
  MLR_CHECK(out.size() == grad.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] <= 0.0f) grad[i] = 0.0f;
}

FeatureMap avgpool2(const FeatureMap& in) {
  FeatureMap out(in.c, in.h / 2, in.w / 2);
  for (i64 c = 0; c < in.c; ++c)
    for (i64 y = 0; y < out.h; ++y)
      for (i64 x = 0; x < out.w; ++x)
        out.at(c, y, x) = 0.25f * (in.at(c, 2 * y, 2 * x) +
                                   in.at(c, 2 * y + 1, 2 * x) +
                                   in.at(c, 2 * y, 2 * x + 1) +
                                   in.at(c, 2 * y + 1, 2 * x + 1));
  return out;
}

FeatureMap avgpool2_backward(const FeatureMap& in_shape_ref,
                             const FeatureMap& dout) {
  FeatureMap din(in_shape_ref.c, in_shape_ref.h, in_shape_ref.w);
  for (i64 c = 0; c < dout.c; ++c)
    for (i64 y = 0; y < dout.h; ++y)
      for (i64 x = 0; x < dout.w; ++x) {
        const float g = 0.25f * dout.at(c, y, x);
        din.at(c, 2 * y, 2 * x) += g;
        din.at(c, 2 * y + 1, 2 * x) += g;
        din.at(c, 2 * y, 2 * x + 1) += g;
        din.at(c, 2 * y + 1, 2 * x + 1) += g;
      }
  return din;
}

void Adam::step(std::vector<float>& param, std::vector<float>& grad) {
  MLR_CHECK(param.size() == m_.size() && grad.size() == m_.size());
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  ++t_;
  const double bc1 = 1.0 - std::pow(b1, double(t_));
  const double bc2 = 1.0 - std::pow(b2, double(t_));
  for (std::size_t i = 0; i < param.size(); ++i) {
    m_[i] = float(b1 * m_[i] + (1.0 - b1) * grad[i]);
    v_[i] = float(b2 * v_[i] + (1.0 - b2) * double(grad[i]) * grad[i]);
    const double mh = m_[i] / bc1;
    const double vh = v_[i] / bc2;
    param[i] -= float(lr_ * mh / (std::sqrt(vh) + eps));
    grad[i] = 0.0f;  // consume the accumulator
  }
}

}  // namespace mlr::encoder
